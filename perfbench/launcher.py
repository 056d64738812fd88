"""Starts the benchmark's child processes from a small process.

Linux carries the pre-exec resident set of a forked (or vforked) child into
the `ru_maxrss` that `wait4` reports, so a child started straight from the
benchmark, which holds numpy, scipy and its references, would report at
least the benchmark's own size.  This process imports nothing heavy, so its
children report their own peak.

Protocol: one JSON request per stdin line, {"argv", "cwd", "env", "stdout",
"stderr"}; one JSON reply per stdout line, {"seconds", "cpu_s", "maxrss_kb",
"code"}, where cpu_s is the child's user plus system time.
Exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"],
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        sys.stdout.write(json.dumps({"seconds": seconds,
                                     "cpu_s": usage.ru_utime + usage.ru_stime,
                                     "maxrss_kb": usage.ru_maxrss,
                                     "code": proc.returncode}) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
