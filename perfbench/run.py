"""onedatom benchmark: seeded CLI workloads, verified outputs, end-to-end and
per-layer metrics.

    python3 perfbench/run.py --workload g2 --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/`.  Load is a closed loop with one client: each op is one
`python -m onedatom.cli ...` child started after the previous one exits, timed
with `time.perf_counter`, its peak RSS taken from `os.wait4`.  The workload's
op list runs round after round until `--seconds` have passed.

`--trace 1` runs the same op list in-process through `onedatom.cli.main`
under the tracer (see tracer.py) and reports per-layer metrics from its
spans, plus the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics (end-to-end with --trace 0, per-layer with --trace 1).  Everything
else, including the environment, goes to the lines above it and to
perfbench/_work/results/.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

NPROC = len(os.sched_getaffinity(0))
# BLAS threads are capped at the cores this process may use, for the children
# and for the in-process traced run alike; numpy reads these at import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
# Set-ups before each measured round.  Spread over the run, their median
# samples the machine's fast and slow stretches as the rounds do, not only
# the first seconds of the run.
SETUPS_PER_ROUND = 2
IMPORT_REPS = 3
WARMUP = ["g2", "--out", "warmup", "--grid.n", "257", "--tau.n", "101"]


def _fail(message: str) -> None:
    print(f"benchmark error: {message}", file=sys.stderr)
    sys.exit(2)


if not (SRC / "onedatom" / "cli.py").is_file():
    _fail(f"no onedatom sources under {SRC}; run from the root of a source checkout")
_spec = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in _spec["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in _spec["per_layer"]}
sys.path.insert(0, str(SRC))

import onedatom  # noqa: E402
import onedatom.cli  # noqa: E402
import tracer as T  # noqa: E402
from verify import Verifier  # noqa: E402
from workloads import BUILDERS  # noqa: E402

if Path(onedatom.__file__).resolve().parent != SRC / "onedatom":
    _fail(f"imported onedatom from {onedatom.__file__}, not from {SRC}")

CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))}


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    return repr(float(value)) if isinstance(value, float) else str(value)


def cli_args(op) -> list[str]:
    if not op.config:
        return list(op.argv)
    return op.argv + ["--config", f"cfg/{op.id}.cfg", "--out", f"out/{op.id}"]


class Launcher:
    """Runs CLI invocations through launcher.py, so that each child's
    `ru_maxrss` is its own peak and not this process's size."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launcher.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, args: list[str], cwd: Path):
        """One CLI invocation: (seconds, CPU seconds, peak RSS in MB, exit code,
        stdout, stderr)."""
        out_path, err_path = cwd / "child.stdout", cwd / "child.stderr"
        self.proc.stdin.write(json.dumps({
            "argv": [sys.executable, "-m", "onedatom.cli", *args], "cwd": str(cwd),
            "env": CHILD_ENV, "stdout": str(out_path), "stderr": str(err_path)}) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            _fail("launcher process died")
        reply = json.loads(reply)
        return (reply["seconds"], reply["cpu_s"], reply["maxrss_kb"] / 1024.0, reply["code"],
                out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def setup(workload, work: Path, launcher: Launcher) -> float:
    """Write the workload's configs and input files, then make one untimed
    warm-up invocation.  Returns the seconds it took."""
    started = time.perf_counter()
    if work.exists():
        shutil.rmtree(work)
    for sub in ("cfg", "inputs", "out"):
        (work / sub).mkdir(parents=True)
    for op in workload.ops:
        if op.config:
            (work / "cfg" / f"{op.id}.cfg").write_text(
                "".join(f"{k} = {_fmt(v)}\n" for k, v in op.config.items()))
    for path, writer in workload.inputs:
        writer(work / path)
    _, _, _, code, _, err = launcher.run(WARMUP, work)
    if code != 0:
        _fail(f"warm-up invocation exited {code}: {err.strip()[-500:]}")
    return time.perf_counter() - started


# ---------------------------------------------------------------------------
# rounds and passes
# ---------------------------------------------------------------------------

class Runner:
    """Runs the op list, measured in subprocess rounds or traced in
    in-process passes, verifies every op and keeps one record per op
    execution."""

    def __init__(self, workload, work: Path, launcher: Launcher):
        self.workload = workload
        self.work = work
        self.launcher = launcher
        self.verifier = Verifier()
        self.records: list[dict] = []

    def _record(self, op, pass_index, seconds, cpu_s, rss_mb, code, stdout, stderr):
        problems, info = [], {}
        if code != 0:
            problems.append(f"{op.id}: exit code {code}: {stderr.strip()[-300:]}")
        elif "Traceback" in stderr:
            problems.append(f"{op.id}: traceback on stderr: {stderr.strip()[-300:]}")
        else:
            problems, info = self.verifier.check(op, self.work / "out" / op.id, stdout)
        for problem in problems:
            print(f"FAILED {problem}", file=sys.stderr)
        self.records.append({"op": op.id, "pass": pass_index, "seconds": seconds,
                             "cpu_s": cpu_s, "rss_mb": rss_mb, "failed": bool(problems),
                             **info})

    def subprocess_rounds(self, budget: float, before_round) -> int:
        """Runs the op list in order, round after round, until the ops have
        taken `budget` seconds and every op has run.  The op under way when
        time is up completes and counts, so each op runs as often as the
        others, give or take one.  `before_round()` runs before each round,
        outside the budget.  Returns the rounds begun."""
        ops = self.workload.ops
        spent, index = 0.0, 0
        while index < len(ops) or spent < budget:
            if index % len(ops) == 0:
                before_round()
            started = time.perf_counter()
            op = ops[index % len(ops)]
            seconds, cpu_s, rss, code, out, err = self.launcher.run(cli_args(op), self.work)
            self._record(op, index // len(ops), seconds, cpu_s, rss, code, out, err)
            spent += time.perf_counter() - started
            index += 1
        return -(-index // len(ops))

    def run_inprocess(self, op):
        """One op through `onedatom.cli.main` in this process:
        (seconds, exit code, stdout, stderr)."""
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(self.work)
        started = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = onedatom.cli.main(cli_args(op))
                except SystemExit as exc:
                    code = exc.code
                except Exception:
                    traceback.print_exc()
                    code = 1
        finally:
            seconds = time.perf_counter() - started
            os.chdir(cwd)
        return seconds, code, out.getvalue(), err.getvalue()

    def inprocess_pass(self, pass_index, tracer=None):
        for op in self.workload.ops:
            if tracer is not None:
                tracer.op_id = op.id
            seconds, code, out, err = self.run_inprocess(op)
            self._record(op, pass_index, seconds, None, None, code, out, err)

    def batch_wall(self, passes) -> float:
        """Time to solution of the op list: the sum over ops of each op's
        median time across `passes`, so a burst of load from outside that hits
        one pass does not set the batch time."""
        per_op: dict[str, list[float]] = {}
        for r in self.records:
            if r["pass"] in passes:
                per_op.setdefault(r["op"], []).append(r["seconds"])
        return sum(statistics.median(times) for times in per_op.values())


def run_passes(seconds: float, one_pass) -> int:
    """Call one_pass(index) until the next pass would end after `seconds`;
    returns the number of passes (at least one)."""
    started = time.perf_counter()
    index = 0
    while True:
        pass_started = time.perf_counter()
        one_pass(index)
        index += 1
        now = time.perf_counter()
        if now + (now - pass_started) - started > seconds:
            return index


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(runner: Runner, rounds: int, setups: list[float]) -> dict:
    """End-to-end metrics: name -> (value, unit, sample count).  wall_s counts
    the runs of the op that ran least often.  peak_rss_mb.p50 is the median
    over the op list of each op's median, so that it does not depend on
    which ops the last, partial round reached."""
    seconds = [r["seconds"] for r in runner.records]
    rss = [r["rss_mb"] for r in runner.records]
    per_op_rss = [[r["rss_mb"] for r in runner.records if r["op"] == op.id]
                  for op in runner.workload.ops]
    return {
        "wall_s": (runner.batch_wall(range(rounds)), "s", min(map(len, per_op_rss))),
        "op_s.p50": (statistics.median(seconds), "s", len(seconds)),
        "peak_rss_mb.max": (max(rss), "MB", len(rss)),
        "peak_rss_mb.p50": (statistics.median(statistics.median(v) for v in per_op_rss),
                            "MB", len(per_op_rss)),
        "setup_s": (statistics.median(setups), "s", len(setups)),
    }


def _ratio(num, den):
    return num / den if den else None


# Work counts at layer boundaries; they depend only on the op list.
COUNTS = ("model.wf2_bytes", "propagate.out_cells", "csvio.bytes_written", "csvio.bytes_read",
          "correlations.tau_samples", "correlations.dips_found", "analytic.points",
          "oracle.steps")


def per_layer(tracer: T.Tracer, records: list[dict]) -> dict:
    """Per-layer metrics of one traced pass (None where a ratio has no base)."""
    own, total = tracer.self_times(), tracer.total_times()

    def busy(name):
        return own.get(name, 0.0)

    counts = {name: tracer.counters.get(name, 0) for name in COUNTS}
    counts["correlations.dips_found"] = sum(r.get("dips_found", 0) for r in records)
    expected = sum(r.get("dips_expected", 0) for r in records)
    return {
        "cli.self_s": busy("cli"),
        "model.symmetric_s": busy("model.symmetric"),
        "model.from_product_s": busy("model.from_product"),
        "propagate.linear_s": busy("propagate.linear"),
        "propagate.nonlinear_s": busy("propagate.nonlinear"),
        "propagate.one_photon_s": busy("propagate.one_photon"),
        "propagate.cells_per_s": _ratio(counts["propagate.out_cells"],
                                        total.get("propagate.apply", 0.0)),
        "csvio.write_s": busy("csvio.write"),
        "csvio.write_mb_per_s": _ratio(counts["csvio.bytes_written"] / 1e6, busy("csvio.write")),
        "csvio.read_s": busy("csvio.read"),
        "csvio.read_mb_per_s": _ratio(counts["csvio.bytes_read"] / 1e6, busy("csvio.read")),
        "correlations.g2_slice_s": busy("correlations.g2_slice"),
        "correlations.find_dip_zeros_s": busy("correlations.find_dip_zeros"),
        "correlations.dips_found_frac": _ratio(counts["correlations.dips_found"], expected),
        "analytic.self_s": busy("analytic"),
        "oracle.evolve_s": busy("oracle.evolve"),
        "oracle.us_per_step": _ratio(1e6 * busy("oracle.evolve"), counts["oracle.steps"]),
        "oracle.error_s": busy("oracle.error"),
        **counts,
    }


def import_seconds() -> float:
    """Median wall time of `python -c "import onedatom.cli"`."""
    times = []
    for _ in range(IMPORT_REPS):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import onedatom.cli"], env=CHILD_ENV,
                       check=True)
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def environment(args, workload) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True).stdout.strip() or commit
    return {"nproc": NPROC, "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": NPROC, "commit": commit, "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "ops_per_pass": len(workload.ops), "machine": platform.machine()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tracer = T.Tracer()     # resolves every wrapped name now, in both modes
    workload = BUILDERS[args.workload](args.seed)
    work = WORK / f"{args.workload}-{args.seed}-{args.trace}"
    launcher = Launcher()
    try:
        return _measure(args, tracer, workload, work, launcher)
    finally:
        launcher.close()


def _measure(args, tracer, workload, work, launcher) -> int:
    runner = Runner(workload, work, launcher)
    env = environment(args, workload)
    print("env: " + json.dumps(env))
    if args.trace:
        setup(workload, work, launcher)
        metrics, report = traced_run(args, tracer, runner)
    else:
        metrics, report = untraced_run(args, runner)
    failed = sum(r["failed"] for r in runner.records) + report.pop("count_mismatches", 0)
    result = {"correct": failed == 0, "attempted": len(runner.records), "failed": failed,
              "metrics": metrics}
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{work.name}.json").write_text(json.dumps(
        {"env": env, "result": result, **report, "records": runner.records}, default=str))
    shutil.rmtree(work)
    print(json.dumps(result))
    return 0


def untraced_run(args, runner: Runner):
    """Measured subprocess rounds, each after SETUPS_PER_ROUND set-ups.  Every
    end-to-end metric is printed with its unit and sample count; those
    BENCHMARK.json lists go into the result."""
    setups: list[float] = []

    def set_up():
        setups.extend(setup(runner.workload, runner.work, runner.launcher)
                      for _ in range(SETUPS_PER_ROUND))

    rounds = runner.subprocess_rounds(args.seconds, set_up)
    values = end_to_end(runner, rounds, setups)
    recs = runner.records
    expected = sum(r.get("dips_expected", 0) for r in recs)
    print(f"{args.workload} seed {args.seed}: {len(recs)} runs of {len(runner.workload.ops)} ops "
          f"in {rounds} rounds")
    for name, (value, unit, samples) in values.items():
        print(f"  {name:<18} {value:>12.6g} {unit:<5} n={samples}")
    print(f"  {'failed_frac':<18} {sum(r['failed'] for r in recs) / len(recs):>12.6g} "
          f"ratio n={len(recs)}")
    if expected:
        found = sum(r.get("dips_found", 0) for r in recs)
        print(f"  {'dips_found_frac':<18} {found / expected:>12.6g} ratio n={expected}")
    unknown = [k for k, unit in END_TO_END_UNITS.items() if k not in values or values[k][1] != unit]
    if unknown:
        _fail(f"end-to-end metrics the benchmark does not measure in BENCHMARK.json's units: {unknown}")
    metrics = {k: {"value": values[k][0], "unit": unit} for k, unit in END_TO_END_UNITS.items()}
    return metrics, {"values": {k: v for k, (v, _, _) in values.items()}, "rounds": rounds}


def traced_run(args, tracer: T.Tracer, runner: Runner):
    """Traced in-process passes; per-layer metrics are medians over them.  The
    tracing overhead is the wrapper's own cost per call, measured on an empty
    function, times the wrapper calls of one pass."""
    layer_runs, spans, calls = [], [], []

    def traced(index):
        tracer.reset()
        with tracer.installed():
            runner.inprocess_pass(index, tracer)
        spans.append(list(tracer.spans))
        calls.append(tracer.calls)
        layer_runs.append(per_layer(tracer, [r for r in runner.records if r["pass"] == index]))

    # The first in-process pass also pays for lazy imports and for growing the
    # allocator's heap; it is verified but not measured.
    runner.inprocess_pass(-1)
    passes = run_passes(args.seconds, traced)
    mismatched = [k for k in COUNTS if len({run[k] for run in layer_runs}) > 1]
    if len(set(calls)) > 1:
        mismatched.append("trace.calls")
    if mismatched:
        print(f"FAILED counts differ between traced passes: {mismatched}", file=sys.stderr)
    values = {k: layer_runs[0][k] if k in COUNTS or layer_runs[0][k] is None
              else statistics.median(run[k] for run in layer_runs) for k in layer_runs[0]}
    per_call = T.call_overhead()
    values["trace.overhead_s"] = per_call * calls[0]
    values["cli.import_s"] = import_seconds()
    print(f"{args.workload} seed {args.seed}: {passes} traced in-process passes of "
          f"{len(runner.workload.ops)} ops, batch wall {runner.batch_wall(range(passes)):.4f} s; "
          f"{calls[0]} wrapper calls per pass at {1e9 * per_call:.0f} ns each")
    for name, value in values.items():
        print(f"  {name:<32} {'n/a' if value is None else f'{value:.6g}'}")
    for layer, why in T.UNMEASURED.items():
        print(f"  {layer:<32} unmeasured: {why}")
    missing = [k for k in PER_LAYER_UNITS if values.get(k) is None]
    if missing:
        _fail(f"per-layer metrics without a value on {args.workload}: {missing}")
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in PER_LAYER_UNITS.items()}
    return metrics, {"values": values, "passes": passes, "spans": spans,
                     "count_mismatches": len(mismatched)}


if __name__ == "__main__":
    sys.exit(main())
