"""Runs the benchmark over several seeds and reports each end-to-end metric's
median and quartile spread, the stability test a regression bound relies on.

    python3 perfbench/sweep.py --seeds 1-10 [--baseline perfbench/BASELINE.json]

For every workload of BENCHMARK.json, each run is `python3 perfbench/run.py
--workload W --seed S --seconds <run_seconds> --trace 0` from the repository
root, exactly as BENCHMARK.json specifies, and one traced run (`--trace 1`)
follows at the first seed.  The spread is (Q3 - Q1) / median with the
quartiles of `statistics.quantiles(values, n=4)`; a metric, setup_s included,
is steady when its spread is below a third of its bound.  With --baseline the
medians, quartiles, spreads, per-layer values and the environment line are
written to that file.  Exits 1 if any run failed or any metric is not steady.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(spec, workload: str, seed: int, trace: int = 0):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-800:]}")
    lines = proc.stdout.strip().splitlines()
    env = json.loads(lines[0].removeprefix("env: "))
    return env, json.loads(lines[-1])


def spread_summary(workload, seeds, spec) -> tuple[dict, bool]:
    """Median, quartiles and spread of each end-to-end metric over `seeds`."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values, steady, env = {name: [] for name in bounds}, True, None
    for seed in seeds:
        env, result = run_once(spec, workload, seed)
        if not result["correct"]:
            print(f"{workload} seed {seed}: {result['failed']} of "
                  f"{result['attempted']} ops failed", file=sys.stderr)
            steady = False
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
    metrics = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        ok = spread < bounds[name] / 3
        steady &= ok
        metrics[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "bound": bounds[name], "values": vals}
        print(f"{workload:<11} {name:<16} median {med:>10.5g}  spread {spread:7.4f}  "
              f"bound {bounds[name]:.2f}  {'ok' if ok else 'WIDE'}", flush=True)
    return {"ops_per_pass": env["ops_per_pass"], "environment": env, "end_to_end": metrics}, steady


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="range a-b")
    parser.add_argument("--baseline", type=Path, help="JSON file to write")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = _seeds(args.seeds)

    baseline, steady = {}, True
    for workload in (w["name"] for w in spec["workloads"]):
        summary, ok = spread_summary(workload, seeds, spec)
        _, result = run_once(spec, workload, seeds[0], trace=1)
        steady &= ok and result["correct"]
        per_layer = {k: v["value"] for k, v in result["metrics"].items()}
        baseline[workload] = {**summary, "seeds": args.seeds,
                              "per_layer": {"seed": seeds[0], **per_layer}}
        print(f"{workload:<11} traced at seed {seeds[0]}: {json.dumps(per_layer)}", flush=True)
    if args.baseline:
        args.baseline.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
