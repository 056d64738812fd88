"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. Two traced runs of every workload at seed SEED report identical counts
   (model.wf2_bytes, propagate.out_cells, csvio.bytes_*, oracle.steps,
   correlations.tau_samples, analytic.points, correlations.dips_found).
2. The verifier accepts the program's genuine outputs and rejects each
   deliberately perturbed copy of them.

Exits 0 when both hold; prints one line per check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import run
from verify import header_lines, read_manifest, read_table
from workloads import BUILDERS

SEED = 7


def traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run([sys.executable, str(run.HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                          cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise RuntimeError(f"traced {workload} run failed: {proc.stderr[-800:]}")
    return {k: result["metrics"][k]["value"] for k in run.COUNTS}


# -- perturbations: each edits the outputs in place and returns the stdout to
#    verify with; the caller restores the originals afterwards ----------------

def _rewrite_table(path: Path, edit) -> None:
    with open(path) as fh:
        header = [next(fh) for _ in range(header_lines(path))]
    rows = read_table(path)
    edit(rows)
    with open(path, "w") as fh:
        fh.writelines(header)
        np.savetxt(fh, rows, fmt="%.17g", delimiter=",")


def _rewrite_manifest(path: Path, changes: dict) -> None:
    entries = {**read_manifest(path), **changes}
    path.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))


def _scale_curve_point(share_of_peak):
    def perturb(out, op, stdout):
        def edit(rows):
            k = int(0.8 * (len(rows) - 1))      # away from tau = 0
            rows[k, 1] += share_of_peak * np.max(rows[:, 1])
        _rewrite_table(out / "g2_curve.csv", edit)
        return stdout
    return perturb


def _fake_zero(out, op, stdout):
    entries = read_manifest(out / "manifest.txt")
    count = int(entries["run.zero_count"])
    _rewrite_manifest(out / "manifest.txt", {"run.zero_count": count + 1,
                                             f"run.zero_{count}": 0.5})
    return stdout


def _scale_column(name, column, factor):
    def perturb(out, op, stdout):
        def edit(rows):
            rows[:, column] *= factor
        _rewrite_table(out / name, edit)
        return stdout
    return perturb


def _manifest(key, value):
    def perturb(out, op, stdout):
        _rewrite_manifest(out / "manifest.txt", {key: value})
        return stdout
    return perturb


def _scale_manifest(key, factor):
    def perturb(out, op, stdout):
        path = out / "manifest.txt"
        _rewrite_manifest(path, {key: repr(factor * float(read_manifest(path)[key]))})
        return stdout
    return perturb


def _compare_summary(out, op, stdout):
    head, _, rest = stdout.partition("max-abs ")
    value, _, tail = rest.partition(",")
    return f"{head}max-abs {float(value) * 1.001:.6e},{tail}"


PERTURBATIONS = {
    "g2_rect": [("curve value +0.1% of peak", _scale_curve_point(1e-3)),
                ("reported zero where the closed form has none", _fake_zero)],
    "g2_local": [("curve value +5% of peak", _scale_curve_point(5e-2))],
    "simulate": [("psi_out re x (1 + 1e-6)", _scale_column("psi_out.csv", 2, 1 + 1e-6)),
                 ("manifest check above 1e-10", _manifest("check.max_abs_total", "2e-10"))],
    "compare": [("max-abs x 1.001", _compare_summary)],
    "decompose": [("p_iii re x (1 + 1e-6)", _scale_column("p_iii.csv", 2, 1 + 1e-6))],
    "oracle": [("manifest rel-L2 x 1.01", _scale_manifest("run.rel_l2", 1.01)),
               ("convergence ratio 1.0", _manifest("run.convergence_ratio", "1.0"))],
}


def perturbation_checks(seed: int) -> list[str]:
    failures = []
    launcher = run.Launcher()
    try:
        for name, build in BUILDERS.items():
            workload = build(seed)
            work = run.WORK / f"selftest-{name}"
            run.setup(workload, work, launcher)
            runner = run.Runner(workload, work, launcher)
            seen = set()
            for op in workload.ops:
                _, code, stdout, _ = runner.run_inprocess(op)
                out = work / "out" / op.id
                problems, _ = runner.verifier.check(op, out, stdout)
                ok = code == 0 and not problems
                print(f"{'ok  ' if ok else 'FAIL'} {name}/{op.id}: genuine outputs accepted")
                if not ok:
                    failures.append(f"{name}/{op.id}: genuine outputs rejected: {problems}")
                kind = op.check["kind"]
                if kind in seen:
                    continue
                seen.add(kind)
                for label, perturb in PERTURBATIONS[kind]:
                    backup = work / "backup"
                    out.mkdir(parents=True, exist_ok=True)     # compare writes no files
                    shutil.copytree(out, backup)
                    problems, _ = runner.verifier.check(op, out, perturb(out, op, stdout))
                    shutil.rmtree(out)
                    backup.rename(out)
                    print(f"{'ok  ' if problems else 'FAIL'} {name}/{op.id}: rejects {label}")
                    if not problems:
                        failures.append(f"{name}/{op.id}: accepted {label}")
            shutil.rmtree(work)
    finally:
        launcher.close()
    return failures


def main() -> int:
    failures = perturbation_checks(SEED)
    for name in BUILDERS:
        first, second = traced_counts(name, SEED), traced_counts(name, SEED)
        same = first == second
        print(f"{'ok  ' if same else 'FAIL'} {name}: traced counts repeat {first}")
        if not same:
            failures.append(f"{name}: counts differ {first} vs {second}")
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
