"""Checks every op's outputs against the benchmark's own references.

`Verifier.check(op, out_dir, stdout)` returns a list of problems (empty when
the outputs are correct) and, for rectangular `g2` ops, whether both plateau
dips were reported.  References depend only on the op, so they are computed
once per op and reused across passes.
"""

from __future__ import annotations

import math
import random
import re
from pathlib import Path

import numpy as np

import reference as R
from workloads import X_MIN

CLOSED_FORM_TOL = 1e-10     # the program's own --check bound, also applied here
ROUNDING = 1e-8             # share of the curve peak allowed on top of the band
DIP_TOL = 1e-3              # a plateau dip counts as found within this of the reference
SAMPLED_ROWS = 2000         # rows of each n^2 CSV compared with the closed form
COMPARE_RE = re.compile(r"compare: max-abs (\S+), rel-L2 (\S+), grid deviation (\S+)")


def read_manifest(path: Path) -> dict[str, str]:
    entries = {}
    for line in path.read_text().splitlines():
        if line.startswith("#") or "=" not in line:
            continue
        key, _, value = line.partition("=")
        entries[key.strip()] = value.strip()
    return entries


def header_lines(path: Path) -> int:
    with open(path) as fh:
        for count, line in enumerate(fh):
            if not line.startswith("#"):
                return count + 1
    raise ValueError(f"{path}: no header")


def read_table(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=header_lines(path), ndmin=2)


def sample_rows(path: Path, n_rows: int, rng: random.Random):
    """(row indices, parsed rows) for SAMPLED_ROWS random data rows, plus the
    number of data rows in the file."""
    data = path.read_bytes().split(b"\n")
    skip = header_lines(path)
    body = data[skip:-1] if data[-1] == b"" else data[skip:]
    picks = sorted(rng.sample(range(n_rows), min(SAMPLED_ROWS, n_rows)))
    if len(body) != n_rows:
        return picks, None, len(body)
    rows = np.array([[float(v) for v in body[i].split(b",")] for i in picks])
    return picks, rows, len(body)


def band_problems(name, values, exact, interp, slack):
    """The program's curve may sit anywhere within twice the grid's own
    interpolation error of the closed form, plus `slack`: a program that
    evaluates the field exactly passes, and so does one that interpolates its
    grid, but a perturbed value does not."""
    excess = np.abs(values - exact) - (2.0 * np.abs(interp - exact) + slack)
    if np.any(excess > 0):
        i = int(np.argmax(excess))
        return [f"{name}: value {values[i]:.12g} at sample {i} is {excess[i]:.3g} "
                f"outside the reference band around {exact[i]:.12g}"]
    return []


class Verifier:
    def __init__(self):
        self._refs: dict = {}

    def _ref(self, key, build):
        if key not in self._refs:
            self._refs[key] = build()
        return self._refs[key]

    def check(self, op, out_dir: Path, stdout: str):
        kind = op.check["kind"]
        try:
            return getattr(self, f"_check_{kind}")(op, out_dir, stdout)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [f"{op.id}: unreadable output ({type(exc).__name__}: {exc})"], {}

    # -- g2 curves ---------------------------------------------------------

    def _curve(self, op, out_dir):
        curve = read_table(out_dir / "g2_curve.csv")
        lo, hi, count = op.check["tau"]
        tau = np.linspace(lo, hi, count)
        if curve.shape != (count, 2):
            raise ValueError(f"g2 curve has shape {curve.shape}, expected ({count}, 2)")
        if np.max(np.abs(curve[:, 0] - tau)) > 1e-12 * max(1.0, abs(lo), abs(hi)):
            raise ValueError("g2 curve tau column differs from the requested window")
        return curve[:, 0], curve[:, 1]

    def _check_g2_rect(self, op, out_dir, stdout):
        c = op.check
        tau, values = self._curve(op, out_dir)
        exact, interp = self._ref((op.id, "curve"), lambda: R.rect_g2(
            R.rect_grid_points(c["length"], c["n"], X_MIN), c["length"], c["anchor"], tau))
        problems = band_problems(op.id, values, exact, interp, ROUNDING * np.max(exact))
        roots, plateau = self._ref((op.id, "zeros"), lambda: R.rect_dip_zeros(
            c["anchor"], c["tau"][0], c["tau"][1], c["length"]))
        manifest = read_manifest(out_dir / "manifest.txt")
        zeros = [float(manifest[f"run.zero_{i}"]) for i in range(int(manifest["run.zero_count"]))]
        spacing = tau[1] - tau[0]
        for z in zeros:
            if np.min(np.abs(roots - z)) > max(2e-3, 2.0 * spacing):
                problems.append(f"{op.id}: reported zero {z:.6f} is no zero of the "
                                f"closed form (nearest {roots[np.argmin(np.abs(roots - z))]:.6f})")
        found = all(any(abs(z - p) <= DIP_TOL for z in zeros) for p in plateau)
        return problems, {"dips_expected": 1, "dips_found": int(found)}

    def _check_g2_local(self, op, out_dir, stdout):
        c = op.check
        tau, values = self._curve(op, out_dir)
        exact, interp = self._ref((op.id, "curve"), lambda: R.local_g2(
            np.linspace(c["lo"], c["hi"], c["n"]), c["terms"], c["anchor"], tau))
        return band_problems(op.id, values, exact, interp, c["tol"] * np.max(exact)), {}

    # -- n^2 grids ---------------------------------------------------------

    def _grid_rows(self, op, path, points, reference, tol):
        n = len(points)
        picks, rows, count = sample_rows(path, n * n, random.Random(f"{op.id}:{path.name}"))
        if rows is None:
            return [f"{path.name}: {count} data rows, expected {n * n}"]
        i, j = np.divmod(np.array(picks), n)
        if np.any(rows[:, 0] != points[i]) or np.any(rows[:, 1] != points[j]):
            return [f"{path.name}: (x1, x2) columns are not the grid nodes"]
        dev = np.abs(rows[:, 2] + 1j * rows[:, 3] - reference(rows[:, 0], rows[:, 1]))
        if np.max(dev) > tol:
            return [f"{path.name}: deviates from the closed form by {np.max(dev):.3e}"]
        return []

    def _check_simulate(self, op, out_dir, stdout):
        c = op.check
        length = c["length"]
        points = R.rect_grid_points(length, c["n"], X_MIN)
        manifest = read_manifest(out_dir / "manifest.txt")
        problems = []
        for key in ("check.max_abs_total", "check.max_abs_linear", "check.max_abs_nonlinear"):
            if not float(manifest[key]) <= CLOSED_FORM_TOL:
                problems.append(f"{op.id}: manifest {key} = {manifest[key]}")
        for name, ref in (
                ("psi_out.csv", lambda a, b: R.rect_psi(a, b, length)),
                ("psi_lin.csv", lambda a, b: R.rect_phi_out(a, length) * R.rect_phi_out(b, length)),
                ("psi_nonlin.csv", lambda a, b: R.rect_nonlin(a, b, length))):
            problems += self._grid_rows(op, out_dir / name, points, ref, CLOSED_FORM_TOL)
        return problems, {}

    def _check_compare(self, op, out_dir, stdout):
        c = op.check
        match = COMPARE_RE.search(stdout)
        if not match:
            return [f"{op.id}: no compare summary in {stdout!r}"], {}
        max_abs, rel_l2, grid_dev = (float(v) for v in match.groups())

        def expected():
            x = R.rect_grid_points(c["length"], c["n"], X_MIN)
            nonlin = R.rect_nonlin(x[:, None], x[None, :], c["length"])
            lin = np.outer(R.rect_phi_out(x, c["length"]), R.rect_phi_out(x, c["length"]))
            return np.max(np.abs(nonlin)), np.linalg.norm(nonlin) / np.linalg.norm(lin)

        ref_max, ref_rel = self._ref((op.id, "compare"), expected)
        problems = []
        if abs(max_abs / ref_max - 1.0) > 1e-5 or abs(rel_l2 / ref_rel - 1.0) > 1e-5:
            problems.append(f"{op.id}: reported max-abs {max_abs:.6e}, rel-L2 {rel_l2:.6e}; "
                            f"expected {ref_max:.6e}, {ref_rel:.6e}")
        if grid_dev != 0.0:
            problems.append(f"{op.id}: grid deviation {grid_dev} between files on one grid")
        return problems, {}

    def _check_decompose(self, op, out_dir, stdout):
        c = op.check
        length = c["length"]
        points = np.linspace(0.0, length, c["n"])
        manifest = read_manifest(out_dir / "manifest.txt")
        problems = []
        if not float(manifest["run.sum_identity_max_abs"]) <= 1e-12:
            problems.append(f"{op.id}: sum identity {manifest['run.sum_identity_max_abs']}")
        for k, name in enumerate(("p_i.csv", "p_ii.csv", "p_iii.csv")):
            problems += self._grid_rows(
                op, out_dir / name, points,
                lambda a, b, k=k: R.rect_processes(a, b, length)[k], 1e-12)
        return problems, {}

    def _check_oracle(self, op, out_dir, stdout):
        c = op.check
        manifest = read_manifest(out_dir / "manifest.txt")
        rel = float(manifest["run.rel_l2"])
        ratio = float(manifest["run.convergence_ratio"])
        problems = []
        if not rel <= c["tol"]:
            problems.append(f"{op.id}: rel-L2 {rel:.3e} above {c['tol']:.1e}")
        if not 1.7 <= ratio <= 2.3:
            problems.append(f"{op.id}: convergence ratio {ratio:.3f} is not first order")
        far = read_table(out_dir / "oracle_farfield.csv")
        if c["mode"] == "one":
            ref = R.rect_phi_out(far[:, 0], c["length"])
            amp = far[:, 1] + 1j * far[:, 2]
        else:
            ref = R.rect_psi(far[:, 0], far[:, 1], c["length"])
            amp = far[:, 2] + 1j * far[:, 3]
        own = np.linalg.norm(amp - ref) / np.linalg.norm(ref)
        if not math.isclose(own, rel, rel_tol=1e-6):
            problems.append(f"{op.id}: far field has rel-L2 {own:.9e} against the closed "
                            f"form, the manifest says {rel:.9e}")
        if len(read_table(out_dir / "oracle_trace.csv")) == 0:
            problems.append(f"{op.id}: empty excitation trace")
        return problems, {}
