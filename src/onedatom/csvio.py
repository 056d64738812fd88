"""CSV serialization of grids, wavefunctions, and correlation curves.

Formats: `x, re, im` for one-photon data, `x1, x2, re, im` (row-major) for
two-photon data, `tau, value` for curves.  Values carry 17 significant
digits, enough to round-trip doubles exactly.  A leading `#` comment line
records the run parameters.
"""

from __future__ import annotations

import math

import numpy as np

from .correlations import CorrelationCurve
from .model import Grid1D, Wavefunction1, Wavefunction2

__all__ = [
    "write_wavefunction1",
    "read_wavefunction1",
    "write_wavefunction2",
    "read_wavefunction2",
    "write_curve",
    "read_curve",
]

FMT = "%.17g"


def _meta_line(meta: dict | None) -> str:
    if not meta:
        return "#\n"
    parts = " ".join(f"{k}={v}" for k, v in meta.items())
    return f"# {parts}\n"


def write_wavefunction1(path, psi: Wavefunction1, meta: dict | None = None) -> None:
    data = np.column_stack([psi.grid.points, psi.amp.real, psi.amp.imag])
    with open(path, "w") as fh:
        fh.write(_meta_line(meta))
        fh.write("x,re,im\n")
        np.savetxt(fh, data, fmt=FMT, delimiter=",")


def write_wavefunction2(path, psi: Wavefunction2, meta: dict | None = None) -> None:
    pts = psi.grid.points
    n = len(pts)
    with open(path, "w") as fh:
        fh.write(_meta_line(meta))
        fh.write("x1,x2,re,im\n")
        for i in range(n):
            block = np.column_stack([
                np.full(n, pts[i]), pts, psi.amp[i].real, psi.amp[i].imag])
            np.savetxt(fh, block, fmt=FMT, delimiter=",")


def write_curve(path, curve: CorrelationCurve, meta: dict | None = None) -> None:
    data = np.column_stack([curve.tau, curve.values])
    with open(path, "w") as fh:
        fh.write(_meta_line(meta))
        fh.write("tau,value\n")
        np.savetxt(fh, data, fmt=FMT, delimiter=",")


def _data_lines(fh):
    """The lines of an open file that are neither blank nor `#` comments."""
    return (ln for ln in fh if ln.strip() and not ln.lstrip().startswith("#"))


def _load_rows(path, expected_header: str) -> np.ndarray:
    with open(path) as fh:
        lines = _data_lines(fh)
        header = next(lines, "").strip().replace(" ", "")
        if not header:
            raise ValueError(f"{path}: no data rows")
        if header != expected_header:
            raise ValueError(f"{path}: expected header {expected_header!r}, got {header!r}")
        return np.loadtxt(lines, delimiter=",", ndmin=2)   # parsed as it is read


def sniff_columns(path) -> int:
    """Number of data columns (3 for 1D wavefunctions, 4 for 2D), counted on
    the first non-blank line that is not a `#` comment."""
    with open(path) as fh:
        header = next(_data_lines(fh), "").strip()
    if not header:
        raise ValueError(f"{path}: empty file")
    return len(header.split(","))


def read_wavefunction1(path) -> Wavefunction1:
    rows = _load_rows(path, "x,re,im")
    x = rows[:, 0]
    if len(x) < 2 or not np.all(np.diff(x) > 0):
        raise ValueError(f"{path}: x column must be strictly increasing")
    grid = Grid1D(float(x[0]), float(x[-1]), len(x), _points=x)
    return Wavefunction1.sampled(grid, rows[:, 1] + 1j * rows[:, 2])


def read_wavefunction2(path) -> Wavefunction2:
    rows = _load_rows(path, "x1,x2,re,im")
    total = len(rows)
    n = int(round(math.sqrt(total)))
    if n * n != total:
        raise ValueError(f"{path}: {total} rows is not a square grid")
    x = rows[:n, 1]
    if not np.all(np.diff(x) > 0):
        raise ValueError(f"{path}: x2 column must be strictly increasing")
    # row-major on one shared axis: block i holds x1 = x[i] against every x2 = x
    tol = 1e-12 * max(1.0, float(np.max(np.abs(x))))
    x1, x2 = rows[:, 0].reshape(n, n), rows[:, 1].reshape(n, n)
    if not np.allclose(x1, x[:, None], rtol=0, atol=tol):
        raise ValueError(f"{path}: x1 must be constant in each block and follow the x2 axis")
    if not np.allclose(x2, x[None, :], rtol=0, atol=tol):
        raise ValueError(f"{path}: every block must repeat the x2 axis")
    amp = (rows[:, 2] + 1j * rows[:, 3]).reshape(n, n)
    grid = Grid1D(float(x[0]), float(x[-1]), n, _points=x)
    return Wavefunction2(grid, amp)


def read_curve(path) -> CorrelationCurve:
    rows = _load_rows(path, "tau,value")
    return CorrelationCurve(tau=rows[:, 0], values=rows[:, 1],
                            kind="normalized", anchor_x=math.nan)
