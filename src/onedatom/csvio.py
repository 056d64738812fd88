"""CSV serialization of grids, wavefunctions, and correlation curves.

Formats: `x, re, im` for one-photon data, `x1, x2, re, im` (row-major) for
two-photon data, `tau, value` for curves and `t, value` for the oracle's
excitation trace.  Values carry 17 significant digits, enough to round-trip
doubles exactly.  A leading `#` comment line records the run parameters
(the trace has none).

The writers produce exactly the bytes numpy's `savetxt` writes with
`fmt="%.17g"` and `delimiter=","`, with far less Python work.  A table is
one `%` over a line template repeated for every row.  A two-photon grid
formats each axis value once into a row template, fills it with one `%`
over the row's interleaved re/im values and splices the row's x1 string in
with one `str.replace`; it holds one row of text at a time, never the file.
"""

from __future__ import annotations

import math

import numpy as np

from .correlations import CorrelationCurve
from .model import Grid1D, Wavefunction1, Wavefunction2
from .oracle import ExcitationTrace

__all__ = [
    "write_wavefunction1",
    "read_wavefunction1",
    "write_wavefunction2",
    "read_wavefunction2",
    "write_curve",
    "read_curve",
    "write_trace",
]

FMT = "%.17g"


def _meta_line(meta: dict | None) -> str:
    if not meta:
        return "#\n"
    parts = " ".join(f"{k}={v}" for k, v in meta.items())
    return f"# {parts}\n"


def _write_table(path, head: str, *columns: np.ndarray) -> None:
    """`head`, then each row of the columns as FMT values joined by commas."""
    data = np.column_stack(columns)
    line = ",".join([FMT] * data.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(head)
        fh.write(line * len(data) % tuple(data.ravel().tolist()))


def write_wavefunction1(path, psi: Wavefunction1, meta: dict | None = None) -> None:
    _write_table(path, _meta_line(meta) + "x,re,im\n",
                 psi.grid.points, psi.amp.real, psi.amp.imag)


def write_wavefunction2(path, psi: Wavefunction2, meta: dict | None = None) -> None:
    xs = [FMT % v for v in psi.grid.points.tolist()]
    # every line of a row starts after a newline, where the row's x1 goes in
    row = "".join("\n," + x2 + f",{FMT},{FMT}" for x2 in xs)
    with open(path, "w") as fh:
        fh.write(_meta_line(meta) + "x1,x2,re,im")
        for x1, amp in zip(xs, psi.amp):
            reim = np.ascontiguousarray(amp).view(float).tolist()
            fh.write((row % tuple(reim)).replace("\n", "\n" + x1))
        fh.write("\n")


def write_curve(path, curve: CorrelationCurve, meta: dict | None = None) -> None:
    _write_table(path, _meta_line(meta) + "tau,value\n", curve.tau, curve.values)


def write_trace(path, trace: ExcitationTrace) -> None:
    _write_table(path, "t,value\n", trace.times, trace.values)


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


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """re + i im with each part's bits as read (`re + 1j * im` turns a -0.0
    part into +0.0)."""
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


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
    return Wavefunction1.sampled(grid, _complex(rows[:, 1], rows[:, 2]))


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
    amp = _complex(rows[:, 2], rows[:, 3]).reshape(n, n)
    grid = Grid1D(float(x[0]), float(x[-1]), n, _points=x)
    return Wavefunction2(grid, amp)


def read_curve(path) -> CorrelationCurve:
    rows = _load_rows(path, "tau,value")
    return CorrelationCurve(tau=rows[:, 0], values=rows[:, 1],
                            kind="normalized", anchor_x=math.nan)
