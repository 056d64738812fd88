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

That `%.17g` conversion is nearly all of a grid's write time, so a grid is
formatted by one process per usable CPU (`os.sched_getaffinity`), each
taking a contiguous range of rows of at least `SPLIT_CELLS` values.  A grid
is any two-photon state that offers `grid` and `rows(i0, i1)`: a dense
`Wavefunction2`, or a `propagate.ScatteredState`, whether a part of the
scattering map or a closed form a command reads.  Every process, the parent and each forked child, reads only
the rows of its own range, through `rows` in blocks of `model.BLOCK_CELLS`
cells, and formats each block before it reads the next, so no process
builds the whole grid.  A child may evaluate a structured state because
every `rows` path in this package is numpy ufuncs and indexing: nothing in
it calls `dot`, `matmul` or `linalg`, so a child never enters a BLAS thread
pool the fork left behind; keep it so.  Each forked child writes its range
into an anonymous temporary file beside the output, then leaves with
`os._exit` (status 0, or 1 on any failure, in reading its rows or in
writing them): it never returns into the caller.  The parent formats the
first range straight into the output, then waits for each child in order
and appends its file; a non-zero status raises `OSError`, which the CLI
reports with exit code 4.  With one usable CPU, a small grid or no
`os.fork`, there is one range and no child, and the same loop runs
in-process.  The bytes never depend on how many processes wrote them, nor
on the block size.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .correlations import CorrelationCurve
from .model import Grid1D, Wavefunction1, Wavefunction2, blocks
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


# A forked range must hold at least this many values: a fork, its wait and
# the copy of its file cost about as much as formatting 2500 values.
SPLIT_CELLS = 8192


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where it cannot fork."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _write_rows(fh, row: str, xs: list[str], psi, i0: int, i1: int) -> None:
    """Rows i0:i1 of the state `psi`, read through `psi.rows` in blocks of
    the cell budget and written one row of text at a time (real rows with
    imaginary part 0)."""
    for b0, b1 in blocks(i0, i1, len(xs)):
        reim = np.ascontiguousarray(psi.rows(b0, b1), dtype=complex).view(float)
        for i in range(b0, b1):
            fh.write((row % tuple(reim[i - b0].tolist())).replace("\n", "\n" + xs[i]))
        del reim                        # freed before the next block is read


def _fork_rows(tmp, row: str, xs: list[str], psi, i0: int, i1: int) -> int:
    """Fork a child that reads and writes rows i0:i1 into the open file
    `tmp`; its pid.  The child exits with status 0, or 1 on any failure,
    and never returns into the caller."""
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            with open(tmp.fileno(), "w", closefd=False) as out:
                _write_rows(out, row, xs, psi, i0, i1)
            status = 0
        finally:
            os._exit(status)
    return pid


def _write_split(fh, path, row: str, xs: list[str], psi, cuts: list[int]) -> None:
    """Rows cuts[0]:cuts[-1] into `fh`: the first range formatted here, each
    further range by a forked child into an anonymous temporary file beside
    `path`, appended in order once the child has exited with status 0."""
    import shutil
    import signal
    import tempfile
    from contextlib import ExitStack

    folder = os.path.dirname(os.path.abspath(path))
    children = []                       # (pid, file, i0, i1), not yet waited for
    with ExitStack() as files:
        try:
            for i0, i1 in zip(cuts[1:-1], cuts[2:]):
                tmp = files.enter_context(tempfile.TemporaryFile(dir=folder))
                children.append((_fork_rows(tmp, row, xs, psi, i0, i1), tmp, i0, i1))
            _write_rows(fh, row, xs, psi, cuts[0], cuts[1])
            fh.flush()
            while children:
                pid, tmp, i0, i1 = children[0]
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                del children[0]
                if status != 0:
                    raise OSError(f"{path}: the process writing rows {i0}:{i1} "
                                  f"exited with status {status}")
                tmp.seek(0)
                shutil.copyfileobj(tmp, fh.buffer)
        finally:
            for pid, *_ in children:    # left only when this process failed first
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def write_wavefunction2(path, psi, meta: dict | None = None) -> None:
    """The two-photon state `psi`, any object with `grid` and
    `rows(i0, i1)` (rows i0:i1 of its amplitudes), as `x1, x2, re, im`."""
    xs = [FMT % v for v in psi.grid.points.tolist()]
    # every line of a row starts after a newline, where the row's x1 goes in
    row = "".join("\n," + x2 + f",{FMT},{FMT}" for x2 in xs)
    n = len(xs)
    w = max(1, min(_usable_cpus(), n * n // SPLIT_CELLS))
    with open(path, "w") as fh:
        fh.write(_meta_line(meta) + "x1,x2,re,im")
        fh.flush()                      # a child inherits no unwritten bytes of fh
        _write_split(fh, path, row, xs, psi, [n * k // w for k in range(w + 1)])
        fh.write("\n")


def write_curve(path, curve: CorrelationCurve, meta: dict | None = None) -> None:
    _write_table(path, _meta_line(meta) + "tau,value\n", curve.tau, curve.values)


def write_trace(path, trace: ExcitationTrace) -> None:
    _write_table(path, "t,value\n", trace.times, trace.values)


def _header(fh) -> str:
    """The first line of an open file that is neither blank nor a `#`
    comment, stripped ("" if there is none), read with `readline` so the
    file is left at the line after it."""
    for line in iter(fh.readline, ""):
        if line.strip() and not line.lstrip().startswith("#"):
            return line.strip()
    return ""


def _load_rows(path, expected_header: str) -> np.ndarray:
    with open(path) as fh:
        header = _header(fh).replace(" ", "")
        if not header:
            raise ValueError(f"{path}: no data rows")
        if header != expected_header:
            raise ValueError(f"{path}: expected header {expected_header!r}, got {header!r}")
        # parsed as it is read; the stripped lines drop blank and
        # whitespace-only ones in C, and loadtxt drops `#` comments itself
        return np.loadtxt(filter(None, map(str.strip, fh)), delimiter=",", ndmin=2)


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
        header = _header(fh)
    if not header:
        raise ValueError(f"{path}: empty file")
    return len(header.split(","))


def read_wavefunction1(path) -> Wavefunction1:
    rows = _load_rows(path, "x,re,im")
    x = rows[:, 0].copy()             # a view would keep the whole table alive
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
    x = rows[:n, 1].copy()            # a view would keep the whole table alive
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
    return CorrelationCurve(tau=rows[:, 0], values=rows[:, 1])
