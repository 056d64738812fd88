"""Independent lab-frame time-domain integrator for the field-atom equations
of motion, used to cross-validate the closed-form scattering map.

Scheme: method of characteristics with dt = dx/c, one loop for any photon
number d.  The state is a rank-d field phi on a uniform cell grid plus the
rank-(d-1) amplitude E of the excited atom and the other photons: a scalar
for one photon, e(r) for two.  Free propagation is exact (cell relabeling in
a frame moving with the light), so the only discretization error sits in the
local atom coupling.  The atom line sweeps one cell per step; the crossed line
provides the incoming amplitude at 0- and, after crossing, receives the
emitted amplitude at 0+ along every axis.  Two photons add one structural
rule: no amplitude holds two excitations, as a two-level atom cannot.

One start serves every run.  It holds only the rows (lines along the first
axis, full width) of the pulse that the atom has not yet passed, plus E,
and builds a product state's rows straight from its pulse.  Every other row
the atom has not reached holds only +0.0 and is rebuilt as zeros when the
atom reaches it.  Once the atom has passed row j, the cells of row j from
column j on never change again (both coordinates are passed), and by
exchange symmetry neither does their mirror column: row j is finished.
Finished rows go, in blocks under the cell budget (`model.BLOCK_CELLS`), to
a sink that either fills the dense far field (`evolve_*`, `run_rect`) or
folds them into the error against the closed form (`run_rect_error`, which
holds no field).  Every cell takes the same operations on the same values as
in a loop over the dense field, so the far field is the same to the bit.
Neither the held rows nor the far field may exceed `model.MAX_COUNT` cells:
a run that would is refused before it allocates (at the CLI's default L,
pad and clear, a two-photon run and its dx/2 run need dx above about 0.0057).
The error of a held far field (`rect_error_*`) is the same fold, fed its
rows in the blocks and order the loop hands them over: both runs of a
convergence ratio are summed by one rule, to the bit.

The API follows the loop: one state type, `model.LabState`, whose photon
number is its field's rank.  A one-photon state given to `evolve_two_photon`
stands for the product of its pulse with itself, as a `Wavefunction1` does
for `propagate.apply_two_photon`.  `rect_initial` builds a rectangular pulse,
which `run_rect` and `run_rect_error` run with `photons` (1 or 2) photons,
and `far_field` returns a `Wavefunction1` or a `Wavefunction2` by rank.

The excitation ODE dE/dt = -gamma E - sqrt(2 gamma c) phi(0-) is integrated
with an explicit midpoint step (the incoming amplitude is constant along the
characteristic crossing the atom).  The emission deposited into the crossed
cell blends the step's start and end excitation as (2 E_start + E_end)/3: the
half-step-centered average would make the deposit second-order accurate, and
this integrator is deliberately kept first order so that convergence toward
the closed-form map can be checked against a known rate, with the blend
keeping the norm drift small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import rect_one_photon_out, rect_two_photon_out
from .model import (
    MAX_COUNT,
    Grid1D,
    LabState,
    PhysicalParams,
    Wavefunction1,
    Wavefunction2,
    block_rows,
    blocks,
    excitation_probability,
    rectangular_pulse,
    relative_l2,
)

__all__ = [
    "evolve_one_photon",
    "evolve_two_photon",
    "ExcitationTrace",
    "LabRun",
    "rect_initial",
    "far_field",
    "run_rect",
    "run_rect_error",
    "rect_error_one_photon",
    "rect_error_two_photon",
]

DEPOSIT_END_WEIGHT = 1.0 / 3.0


@dataclass(frozen=True)
class ExcitationTrace:
    """Per-step excitation record: |E|^2 for one photon, the integral of
    |e(r)|^2 dr for two photons."""

    times: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class LabRun:
    """A completed lab-frame run: the final state and its excitation trace,
    one value per step.  Its norm is `state.total_norm()`."""

    state: LabState
    trace: ExcitationTrace


def _cell_grid(centers: np.ndarray) -> Grid1D:
    return Grid1D(float(centers[0]), float(centers[-1]), len(centers), _points=centers)


def _count(span: float, dx: float, what: str) -> int:
    """The nearest whole number of cells (or steps) of dx in span."""
    count = span / dx
    if not math.isfinite(count):
        raise ValueError(f"{what} = {span} is not a finite number of cells of dx={dx}")
    if count > MAX_COUNT:
        raise ValueError(f"{what} = {span} spans more than {MAX_COUNT} cells of dx={dx}")
    return round(count)


def _zeros(shape: tuple[int, ...], what: str) -> np.ndarray:
    """A complex array of zeros, refused before it is built if it would
    hold more than MAX_COUNT cells."""
    if math.prod(shape) > MAX_COUNT:
        raise ValueError(f"{what} of {' x '.join(map(str, shape))} cells exceeds "
                         f"{MAX_COUNT} cells; use a larger dx")
    return np.zeros(shape, dtype=complex)


def rect_initial(length: float, dx: float, params: PhysicalParams,
                 pad: float = 5.0) -> LabState:
    """Lab-frame initial state of one photon in a unit rectangular pulse,
    incoming: its trailing edge sits pad*c/gamma short of the atom, so the
    moving-frame input occupies [0, length].  `length` and pad*c/gamma must
    be multiples of dx; `evolve_two_photon` runs it as a product state."""
    _validate_dx(dx)
    pad_len = pad * params.relaxation_length()
    cells = _count(length, dx, "pulse length")
    pad_cells = _count(pad_len, dx, "pad*c/gamma")
    if abs(cells * dx - length) > 1e-9 * dx or cells < 1:
        raise ValueError("pulse length must be a positive multiple of dx")
    if abs(pad_cells * dx - pad_len) > 1e-9 * dx or pad_cells < 1:
        raise ValueError("pad*c/gamma must be a positive multiple of dx")
    t0 = -(length + pad_len) / params.c
    # pulse cells plus the empty gap up to the atom, which sits exactly at the
    # right edge of the window at t0
    x_centers = (np.arange(cells + pad_cells) + 0.5) * dx
    line = np.zeros(cells + pad_cells, dtype=complex)
    # amplitude tuned for an exactly unit norm over the pulse
    line[:cells] = rectangular_pulse(length).amp[0]
    return LabState(t0, _cell_grid(x_centers + params.c * t0), line)


def _validate_dx(dx: float) -> None:
    if not (dx > 0 and math.isfinite(dx)):
        raise ValueError(f"dx must be positive, got {dx}")


def _prepare(initial_grid: Grid1D, t0: float, dx: float, t_final: float,
             params: PhysicalParams) -> tuple[np.ndarray, int, int]:
    """Common geometry: moving-frame cell centers extended to cover the atom
    sweep, the number of steps, and the index of the first swept cell."""
    if t_final < t0:
        raise ValueError("t_final must not precede the initial time")
    if abs(initial_grid.dx - dx) > 1e-9 * dx:
        raise ValueError(
            f"dx={dx} does not match the initial state's spacing {initial_grid.dx}")
    c = params.c
    centers = initial_grid.points - c * t0      # moving frame x = r - c t
    steps = _count((t_final - t0) * c, dx, "the time to t_final")
    left_bound = centers[0] - dx / 2
    a_start = -c * t0                           # atom position x_atom = -c t
    offset = (a_start - left_bound) / dx
    if abs(offset - round(offset)) > 1e-6:
        raise ValueError("the atom must lie on a cell boundary of the grid")
    a_final = a_start - steps * dx
    extra = max(0, int(math.ceil((left_bound - a_final) / dx - 1e-9)))
    if extra:
        centers = np.concatenate([centers[0] - dx * np.arange(extra, 0, -1), centers])
    j_first = int(round(offset)) + extra - 1    # cell swept during step 0
    return centers, steps, j_first


class _Finished:
    """Rows the atom has finished, gathered in the blocks of `model.blocks`
    and handed to sink(i0, rows) as rows i0:i0 + len(rows).  Rows arrive one
    at a time, descending, down to row 0: a block is complete when its lowest
    row arrives."""

    def __init__(self, sink, n: int, rank: int):
        self.sink, self.top = sink, n
        per = min(n, block_rows(n ** (rank - 1)))
        self.rows = np.empty((per,) + (n,) * (rank - 1), dtype=complex)

    def add(self, i: int, row) -> None:
        per = len(self.rows)
        self.rows[i % per] = row
        if i % per == 0:
            self.sink(i, self.rows[:self.top - i])
            self.top = i


class _Field:
    """Sink that fills the dense field: a finished row from its own column on,
    and the mirror column."""

    def __init__(self, n: int, rank: int):
        self.field = _zeros((n,) * rank, "the far field")

    def __call__(self, i0: int, rows: np.ndarray) -> None:
        i1 = i0 + len(rows)
        if rows.ndim == 1:
            self.field[i0:i1] = rows
            return
        self.field[i0:i1, i1:] = rows[:, i1:]
        self.field[i1:, i0:i1] = rows[:, i1:].T
        # within the block's own columns, a row is final from the diagonal on
        for i, row in zip(range(i0, i1), rows):
            self.field[i, i:i1] = row[i:i1]
            self.field[i:i1, i] = row[i:i1]


class _Deviation:
    """Sink that folds finished rows into sum |a - b|^2 and sum |b|^2 against
    reference(i0, i1), the closed form (real) on rows i0:i1, from column i0
    on for two photons."""

    def __init__(self, reference):
        self.reference, self.num, self.den = reference, 0.0, 0.0

    def __call__(self, i0: int, rows: np.ndarray) -> None:
        ref = self.reference(i0, i0 + len(rows))
        dev = np.abs((rows if rows.ndim == 1 else rows[:, i0:]) - ref)
        dev *= dev
        ref *= ref
        if rows.ndim == 2:
            # weight 0 before the diagonal (not final yet), 1 on it, and 2
            # past it, where a cell stands for its mirror too
            k = len(rows)
            square = np.sign(np.arange(k) - np.arange(k)[:, None]) + 1.0
            for sq in (dev, ref):
                sq[:, :k] *= square
                sq[:, k:] *= 2.0
        self.num += float(np.sum(dev))
        self.den += float(np.sum(ref))


def _rect_deviation(x: np.ndarray, length: float, params: PhysicalParams,
                    photons: int) -> _Deviation:
    """`_Deviation` against the rectangle's closed-form output on far-field x."""
    if photons == 1:
        return _Deviation(lambda i0, i1: rect_one_photon_out(x[i0:i1], length, params))
    return _Deviation(lambda i0, i1: rect_two_photon_out(x[i0:i1, None], x[i0:], length,
                                                          params))


def _sweep(band: np.ndarray, lo: int, n: int, steps: int, j_first: int, dx: float,
           params: PhysicalParams, sink, record_trace: bool):
    """The step loop on the held rows lo:lo + len(band) of an n-cell field
    (rank band.ndim) and its excited amplitude e, from the ground state:
    read the crossed row j, advance E, deposit along every axis, finish row
    j.  Every row reaches `sink` once.  Returns the final e and the trace
    values, one per step if record_trace, else None."""
    rank = band.ndim
    hi = lo + len(band)
    zero = e = np.zeros((n,) * (rank - 1), dtype=complex)[()]

    def line(i):                                # row i, before the atom reaches it
        return band[i - lo] if lo <= i < hi else zero

    finished = _Finished(sink, n, rank)
    for i in range(n - 1, j_first, -1):         # rows the atom passed before the start
        finished.add(i, line(i))

    gamma, c = params.gamma, params.c
    dt = dx / c
    s_abs = -math.sqrt(2.0 * gamma * c)         # absorption, sign included
    s_em = math.sqrt(2.0 * gamma / c)
    gdt = gamma * dt                    # midpoint step E_new = a E + b F, F held
    a_coef, b_coef = 1.0 - gdt + 0.5 * gdt * gdt, dt * (1.0 - 0.5 * gdt)
    w_start, w_end = 1.0 - DEPOSIT_END_WEIGHT, DEPOSIT_END_WEIGHT
    excitation = excitation_probability(rank, dx)
    trace = np.empty(steps) if record_trace else None
    for m in range(steps):
        j = j_first - m
        if 0 <= j < n:
            row = line(j)
            forcing = s_abs * row               # phi(0-, ...), before this step's emission
            e_new = a_coef * e + b_coef * forcing
            deposit = s_em * (w_start * e + w_end * e_new)
            row = row + deposit                 # the crossed line along the first axis
            if rank == 2:                       # and along the second: held rows, then row j's own cell
                top = min(max(j, lo), hi)
                band[:top - lo, j] += deposit[lo:top]
                row[j] += deposit[j]
            finished.add(j, row)
        else:
            e_new = a_coef * e
        e = e_new
        if record_trace:
            trace[m] = excitation(e)
    for i in range(min(j_first - steps, n - 1), -1, -1):    # rows the atom has not reached
        finished.add(i, line(i))
    return e, trace


def _held_rows(field: np.ndarray) -> tuple[int, int]:
    """The span lo:hi of rows with a cell other than +0.0 (-0.0 included):
    the sweep rebuilds every other row as zeros."""
    other = (field != 0) | np.signbit(field.real) | np.signbit(field.imag)
    rows = np.flatnonzero(np.any(other.reshape(len(field), -1), axis=1))
    return (int(rows[0]), int(rows[-1]) + 1) if len(rows) else (0, 0)


def _run(initial: LabState, photons: int, dx: float, t_final: float,
         params: PhysicalParams, sink_for, record_trace: bool):
    """Run `photons` photons from `initial`, a state of that rank or a
    one-photon state standing for its pulse's product with itself, into the
    sink sink_for(x) returns for far-field points x.  Returns the sink, the
    final time, lab grid and excited amplitude, and the `ExcitationTrace` if
    record_trace, else None."""
    field, rank = initial.field, initial.field.ndim
    if rank > photons:
        raise ValueError(f"expected a {photons}-photon state, got {rank} photons")
    _validate_dx(dx)
    if not np.all(np.isfinite(field)):
        raise ValueError("initial field must be finite")
    if rank == 2 and not np.array_equal(field, field.T):
        raise ValueError("initial two-photon field must be symmetric")
    # one axis suffices: a two-photon field is symmetric
    if np.any(field[initial.grid.points >= 0]):
        raise ValueError("initial field must be supported at r_i < 0")
    if np.any(np.abs(initial.excited) > 0):
        raise ValueError("the atom must start in the ground state")

    centers, steps, j_first = _prepare(initial.grid, initial.t, dx, t_final, params)
    n = len(centers)
    dt = dx / params.c
    t_f = initial.t + steps * dt
    r = centers + params.c * t_f
    # far_field's coordinates; the sink comes first, so a far field too large
    # to hold is refused before the band is built
    sink = sink_for(r - params.c * t_f)
    lo, hi = _held_rows(field)
    band = _zeros((hi - lo,) + (n,) * (photons - 1), "the held rows")
    extra = n - initial.grid.n
    window = band[(slice(None),) + (slice(extra, None),) * (photons - 1)]
    if rank == photons:
        window[...] = field[lo:hi]
    else:       # the product's rows, built in place: the padding stays +0.0
        np.multiply(field[lo:hi, None], field, out=window)
    e, trace = _sweep(band, lo + extra, n, steps, j_first, dx, params, sink, record_trace)
    if record_trace:
        trace = ExcitationTrace(initial.t + dt * (1 + np.arange(steps)), trace)
    return sink, t_f, _cell_grid(r), e, trace


def _evolve(initial: LabState, photons: int, dx: float, t_final: float,
            params: PhysicalParams) -> LabRun:
    """`_run` filling the dense far field and recording the trace."""
    sink, t_f, grid, e, trace = _run(initial, photons, dx, t_final, params,
                                     lambda x: _Field(len(x), photons), True)
    return LabRun(LabState(t_f, grid, sink.field, e), trace)


def evolve_one_photon(initial: LabState, dx: float, t_final: float,
                      params: PhysicalParams) -> LabRun:
    """Integrate the one-photon lab-frame dynamics up to t_final.  The
    initial field must be incoming only (zero at r >= 0) with the atom in the
    ground state; dx must match the initial grid spacing and the atom must sit
    on a cell boundary."""
    return _evolve(initial, 1, dx, t_final, params)


def evolve_two_photon(initial: LabState, dx: float, t_final: float,
                      params: PhysicalParams) -> LabRun:
    """Integrate the two-photon lab-frame dynamics up to t_final: the
    one-photon scheme run along both coordinates, with e(r) as the excited
    amplitude.  A two-photon field must also be exchange symmetric; a
    one-photon state stands for the product of its pulse with itself."""
    return _evolve(initial, 2, dx, t_final, params)


# ---------------------------------------------------------------------------
# far-field extraction and validation helpers
# ---------------------------------------------------------------------------

def far_field(state: LabState, params: PhysicalParams) -> Wavefunction1 | Wavefunction2:
    """The lab field at time t in moving-frame coordinates x = r - c t: a
    `Wavefunction1` for one photon, a `Wavefunction2` for two."""
    grid = _cell_grid(state.grid.points - params.c * state.t)
    return (Wavefunction1 if state.field.ndim == 1 else Wavefunction2)(grid, state.field)


def _clear_time(photons: int, clear: float, dx: float, params: PhysicalParams) -> float:
    """t_final of a rectangular run of 1 or 2 `photons`: its trailing edge
    has cleared the atom by clear*c/gamma >= 0 (residual excitation ~ e^{-clear})."""
    if photons not in (1, 2):
        raise ValueError(f"photons must be 1 or 2, got {photons}")
    if not clear >= 0:      # the run would stop before the pulse has crossed the atom
        raise ValueError(f"clear must be non-negative, got {clear}")
    _validate_dx(dx)
    _count(clear * params.relaxation_length(), dx, "clear*c/gamma")
    return clear / params.gamma


def run_rect(length: float, dx: float, params: PhysicalParams, photons: int = 1,
             pad: float = 5.0, clear: float = 15.0) -> LabRun:
    """Build and evolve a rectangular-pulse run of `photons` photons until the
    trailing edge has cleared the atom by clear*c/gamma >= 0 (residual
    excitation ~ e^{-clear})."""
    t_final = _clear_time(photons, clear, dx, params)
    initial = rect_initial(length, dx, params, pad)
    # looked up in this module at call time, so a wrapper placed there sees the run
    evolve = evolve_one_photon if photons == 1 else evolve_two_photon
    return evolve(initial, dx, t_final, params)


def run_rect_error(length: float, dx: float, params: PhysicalParams, photons: int = 1,
                   pad: float = 5.0, clear: float = 15.0) -> float:
    """The relative L2 error against the closed form of the far field of
    `run_rect` with the same arguments, without holding that field: each row
    is folded into the error as the atom finishes it."""
    t_final = _clear_time(photons, clear, dx, params)
    sink = _run(rect_initial(length, dx, params, pad), photons, dx, t_final, params,
                lambda x: _rect_deviation(x, length, params, photons), False)[0]
    return relative_l2(sink.num, sink.den)


def _rect_error(run: LabRun, length: float, params: PhysicalParams, photons: int) -> float:
    """Relative L2 error of a held far field against the closed form:
    `run_rect_error`'s fold, fed the rows in the loop's blocks and descending
    order, so the sums round alike."""
    field = run.state.field
    if field.ndim != photons:
        raise ValueError(f"expected a {photons}-photon run, got {field.ndim} photons")
    x = far_field(run.state, params).grid.points
    n = len(x)
    sink = _rect_deviation(x, length, params, photons)
    for i0, i1 in reversed(list(blocks(0, n, n ** (photons - 1)))):
        sink(i0, field[i0:i1])
    return relative_l2(sink.num, sink.den)


def rect_error_one_photon(run: LabRun, length: float, params: PhysicalParams) -> float:
    """Relative L2 error of a one-photon run's far field (`_rect_error`)."""
    return _rect_error(run, length, params, 1)


def rect_error_two_photon(run: LabRun, length: float, params: PhysicalParams) -> float:
    """Relative L2 error of a two-photon run's far field (`_rect_error`)."""
    return _rect_error(run, length, params, 2)
