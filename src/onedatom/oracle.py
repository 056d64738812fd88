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

The API follows the loop: one state type, `model.LabState`, whose photon
number is its field's rank; `rect_initial` and `run_rect` take that number
as `photons` (1 or 2), and `far_field` returns a `Wavefunction1` or a
`Wavefunction2` by rank.  `evolve_one_photon` and `evolve_two_photon` are
the loop's two entries, each rejecting a state of the other rank; only the
closed-form errors, `rect_error_one_photon` and `rect_error_two_photon`,
stay apart, one per closed form.

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
    Grid1D,
    LabState,
    PhysicalParams,
    Wavefunction1,
    Wavefunction2,
    deviation,
    excitation_probability,
    lab_norm,
    rectangular_pulse,
)

__all__ = [
    "evolve_one_photon",
    "evolve_two_photon",
    "excitation_trace",
    "ExcitationTrace",
    "LabRun",
    "rect_initial",
    "far_field",
    "run_rect",
    "relative_l2",
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
    """A completed lab-frame run: the final state, the excitation trace if
    recorded, and the total norm after every norm_stride-th step and after
    the last step if norm_stride > 0."""

    state: LabState
    trace: ExcitationTrace | None = None
    norm_values: np.ndarray | None = None


def excitation_trace(run: LabRun) -> ExcitationTrace:
    """Excitation time series of a completed run; raises if the run was made
    without tracing."""
    if run.trace is None:
        raise ValueError("evolution was run without tracing enabled")
    return run.trace


def _cell_grid(centers: np.ndarray) -> Grid1D:
    return Grid1D(float(centers[0]), float(centers[-1]), len(centers), _points=centers)


def rect_initial(length: float, dx: float, params: PhysicalParams,
                 pad: float = 5.0, photons: int = 1) -> LabState:
    """Lab-frame initial state of `photons` (1 or 2) photons in one unit
    rectangular pulse (the product state for two), incoming: its trailing
    edge sits pad*c/gamma short of the atom, so the moving-frame input
    occupies [0, length].  `length` and pad*c/gamma must be multiples of dx."""
    if photons not in (1, 2):
        raise ValueError(f"photons must be 1 or 2, got {photons}")
    _validate_dx(dx)
    ell = params.relaxation_length()
    pad_len = pad * ell
    cells = round(length / dx)
    pad_cells = round(pad_len / dx)
    if abs(cells * dx - length) > 1e-9 * dx or cells < 1:
        raise ValueError("pulse length must be a positive multiple of dx")
    if abs(pad_cells * dx - pad_len) > 1e-9 * dx or pad_cells < 1:
        raise ValueError("pad*c/gamma must be a positive multiple of dx")
    t0 = -(length + pad_len) / params.c
    # pulse cells plus the empty gap up to the atom, which sits exactly at the
    # right edge of the window at t0
    x_centers = (np.arange(cells + pad_cells) + 0.5) * dx
    field = np.zeros(cells + pad_cells, dtype=complex)
    # amplitude tuned for an exactly unit piecewise norm
    field[:cells] = rectangular_pulse(length).pieces.values[0]
    if photons == 2:
        field = np.outer(field, field)
    return LabState(t0, _cell_grid(x_centers + params.c * t0), field)


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
    steps = int(round((t_final - t0) * c / dx))
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


def _evolve(initial: LabState, photons: int, dx: float, t_final: float,
            params: PhysicalParams, record_trace: bool, norm_stride: int) -> LabRun:
    """Run the scheme on a state of `photons` photons, a rank-d field and its
    rank-(d-1) excited amplitude: read the crossed line phi[j], advance E,
    deposit along every axis."""
    field, excited, rank = initial.field, initial.excited, initial.field.ndim
    if rank != photons:
        raise ValueError(f"expected a {photons}-photon state, got {rank} photons")
    _validate_dx(dx)
    if not np.all(np.isfinite(field)):
        raise ValueError("initial field must be finite")
    if rank == 2 and not np.array_equal(field, field.T):
        raise ValueError("initial two-photon field must be symmetric")
    # one axis suffices: a two-photon field is symmetric
    if np.any(field[initial.grid.points >= 0]):
        raise ValueError("initial field must be supported at r_i < 0")
    if np.any(np.abs(excited) > 0):
        raise ValueError("the atom must start in the ground state")

    centers, steps, j_first = _prepare(initial.grid, initial.t, dx, t_final, params)
    n, rank = len(centers), field.ndim
    window = (slice(n - initial.grid.n, None),) * rank
    phi = np.zeros((n,) * rank, dtype=complex)
    phi[window] = field
    e = np.zeros((n,) * (rank - 1), dtype=complex)
    e[window[1:]] = excited
    e = e[()]                                   # a scalar for one photon

    gamma, c = params.gamma, params.c
    dt = dx / c
    s_abs = -math.sqrt(2.0 * gamma * c)         # absorption, sign included
    s_em = math.sqrt(2.0 * gamma / c)
    gdt = gamma * dt                    # midpoint step E_new = a E + b F, F held
    a_coef, b_coef = 1.0 - gdt + 0.5 * gdt * gdt, dt * (1.0 - 0.5 * gdt)
    w_start, w_end = 1.0 - DEPOSIT_END_WEIGHT, DEPOSIT_END_WEIGHT
    lines = [np.moveaxis(phi, axis, 0) for axis in range(rank)]  # [j]: line j
    excitation = excitation_probability(rank, dx)
    trace = np.empty(steps) if record_trace else None
    norm_vals = []
    for m in range(steps):
        j = j_first - m
        if 0 <= j < n:
            forcing = s_abs * phi[j]            # phi(0-, ...), before this step's emission
            e_new = a_coef * e + b_coef * forcing
            deposit = s_em * (w_start * e + w_end * e_new)
            for line in lines:
                line[j] += deposit
        else:
            e_new = a_coef * e
        e = e_new
        if record_trace:
            trace[m] = excitation(e)
        if norm_stride and (m % norm_stride == 0 or m == steps - 1):
            norm_vals.append(lab_norm(phi, e, dx))

    t_f = initial.t + steps * dt
    state = LabState(t_f, _cell_grid(centers + c * t_f), phi, e)
    if record_trace:
        trace = ExcitationTrace(initial.t + dt * (1 + np.arange(steps)), trace)
    return LabRun(state, trace, np.asarray(norm_vals) if norm_stride else None)


def evolve_one_photon(initial: LabState, dx: float, t_final: float,
                      params: PhysicalParams, record_trace: bool = False,
                      norm_stride: int = 0) -> LabRun:
    """Integrate the one-photon lab-frame dynamics up to t_final.

    The initial field must be incoming only (zero at r >= 0) with the atom in
    the ground state; dx must match the initial grid spacing and the atom must
    sit on a cell boundary.
    """
    return _evolve(initial, 1, dx, t_final, params, record_trace, norm_stride)


def evolve_two_photon(initial: LabState, dx: float, t_final: float,
                      params: PhysicalParams, record_trace: bool = False,
                      norm_stride: int = 0) -> LabRun:
    """Integrate the two-photon lab-frame dynamics up to t_final: the
    one-photon scheme run along both coordinates, with e(r) as the excited
    amplitude.  The initial field must also be exchange symmetric."""
    return _evolve(initial, 2, dx, t_final, params, record_trace, norm_stride)


# ---------------------------------------------------------------------------
# far-field extraction and validation helpers
# ---------------------------------------------------------------------------

def far_field(state: LabState, params: PhysicalParams) -> Wavefunction1 | Wavefunction2:
    """The lab field at time t in moving-frame coordinates x = r - c t: a
    `Wavefunction1` for one photon, a `Wavefunction2` for two."""
    grid = _cell_grid(state.grid.points - params.c * state.t)
    return (Wavefunction1 if state.field.ndim == 1 else Wavefunction2)(grid, state.field)


def run_rect(length: float, dx: float, params: PhysicalParams, photons: int = 1,
             pad: float = 5.0, clear: float = 15.0, record_trace: bool = False,
             norm_stride: int = 0) -> LabRun:
    """Build and evolve a rectangular-pulse run of `photons` photons until the
    trailing edge has cleared the atom by clear*c/gamma >= 0 (residual
    excitation ~ e^{-clear})."""
    if not clear >= 0:      # the run would stop before the pulse has crossed the atom
        raise ValueError(f"clear must be non-negative, got {clear}")
    initial = rect_initial(length, dx, params, pad, photons)
    # looked up in this module at call time, so a wrapper placed there sees the run
    evolve = evolve_one_photon if photons == 1 else evolve_two_photon
    return evolve(initial, dx, clear / params.gamma, params,
                  record_trace=record_trace, norm_stride=norm_stride)


def relative_l2(values: np.ndarray, reference: np.ndarray) -> float:
    """||values - reference||_2 / ||reference||_2 over whole arrays, or the
    numerator alone if the reference is zero."""
    return _relative_l2(lambda *_: values, lambda *_: reference, 1)


def _relative_l2(values, reference, n: int) -> float:
    """`relative_l2` of two n x n grids read by `model.deviation`."""
    _, num, den = deviation(values, reference, n)
    return math.sqrt(num) / math.sqrt(den) if den > 0 else math.sqrt(num)


def rect_error_one_photon(run: LabRun, length: float,
                          params: PhysicalParams) -> float:
    """Relative L2 deviation of the far field from the closed-form output,
    over the captured window."""
    ff = far_field(run.state, params)
    return relative_l2(ff.amp, rect_one_photon_out(ff.grid.points, length, params))


def rect_error_two_photon(run: LabRun, length: float,
                          params: PhysicalParams) -> float:
    ff = far_field(run.state, params)
    x = ff.grid.points
    return _relative_l2(ff.rows,
                        lambda i0, i1: rect_two_photon_out(x[i0:i1, None], x, length, params),
                        len(x))
