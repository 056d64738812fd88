"""Physical parameters, spatial grids, and wavefunction containers.

Everything downstream (kernels, scattering maps, the lab-frame integrator,
correlation functions) works with the types defined here.  Internal units put
c = 1 by default so that the dipole relaxation length c/gamma is the only
physical scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

__all__ = [
    "PhysicalParams",
    "Grid1D",
    "Wavefunction1",
    "Wavefunction2",
    "LabState",
    "rectangular_pulse",
    "gaussian_pulse",
    "norm1",
    "norm2",
    "max_asymmetry",
    "deviation",
    "relative_l2",
]

# Cells per block wherever a two-photon grid is assembled, mapped, mirrored
# or read in blocks of rows or columns: a complex block takes at most
# 16 * BLOCK_CELLS bytes (1 MiB), so at any n the temporaries of a blocked
# loop stay far below one n x n grid.
BLOCK_CELLS = 1 << 16
# Largest cell, step or sample count: one line of this many cells takes 1.6 GB
# and the oracle over 100 s (a Python step per cell), so more is rejected.
MAX_COUNT = 10 ** 8


def block_rows(width: int) -> int:
    """Indices per block of at most BLOCK_CELLS cells, each index standing
    for `width` cells (one index at least)."""
    return max(1, BLOCK_CELLS // width)


def blocks(lo: int, hi: int, width: int):
    """(i0, i1) ranges splitting lo:hi into blocks of `block_rows(width)`."""
    step = block_rows(width)
    return ((i0, min(i0 + step, hi)) for i0 in range(lo, hi, step))


@dataclass(frozen=True)
class PhysicalParams:
    """Dipole relaxation rate and propagation speed.

    gamma is the dipole relaxation rate (2*gamma is the spontaneous emission
    rate); c is the field propagation speed.  c/gamma sets the length scale of
    every feature in the scattered field.
    """

    gamma: float = 1.0
    c: float = 1.0

    def __post_init__(self) -> None:
        if not (self.gamma > 0.0 and math.isfinite(self.gamma)):
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")
        if not (self.c > 0.0 and math.isfinite(self.c)):
            raise ValueError(f"c must be positive and finite, got {self.c}")
        # the map's largest coefficients, formed by multiplication as the map
        # forms them (a float ** raises where * overflows to inf)
        kappa = self.gamma / self.c
        if not (math.isfinite(4.0 * kappa * kappa) and math.isfinite(2.0 * self.c * self.c)):
            raise ValueError(f"4 (gamma/c)^2 and 2 c^2 must be finite, got gamma={self.gamma}, "
                             f"c={self.c}")

    def relaxation_length(self) -> float:
        return self.c / self.gamma

    @property
    def gamma_over_c(self) -> float:
        """Spatial decay rate of the reemission kernels."""
        return self.gamma / self.c


def _aligned_segments(x_min: float, x_max: float, n: int,
                      breakpoints: tuple[float, ...]) -> list[tuple[float, float, int]]:
    """Partition [x_min, x_max] into uniform segments whose edges include the
    requested breakpoints, targeting about n total points.

    Returns a list of (lo, hi, cells) per segment.  When the breakpoint gaps
    are commensurate with the span the overall spacing is uniform; otherwise
    the cell counts are rounded per segment and spacing is only approximately
    uniform.
    """
    span = x_max - x_min
    if not math.isfinite(span):
        raise ValueError(f"grid span [{x_min:g}, {x_max:g}] overflows")
    anchors = sorted({x_min, x_max, *(b for b in breakpoints if x_min < b < x_max)})
    gaps = [hi - lo for lo, hi in zip(anchors[:-1], anchors[1:])]
    target_cells = max(n - 1, len(gaps))

    ratios = [Fraction(g / span).limit_denominator(8192) for g in gaps]
    if sum(ratios) == 1:
        denom = math.lcm(*(r.denominator for r in ratios))
        units = [int(r * denom) for r in ratios]
        if denom <= 64 * target_cells and all(u > 0 for u in units):
            scale = max(1, round(target_cells / denom))
            return [(lo, hi, scale * u)
                    for (lo, hi), u in zip(zip(anchors[:-1], anchors[1:]), units)]

    # incommensurate gaps: per-segment rounding, exact breakpoints but not
    # strictly uniform spacing
    base = span / target_cells
    return [(lo, hi, max(1, round((hi - lo) / base)))
            for lo, hi in zip(anchors[:-1], anchors[1:])]


@dataclass(frozen=True)
class Grid1D:
    """Uniform 1D grid, optionally aligned so that given positions are nodes.

    Breakpoint-aligned construction places each requested discontinuity
    position exactly on a node (zero error), which the quadrature and the
    exact integration paths rely on.
    """

    x_min: float
    x_max: float
    n: int
    breakpoints: tuple[float, ...] = ()
    _points: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise ValueError("grid bounds must be finite")
        if not self.x_min < self.x_max:
            raise ValueError(f"need x_min < x_max, got [{self.x_min}, {self.x_max}]")
        if not math.isfinite(self.x_max - self.x_min):
            raise ValueError(f"grid span [{self.x_min:g}, {self.x_max:g}] overflows")
        if self.n < 2:
            raise ValueError(f"need at least 2 points, got n={self.n}")
        if self._points is None:
            pts = np.linspace(self.x_min, self.x_max, self.n)
            object.__setattr__(self, "_points", pts)
        elif len(self._points) != self.n:
            raise ValueError("provided points do not match n")
        self._points.setflags(write=False)

    @classmethod
    def with_breakpoints(cls, x_min: float, x_max: float, n: int,
                         breakpoints: tuple[float, ...] | list[float]) -> "Grid1D":
        """Build a grid of roughly n points with the given positions as exact
        nodes.  Out-of-range breakpoints are ignored; n may be adjusted to the
        nearest value compatible with the alignment."""
        bks = tuple(sorted({float(b) for b in breakpoints}))
        segments = _aligned_segments(float(x_min), float(x_max), int(n), bks)
        parts = [np.linspace(lo, hi, cells + 1) for lo, hi, cells in segments]
        pts = np.concatenate([p if i == 0 else p[1:] for i, p in enumerate(parts)])
        return cls(float(x_min), float(x_max), len(pts),
                   breakpoints=tuple(b for b in bks if x_min <= b <= x_max),
                   _points=pts)

    @property
    def points(self) -> np.ndarray:
        return self._points

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n - 1)

    def breakpoint_indices(self) -> list[int]:
        """Node indices of the tracked breakpoints strictly inside the grid."""
        out = []
        for b in self.breakpoints:
            if self.x_min < b < self.x_max:
                i = int(np.searchsorted(self._points, b))
                if i < self.n and self._points[i] == b:
                    out.append(i)
        return out


# ---------------------------------------------------------------------------
# quadrature
#
# Sampled wavefunctions are integrated with the composite trapezoid rule.
# Across a tracked breakpoint the stored node value is one-sided, so each
# smooth block gets its edge values replaced by quadratic extrapolation from
# the interior, plus the first Euler-Maclaurin endpoint correction.  This
# keeps the norm second order (and better) even though the integrand jumps.
# ---------------------------------------------------------------------------

# Coefficients over the four nodes nearest a block edge, edge node first.
# The edge value is the stored sample, or its quadratic extrapolation from
# the next three nodes when the edge is a breakpoint; the slope stencil is
# f'(edge) ~ (-3 f_edge + 4 f_1 - f_2) / (2h) without its edge term.
_EDGE_OWN = np.array([1.0, 0.0, 0.0, 0.0])
_EDGE_EXTRAPOLATED = np.array([0.0, 3.0, -3.0, 1.0])
_SLOPE_INNER = np.array([0.0, 4.0, -1.0, 0.0])


def _quadrature_weights(points: np.ndarray, breakpoint_idx: list[int]) -> np.ndarray:
    """Weights w such that sum(w * f) integrates f over the grid, with
    one-sided treatment of the blocks separated by tracked breakpoints."""
    n = len(points)
    w = np.zeros(n)
    edges = [0] + sorted({i for i in breakpoint_idx if 0 < i < n - 1}) + [n - 1]
    for a, b in zip(edges[:-1], edges[1:]):
        xs = points[a:b + 1]
        m = len(xs)
        k = min(m, 4)
        at_a, at_b = a + np.arange(k), b - np.arange(k)
        left = _EDGE_EXTRAPOLATED if a != 0 and m >= 4 else _EDGE_OWN
        right = _EDGE_EXTRAPOLATED if b != n - 1 and m >= 4 else _EDGE_OWN
        h0 = xs[1] - xs[0]
        h1 = xs[-1] - xs[-2]
        w[a + 1:b] += (xs[2:] - xs[:-2]) / 2
        w[at_a] += (h0 / 2) * left[:k]
        w[at_b] += (h1 / 2) * right[:k]
        if m < 3:
            continue
        # Euler-Maclaurin endpoint correction -(h^2/12)(f'(b) - f'(a))
        corr = h0 * h0 / 12.0
        w[at_b] += -corr * (3.0 * right[:k] / (2 * h1) - _SLOPE_INNER[:k] / (2 * h1))
        w[at_a] += corr * (-3.0 * left[:k] / (2 * h0) + _SLOPE_INNER[:k] / (2 * h0))
    return w


def grid_weights(grid: Grid1D) -> np.ndarray:
    """Integration weights for samples on this grid (breakpoint aware)."""
    return _quadrature_weights(grid.points, grid.breakpoint_indices())


# ---------------------------------------------------------------------------
# wavefunction containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Wavefunction1:
    """One-photon amplitude over a 1D grid (units 1/sqrt(length)): its
    samples at the grid's nodes, which the scattering map reads as their
    piecewise-linear interpolant, zero outside the grid."""

    grid: Grid1D
    amp: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.amp, dtype=complex)
        if a.shape != (self.grid.n,):
            raise ValueError(f"amp shape {a.shape} does not match grid n={self.grid.n}")
        object.__setattr__(self, "amp", a)
        a.setflags(write=False)


def _unit_rect_value(length: float) -> float:
    """Representable amplitude closest to 1/sqrt(length) whose exact squared
    integral over the pulse rounds to 1.0 whenever that is attainable."""
    v0 = 1.0 / math.sqrt(length)
    lld = np.longdouble(length)

    def err(v: float) -> float:
        vld = np.longdouble(v)
        return abs(float(vld * vld * lld) - 1.0)

    best, best_err = v0, err(v0)
    up = dn = v0
    for _ in range(8):
        up = float(np.nextafter(up, np.inf))
        dn = float(np.nextafter(dn, -np.inf))
        for cand in (up, dn):
            e = err(cand)
            if e < best_err:
                best, best_err = cand, e
    return best


def rectangular_pulse(length: float) -> Wavefunction1:
    """Unit-norm rectangular pulse on [0, length]: the two nodes 0 and length
    with equal amplitudes, whose interpolant is the constant on the pulse.

    The amplitude is the representable float nearest 1/sqrt(length) whose
    squared integral over the pulse, formed in extended precision, rounds to
    1.0.
    """
    if not (length > 0 and math.isfinite(length)):
        raise ValueError(f"pulse length must be positive, got {length}")
    value = _unit_rect_value(length)
    return Wavefunction1(Grid1D(0.0, length, 2), [value, value])


def gaussian_pulse(center: float, width: float, grid: Grid1D) -> Wavefunction1:
    """Gaussian pulse, unit norm over the real line: width is the standard
    deviation of |psi|^2."""
    if not (width > 0 and math.isfinite(width)):
        raise ValueError(f"pulse width must be positive, got {width}")
    try:
        scale = (2.0 * math.pi * width**2) ** (-0.25)
    except (OverflowError, ZeroDivisionError):  # width**2 overflows, or underflows to 0
        raise ValueError(f"pulse width {width} is outside the floating-point range") from None
    x = grid.points
    amp = scale * np.exp(-((x - center) ** 2) / (4 * width**2))
    return Wavefunction1(grid, amp)


def norm1(psi: Wavefunction1) -> float:
    """Squared-amplitude integral of a one-photon wavefunction by the
    breakpoint-aware trapezoid rule."""
    # numpy's own reduction, not a BLAS dot: the sum does not depend on how
    # many threads BLAS would split a long input between
    sq = np.abs(psi.amp)
    sq *= sq
    sq *= grid_weights(psi.grid)
    return max(float(np.sum(sq)), 0.0)


def _mirror(amp: np.ndarray) -> np.ndarray:
    """Make a square grid exactly symmetric in place and return it: the upper
    triangle (including the diagonal) is mirrored into the lower one, block
    by block.  Adding +0.0 to the kept triangle turns a -0.0 into +0.0 on
    both sides, the bits of the sum triu(a) + triu(a, 1).T.  Only the kept
    triangle is read, so the lower one may be left unset."""
    n = len(amp)
    for i0, i1 in blocks(0, n, n):
        diag = amp[i0:i1, i0:i1]
        lower = np.tri(i1 - i0, k=-1, dtype=bool)
        np.add(diag, 0.0, out=diag, where=~lower)
        amp[i0:i1, i1:] += 0.0
        diag[lower] = diag.T[lower]
        amp[i0:i1, :i0] = amp[:i0, i0:i1].T
    return amp


@dataclass(frozen=True)
class Wavefunction2:
    """Bosonic two-photon amplitude over a shared 1D grid (units 1/length).

    Construct through `from_product` or `symmetric` so that exchange symmetry
    holds exactly; the plain constructor stores `amp` as given.  `rows` is
    the read every two-photon state offers (see `propagate.ScatteredState`),
    here plain slicing; a point off the rows is read by exchange symmetry.
    """

    grid: Grid1D
    amp: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.amp, dtype=complex)
        if a.shape != (self.grid.n, self.grid.n):
            raise ValueError(f"amp shape {a.shape} does not match grid n={self.grid.n}")
        object.__setattr__(self, "amp", a)
        a.setflags(write=False)

    @classmethod
    def from_product(cls, psi: Wavefunction1) -> "Wavefunction2":
        """Dense product state psi(x1) psi(x2); symmetric to the last bit,
        since a complex product is not bitwise commutative and the lower
        triangle is mirrored from the upper one.  The scattering map takes psi
        itself for this state."""
        return cls(psi.grid, _mirror(np.outer(psi.amp, psi.amp)))

    @classmethod
    def symmetric(cls, grid: Grid1D, amp) -> "Wavefunction2":
        return cls(grid, _mirror(np.array(amp, dtype=complex, order="C")))

    def rows(self, i0: int, i1: int) -> np.ndarray:
        """Rows i0:i1 of the amplitude grid (clipped like a slice)."""
        return self.amp[i0:i1]


def _row_density(psi: Wavefunction2, w: np.ndarray, lo: int = 0,
                 hi: int | None = None) -> np.ndarray:
    """sum_j w[j] |amp[i, j]|^2 for each row i in lo:hi (all rows by
    default), read through `rows` in blocks.  numpy's own reduction, not a
    BLAS product: the result does not depend on how many threads BLAS would
    split the rows between, nor on the block size."""
    n = psi.grid.n
    hi = n if hi is None else hi
    out = np.empty(hi - lo)
    for i0, i1 in blocks(lo, hi, n):
        sq = np.abs(psi.rows(i0, i1))
        sq *= sq
        sq *= w
        out[i0 - lo:i1 - lo] = np.sum(sq, axis=1)
        del sq                          # freed before the next block is built
    return out


def norm2(psi: Wavefunction2) -> float:
    """Squared-amplitude double integral of a two-photon state, read through
    its `rows`; separable breakpoint-aware quadrature along both axes.  Row
    blocks keep peak memory bounded."""
    w = grid_weights(psi.grid)
    return max(float(np.sum(w * _row_density(psi, w))), 0.0)


def deviation(values, reference, n: int) -> tuple[float, float, float]:
    """Largest |a - b|, sum |a - b|^2 and sum |b|^2 of two n x n grids read
    through row readers (i0, i1) -> rows i0:i1, in row blocks of the cell
    budget.  numpy's own reductions, not BLAS: the sums do not depend on how
    many threads BLAS would use, and a nan difference makes the max nan."""
    worst, num, den = [], 0.0, 0.0
    for i0, i1 in blocks(0, n, n):
        ref = reference(i0, i1)
        dev = np.abs(values(i0, i1) - ref)
        worst.append(np.max(dev))
        num += float(np.sum(dev * dev))
        den += float(np.sum(np.abs(ref) ** 2))
        del dev, ref                    # freed before the next block is built
    return float(np.max(worst)), num, den


def relative_l2(num: float, den: float) -> float:
    """||a - b||_2 / ||b||_2 from the sums sum |a - b|^2 and sum |b|^2, or
    the numerator alone against a zero b."""
    return math.sqrt(num) / math.sqrt(den) if den > 0 else math.sqrt(num)


def max_asymmetry(psi: Wavefunction2) -> float:
    """Largest |amp(x1,x2) - amp(x2,x1)| over all stored pairs (nan if any
    difference is), read in row blocks against the matching column blocks."""
    amp = psi.amp
    return deviation(lambda i0, i1: amp[i0:i1], lambda i0, i1: amp[:, i0:i1].T, len(amp))[0]


# ---------------------------------------------------------------------------
# lab-frame states for the time-domain integrator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LabState:
    """Lab-frame state at time t of one or two photons: the field's cell
    values on a uniform grid (the atom sits at r = 0), psi(r) or the
    symmetric phi(r1, r2), plus `excited`, the amplitude of the excited atom
    and the other photons: a scalar E for one photon, e(r) for two.  The
    photon number is `field.ndim`; `excited` has one rank less and defaults
    to the ground state.

    There is no doubly-excited amplitude: a two-level atom cannot absorb both
    photons, and the state layout makes that structural.
    """

    t: float
    grid: Grid1D
    field: np.ndarray
    excited: complex | np.ndarray | None = None

    def __post_init__(self) -> None:
        f = np.asarray(self.field, dtype=complex)
        if f.ndim not in (1, 2) or f.shape != (self.grid.n,) * f.ndim:
            raise ValueError(f"field shape {f.shape} is neither n nor n x n, n={self.grid.n}")
        shape = (self.grid.n,) * (f.ndim - 1)
        e = np.zeros(shape, dtype=complex) if self.excited is None \
            else np.asarray(self.excited, dtype=complex)
        if e.shape != shape:
            raise ValueError(f"excited shape {e.shape} is not one rank below the field's")
        object.__setattr__(self, "field", f)
        object.__setattr__(self, "excited", e[()])      # a scalar for one photon

    def total_norm(self) -> float:
        return lab_norm(self.field, self.excited, self.grid.dx)


def excitation_probability(rank: int, dx: float):
    """The atom's excitation probability as a function of the excited
    amplitude of a lab state whose field has `rank` photons: |E|^2 for the
    scalar one-photon E, the sum of |e(r)|^2 dx for the two-photon e(r).
    Chosen once per rank, so a step loop pays no dispatch on the scalar."""
    if rank == 1:
        return lambda e: abs(e) ** 2
    return lambda e: np.sum(np.abs(e) ** 2) * dx


def lab_norm(field: np.ndarray, excited, dx: float) -> float:
    """Total norm of a lab state: the field's cell sum times dx once per axis,
    plus the excitation probability once per photon, because e(r) stands for
    both (E, r) and (r, E), equal by symmetry."""
    rank = field.ndim
    total = np.sum(np.abs(field) ** 2)
    for _ in range(rank):
        total = total * dx
    return float(total + rank * excitation_probability(rank, dx)(excited))
