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
    "PiecewiseConstant",
    "Wavefunction1",
    "Wavefunction2",
    "LabState1",
    "LabState2",
    "rectangular_pulse",
    "gaussian_pulse",
    "norm1",
    "norm2",
    "max_asymmetry",
]

# Rows per block wherever a two-photon grid is assembled or read row by row;
# a block of complex rows takes 16 * ASSEMBLE_BLOCK * n bytes.
ASSEMBLE_BLOCK = 512


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
class PiecewiseConstant:
    """Exact piecewise-constant complex amplitude: len(values) cells bounded
    by len(values)+1 increasing positions, zero outside."""

    boundaries: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        b = np.asarray(self.boundaries, dtype=float)
        v = np.asarray(self.values, dtype=complex)
        if b.ndim != 1 or v.ndim != 1 or len(b) != len(v) + 1:
            raise ValueError("need len(boundaries) == len(values) + 1")
        if not np.all(np.diff(b) > 0):
            raise ValueError("boundaries must be strictly increasing")
        object.__setattr__(self, "boundaries", b)
        object.__setattr__(self, "values", v)
        b.setflags(write=False)
        v.setflags(write=False)

    @property
    def support(self) -> tuple[float, float]:
        return float(self.boundaries[0]), float(self.boundaries[-1])

    def sample(self, x) -> np.ndarray:
        """Amplitude at x: right-continuous at cell boundaries, the last
        boundary taking the last cell's value, zero outside the support."""
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(self.boundaries, x, side="right") - 1
        idx = np.where(x == self.boundaries[-1], len(self.values) - 1, idx)
        inside = (idx >= 0) & (idx < len(self.values))
        out = np.zeros(x.shape, dtype=complex)
        out[inside] = self.values[idx[inside]]
        return out

    def norm(self) -> float:
        """Exact squared-amplitude integral, accumulated in extended
        precision and rounded once."""
        widths = np.diff(self.boundaries).astype(np.longdouble)
        re = self.values.real.astype(np.longdouble)
        im = self.values.imag.astype(np.longdouble)
        return float(np.sum((re * re + im * im) * widths))


@dataclass(frozen=True)
class Wavefunction1:
    """One-photon amplitude over a 1D grid (units 1/sqrt(length)).

    `pieces` carries the exact piecewise-constant representation when the
    wavefunction has one; operations use it for exact integration.
    """

    grid: Grid1D
    amp: np.ndarray
    pieces: PiecewiseConstant | None = None

    def __post_init__(self) -> None:
        a = np.asarray(self.amp, dtype=complex)
        if a.shape != (self.grid.n,):
            raise ValueError(f"amp shape {a.shape} does not match grid n={self.grid.n}")
        object.__setattr__(self, "amp", a)
        a.setflags(write=False)

    @classmethod
    def sampled(cls, grid: Grid1D, amp) -> "Wavefunction1":
        return cls(grid, np.asarray(amp, dtype=complex))

    @classmethod
    def from_pieces(cls, pieces: PiecewiseConstant, grid: Grid1D) -> "Wavefunction1":
        return cls(grid, pieces.sample(grid.points), pieces=pieces)

    @property
    def support(self) -> tuple[float, float]:
        if self.pieces is not None:
            return self.pieces.support
        nz = np.flatnonzero(np.abs(self.amp) > 0)
        if len(nz) == 0:
            return (self.grid.x_min, self.grid.x_min)
        return (float(self.grid.points[nz[0]]), float(self.grid.points[nz[-1]]))


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


def rectangular_pulse(length: float, grid: Grid1D | None = None) -> Wavefunction1:
    """Unit-norm rectangular pulse on [0, length].

    The stored amplitude is the representable float nearest 1/sqrt(length)
    that makes the exact cell-sum norm equal to 1.0.
    """
    if not (length > 0 and math.isfinite(length)):
        raise ValueError(f"pulse length must be positive, got {length}")
    value = _unit_rect_value(length)
    pieces = PiecewiseConstant(np.array([0.0, length]), np.array([value + 0j]))
    if grid is None:
        grid = Grid1D.with_breakpoints(0.0, length, 513, (0.0, length))
    return Wavefunction1.from_pieces(pieces, grid)


def gaussian_pulse(center: float, width: float, grid: Grid1D) -> Wavefunction1:
    """Gaussian pulse, unit norm over the real line: width is the standard
    deviation of |psi|^2."""
    if not (width > 0 and math.isfinite(width)):
        raise ValueError(f"pulse width must be positive, got {width}")
    x = grid.points
    amp = (2.0 * math.pi * width**2) ** (-0.25) * np.exp(-((x - center) ** 2) / (4 * width**2))
    return Wavefunction1.sampled(grid, amp.astype(complex))


def norm1(psi: Wavefunction1) -> float:
    """Squared-amplitude integral of a one-photon wavefunction: exact cell sum
    for piecewise-constant data, breakpoint-aware trapezoid otherwise."""
    if psi.pieces is not None:
        return psi.pieces.norm()
    w = grid_weights(psi.grid)
    return max(float(np.dot(w, np.abs(psi.amp) ** 2)), 0.0)


def _mirrored(amp: np.ndarray) -> np.ndarray:
    """Exactly symmetric copy: the upper triangle (including the diagonal) is
    mirrored into the lower one."""
    out = np.triu(amp)
    out += np.triu(amp, 1).T
    return out


@dataclass(frozen=True)
class Wavefunction2:
    """Bosonic two-photon amplitude over a shared 1D grid (units 1/length).

    Construct through `from_product` or `symmetric` so that exchange symmetry
    holds exactly; the plain constructor stores `amp` as given.  `at` and
    `rows` are the reads every two-photon state offers (see
    `propagate.ScatteredState`), here plain indexing.
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
        """Dense product state psi(x1) psi(x2); symmetric to the last bit.
        The scattering map takes psi itself for this state."""
        return cls(psi.grid, np.outer(psi.amp, psi.amp))

    @classmethod
    def symmetric(cls, grid: Grid1D, amp) -> "Wavefunction2":
        return cls(grid, _mirrored(np.asarray(amp, dtype=complex)))

    def at(self, i, j) -> np.ndarray:
        """Amplitudes at the node pairs (i, j); index arrays broadcast."""
        return self.amp[i, j]

    def rows(self, i0: int, i1: int) -> np.ndarray:
        """Rows i0:i1 of the amplitude grid (clipped like a slice)."""
        return self.amp[i0:i1]


def _row_density(psi: Wavefunction2, w: np.ndarray) -> np.ndarray:
    """sum_j w[j] |amp[i, j]|^2 for each row i, read through `rows` in
    blocks.  numpy's own reduction, not a BLAS product: the result does not
    depend on how many threads BLAS would split the rows between."""
    out = np.empty(psi.grid.n)
    for i0 in range(0, psi.grid.n, ASSEMBLE_BLOCK):
        sq = np.abs(psi.rows(i0, i0 + ASSEMBLE_BLOCK))
        sq *= sq
        sq *= w
        out[i0:i0 + ASSEMBLE_BLOCK] = np.sum(sq, axis=1)
        del sq                          # freed before the next block is built
    return out


def norm2(psi: Wavefunction2) -> float:
    """Squared-amplitude double integral of a two-photon state, read through
    its `rows`; separable breakpoint-aware quadrature along both axes.  Row
    blocks keep peak memory bounded."""
    w = grid_weights(psi.grid)
    return max(float(np.sum(w * _row_density(psi, w))), 0.0)


def max_asymmetry(psi: Wavefunction2) -> float:
    """Largest |amp(x1,x2) - amp(x2,x1)| over all stored pairs."""
    return float(np.max(np.abs(psi.amp - psi.amp.T)))


# ---------------------------------------------------------------------------
# lab-frame states for the time-domain integrator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LabState1:
    """One-photon lab-frame state at time t: field cell values psi(r) on a
    uniform grid (the atom sits at r = 0) plus the excited-state amplitude."""

    t: float
    grid: Grid1D
    field: np.ndarray
    excited: complex = 0j

    def __post_init__(self) -> None:
        f = np.asarray(self.field, dtype=complex)
        if f.shape != (self.grid.n,):
            raise ValueError("field shape does not match grid")
        object.__setattr__(self, "field", f)

    def total_norm(self) -> float:
        return lab_norm(self.field, self.excited, self.grid.dx)


@dataclass(frozen=True)
class LabState2:
    """Two-photon lab-frame state: symmetric field amplitude phi(r1, r2) and
    the (atom excited, one photon at r) amplitude e(r).

    There is no doubly-excited amplitude: a two-level atom cannot absorb both
    photons, and the state layout makes that structural.
    """

    t: float
    grid: Grid1D
    field2: np.ndarray
    excited1: np.ndarray

    def __post_init__(self) -> None:
        f = np.asarray(self.field2, dtype=complex)
        e = np.asarray(self.excited1, dtype=complex)
        if f.shape != (self.grid.n, self.grid.n) or e.shape != (self.grid.n,):
            raise ValueError("state shapes do not match grid")
        object.__setattr__(self, "field2", f)
        object.__setattr__(self, "excited1", e)

    def total_norm(self) -> float:
        return lab_norm(self.field2, self.excited1, self.grid.dx)


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
