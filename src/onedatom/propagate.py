"""Application of the scattering map to arbitrary input wavefunctions.

The two-photon maps take either kind of input: a `Wavefunction1` psi stands
for the product state psi(x1) psi(x2) of two photons in the same pulse and
is never expanded to a grid, and a `Wavefunction2` is a general, exactly
exchange-symmetric two-photon amplitude.

Every input reduces to one form, data linear on cells (edges, left, right),
and one exact primitive on it, `_tail`: the tail integral of the exponential
kernel together with the value of the data at each evaluation point.  Exact
pieces are (boundaries, values, values); samples, of a one-photon pulse or
along either axis of a general 2D input, are (points, amp[:-1], amp[1:]),
their piecewise-linear interpolant.  Each cell contributes closed-form
weights, the phi functions of exponential integrators, so the only error is
rounding.  The one-photon kernel, the value minus 2 kappa times the tail, is
applied along each coordinate; its delta part is never discretized.

The output is a `ScatteredState`, held by its generators: the one-photon
output phi_out (rank-1 linear part) of a product input, or the dense linear
grid of a general input, and the n-vector of squared tails that sets the
semiseparable nonlinear part.  For a product input that is O(n) data; node
pairs and row blocks are evaluated from it on demand, and the dense n x n
grid is built only when `amp` is read.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import (
    Grid1D,
    PhysicalParams,
    Wavefunction1,
    Wavefunction2,
    _mirror,
    blocks,
    max_asymmetry,
)

__all__ = [
    "apply_one_photon",
    "apply_two_photon_linear",
    "apply_two_photon_nonlinear",
    "apply_two_photon",
    "default_output_grid",
    "ScatteredState",
    "TwoPhotonResult",
    "ResolutionWarning",
]

SERIES_BELOW = 0.5     # kappa*h below which the cell weights use their series


class ResolutionWarning(UserWarning):
    """Output grid too coarse to resolve the input's cell structure."""


def _check_amp(amp: np.ndarray) -> None:
    if not np.all(np.isfinite(amp)):
        raise ValueError("input amplitudes must be finite")


# ---------------------------------------------------------------------------
# exact tail integrals of piecewise-linear data
# ---------------------------------------------------------------------------

def _cell_weights(h: np.ndarray, kappa: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(exp(-kappa h), a, b) with
    integral_0^h exp(-kappa s) ((1 - s/h) p + (s/h) q) ds = a p + b q.

    With z = kappa h, a/h = phi2(-z) and b/h = phi1(-z) - phi2(-z), the
    exponential-integrator functions.  Their closed forms cancel for small z,
    where phi2 comes from its Taylor series sum_k (-z)^k / (k+2)! instead.
    """
    z = kappa * h
    small = z < SERIES_BELOW
    decay = np.exp(-z)
    zl = np.where(small, 1.0, z)
    phi1 = -np.expm1(-zl) / zl
    a = (1.0 - phi1) / zl
    b = (phi1 - decay) / zl
    zs = np.where(small, z, 0.0)
    phi2 = np.ones_like(z)
    for k in range(16, 2, -1):          # phi2(-z) = (1 - z/3 (1 - z/4 (...))) / 2
        phi2 = 1.0 - zs * phi2 / k
    phi2 *= 0.5
    a = np.where(small, phi2, a)
    b = np.where(small, 1.0 - (1.0 + zs) * phi2, b)
    return decay, h * a, h * b


def _tail(edges: np.ndarray, left: np.ndarray, right: np.ndarray,
          evals: np.ndarray, kappa: float, *,
          diagonal: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """(K(e), psi(e)), K(e) = integral_e^inf exp(-kappa (u - e)) psi(u) du, for
    psi linear on each cell [edges[k], edges[k+1]] from left[k] to right[k],
    right-continuous inside the closed [edges[0], edges[-1]], zero outside it;
    both exact.  left/right may carry trailing batch axes; the results have
    shape (len(evals),) + batch.  With diagonal=True, left/right have one batch
    column per evaluation point and only column m is evaluated at evals[m],
    which gives the diagonals, bit for bit.  Every exponent is <= 0."""
    n_cells = len(edges) - 1
    bshape = (...,) + (None,) * (left.ndim - 1)
    decay, a, b = _cell_weights(np.diff(edges), kappa)
    source = a[bshape] * left + b[bshape] * right
    # the first node at or right of e; K is read from the lowest one up
    j = np.searchsorted(edges, evals, side="right")
    nxt = np.minimum(j, n_cells)
    steps = range(n_cells - 1, int(nxt.min(initial=n_cells)) - 1, -1)
    K = np.zeros((n_cells + 1,) + left.shape[1:], dtype=complex)
    # each step runs in place on row views (one column without a batch), as
    # column blocks make narrow rows whose steps are mostly calls
    rows = list(K.reshape(n_cells + 1, -1))
    src, dec = list(source.reshape(n_cells, rows[0].size)), decay.tolist()
    for k in steps:
        np.multiply(rows[k + 1], dec[k], out=rows[k])
        rows[k] += src[k]
    # then the partial cell [e, that node]
    decay_e, a_e, b_e = _cell_weights(np.maximum(edges[nxt] - evals, 0.0), kappa)
    k = np.clip(j - 1, 0, n_cells - 1)
    cell, node = k, nxt
    if diagonal:                        # evaluation m reads batch column m only
        cols = np.arange(len(evals))
        cell, node, bshape = (k, cols), (nxt, cols), (...,)
    t = (evals - edges[k]) / (edges[k + 1] - edges[k])
    # in place, so at most three n_out x batch arrays are alive at a time
    at_r, at_e = right[cell], left[cell]
    step = at_r - at_e
    step *= t[bshape]
    at_e += step                        # left + t (right - left)
    del step
    partial = a_e[bshape] * at_e
    at_r *= b_e[bshape]
    partial += at_r
    del at_r
    partial[(j < 1) | (j > n_cells)] = 0.0
    at_e[(evals < edges[0]) | (evals > edges[-1])] = 0.0
    tail = K[node]
    tail *= decay_e[bshape]
    tail += partial
    return tail, at_e


def _cells(psi: Wavefunction1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A one-photon input as data linear on cells: its exact pieces, or the
    piecewise-linear interpolant of its samples."""
    if psi.pieces is not None:
        return psi.pieces.boundaries, psi.pieces.values, psi.pieces.values
    return psi.grid.points, psi.amp[:-1], psi.amp[1:]


def _one_photon_map(edges: np.ndarray, left: np.ndarray, right: np.ndarray,
                    evals: np.ndarray, kappa: float) -> np.ndarray:
    """psi(e) - 2 kappa K(e) for the cell data of `_tail`, along axis 0."""
    tail, out = _tail(edges, left, right, evals, kappa)
    out -= 2.0 * kappa * tail
    return out


def _tail_only(edges: np.ndarray, left: np.ndarray, right: np.ndarray,
               evals: np.ndarray, kappa: float) -> np.ndarray:
    """K(e) of `_tail` without the data's value."""
    return _tail(edges, left, right, evals, kappa)[0]


def _map_columns(along_axis0, edges: np.ndarray, a: np.ndarray, evals: np.ndarray,
                 kappa: float, *, upper: bool = False) -> np.ndarray:
    """`_one_photon_map` or `_tail_only` of the samples a along axis 0, into
    a new C-contiguous grid whose row j is column j mapped.  Columns are
    mapped in blocks of at most BLOCK_CELLS cells per temporary; this is
    exact, because `_tail` maps each column on its own.  With upper=True
    only the upper triangle (row <= column) is evaluated and the rest is
    left unset, for `_mirror` to fill."""
    cols = a.shape[1]
    out = np.empty((cols, len(evals)), dtype=complex)
    for c0, c1 in blocks(0, cols, max(len(edges), len(evals))):
        e0 = c0 if upper else 0
        out[c0:c1, e0:] = along_axis0(edges, a[:-1, c0:c1], a[1:, c0:c1],
                                      evals[e0:], kappa).T
    return out


# ---------------------------------------------------------------------------
# one-photon map
# ---------------------------------------------------------------------------

def _warn_if_coarse(psi: Wavefunction1, out_grid: Grid1D) -> None:
    if psi.pieces is not None and len(psi.pieces.values) > 1:
        min_cell = float(np.min(np.diff(psi.pieces.boundaries)))
        if out_grid.dx > min_cell:
            warnings.warn(
                f"output grid spacing {out_grid.dx:.3g} is coarser than the "
                f"input's smallest cell {min_cell:.3g}",
                ResolutionWarning, stacklevel=3)


def apply_one_photon(psi: Wavefunction1, out_grid: Grid1D,
                     params: PhysicalParams) -> Wavefunction1:
    """Scatter a one-photon wavefunction off the atom.

    The output is the transmitted amplitude plus the absorption-reemission
    integral, evaluated in closed form per cell.
    """
    _check_amp(psi.amp)
    _warn_if_coarse(psi, out_grid)
    out = _one_photon_map(*_cells(psi), out_grid.points, params.gamma_over_c)
    return Wavefunction1.sampled(out_grid, out)


# ---------------------------------------------------------------------------
# two-photon maps
# ---------------------------------------------------------------------------

def _require_symmetric(psi: Wavefunction2) -> None:
    if max_asymmetry(psi) > 0:
        raise ValueError("two-photon input must be exchange symmetric")


def _nonlinear_at(xs: np.ndarray, tail_sq: np.ndarray, kappa: float,
                  i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """-4 kappa^2 e^{-k(M-x_i)} e^{-k(M-x_j)} tail_sq[max(i,j)] with
    M = max(x_i, x_j), at the node pairs (i, j); index arrays broadcast."""
    # one of M - x_i, M - x_j is 0, whose exponential is exactly 1, and the
    # other is |x_i - x_j|: one exponential per cell gives the same bits, and
    # the same under i <-> j, so the result is exactly symmetric
    return (-4.0 * kappa * kappa) \
        * np.exp(-kappa * np.abs(xs[i] - xs[j])) * tail_sq[np.maximum(i, j)]


@dataclass(frozen=True, eq=False)
class ScatteredState:
    """Scattered two-photon amplitude on `grid`, held by its generators.

    A state has one generator, or is the sum of its two `parts`:
    - `linear`, a linear part: the one-photon output phi_out of a product
      input (the part is phi_out(x1) phi_out(x2)), or the dense linear output
      of a general input;
    - `tail_sq`, a nonlinear part: the squared tail T^2 at each node, which
      with `kappa` gives -4 kappa^2 e^{-kappa(M-x1)} e^{-kappa(M-x2)} T(M)^2,
      M = max(x1, x2).

    `at` and `rows` evaluate the generators; `amp`, the dense grid, is built
    on first read and cached, and `rows` slices it from then on.
    """

    grid: Grid1D
    linear: Wavefunction1 | Wavefunction2 | None = None
    tail_sq: np.ndarray | None = None
    kappa: float = 0.0
    parts: tuple[ScatteredState, ...] = ()

    def at(self, i, j) -> np.ndarray:
        """Amplitudes at the node pairs (i, j); index arrays broadcast."""
        if self.parts:
            first, second = self.parts
            return first.at(i, j) + second.at(i, j)
        if self.tail_sq is not None:
            return _nonlinear_at(self.grid.points, self.tail_sq, self.kappa, i, j)
        a = self.linear.amp
        return a[i] * a[j] if a.ndim == 1 else a[i, j]

    def rows(self, i0: int, i1: int) -> np.ndarray:
        """Rows i0:i1 of the amplitude grid (clipped like a slice)."""
        if "amp" in self.__dict__:
            return self.amp[i0:i1]
        if self.parts:
            first, second = self.parts
            return first.rows(i0, i1) + second.rows(i0, i1)
        idx = np.arange(self.grid.n)
        return self.at(idx[i0:i1, None], idx[None, :])

    @cached_property
    def amp(self) -> np.ndarray:
        """The dense n x n grid (read-only); a sum builds and keeps its parts'."""
        if self.linear is not None:
            return (self.linear if self.linear.amp.ndim == 2
                    else Wavefunction2.from_product(self.linear)).amp
        if self.parts:
            first, second = self.parts
            out = first.amp + second.amp
        else:
            n = self.grid.n
            out = np.empty((n, n), dtype=complex)
            for i0, i1 in blocks(0, n, n):
                out[i0:i1] = self.rows(i0, i1)
        out.setflags(write=False)
        return out


def apply_two_photon_linear(psi: Wavefunction1 | Wavefunction2, out_grid: Grid1D,
                            params: PhysicalParams) -> ScatteredState:
    """Linear (independent-photon) part of the two-photon map: the product of
    one-photon maps applied along each axis.  A `Wavefunction1` psi is the
    product input psi(x1) psi(x2), whose output is the product of its
    one-photon output and is held as that output."""
    if isinstance(psi, Wavefunction1):
        return ScatteredState(out_grid, linear=apply_one_photon(psi, out_grid, params))
    _check_amp(psi.amp)
    _require_symmetric(psi)
    k = params.gamma_over_c
    pts = psi.grid.points
    xs = out_grid.points
    # axis 0, then axis 1 into the upper triangle of the one output grid,
    # mirrored in place
    bt = _map_columns(_one_photon_map, pts, psi.amp, xs, k)
    out = _map_columns(_one_photon_map, pts, bt, xs, k, upper=True)
    return ScatteredState(out_grid, linear=Wavefunction2(out_grid, _mirror(out)))


def apply_two_photon_nonlinear(psi: Wavefunction1 | Wavefunction2, out_grid: Grid1D,
                               params: PhysicalParams) -> ScatteredState:
    """Nonlinear correction of the two-photon map.

    The kernel factorizes once the min-constraint is rewritten as both source
    coordinates above M = max(x1, x2), so the double integral reduces to a
    squared tail integral from M (a `Wavefunction1` psi, the product input
    psi(x1) psi(x2)) or a nested tail transform evaluated on the diagonal (a
    general `Wavefunction2`).  Either way the output is held by that n-vector.
    """
    _check_amp(psi.amp)
    k = params.gamma_over_c
    xs = out_grid.points
    if isinstance(psi, Wavefunction1):
        tail, _ = _tail(*_cells(psi), xs, k)
        tail_sq = tail * tail
    else:
        _require_symmetric(psi)
        pts = psi.grid.points
        # inner tail along axis 0 at the output points, then the outer tail
        # along axis 1; the physical value needs both tails anchored at the
        # same M, so column i of the inner tail is taken only at x_i
        inner = _map_columns(_tail_only, pts, psi.amp, xs, k)       # (n_in, n)
        tail_sq = np.empty(out_grid.n, dtype=complex)
        for c0, c1 in blocks(0, out_grid.n, max(len(pts), out_grid.n)):
            tail_sq[c0:c1] = _tail(pts, inner[:-1, c0:c1], inner[1:, c0:c1],
                                   xs[c0:c1], k, diagonal=True)[0]
    return ScatteredState(out_grid, tail_sq=tail_sq, kappa=k)


@dataclass(frozen=True)
class TwoPhotonResult:
    """Scattered two-photon state with its linear/nonlinear split retained
    for decomposition and interference queries.

    Each field is a `ScatteredState` on the output grid; `total` is the sum
    of the other two.  Reading a state through `at` or `rows` builds no
    n x n grid, and a state's dense `amp` exists only once it has been read."""

    total: ScatteredState
    linear: ScatteredState
    nonlinear: ScatteredState


def apply_two_photon(psi: Wavefunction1 | Wavefunction2, out_grid: Grid1D,
                     params: PhysicalParams) -> TwoPhotonResult:
    """Full two-photon scattering map: linear part plus nonlinear correction.

    psi is either a `Wavefunction1`, standing for the product input
    psi(x1) psi(x2), or a general exchange-symmetric `Wavefunction2`."""
    linear = apply_two_photon_linear(psi, out_grid, params)
    nonlinear = apply_two_photon_nonlinear(psi, out_grid, params)
    total = ScatteredState(out_grid, parts=(linear, nonlinear))
    return TwoPhotonResult(total=total, linear=linear, nonlinear=nonlinear)


def default_output_grid(psi: Wavefunction1 | Wavefunction2, params: PhysicalParams,
                        dx: float | None = None) -> Grid1D:
    """Output grid covering the input support plus a 10 c/gamma reemission
    tail; the tail mass beyond it is below e^{-20}."""
    ell = params.relaxation_length()
    if dx is None:
        dx = 0.01 * ell
    if isinstance(psi, Wavefunction2):
        lo, hi = breaks = psi.grid.x_min, psi.grid.x_max
    else:
        lo, hi = psi.support
        breaks = psi.pieces.boundaries if psi.pieces is not None else (lo, hi)
    x_min = lo - 10.0 * ell
    n = int(round((hi - x_min) / dx)) + 1
    return Grid1D.with_breakpoints(x_min, hi, n, tuple(float(b) for b in breaks))
