"""Application of the scattering map to arbitrary input wavefunctions.

The two-photon maps take either kind of input: a `Wavefunction1` psi stands
for the product state psi(x1) psi(x2) of two photons in the same pulse and
is never expanded to a grid, and a `Wavefunction2` is a general, exactly
exchange-symmetric two-photon amplitude.

Every input reduces to one form, data linear on cells (edges, left, right),
and one exact primitive on it, `_tail`: the tail integral of the exponential
kernel together with the value of the data at each evaluation point.  The
samples of a one-photon pulse, or along either axis of a general 2D input,
are (points, amp[:-1], amp[1:]), their piecewise-linear interpolant; a
rectangle is its two end nodes.  Each cell contributes closed-form weights,
the phi functions of exponential integrators, so the only error is
rounding.  The one-photon kernel, the value minus 2 kappa times the tail, is
applied along each coordinate; its delta part is never discretized.

Each input is mapped along axis 0 once (`_map_axis0`), and both parts are
taken from that pass.  Each part is a `ScatteredState`, its grid and its
one read, `rows`, which evaluates the part's formula on a row block on
every call: the product of the one-photon outputs phi_out for a product
input, a general input's axis-0 map and that map's node tails (O(n_in n)),
or the n-vector of squared tails that sets the semiseparable nonlinear
part.  Every part is exchange symmetric to the last bit, so a point off the
rows is read from the rows by symmetry.  `amp`, a dense grid filled from
row blocks, is for tests.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .model import (
    Grid1D,
    PhysicalParams,
    Wavefunction1,
    Wavefunction2,
    blocks,
    max_asymmetry,
)

__all__ = [
    "apply_one_photon",
    "apply_two_photon_linear",
    "apply_two_photon_nonlinear",
    "apply_two_photon",
    "ScatteredState",
    "TwoPhotonResult",
]

SERIES_BELOW = 0.5     # kappa*h below which the cell weights use their series


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


def _lookup(edges: np.ndarray, evals: np.ndarray, kappa: float) -> tuple[np.ndarray, ...]:
    """Where each evaluation point e sits among the cells: the cell k that
    holds it, the first node at or right of it, its fraction t of cell k, the
    weights (decay, a, b) of `_cell_weights` over [e, that node], and the
    masks of the points with no partial cell and of those outside the data.
    Every array has one entry per point, so a slice is the lookup of a slice
    of the points."""
    n_cells = len(edges) - 1
    j = np.searchsorted(edges, evals, side="right")
    nxt = np.minimum(j, n_cells)
    decay_e, a_e, b_e = _cell_weights(np.maximum(edges[nxt] - evals, 0.0), kappa)
    k = np.clip(j - 1, 0, n_cells - 1)
    t = (evals - edges[k]) / (edges[k + 1] - edges[k])
    return (k, nxt, t, decay_e, a_e, b_e, (j < 1) | (j > n_cells),
            (evals < edges[0]) | (evals > edges[-1]))


def _node_tails(edges: np.ndarray, left: np.ndarray, right: np.ndarray,
                kappa: float, lowest: int = 0) -> np.ndarray:
    """K at the nodes lowest..n_cells (rows below `lowest` stay 0): K[n_cells]
    = 0 and K[k] = exp(-kappa h_k) K[k+1] + the exact integral over cell k,
    along axis 0 of left/right, each batch column on its own."""
    n_cells = len(edges) - 1
    bshape = (...,) + (None,) * (left.ndim - 1)
    decay, a, b = _cell_weights(np.diff(edges), kappa)
    K = np.zeros((n_cells + 1,) + left.shape[1:], dtype=complex)
    # each step runs in place on row views (one column without a batch), as
    # column blocks make narrow rows whose steps are mostly calls; the cell
    # integrals are formed for a block of rows of the cell budget at a time,
    # with the block's rows of K, not yet stepped, as scratch
    rows = list(K.reshape(n_cells + 1, -1))
    dec = decay.tolist()
    for r0, r1 in reversed(list(blocks(lowest, n_cells, rows[0].size))):
        src = np.multiply(a[r0:r1][bshape], left[r0:r1],
                          out=np.empty(K[r0:r1].shape, dtype=complex))
        src += np.multiply(b[r0:r1][bshape], right[r0:r1], out=K[r0:r1])
        src = src.reshape(r1 - r0, -1)
        for k in range(r1 - 1, r0 - 1, -1):
            np.multiply(rows[k + 1], dec[k], out=rows[k])
            rows[k] += src[k - r0]
        del src                         # freed before the next block's is formed
    return K


def _partial_cell(left: np.ndarray, right: np.ndarray, K: np.ndarray,
                  look: tuple[np.ndarray, ...],
                  cols: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(K(e), psi(e)) at the points of the lookup `look`: the node tail K read
    at the first node at or right of e, carried back to e, plus the exact
    integral over the partial cell [e, that node].  Without `cols` every batch
    column is evaluated at every point, shape (points,) + batch; with `cols`,
    point m reads batch column cols[m] only, shape of the points."""
    k, nxt, t, decay_e, a_e, b_e, no_cell, outside = look
    cell, node, bshape = k, nxt, (...,) + (None,) * (left.ndim - 1)
    if cols is not None:
        cell, node, bshape = (k, cols), (nxt, cols), (...,)
    # in place, so at most three point x batch arrays are alive at a time
    at_r, at_e = right[cell], left[cell]
    step = at_r - at_e
    step *= t[bshape]
    at_e += step                        # left + t (right - left)
    del step
    partial = a_e[bshape] * at_e
    at_r *= b_e[bshape]
    partial += at_r
    del at_r
    partial[no_cell] = 0.0
    at_e[outside] = 0.0
    tail = K[node]
    tail *= decay_e[bshape]
    tail += partial
    return tail, at_e


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
    look = _lookup(edges, evals, kappa)
    # K is read from the lowest node at or right of an evaluation point up
    K = _node_tails(edges, left, right, kappa,
                    int(look[1].min(initial=len(edges) - 1)))
    return _partial_cell(left, right, K, look,
                         np.arange(len(evals)) if diagonal else None)


def _one_photon(value: np.ndarray, tail: np.ndarray, kappa: float) -> np.ndarray:
    """The one-photon kernel's output psi(e) - 2 kappa K(e), in value's array."""
    value -= 2.0 * kappa * tail
    return value


# ---------------------------------------------------------------------------
# the axis-0 pass and the one-photon map
# ---------------------------------------------------------------------------

def _map_axis0(psi: Wavefunction1 | Wavefunction2, out_grid: Grid1D,
               params: PhysicalParams) -> tuple[np.ndarray, np.ndarray]:
    """(mapped, tail): psi mapped along axis 0 by the one-photon kernel and
    its tail K, both at the output points and from one `_tail` pass, after
    the input's checks.  A `Wavefunction1` gives two n-vectors.  A
    `Wavefunction2` gives two (n_in, n) arrays whose row r is input column r
    mapped, formed in column blocks of the cell budget; that is exact,
    because `_tail` maps each column on its own."""
    if not np.all(np.isfinite(psi.amp)):
        raise ValueError("input amplitudes must be finite")
    k, xs = params.gamma_over_c, out_grid.points
    if isinstance(psi, Wavefunction1):
        tail, value = _tail(psi.grid.points, psi.amp[:-1], psi.amp[1:], xs, k)
        return _one_photon(value, tail, k), tail
    if max_asymmetry(psi) > 0:
        raise ValueError("two-photon input must be exchange symmetric")
    pts, a = psi.grid.points, psi.amp
    mapped = np.empty((a.shape[1], len(xs)), dtype=complex)
    tail = np.empty_like(mapped)
    for c0, c1 in blocks(0, a.shape[1], max(len(pts), len(xs))):
        t, value = _tail(pts, a[:-1, c0:c1], a[1:, c0:c1], xs, k)
        tail[c0:c1] = t.T
        mapped[c0:c1] = _one_photon(value, t, k).T
        del t, value                    # freed before the next block is mapped
    return mapped, tail


def apply_one_photon(psi: Wavefunction1, out_grid: Grid1D,
                     params: PhysicalParams) -> Wavefunction1:
    """Scatter a one-photon wavefunction off the atom.

    The output is the transmitted amplitude plus the absorption-reemission
    integral, evaluated in closed form per cell.
    """
    return Wavefunction1(out_grid, _map_axis0(psi, out_grid, params)[0])


# ---------------------------------------------------------------------------
# two-photon maps
# ---------------------------------------------------------------------------

def _nonlinear_at(xs: np.ndarray, tail_sq: np.ndarray, kappa: float,
                  i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """-4 kappa^2 e^{-k(M-x_i)} e^{-k(M-x_j)} tail_sq[max(i,j)] with
    M = max(x_i, x_j), at the node pairs (i, j); index arrays broadcast."""
    # one of M - x_i, M - x_j is 0, whose exponential is exactly 1, and the
    # other is |x_i - x_j|: one exponential per cell gives the same bits, and
    # the same under i <-> j, so the result is exactly symmetric
    return (-4.0 * kappa * kappa) \
        * np.exp(-kappa * np.abs(xs[i] - xs[j])) * tail_sq[np.maximum(i, j)]


def _pair_rows(n: int, pair: Callable[[np.ndarray, np.ndarray], np.ndarray]
               ) -> Callable[[int, int], np.ndarray]:
    """rows(i0, i1) of the n x n grid whose entry (i, j) is pair(i, j), the
    formula evaluated on the row block's index slices, so it clips like a
    slice."""
    idx = np.arange(n)
    return lambda i0, i1: pair(idx[i0:i1, None], idx[None, :])


def _column_rows(edges: np.ndarray, columns: np.ndarray, xs: np.ndarray,
                 kappa: float) -> Callable[[int, int], np.ndarray]:
    """rows(i0, i1) of the linear output of a general input at the points xs,
    held by its generators.

    `columns` is the input mapped along axis 0 (n_in x n): its column c is
    the input's first axis mapped to output point c.  The amplitude at the
    pair (c, e) with c <= e is column c mapped along the second axis at
    output point e, which `_tail`'s partial cell reads from the columns'
    node tails, plus 0.0, which turns a -0.0 into +0.0; (e, c) reads the
    same, so the amplitude is exactly symmetric by construction.  The
    closure holds these O(n_in n) arrays and the `_lookup` of xs among the
    input's nodes, shared by every read."""
    n = len(xs)
    look = _lookup(edges, xs, kappa)
    node_tails = _node_tails(edges, columns[:-1], columns[1:], kappa, int(look[1].min()))

    def mapped(e0: int, e1: int, c0: int, c1: int) -> np.ndarray:
        # columns c0:c1 at the output points e0:e1, shape (e1 - e0, c1 - c0)
        tail, value = _partial_cell(columns[:-1, c0:c1], columns[1:, c0:c1],
                                    node_tails[:, c0:c1], tuple(a[e0:e1] for a in look))
        return _one_photon(value, tail, kappa)

    def rows(i0: int, i1: int) -> np.ndarray:
        # the pairs left of the diagonal block as mapped columns, the block
        # mirrored, and those right of it as mapped columns transposed
        span = range(n)[i0:i1]
        i0, i1 = span.start, max(span.start, span.stop)
        out = np.empty((i1 - i0, n), dtype=complex)
        out[:, :i0] = mapped(i0, i1, 0, i0)
        block = mapped(i0, i1, i0, i1)
        out[:, i0:i1] = np.where(np.tri(i1 - i0, dtype=bool), block, block.T)
        del block
        out[:, i1:] = mapped(i1, n, i0, i1).T
        out += 0.0
        return out

    return rows


@dataclass(frozen=True, eq=False)
class ScatteredState:
    """Scattered two-photon amplitude on `grid`, held by its one read.

    `rows(i0, i1)` gives rows i0:i1 of the amplitude grid, clipped like a
    slice; it is the only read of a state.  Each part is built with the
    rows formula of its own generators (see `apply_two_photon`), which
    evaluates it on every call; a point off the rows is read by exchange
    symmetry, psi(x1, x2) = psi(x2, x1), which every part holds to the last
    bit.  `amp` is a dense n x n read in row blocks, which only tests use.
    """

    grid: Grid1D
    rows: Callable[[int, int], np.ndarray]

    @property
    def amp(self) -> np.ndarray:
        """The dense n x n grid, filled from `rows` in row blocks."""
        n = self.grid.n
        out = np.empty((n, n), dtype=complex)
        for i0, i1 in blocks(0, n, n):
            out[i0:i1] = self.rows(i0, i1)
        return out


@dataclass(frozen=True)
class TwoPhotonResult:
    """Scattered two-photon state with its linear/nonlinear split retained
    for decomposition and interference queries.

    Each field is a `ScatteredState` on the output grid, read through its
    `rows`; `total` is the sum of the other two."""

    total: ScatteredState
    linear: ScatteredState
    nonlinear: ScatteredState


def apply_two_photon(psi: Wavefunction1 | Wavefunction2, out_grid: Grid1D,
                     params: PhysicalParams) -> TwoPhotonResult:
    """Full two-photon scattering map: linear part plus nonlinear correction,
    both from one axis-0 pass over the input.

    psi is either a `Wavefunction1`, standing for the product input
    psi(x1) psi(x2), or a general exchange-symmetric `Wavefunction2`.  The
    linear (independent-photon) part is the one-photon map applied along
    each axis: read as the product of a product input's one-photon outputs,
    or from a general input's mapped columns and their node tails.  The
    nonlinear kernel factorizes once the min-constraint is rewritten as both
    source coordinates above M = max(x1, x2), so its double integral reduces
    to a squared tail integral from M (a product input) or a nested tail
    transform evaluated on the diagonal (a general input); either way the
    correction is read from that n-vector.  `total` reads the sum of both."""
    k, xs, n = params.gamma_over_c, out_grid.points, out_grid.n
    mapped, tail = _map_axis0(psi, out_grid, params)
    if isinstance(psi, Wavefunction1):
        tail_sq = tail * tail
        # complex products are not bitwise commutative, so the operands are
        # taken in one order, which makes the part exactly symmetric
        linear = ScatteredState(out_grid, _pair_rows(
            n, lambda i, j: mapped[np.minimum(i, j)] * mapped[np.maximum(i, j)]))
    else:
        pts = psi.grid.points
        # the outer tail along axis 1 of the inner one; the physical value
        # needs both tails anchored at the same M, so column i of the inner
        # tail is taken only at x_i
        tail_sq = np.empty(n, dtype=complex)
        for c0, c1 in blocks(0, n, max(len(pts), n)):
            tail_sq[c0:c1] = _tail(pts, tail[:-1, c0:c1], tail[1:, c0:c1],
                                   xs[c0:c1], k, diagonal=True)[0]
        del tail                        # freed before the linear part's node tails
        linear = ScatteredState(out_grid, _column_rows(pts, mapped, xs, k))
    nonlinear = ScatteredState(out_grid, _pair_rows(
        n, lambda i, j: _nonlinear_at(xs, tail_sq, k, i, j)))
    total = ScatteredState(out_grid,
                           lambda i0, i1: linear.rows(i0, i1) + nonlinear.rows(i0, i1))
    return TwoPhotonResult(total=total, linear=linear, nonlinear=nonlinear)


def apply_two_photon_linear(psi: Wavefunction1 | Wavefunction2, out_grid: Grid1D,
                            params: PhysicalParams) -> ScatteredState:
    """Linear part of the two-photon map, `apply_two_photon(...).linear`."""
    return apply_two_photon(psi, out_grid, params).linear


def apply_two_photon_nonlinear(psi: Wavefunction1 | Wavefunction2, out_grid: Grid1D,
                               params: PhysicalParams) -> ScatteredState:
    """Nonlinear correction of the two-photon map,
    `apply_two_photon(...).nonlinear`."""
    return apply_two_photon(psi, out_grid, params).nonlinear

