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
taken from that pass; a general input is mapped in blocks of output points
from the top down, with its node tails carried between blocks, so its
axis-0 tail is never held.  Each part is a `ScatteredState`, its grid and
its one read, `rows`, which evaluates the part's formula on a row block on
every call: the product of the one-photon outputs phi_out for a product
input; a general input's n_in x n axis-0 map and that map's node tails at
every isqrt(n_in)-th input node, from which a read replays the tails it
needs to the same bits; or the n-vector of squared tails that sets the
semiseparable nonlinear part.  Every part is exchange symmetric to the last
bit, so a point off the rows is read from the rows by symmetry.  `amp`, a
dense grid filled from row blocks, is for tests.
"""

from __future__ import annotations

import math
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
    # clipped for the points outside the data, whose t is masked but must not overflow
    t = (np.clip(evals, edges[k], edges[k + 1]) - edges[k]) / (edges[k + 1] - edges[k])
    return (k, nxt, t, decay_e, a_e, b_e, (j < 1) | (j > n_cells),
            (evals < edges[0]) | (evals > edges[-1]))


def _node_tails(cells: tuple[np.ndarray, ...], left: np.ndarray, right: np.ndarray,
                nodes: np.ndarray, tops: np.ndarray | None = None,
                carry: np.ndarray | None = None) -> np.ndarray:
    """K at the ascending `nodes`, shape (len(nodes),) + batch: K[k] =
    exp(-kappa h_k) K[k+1] + the exact integral over cell k, along axis 0 of
    left/right, each batch column on its own, with `cells` the
    `_cell_weights` (decay, a, b) of every cell.  Each node is stepped down
    from the first of the ascending `tops` at or above it, where K is the
    matching row of `carry` (by default one top, n_cells, where K = 0); the
    tops step down together, a cell each per step.  Every step takes the
    same operations, so K replayed from a stored row has the bits of K
    stepped down from n_cells."""
    decay, a, b = cells
    tops = np.array([len(decay)]) if tops is None else tops
    used, seg = np.unique(np.searchsorted(tops, nodes), return_inverse=True)
    tops = tops[used]
    depth = tops[seg] - nodes
    batch, bshape = left.shape[1:], (...,) + (None,) * (left.ndim - 1)
    row = np.zeros((len(used),) + batch, dtype=complex) if carry is None else carry[used]
    K = np.empty((len(nodes),) + batch, dtype=complex)
    K[depth == 0] = row[seg[depth == 0]]
    scratch = np.empty_like(row)
    # the cell integrals are formed for a block of steps of the cell budget
    # at a time; step t of a top writes K t nodes below it over its cell
    # integral (below node 0, cell 0: unread)
    for t0, t1 in blocks(1, int(depth.max(initial=0)) + 1, 2 * max(row.size, 1)):
        c = np.maximum(tops - np.arange(t0, t1)[:, None], 0)
        src = left[c].astype(complex, copy=False)
        np.multiply(a[c][bshape], src, out=src)
        at_right = right[c]
        src += np.multiply(b[c][bshape], at_right, out=at_right)
        del at_right
        for i, dec in enumerate(decay[c][bshape]):
            src[i] += np.multiply(row, dec, out=scratch)
            row = src[i]
        kept = (depth >= t0) & (depth < t1)
        K[kept] = src[depth[kept] - t0, seg[kept]]
        row = row.copy()                # the block is freed before the next is formed
        del src
    return K


def _partial_cell(cells: tuple[np.ndarray, ...], left: np.ndarray, right: np.ndarray,
                  look: tuple[np.ndarray, ...], tops: np.ndarray | None = None,
                  carry: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """(K(e), psi(e), nodes, K) at the points of the lookup `look`: the node
    tail K at the first node at or right of e, carried back to e, plus the
    exact integral over the partial cell [e, that node], every batch column
    at every point, shape (points,) + batch.  K is held only at the nodes
    the points read, stepped down from carry = K[top] by `_node_tails`;
    those nodes and K there are returned as well."""
    k, nxt, t, decay_e, a_e, b_e, no_cell, outside = look
    nodes, nxt = np.unique(nxt, return_inverse=True)
    K = _node_tails(cells, left, right, nodes, tops, carry)
    bshape = (...,) + (None,) * (left.ndim - 1)
    # in place, so at most three point x batch arrays are alive at a time
    at_r, at_e = right[k], left[k]
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
    tail = K[nxt]
    tail *= decay_e[bshape]
    tail += partial
    return tail, at_e, nodes, K


def _tail(edges: np.ndarray, left: np.ndarray, right: np.ndarray,
          evals: np.ndarray, kappa: float) -> tuple[np.ndarray, np.ndarray]:
    """(K(e), psi(e)), K(e) = integral_e^inf exp(-kappa (u - e)) psi(u) du, for
    psi linear on each cell [edges[k], edges[k+1]] from left[k] to right[k],
    right-continuous inside the closed [edges[0], edges[-1]], zero outside it;
    both exact.  left/right may carry trailing batch axes; the results have
    shape (len(evals),) + batch.  Every exponent is <= 0."""
    return _partial_cell(_cell_weights(np.diff(edges), kappa), left, right,
                         _lookup(edges, evals, kappa))[:2]


def _one_photon(value: np.ndarray, tail: np.ndarray, kappa: float) -> np.ndarray:
    """The one-photon kernel's output psi(e) - 2 kappa K(e), in value's array."""
    value -= 2.0 * kappa * tail
    return value


# ---------------------------------------------------------------------------
# the axis-0 pass and the one-photon map
# ---------------------------------------------------------------------------

def _map_axis0(psi: Wavefunction1 | Wavefunction2, out_grid: Grid1D,
               params: PhysicalParams) -> tuple[np.ndarray, np.ndarray]:
    """(mapped, tail_sq): psi mapped along axis 0 by the one-photon kernel at
    the output points, and the n-vector of squared tails that sets the
    nonlinear part, after the input's checks.  A `Wavefunction1` gives its
    one-photon output and its tail K squared.  A `Wavefunction2` gives an
    (n_in, n) array whose row r is input column r mapped, and K's nested
    tail taken on the diagonal."""
    if not np.all(np.isfinite(psi.amp)):
        raise ValueError("input amplitudes must be finite")
    k, xs, n = params.gamma_over_c, out_grid.points, out_grid.n
    if isinstance(psi, Wavefunction1):
        tail, value = _tail(psi.grid.points, psi.amp[:-1], psi.amp[1:], xs, k)
        return _one_photon(value, tail, k), tail * tail
    if max_asymmetry(psi) > 0:
        raise ValueError("two-photon input must be exchange symmetric")
    pts, a = psi.grid.points, psi.amp
    look, cells = _lookup(pts, xs, k), _cell_weights(np.diff(pts), k)
    mapped = np.empty((len(pts), n), dtype=complex)
    tail_sq = np.empty(n, dtype=complex)
    top = carry = None
    # blocks of output points from the top down, every input column at once,
    # with K carried from one block's lowest node to the next block: no
    # (n_in, n) tail and no (n_in, n_in) array is held.  The outer tail runs
    # along axis 1 of the inner one; the physical value needs both tails
    # anchored at the same M, so column i of the inner tail is taken only at
    # x_i: the diagonal of a block's b x b tails, where b <= n and b <= the
    # cell budget / max(n_in, n), so b^2 cells fit the budget
    for e0, e1 in reversed(list(blocks(0, n, max(len(pts), n)))):
        tail, value, nodes, K = _partial_cell(cells, a[:-1], a[1:],
                                              [v[e0:e1] for v in look], top, carry)
        top, carry = nodes[:1], K[:1].copy()
        tail_sq[e0:e1] = np.diagonal(_tail(pts, tail.T[:-1], tail.T[1:], xs[e0:e1], k)[0])
        mapped[:, e0:e1] = _one_photon(value, tail, k).T
        del tail, value, K              # freed before the next block is mapped
    return mapped, tail_sq


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
    with np.errstate(over="ignore"):    # an exponent that overflows to -inf gives 0
        decay = np.exp(-kappa * np.abs(xs[i] - xs[j]))
    decay *= -4.0 * kappa * kappa       # in place, so no second block is alive
    return decay * tail_sq[np.maximum(i, j)]


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
    output point e, which `_partial_cell` reads from the columns' node
    tails, plus 0.0, which turns a -0.0 into +0.0; (e, c) reads the same, so
    the amplitude is exactly symmetric by construction.  The closure holds
    the columns, their node tails at every m-th input node, m = isqrt(n_in),
    so O(n sqrt(n_in)) of them, and the `_lookup` of xs among the input's
    nodes.  A read replays the node tails it needs from the stored row at or
    above them, to the same bits."""
    n, n_cells = len(xs), len(edges) - 1
    look, cells = _lookup(edges, xs, kappa), _cell_weights(np.diff(edges), kappa)
    m = math.isqrt(len(edges))
    # the nodes at or above the lowest one an output point reads
    stored = np.append(np.arange(-(-int(look[1].min()) // m) * m, n_cells, m), n_cells)
    saved = _node_tails(cells, columns[:-1], columns[1:], stored)

    def mapped(e0: int, e1: int, c0: int, c1: int) -> np.ndarray:
        # columns c0:c1 at the output points e0:e1, shape (e1 - e0, c1 - c0)
        tail, value = _partial_cell(cells, columns[:-1, c0:c1], columns[1:, c0:c1],
                                    [a[e0:e1] for a in look], stored, saved[:, c0:c1])[:2]
        return _one_photon(value, tail, kappa)

    def rows(i0: int, i1: int) -> np.ndarray:
        # the pairs up to the diagonal block's end as mapped columns, the
        # block mirrored, and those right of it as mapped columns transposed
        span = range(n)[i0:i1]
        i0, i1 = span.start, max(span.start, span.stop)
        out = np.empty((i1 - i0, n), dtype=complex)
        out[:, :i1] = mapped(i0, i1, 0, i1)
        block = out[:, i0:i1]
        block[...] = np.where(np.tri(i1 - i0, dtype=bool), block, block.T)
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
    or from a general input's mapped columns (n_in x n), whose node tails a
    read replays from every isqrt(n_in)-th one (`_column_rows`).  The
    nonlinear kernel factorizes once the min-constraint is rewritten as both
    source coordinates above M = max(x1, x2), so its double integral reduces
    to a squared tail integral from M (a product input) or a nested tail
    transform evaluated on the diagonal (a general input); either way the
    correction is read from that n-vector.  `total` reads the sum of both."""
    k, xs, n = params.gamma_over_c, out_grid.points, out_grid.n
    mapped, tail_sq = _map_axis0(psi, out_grid, params)
    if isinstance(psi, Wavefunction1):
        # complex products are not bitwise commutative, so the operands are
        # taken in one order, which makes the part exactly symmetric
        linear = ScatteredState(out_grid, _pair_rows(
            n, lambda i, j: mapped[np.minimum(i, j)] * mapped[np.maximum(i, j)]))
    else:
        linear = ScatteredState(out_grid, _column_rows(psi.grid.points, mapped, xs, k))
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

