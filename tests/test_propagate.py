import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from onedatom import (
    Grid1D,
    PhysicalParams,
    Wavefunction1,
    Wavefunction2,
    apply_one_photon,
    apply_two_photon,
    apply_two_photon_linear,
    apply_two_photon_nonlinear,
    g2_slice,
    gaussian_pulse,
    max_asymmetry,
    norm2,
    rect_nonlin_out,
    rect_one_photon_out,
    rect_two_photon_out,
    rectangular_pulse,
)
from onedatom import model
from onedatom.propagate import (
    ScatteredState,
    _cell_weights,
    _tail,
)

P = PhysicalParams()
L = 20.0


@pytest.fixture(scope="module")
def rect():
    return rectangular_pulse(L)


@pytest.fixture(scope="module")
def out_grid():
    return Grid1D.with_breakpoints(-10.0, L, 512, (0.0, L))


@pytest.fixture(scope="module")
def scattered(rect, out_grid):
    return apply_two_photon(rect, out_grid, P)


class TestOnePhotonExactPath:
    def test_matches_closed_form(self, rect, out_grid):
        out = apply_one_photon(rect, out_grid, P)
        ref = rect_one_photon_out(out_grid.points, L, P)
        assert np.max(np.abs(out.amp - ref)) <= 1e-10

    def test_pinned_values(self, rect):
        probe = Grid1D.with_breakpoints(0.0, L, 3, (10.0,))
        out = apply_one_photon(rect, probe, P)
        at10 = out.amp[np.searchsorted(probe.points, 10.0)]
        assert at10 == pytest.approx((2 * math.exp(-10) - 1) / math.sqrt(L), rel=1e-13)
        assert out.amp[-1] == pytest.approx(1 / math.sqrt(L), rel=1e-13)

    def test_zero_input(self, rect, out_grid):
        zero = Wavefunction1(rect.grid, 0 * rect.amp)
        out = apply_one_photon(zero, out_grid, P)
        assert np.all(out.amp == 0)

    def test_causality_exact(self, rect):
        wide = Grid1D.with_breakpoints(-5.0, 30.0, 351, (0.0, L))
        out = apply_one_photon(rect, wide, P)
        assert np.max(np.abs(out.amp[wide.points > L])) == 0.0

    def test_linearity(self, rect, out_grid):
        base = apply_one_photon(rect, out_grid, P)
        scaled_in = Wavefunction1(rect.grid, 2.5 * rect.amp)
        scaled = apply_one_photon(scaled_in, out_grid, P)
        rel = np.max(np.abs(scaled.amp - 2.5 * base.amp)) / np.max(np.abs(base.amp))
        assert rel <= 1e-14

    def test_rejects_nonfinite(self, out_grid):
        g = Grid1D(0.0, 1.0, 11)
        amp = np.zeros(11, dtype=complex)
        amp[3] = math.nan
        with pytest.raises(ValueError):
            apply_one_photon(Wavefunction1(g, amp), out_grid, P)

    @settings(max_examples=100, deadline=None)
    # a subnormal amplitude would make 1e-10 * |c| smaller than any rounding
    @given(a=st.floats(-10.0, 10.0), length=st.floats(1e-3, 30.0),
           re=st.floats(-5.0, 5.0, allow_subnormal=False),
           im=st.floats(-5.0, 5.0, allow_subnormal=False))
    def test_two_node_constant_is_a_shifted_rectangle(self, a, length, re, im):
        # two equal nodes interpolate to the constant on [a, b], so the map
        # is the unit rectangle's closed form, shifted to a and scaled
        b = a + length
        c = complex(re, im)
        psi = Wavefunction1(Grid1D(a, b, 2), [c, c])
        grid = Grid1D.with_breakpoints(a - 5.0, b + 2.0, 301, (a, b))
        out = apply_one_photon(psi, grid, P)
        ref = c * math.sqrt(b - a) * rect_one_photon_out(grid.points - a, b - a, P)
        assert np.max(np.abs(out.amp - ref)) <= 1e-10 * abs(c)


class TestOnePhotonSampledPath:
    def test_gaussian_matches_brute_force(self):
        gin = Grid1D(0.0, 20.0, 2001)
        psi = gaussian_pulse(10.0, 1.5, gin)
        gout = Grid1D(-10.0, 20.0, 3001)
        out = apply_one_photon(psi, gout, P)

        def brute(x):
            here = np.interp(x, gin.points, psi.amp.real) if 0 <= x <= 20 else 0.0
            if x >= 20.0:
                return here
            xs = np.linspace(max(x, 0.0), 20.0, 20001)
            vals = np.interp(xs, gin.points, psi.amp.real)
            return here - 2.0 * np.trapezoid(np.exp(-(xs - x)) * vals, xs)

        probe = [-5.0, -1.0, 0.3, 5.0, 9.97, 13.2, 19.5]
        got = np.interp(probe, gout.points, out.amp.real)
        want = np.array([brute(x) for x in probe])
        assert np.max(np.abs(got - want)) <= 1e-7


def _tail_reference(edges, left, right, evals, kappa):
    """`_tail` with one expression per step (several n_out x batch
    temporaries alive at once): the reference its in-place form must match."""
    n_cells = len(edges) - 1
    bshape = (...,) + (None,) * (left.ndim - 1)
    decay, a, b = _cell_weights(np.diff(edges), kappa)
    source = a[bshape] * left + b[bshape] * right
    K = np.zeros((n_cells + 1,) + left.shape[1:], dtype=complex)
    for k in range(n_cells - 1, -1, -1):
        K[k] = decay[k] * K[k + 1] + source[k]
    j = np.searchsorted(edges, evals, side="right")
    nxt = np.minimum(j, n_cells)
    decay_e, a_e, b_e = _cell_weights(np.maximum(edges[nxt] - evals, 0.0), kappa)
    k = np.clip(j - 1, 0, n_cells - 1)
    t = (evals - edges[k]) / (edges[k + 1] - edges[k])
    at_e = left[k] + t[bshape] * (right[k] - left[k])
    in_cell = ((j >= 1) & (j <= n_cells))[bshape]
    partial = np.where(in_cell, a_e[bshape] * at_e + b_e[bshape] * right[k], 0.0)
    at_e[(evals < edges[0]) | (evals > edges[-1])] = 0.0
    return decay_e[bshape] * K[nxt] + partial, at_e


def _map_columns_reference(edges, a, evals, kappa, upper=False):
    """Row c: column c of the samples a mapped along axis 0 by the one-photon
    kernel at evals, by `_tail` in column blocks; with upper=True only at
    evals[e] for e >= the block's first column, the rest left unset."""
    cols = a.shape[1]
    out = np.empty((cols, len(evals)), dtype=complex)
    for c0, c1 in model.blocks(0, cols, max(len(edges), len(evals))):
        e0 = c0 if upper else 0
        tail, value = _tail(edges, a[:-1, c0:c1], a[1:, c0:c1], evals[e0:], kappa)
        value -= 2.0 * kappa * tail
        out[c0:c1, e0:] = value.T
    return out


def _dense_parts(psi, grid):
    """{part: dense grid} of the scattered pair, built without `rows`: the
    product of one-photon outputs, or both axes of a general input mapped
    column by column and mirrored, and the nonlinear formula on the squared
    tails T^2, the square of the one-photon tail or the nested tail of a
    general input taken on the diagonal."""
    kappa, xs, pts = P.gamma_over_c, grid.points, psi.grid.points
    tail = _tail(pts, psi.amp[:-1], psi.amp[1:], xs, kappa)[0]
    if isinstance(psi, Wavefunction2):
        cols = _map_columns_reference(pts, psi.amp, xs, kappa)
        linear = model._mirror(_map_columns_reference(pts, cols, xs, kappa, upper=True))
        tail_sq = np.diagonal(_tail(pts, tail.T[:-1], tail.T[1:], xs, kappa)[0])
    else:
        linear = Wavefunction2.from_product(apply_one_photon(psi, grid, P)).amp
        tail_sq = tail * tail
    idx = np.arange(grid.n)
    nonlinear = (-4.0 * kappa * kappa) * np.exp(-kappa * np.abs(xs[:, None] - xs)) \
        * tail_sq[np.maximum(idx[:, None], idx)]
    return {"total": linear + nonlinear, "linear": linear, "nonlinear": nonlinear}


def _no_dense_read():
    """`ScatteredState.amp` replaced by a property that fails the test when
    anything reads it."""
    def read(self):
        pytest.fail("a scattered state's dense grid was read")
    return mock.patch.object(ScatteredState, "amp", property(read))


class TestExactTail:
    """The one tail primitive against quadrature and under re-representation
    of the same input."""

    @pytest.mark.parametrize("seed", range(6))
    def test_sampled_path_matches_quad(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        x = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 3.0, n - 1))])
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        params = PhysicalParams(gamma=float(rng.uniform(0.2, 10.0)))
        k = params.gamma_over_c              # k*h reaches about 30
        psi = Wavefunction1(Grid1D(0.0, float(x[-1]), n, _points=x), v)
        evals = np.unique(np.concatenate([
            x, rng.uniform(-2.0, x[-1] + 1.0, 12), [-2.5, x[-1] + 1.5]]))
        out = apply_one_photon(psi, Grid1D(float(evals[0]), float(evals[-1]),
                                           len(evals), _points=evals), params)

        def interp(u):
            return np.interp(u, x, v.real) + 1j * np.interp(u, x, v.imag)

        for e, got in zip(evals, out.amp):
            lo = max(e, 0.0)
            tail = 0j
            if lo < x[-1]:
                inner = [p for p in x if lo < p < x[-1]]
                for part in (np.real, np.imag):
                    val, _ = quad(lambda u: part(np.exp(-k * (u - e)) * interp(u)),
                                  lo, x[-1], points=inner or None, limit=200,
                                  epsabs=1e-14, epsrel=1e-12)
                    tail += val if part is np.real else 1j * val
            ref = (interp(e) if 0.0 <= e <= x[-1] else 0.0) - 2.0 * k * tail
            assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_batch_axes_act_columnwise(self):
        rng = np.random.default_rng(11)
        x = np.cumsum(rng.uniform(0.1, 2.0, 7))
        v = rng.normal(size=(7, 3)) + 1j * rng.normal(size=(7, 3))
        evals = np.linspace(x[0] - 1.0, x[-1] + 1.0, 9)
        batched, _ = _tail(x, v[:-1], v[1:], evals, 0.7)
        for c in range(3):
            col, _ = _tail(x, v[:-1, c], v[1:, c], evals, 0.7)
            assert np.max(np.abs(batched[:, c] - col)) <= 1e-15

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        x = np.cumsum(rng.uniform(0.01, 2.0, n))
        evals = np.sort(np.concatenate([x, rng.uniform(x[0] - 1.0, x[-1] + 1.0, 30)]))
        kappa = float(rng.uniform(0.05, 20.0))
        pieces = rng.normal(size=n - 1)
        batched = rng.normal(size=(n, 5)) + 1j * rng.normal(size=(n, 5))
        square = rng.normal(size=(n, len(evals))) + 1j * rng.normal(size=(n, len(evals)))
        cases = [(pieces, pieces), (batched[:-1, 0], batched[1:, 0]),
                 (batched[:-1], batched[1:]), (square[:-1], square[1:])]
        for left, right in cases:
            got = _tail(x, left, right, evals, kappa)
            ref = _tail_reference(x, left, right, evals, kappa)
            for g, r in zip(got, ref):
                assert g.dtype == r.dtype and np.array_equal(g, r)

    @settings(max_examples=60, deadline=None)
    @given(widths=st.lists(st.floats(1e-3, 3.0), min_size=1, max_size=8),
           re=st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9),
           im=st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9),
           kappa=st.floats(0.05, 20.0), cell=st.integers(0, 7),
           frac=st.floats(0.01, 0.99))
    def test_node_on_interpolant_leaves_tail_unchanged(self, widths, re, im,
                                                       kappa, cell, frac):
        x = np.concatenate([[0.0], np.cumsum(widths)])
        v = (np.array(re) + 1j * np.array(im))[:len(x)]
        c = cell % len(widths)
        x_new = x[c] + frac * (x[c + 1] - x[c])
        v_new = v[c] + frac * (v[c + 1] - v[c])
        x2 = np.insert(x, c + 1, x_new)
        v2 = np.insert(v, c + 1, v_new)
        evals = np.concatenate([x2, [x[0] - 0.5, x[-1] + 0.5],
                                np.linspace(x[0], x[-1], 17)])
        base, _ = _tail(x, v[:-1], v[1:], evals, kappa)
        refined, _ = _tail(x2, v2[:-1], v2[1:], evals, kappa)
        assert np.max(np.abs(refined - base)) <= 1e-13 * max(1.0, np.max(np.abs(base)))

    @settings(max_examples=60, deadline=None)
    @given(widths=st.lists(st.floats(1e-3, 3.0), min_size=1, max_size=8),
           re=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8),
           kappa=st.floats(0.05, 20.0), cell=st.integers(0, 7),
           frac=st.floats(0.01, 0.99))
    def test_split_constant_cell_leaves_tail_unchanged(self, widths, re, kappa,
                                                       cell, frac):
        edges = np.concatenate([[0.0], np.cumsum(widths)])
        v = (np.array(re) * (1.0 - 0.5j))[:len(widths)]
        c = cell % len(widths)
        split = edges[c] + frac * (edges[c + 1] - edges[c])
        edges2 = np.insert(edges, c + 1, split)
        v2 = np.insert(v, c, v[c])
        evals = np.concatenate([edges2, [edges[0] - 0.5, edges[-1] + 0.5],
                                np.linspace(edges[0], edges[-1], 17)])
        base, _ = _tail(edges, v, v, evals, kappa)
        split_tail, _ = _tail(edges2, v2, v2, evals, kappa)
        assert np.max(np.abs(split_tail - base)) <= 1e-13 * max(1.0, np.max(np.abs(base)))

    @settings(max_examples=100, deadline=None)
    @given(widths=st.lists(st.floats(1e-3, 3.0), min_size=1, max_size=8),
           re=st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9),
           im=st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9),
           start=st.floats(-5.0, 5.0),
           fracs=st.lists(st.floats(-0.2, 1.2), min_size=1, max_size=12))
    def test_value_is_the_cell_interpolant(self, widths, re, im, start, fracs):
        x = start + np.concatenate([[0.0], np.cumsum(widths)])
        evals = np.concatenate([x, x[0] + np.array(fracs) * (x[-1] - x[0])])
        v = (np.array(re) + 1j * np.array(im))[:len(x)]
        # equal ends: the value is the cell's constant, bit for bit, taken
        # from the cell on the right at a node and from the last cell at the
        # last node
        const = v[:-1]
        _, value = _tail(x, const, const, evals, 0.9)
        k = np.searchsorted(x, evals, side="right") - 1
        k = np.where(evals == x[-1], len(const) - 1, k)
        inside = (k >= 0) & (k < len(const))
        assert np.array_equal(value, np.where(inside, const[np.clip(k, 0, len(const) - 1)], 0.0))
        # samples: their linear interpolant, zero outside the nodes
        _, value = _tail(x, v[:-1], v[1:], evals, 0.9)
        inside = (evals >= x[0]) & (evals <= x[-1])
        ref = np.where(inside, np.interp(evals, x, v.real)
                       + 1j * np.interp(evals, x, v.imag), 0.0)
        assert np.max(np.abs(value - ref)) <= 2e-15 * np.max(np.abs(v))


class TestTwoPhotonLinear:
    def test_factored_structure_preserved(self, rect, out_grid):
        out = apply_two_photon_linear(rect, out_grid, P)
        one = apply_one_photon(rect, out_grid, P)
        assert np.array_equal(out.amp, np.outer(one.amp, one.amp))

    def test_pinned_value_is_square_of_one_photon(self, scattered, out_grid):
        i = int(np.searchsorted(out_grid.points, 10.0))
        expected = ((2 * math.exp(-10) - 1) ** 2) / L
        assert scattered.linear.amp[i, i].real == pytest.approx(expected, rel=1e-13)

    def test_zero_input(self, out_grid):
        g = Grid1D(0.0, 1.0, 16)
        zero = Wavefunction2(g, np.zeros((16, 16)))
        out = apply_two_photon_linear(zero, out_grid, P)
        assert np.all(out.amp == 0)

    def test_rejects_asymmetric_input(self, out_grid):
        g = Grid1D(0.0, 1.0, 4)
        amp = np.zeros((4, 4), dtype=complex)
        amp[0, 1] = 1.0
        with pytest.raises(ValueError):
            apply_two_photon_linear(Wavefunction2(g, amp), out_grid, P)


class TestTwoPhotonNonlinear:
    def test_matches_closed_form(self, scattered, out_grid):
        x = out_grid.points
        ref = rect_nonlin_out(x[:, None], x[None, :], L, P)
        assert np.max(np.abs(scattered.nonlinear.amp - ref)) <= 1e-10

    def test_pinned_plateau_value(self, scattered, out_grid):
        i = int(np.searchsorted(out_grid.points, 10.0))
        expected = -(4 / L) * (1 - math.exp(-10)) ** 2
        assert scattered.nonlinear.amp[i, i].real == pytest.approx(expected, rel=1e-13)

    def test_zero_beyond_pulse_end(self, rect):
        wide = Grid1D.with_breakpoints(-5.0, 30.0, 351, (0.0, L))
        out = apply_two_photon_nonlinear(rect, wide, P)
        beyond = wide.points > L
        assert np.max(np.abs(out.amp[beyond, :])) == 0.0
        assert np.max(np.abs(out.amp[:, beyond])) == 0.0

    def test_off_diagonal_against_brute_force(self, scattered, out_grid):
        # 2D quadrature collapses to a separable integral for the rectangle
        i = int(np.searchsorted(out_grid.points, 10.0))
        j = int(np.searchsorted(out_grid.points, 12.0))
        x1, x2 = out_grid.points[i], out_grid.points[j]
        xs = np.arange(x2, L + 5e-4, 1e-3)
        inner = np.trapezoid(np.exp(-(xs - x2)) / math.sqrt(L), xs)
        brute = -4.0 * math.exp(-(x2 - x1)) * inner * inner
        assert scattered.nonlinear.amp[i, j].real == pytest.approx(brute, rel=1e-5)


class TestTwoPhotonTotal:
    def test_plateau_values(self, scattered, out_grid):
        i = int(np.searchsorted(out_grid.points, 10.0))
        assert scattered.total.amp[i, i].real == pytest.approx(-3 / L, abs=1e-4)
        k = int(np.searchsorted(out_grid.points, 2.0))
        assert scattered.total.amp[k, i].real == pytest.approx(1 / L, abs=5e-4)

    def test_total_is_sum_of_parts(self, scattered):
        assert np.array_equal(scattered.total.amp,
                              scattered.linear.amp + scattered.nonlinear.amp)

    def test_outputs_exactly_symmetric(self, scattered):
        assert max_asymmetry(scattered.total) == 0.0
        assert max_asymmetry(scattered.linear) == 0.0
        assert max_asymmetry(scattered.nonlinear) == 0.0

    def test_matches_closed_form(self, scattered, out_grid):
        x = out_grid.points
        ref = rect_two_photon_out(x[:, None], x[None, :], L, P)
        assert np.max(np.abs(scattered.total.amp - ref)) <= 1e-10

    def test_unitarity_small_pulse(self):
        small = rectangular_pulse(5.0)
        grid = Grid1D.with_breakpoints(-20.0, 5.0, 2501, (0.0, 5.0))
        res = apply_two_photon(small, grid, P)
        assert abs(norm2(res.total) - 1.0) <= 1e-4

    def test_linearity_2d(self, rect, out_grid, scattered):
        scaled_rect = Wavefunction1(rect.grid, (0.5 + 0.25j) * rect.amp)
        res = apply_two_photon(scaled_rect, out_grid, P)
        factor = (0.5 + 0.25j) ** 2
        rel = (np.max(np.abs(res.total.amp - factor * scattered.total.amp))
               / np.max(np.abs(scattered.total.amp)))
        assert rel <= 1e-14

    def test_product_input_never_expanded(self):
        # a one-photon input stands for psi(x1) psi(x2) and is mapped without
        # its n_in x n_in outer product (16 n_in^2 bytes)
        n_in = 4097
        f = gaussian_pulse(6.0, 1.2, Grid1D(0.0, 12.0, n_in))
        gout = Grid1D(-8.0, 12.0, 64)
        tracemalloc.start()
        try:
            apply_two_photon(f, gout, P)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * n_in ** 2 / 4


class TestScatteredState:
    """Each part read through `rows` equals a dense reference grid built
    without it, bit for bit, and a g2 curve is the same whether a state is
    dense or structured."""

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["rectangular", "sampled", "chirped", "general"]),
           size=st.floats(0.5, 10.0), x_min=st.floats(-8.0, 1.0),
           span=st.floats(1.0, 20.0), n=st.integers(4, 80),
           cuts=st.lists(st.floats(0.0, 1.0), max_size=3),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_reads_match_dense_grid(self, kind, size, x_min, span, n, cuts, seed):
        if kind == "rectangular":
            psi = rectangular_pulse(size)
        else:
            f = gaussian_pulse(size / 2, size / 8, Grid1D(0.0, size, 25))
            if kind == "chirped":
                f = Wavefunction1(f.grid, f.amp * np.exp(
                    3j * (f.grid.points / size - 0.5) ** 2))
            psi = Wavefunction2.from_product(f) if kind == "general" else f
        grid = Grid1D.with_breakpoints(x_min, x_min + span, n,
                                       [x_min + c * span for c in cuts])
        lazy = apply_two_photon(psi, grid, P)
        refs = _dense_parts(psi, grid)
        rng = np.random.default_rng(seed)
        m = grid.n
        i0 = int(rng.integers(0, m))
        i1 = int(rng.integers(i0, m + 2))       # empty and clipped blocks too
        for name, amp in refs.items():
            part = getattr(lazy, name)
            assert np.array_equal(part.rows(i0, i1), amp[i0:i1])
            assert np.array_equal(part.amp, amp)
            assert max_asymmetry(part) == 0.0
        anchor = rng.uniform(grid.x_min, grid.x_max)
        window = (0.999 * (grid.x_min - anchor), 0.999 * (grid.x_max - anchor))
        on_grid = Wavefunction2(grid, refs["total"])
        for length in (size, None):
            with np.errstate(divide="ignore", invalid="ignore"):
                with _no_dense_read():
                    a = g2_slice(lazy.total, anchor, window, 33, length, P)
                b = g2_slice(on_grid, anchor, window, 33, length, P)
            assert np.array_equal(a.values, b.values, equal_nan=True)


    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["gaussian", "rectangular", "general"]),
           n_in=st.integers(3, 60),
           a=st.lists(st.floats(-4.0, 8.0), min_size=2, max_size=30, unique=True),
           b=st.lists(st.floats(-4.0, 8.0), min_size=1, max_size=30),
           block_cells=st.integers(1, 400), seed=st.integers(0, 2 ** 32 - 1))
    def test_values_do_not_depend_on_the_other_points(self, kind, n_in, a, b, block_cells,
                                                      seed):
        # every part at a point depends on that point alone: mapped onto the
        # points A and onto A and B together, each part agrees on A bit for
        # bit, whatever the blocks
        if kind == "rectangular":
            psi = rectangular_pulse(3.0)
        elif kind == "gaussian":
            psi = gaussian_pulse(1.5, 0.5, Grid1D(0.0, 3.0, n_in))
        else:
            rng = np.random.default_rng(seed)
            raw = rng.normal(size=(n_in, n_in)) + 1j * rng.normal(size=(n_in, n_in))
            psi = Wavefunction2(Grid1D(0.0, 3.0, n_in), raw + raw.T)

        def parts(points):
            pts = np.unique(points)
            result = apply_two_photon(psi, Grid1D(pts[0], pts[-1], len(pts), _points=pts), P)
            return pts, {name: getattr(result, name).amp
                         for name in ("total", "linear", "nonlinear")}

        with mock.patch.object(model, "BLOCK_CELLS", block_cells):
            pts_a, on_a = parts(a)
            pts_ab, on_ab = parts(a + b)
        i = np.searchsorted(pts_ab, pts_a)
        for name, amp in on_a.items():
            assert on_ab[name][np.ix_(i, i)].tobytes() == amp.tobytes()


class TestGeneral2DPath:
    def test_matches_factored_path(self):
        gin = Grid1D(0.0, 12.0, 401)
        f = gaussian_pulse(6.0, 1.2, gin)
        gout = Grid1D(-8.0, 12.0, 601)
        res_f = apply_two_photon(f, gout, P)
        stripped = Wavefunction2(gin, np.outer(f.amp, f.amp))
        res_g = apply_two_photon(stripped, gout, P)
        assert np.max(np.abs(res_f.total.amp - res_g.total.amp)) <= 1e-12
        assert max_asymmetry(res_g.total) == 0.0

    def test_peak_memory(self):
        gin = Grid1D(0.0, 12.0, 129)
        x = gin.points
        a = np.exp(-((x[:, None] - 6.0) ** 2 + (x[None, :] - 5.0) ** 2))
        psi = Wavefunction2.symmetric(gin, a + a.T)
        n = 1024
        unit = 16 * gin.n * n                  # one n x n grid is 7.9 of these
        tracemalloc.start()
        try:
            res = apply_two_photon_linear(psi, Grid1D(-10.0, 12.0, n), P)
            state, lazy_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            amp = res.amp
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the part is held by its mapped columns, one n_in x n array, and
        # their node tails at every isqrt(n_in)-th input node, with blocks of
        # the cell budget while they are formed: no n x n grid
        assert state <= 1.25 * unit
        assert lazy_peak <= 2 * unit
        # a dense read fills one n x n grid from row blocks: over what the
        # state holds, it adds that grid and the blocks' temporaries alone
        assert held - state < 16 * n * n + unit
        assert peak - state <= 16 * n * n + 3 * unit
        assert amp.flags.c_contiguous

    def test_g2_slice_holds_no_output_grid(self):
        n_in, n = 129, 1024
        gin = Grid1D(0.0, 12.0, n_in)
        x = gin.points
        a = np.exp(-((x[:, None] - 6.0) ** 2 + (x[None, :] - 5.0) ** 2))
        psi = Wavefunction2.symmetric(gin, a + a.T)
        tracemalloc.start()
        try:
            result = apply_two_photon(psi, Grid1D(-10.0, 12.0, n), P)
            with _no_dense_read():
                g2_slice(result.total, 6.0, (-3.0, 3.0), 2001, None, P)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one n x n grid alone would be 16 n^2 = 7.9 of these units
        assert peak < 3.5 * 16 * n_in * n

    def test_nonlinear_peak_memory(self):
        # the symmetry check reads row blocks, so a general input's nonlinear
        # map holds no n_in x n_in temporary
        n_in = 512
        gin = Grid1D(0.0, 12.0, n_in)
        x = gin.points
        a = np.exp(-((x[:, None] - 6.0) ** 2 + (x[None, :] - 5.0) ** 2))
        psi = Wavefunction2.symmetric(gin, a + a.T)
        tracemalloc.start()
        try:
            apply_two_photon_nonlinear(psi, Grid1D(-10.0, 12.0, 64), P)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * n_in * n_in

    @settings(max_examples=40, deadline=None)
    @given(n_in=st.integers(2, 40), n=st.integers(2, 60),
           block_cells=st.integers(1, 400), seed=st.integers(0, 2 ** 32 - 1))
    def test_blocks_do_not_change_bits(self, n_in, n, block_cells, seed):
        # every map maps each column on its own and the mirror copies, so the
        # block size cannot change a bit of the input or of either part
        rng = np.random.default_rng(seed)
        raw = rng.normal(size=(n_in, n_in)) + 1j * rng.normal(size=(n_in, n_in))
        raw.real[rng.random((n_in, n_in)) < 0.2] = -0.0
        gin, gout = Grid1D(0.0, 3.0, n_in), Grid1D(-2.0, 3.0, n)
        psi = Wavefunction2.symmetric(gin, raw)
        ref = apply_two_photon(psi, gout, P)
        with mock.patch.object(model, "BLOCK_CELLS", block_cells):
            again = Wavefunction2.symmetric(gin, raw)
            got = apply_two_photon(again, gout, P)
            assert again.amp.tobytes() == psi.amp.tobytes()
            for part in ("linear", "nonlinear"):
                assert getattr(got, part).amp.tobytes() == getattr(ref, part).amp.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(n_in=st.integers(2, 15), n=st.integers(2, 30), x_lo=st.floats(-3.0, 2.5),
           span=st.floats(0.2, 6.0), block_cells=st.integers(1, 400),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(n_in=3, n=2, x_lo=-1.0, span=5.0, block_cells=1, seed=0)
    @example(n_in=5, n=23, x_lo=0.4, span=2.0, block_cells=7, seed=1)
    @example(n_in=12, n=5, x_lo=-2.0, span=6.0, block_cells=40, seed=2)
    def test_every_part_matches_dense_construction(self, n_in, n, x_lo, span,
                                                   block_cells, seed):
        # every part read from its generators equals, bit for bit, its dense
        # construction: the linear part has both axes mapped column by column,
        # the second into the upper triangle only, then mirrored in place.  The
        # columns' node tails are stored every isqrt(n_in) = 1, 2 or 3 nodes;
        # grids start left of the input's support [0, 3] or inside it and
        # hold fewer or more points than the input
        rng = np.random.default_rng(seed)
        raw = rng.normal(size=(n_in, n_in)) + 1j * rng.normal(size=(n_in, n_in))
        amp = raw + raw.T
        for values in (amp.real, amp.imag):     # signed zeros, kept symmetric
            signed = rng.random((n_in, n_in)) < 0.2
            values[signed | signed.T] = -0.0
        gout = Grid1D(x_lo, x_lo + span, n)
        psi = Wavefunction2(Grid1D(0.0, 3.0, n_in), amp)
        refs = _dense_parts(psi, gout)
        i0 = int(rng.integers(0, n + 1))
        i1 = int(rng.integers(i0, n + 2))       # empty and clipped blocks too
        with mock.patch.object(model, "BLOCK_CELLS", block_cells):
            res = apply_two_photon(psi, gout, P)
            for name, ref in refs.items():
                part = getattr(res, name)
                assert part.rows(i0, i1).tobytes() == ref[i0:i1].tobytes()
                assert part.amp.tobytes() == ref.tobytes()
            assert max_asymmetry(res.total) == 0.0

    def test_memory_layout_is_irrelevant(self):
        gin = Grid1D(0.0, 6.0, 41)
        f = gaussian_pulse(3.0, 1.0, gin)
        gout = Grid1D(-4.0, 6.0, 57)
        amp = np.outer(f.amp, f.amp)
        columns = np.stack([f.amp, 2.0 * f.amp], axis=1)
        pairs = [(Wavefunction2(gin, np.asfortranarray(amp)), Wavefunction2(gin, amp)),
                 (Wavefunction1(gin, columns[:, 0]), f)]
        for strided, contiguous in pairs:
            a, b = apply_two_photon(strided, gout, P), apply_two_photon(contiguous, gout, P)
            for part in ("linear", "nonlinear", "total"):
                assert np.array_equal(getattr(a, part).amp, getattr(b, part).amp)
        bad = np.asfortranarray(amp.copy())
        bad[3, 3] = math.nan
        with pytest.raises(ValueError, match="finite"):
            apply_two_photon(Wavefunction2(gin, bad), gout, P)
