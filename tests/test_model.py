import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from onedatom import (
    Grid1D,
    LabState,
    PhysicalParams,
    Wavefunction1,
    Wavefunction2,
    gaussian_pulse,
    max_asymmetry,
    norm1,
    norm2,
    rectangular_pulse,
    rect_one_photon_out,
)
from onedatom import model
from onedatom.model import _mirror, grid_weights
from onedatom.propagate import _tail

P = PhysicalParams()


class TestGrid:
    def test_basic(self):
        g = Grid1D(-1.0, 1.0, 21)
        assert g.dx == pytest.approx(0.1)
        assert g.points[0] == -1.0 and g.points[-1] == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid1D(0.0, 0.0, 10)
        with pytest.raises(ValueError):
            Grid1D(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            Grid1D(math.nan, 1.0, 10)

    def test_breakpoints_are_exact_nodes(self):
        g = Grid1D.with_breakpoints(-10.0, 20.0, 512, (0.0, 20.0))
        pts = g.points
        assert 0.0 in pts and 20.0 in pts           # zero error
        assert abs(g.n - 512) <= 8
        spacing = np.diff(pts)
        assert np.max(np.abs(spacing - spacing[0])) <= 1e-12 * spacing[0]

    @pytest.mark.parametrize("bounds,breaks", [
        ((-20.0, 20.0), (0.0,)),
        ((-10.0, 40.0), (0.0, 40.0)),
        ((-200.0, 20.0), (0.0, 20.0)),
        ((-3.5, 9.25), (1.75,)),
    ])
    def test_breakpoint_alignment_cases(self, bounds, breaks):
        g = Grid1D.with_breakpoints(bounds[0], bounds[1], 400, breaks)
        for b in breaks:
            assert b in g.points

    def test_out_of_range_breakpoints_ignored(self):
        g = Grid1D.with_breakpoints(0.0, 1.0, 11, (5.0, -2.0))
        assert g.n >= 2

    @settings(max_examples=200, deadline=None)
    @given(x_min=st.floats(-20.0, 5.0), span=st.floats(0.5, 40.0),
           n=st.integers(12, 400), fracs=st.lists(st.floats(0.0, 1.0), max_size=4),
           # subnormal coefficients would make 1e-12 * scale underflow to 0
           coeffs=st.lists(st.floats(-1.0, 1.0, allow_subnormal=False),
                           min_size=3, max_size=3))
    def test_weights_integrate_quadratics(self, x_min, span, n, fracs, coeffs):
        x_max = x_min + span
        g = Grid1D.with_breakpoints(x_min, x_max, n, [x_min + f * span for f in fracs])
        # blocks of 2-3 nodes between breakpoints are lower order by design
        assume(np.all(np.diff([0, *g.breakpoint_indices(), g.n - 1]) >= 3))
        c0, c1, c2 = coeffs
        x = g.points
        got = float(np.dot(grid_weights(g), c0 + c1 * x + c2 * x * x))

        def primitive(t):
            return c0 * t + c1 * t * t / 2 + c2 * t ** 3 / 3

        exact = primitive(x_max) - primitive(x_min)
        # integral of |c0| + |c1 x| + |c2| x^2, the size of the terms summed
        scale = (abs(c0) * span + abs(c1) * (x_max * abs(x_max) - x_min * abs(x_min)) / 2
                 + abs(c2) * (x_max ** 3 - x_min ** 3) / 3)
        assert abs(got - exact) <= 1e-12 * scale


class TestRectangularPulse:
    def test_sampling_conventions(self):
        # the rectangle's cell form: its two nodes, one cell of value v
        rect = rectangular_pulse(20.0)
        v = rect.amp[0]
        # right-continuous at the left edge, the last node keeps the last cell
        evals = np.array([0.0, 20.0, 20.0 + 1e-12, -1e-12, 10.0])
        _, value = _tail(rect.grid.points, rect.amp[:-1], rect.amp[1:], evals,
                         P.gamma_over_c)
        assert np.array_equal(value, [v, v, 0.0, 0.0, v])


class TestNorm1:
    def test_rectangle_is_exactly_unit(self):
        # the amplitude's squared integral, formed in extended precision,
        # rounds to exactly 1; the trapezoid over the two nodes is within 2 ulp
        for length in (20.0, 5.0):
            rect = rectangular_pulse(length)
            v = np.longdouble(rect.amp[0].real)
            assert rect.amp[0].imag == 0.0
            assert float(v * v * np.longdouble(length)) == 1.0
            assert abs(norm1(rect) - 1.0) <= 2 * np.spacing(1.0)

    def test_zero(self):
        g = Grid1D(0.0, 1.0, 11)
        assert norm1(Wavefunction1(g, np.zeros(11))) == 0.0

    def test_scattered_rectangle_norm_on_deep_grid(self):
        # unitarity of the one-photon map, sampled on [-10 L, L] at dx = 0.01
        L = 20.0
        g = Grid1D.with_breakpoints(-10 * L, L, 22001, (0.0, L))
        assert g.dx == pytest.approx(0.01, rel=1e-12)
        psi = Wavefunction1(g, rect_one_photon_out(g.points, L, P).astype(complex))
        assert abs(norm1(psi) - 1.0) <= 1e-6

    def test_phase_invariance(self):
        g = Grid1D(-5.0, 5.0, 301)
        psi = gaussian_pulse(0.0, 1.0, g)
        n0 = norm1(psi)
        rotated = Wavefunction1(g, psi.amp * np.exp(0.7j))
        assert abs(norm1(rotated) - n0) <= 1e-15 * n0


class TestWavefunction2:
    def test_product_norm(self):
        rect = rectangular_pulse(20.0)
        psi2 = Wavefunction2.from_product(rect)
        assert abs(norm2(psi2) - 1.0) <= 1e-12

    def test_zero_norm(self):
        g = Grid1D(0.0, 1.0, 8)
        assert norm2(Wavefunction2(g, np.zeros((8, 8)))) == 0.0

    def test_symmetry_of_mirrored_storage(self):
        g = Grid1D(0.0, 1.0, 16)
        rng = np.random.default_rng(3)
        raw = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        psi = Wavefunction2.symmetric(g, raw)
        assert max_asymmetry(psi) == 0.0

    def test_mirroring_holds_two_grids(self):
        n = 256
        rng = np.random.default_rng(4)
        raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        raw.real[rng.random((n, n)) < 0.1] = -0.0
        raw.imag[rng.random((n, n)) < 0.1] = -0.0
        tracemalloc.start()
        try:
            psi = Wavefunction2.symmetric(Grid1D(0.0, 1.0, n), raw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the result and one triangle, never a third n x n grid
        assert peak < 2.5 * 16 * n * n
        ref = np.triu(raw) + np.triu(raw, 1).T
        assert psi.amp.view(np.uint64).tobytes() == ref.view(np.uint64).tobytes()
        # a Fortran-ordered input gives the same C-ordered grid, so its reads
        # (numpy's row sums) keep their bits too
        fortran = Wavefunction2.symmetric(psi.grid, np.asfortranarray(raw))
        assert fortran.amp.flags.c_contiguous
        assert fortran.amp.view(np.uint64).tobytes() == ref.view(np.uint64).tobytes()
        assert norm2(fortran).hex() == norm2(psi).hex()

    @pytest.mark.parametrize("block_cells", [1, 7, 60, 1 << 16])
    def test_mirror_reads_only_the_kept_triangle(self, block_cells):
        # a lower triangle left unset may hold any bits, a signalling nan
        # among them: arithmetic on it would raise under invalid="raise"
        n = 23
        rng = np.random.default_rng(5)
        raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        raw.real[rng.random((n, n)) < 0.2] = -0.0
        ref = np.triu(raw) + np.triu(raw, 1).T
        snan = np.uint64(0x7FF0000000000001)
        bits = raw.view(np.uint64).reshape(n, n, 2)
        bits[np.tri(n, k=-1, dtype=bool)] = snan
        with mock.patch.object(model, "BLOCK_CELLS", block_cells), \
                np.errstate(invalid="raise"):
            out = _mirror(raw)
        assert out is raw
        assert out.view(np.uint64).tobytes() == ref.view(np.uint64).tobytes()

    def test_product_is_exactly_symmetric(self):
        # a complex product is not bitwise commutative, so a chirped pulse's
        # outer product is symmetric only once one triangle is mirrored
        g = Grid1D(-2.0, 2.0, 64)
        real = gaussian_pulse(0.0, 0.5, g)
        chirped = Wavefunction1(g, real.amp * np.exp(0.7j * g.points ** 2))
        for f in (real, chirped):
            psi = Wavefunction2.from_product(f)
            assert max_asymmetry(psi) == 0.0
            outer = np.outer(f.amp, f.amp)
            assert np.array_equal(np.triu(psi.amp), np.triu(outer))
            assert np.max(np.abs(psi.amp - outer)) <= 1e-15 * np.max(np.abs(outer))

    def test_known_asymmetry(self):
        g = Grid1D(0.0, 1.0, 3)
        amp = np.zeros((3, 3), dtype=complex)
        amp[0, 1] = 1.0
        amp[1, 0] = -1.0
        assert max_asymmetry(Wavefunction2(g, amp)) == 2.0

    @pytest.mark.parametrize("block_cells", [1, 7, 60, 1 << 16])
    def test_blockwise_asymmetry(self, block_cells):
        # row blocks against column blocks give the whole-grid maximum, and a
        # nan in a later block than a larger difference still propagates
        n = 9
        rng = np.random.default_rng(3)
        amp = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        g = Grid1D(0.0, 1.0, n)
        bad = amp.copy()
        bad[0, 1] = 1e6
        bad[n - 1, n - 2] = np.nan
        with mock.patch.object(model, "BLOCK_CELLS", block_cells):
            assert max_asymmetry(Wavefunction2(g, amp)) == np.max(np.abs(amp - amp.T))
            assert math.isnan(max_asymmetry(Wavefunction2(g, bad)))

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(2, 60), height=st.integers(1, 70), seed=st.integers(0, 2**32 - 1),
           scale=st.floats(1e-100, 1e100), real_ref=st.booleans(),
           nan_at=st.none() | st.tuples(st.integers(0, 59), st.integers(0, 59)))
    def test_blockwise_deviation(self, n, height, seed, scale, real_ref, nan_at):
        # row blocks of any height, n not a multiple of it included, give the
        # dense max exactly (a nan anywhere too) and the dense sums to rounding
        rng = np.random.default_rng(seed)
        a = scale * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        b = scale * rng.normal(size=(n, n))
        if not real_ref:
            b = b + 1j * scale * rng.normal(size=(n, n))
        if nan_at is not None:
            a[nan_at[0] % n, nan_at[1] % n] = np.nan
        with mock.patch.object(model, "BLOCK_CELLS", height * n):
            worst, num, den = model.deviation(lambda i0, i1: a[i0:i1],
                                              lambda i0, i1: b[i0:i1], n)
        dense = np.abs(a - b)
        assert np.array_equal(worst, np.max(dense), equal_nan=True)
        assert isinstance(worst, float)
        np.testing.assert_allclose([num, den], [np.sum(dense ** 2), np.sum(np.abs(b) ** 2)],
                                   rtol=1e-13)

    def test_norm2_phase_invariance(self):
        g = Grid1D(-2.0, 2.0, 64)
        psi = Wavefunction2.from_product(gaussian_pulse(0.0, 0.5, g))
        rotated = Wavefunction2(g, psi.amp * np.exp(1.3j))
        assert abs(norm2(rotated) - norm2(psi)) <= 1e-15 * norm2(psi)

    def test_shape_validation(self):
        g = Grid1D(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            Wavefunction2(g, np.zeros((3, 3)))


class TestLabStates:
    def test_one_photon_norm(self):
        g = Grid1D(-1.0, 1.0, 201)
        field = np.exp(-g.points**2).astype(complex)
        st = LabState(t=0.0, grid=g, field=field, excited=0.5 + 0j)
        expected = np.sum(np.abs(field) ** 2) * g.dx + 0.25
        assert st.total_norm() == pytest.approx(expected, rel=1e-14)

    def test_two_photon_norm_counts_excitation_twice(self):
        g = Grid1D(-1.0, 1.0, 51)
        field2 = np.zeros((51, 51), dtype=complex)
        e = np.full(51, 0.1 + 0j)
        st = LabState(t=0.0, grid=g, field=field2, excited=e)
        assert st.total_norm() == pytest.approx(2 * 51 * 0.01 * g.dx, rel=1e-12)

    def test_shape_validation(self):
        g = Grid1D(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            LabState(t=0.0, grid=g, field=np.zeros(3))
        with pytest.raises(ValueError):
            LabState(t=0.0, grid=g, field=np.zeros((4, 4)), excited=np.zeros(3))
        with pytest.raises(ValueError, match="field shape"):
            LabState(t=0.0, grid=g, field=np.zeros((4, 4, 4)))
        # the excited amplitude has one rank less than the field
        with pytest.raises(ValueError, match="excited shape"):
            LabState(t=0.0, grid=g, field=np.zeros(4), excited=np.zeros(4))
        with pytest.raises(ValueError, match="excited shape"):
            LabState(t=0.0, grid=g, field=np.zeros((4, 4)), excited=0j)
        # by default the atom is in its ground state, at either rank
        assert LabState(t=0.0, grid=g, field=np.zeros(4)).excited == 0
        assert np.array_equal(LabState(t=0.0, grid=g, field=np.zeros((4, 4))).excited,
                              np.zeros(4))


def test_pulse_validation():
    with pytest.raises(ValueError):
        rectangular_pulse(-1.0)
    with pytest.raises(ValueError):
        gaussian_pulse(0.0, 0.0, Grid1D(-1.0, 1.0, 11))
