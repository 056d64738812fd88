import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onedatom import (
    Grid1D,
    LabState,
    PhysicalParams,
    Wavefunction1,
    Wavefunction2,
    evolve_one_photon,
    evolve_two_photon,
    far_field,
    model,
    oracle,
    rect_initial,
    rect_two_photon_out,
    run_rect,
    run_rect_error,
)
from onedatom.model import excitation_probability, lab_norm, relative_l2
from onedatom.oracle import (
    DEPOSIT_END_WEIGHT,
    _Deviation,
    _prepare,
    rect_error_one_photon,
    rect_error_two_photon,
)

P = PhysicalParams()
EVOLVE = {1: evolve_one_photon, 2: evolve_two_photon}
RECT_ERROR = {1: rect_error_one_photon, 2: rect_error_two_photon}


def _dense(initial):
    """The two-photon product state of a one-photon state, as a dense field."""
    return LabState(initial.t, initial.grid, np.outer(initial.field, initial.field))


class TestPreconditions:
    def test_rejects_outgoing_support(self):
        g = Grid1D(-0.95, 1.05, 21)
        field = np.ones(21, dtype=complex)
        st = LabState(t=0.0, grid=g, field=field)
        with pytest.raises(ValueError):
            evolve_one_photon(st, 0.1, 1.0, P)

    def test_rejects_excited_start(self):
        initial = rect_initial(2.0, 0.1, P)
        bumped = LabState(t=initial.t, grid=initial.grid, field=initial.field,
                          excited=0.1 + 0j)
        with pytest.raises(ValueError):
            evolve_one_photon(bumped, 0.1, 1.0, P)

    def test_rejects_mismatched_dx(self):
        initial = rect_initial(2.0, 0.1, P)
        with pytest.raises(ValueError):
            evolve_one_photon(initial, 0.05, 1.0, P)

    def test_rejects_backwards_time(self):
        initial = rect_initial(2.0, 0.1, P)
        with pytest.raises(ValueError):
            evolve_one_photon(initial, 0.1, initial.t - 1.0, P)

    def test_rejects_bad_dx(self):
        with pytest.raises(ValueError):
            rect_initial(2.0, -0.1, P)

    @pytest.mark.parametrize("run", [run_rect, run_rect_error])
    @pytest.mark.parametrize("photons", [0, 3])
    def test_rejects_unsupported_photon_number(self, run, photons):
        with pytest.raises(ValueError, match="photons"):
            run(2.0, 0.1, P, photons=photons)

    def test_one_photon_evolution_rejects_a_two_photon_state(self):
        with pytest.raises(ValueError, match="2 photons"):
            evolve_one_photon(_dense(rect_initial(2.0, 0.1, P)), 0.1, 1.0, P)

    @pytest.mark.parametrize("photons", [1, 2], ids=["one", "two"])
    def test_each_error_rejects_a_run_of_the_other_rank(self, photons):
        run = run_rect(2.0, 0.1, P, photons=photons)
        with pytest.raises(ValueError, match=f"{photons} photons"):
            RECT_ERROR[3 - photons](run, 2.0, P)

    @pytest.mark.parametrize("photons", [1, 2], ids=["one", "two"])
    @pytest.mark.parametrize("clear", [-5.0, -1e-9, math.nan])
    def test_rejects_negative_clear(self, photons, clear):
        # the run would stop before the pulse has crossed the atom
        with pytest.raises(ValueError, match="clear"):
            run_rect(2.0, 0.1, P, photons=photons, clear=clear)

    @pytest.mark.parametrize("run", [run_rect, run_rect_error])
    @pytest.mark.parametrize("length, dx, pad, clear, name", [
        (2.0, 0.1, 5.0, -5.0, "clear"), (2.0, 0.0, 5.0, 15.0, "dx"),
        # cell or step counts that are not finite
        (2.0, 0.1, 5.0, 1e308, "clear"), (1e308, 0.1, 5.0, 15.0, "pulse length"),
        (2.0, 0.1, 1e308, 15.0, "pad")])
    def test_rejects_a_run_it_cannot_grid(self, run, length, dx, pad, clear, name):
        with pytest.raises(ValueError, match=name):
            run(length, dx, P, photons=2, pad=pad, clear=clear)

    @pytest.mark.parametrize("run", [run_rect, run_rect_error])
    @pytest.mark.parametrize("photons", [1, 2], ids=["one", "two"])
    @pytest.mark.parametrize("length, pad, clear, name", [
        (1.0, 1.0, 1e12, "clear"), (1e12, 1.0, 15.0, "pulse length"),
        (1.0, 1e12, 15.0, "pad")])
    def test_rejects_a_count_too_large_to_run(self, run, photons, length, pad, clear, name):
        # finite, but ~10^13 cells or steps: named before any array is built
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=name):
                run(length, 0.05, P, photons=photons, pad=pad, clear=clear)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("bound,run,dx,array,cells", [
        (100_000, run_rect, 0.05, "the far field of 440 x 440", 440 * 440),
        (50_000, run_rect_error, 0.025, "the held rows of 80 x 880", 80 * 880),
    ], ids=["far-field", "held-rows"])
    def test_two_photon_arrays_bounded_by_max_count(self, bound, run, dx, array, cells,
                                                    monkeypatch):
        # every count passes, but the far field or the band of held rows
        # exceeds the bound: it is refused before it is allocated
        monkeypatch.setattr(oracle, "MAX_COUNT", bound)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"^{array} cells exceeds {bound} cells"):
                run(2.0, dx, P, photons=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * cells / 2

    def test_rejects_asymmetric_two_photon(self):
        initial = _dense(rect_initial(2.0, 0.1, P))
        amp = initial.field.copy()
        amp[0, 1] += 1.0
        st = LabState(t=initial.t, grid=initial.grid, field=amp)
        with pytest.raises(ValueError):
            evolve_two_photon(st, 0.1, 1.0, P)

    def test_rejects_infinite_two_photon_without_a_warning(self):
        initial = _dense(rect_initial(2.0, 0.1, P))
        amp = initial.field.copy()
        amp[0, 0] = math.inf
        state = LabState(t=initial.t, grid=initial.grid, field=amp)
        with pytest.raises(ValueError, match="finite"):
            evolve_two_photon(state, 0.1, 1.0, P)

    def test_memory_layout_is_irrelevant(self):
        initial = _dense(rect_initial(2.0, 0.1, P))
        fortran = LabState(t=initial.t, grid=initial.grid,
                           field=np.asfortranarray(initial.field))
        a = evolve_two_photon(fortran, 0.1, 1.0, P)
        b = evolve_two_photon(initial, 0.1, 1.0, P)
        assert np.array_equal(a.state.field, b.state.field)
        one = rect_initial(2.0, 0.1, P)
        columns = np.stack([one.field, one.field], axis=1)
        strided = LabState(t=one.t, grid=one.grid, field=columns[:, 0])
        assert np.array_equal(evolve_one_photon(strided, 0.1, 1.0, P).state.field,
                              evolve_one_photon(one, 0.1, 1.0, P).state.field)
        bad = np.asfortranarray(initial.field.copy())
        bad[0, 0] = math.nan
        with pytest.raises(ValueError, match="finite"):
            evolve_two_photon(LabState(t=initial.t, grid=initial.grid, field=bad),
                              0.1, 1.0, P)


class TestZeroInput:
    @staticmethod
    def _stays_zero(photons, dx, t_final):
        base = rect_initial(2.0, dx, P)
        zero = LabState(t=base.t, grid=base.grid, field=np.zeros((base.grid.n,) * photons))
        run = EVOLVE[photons](zero, dx, t_final, P)
        assert np.all(run.state.field == 0)
        assert np.all(run.state.excited == 0)
        assert np.all(run.trace.values == 0)

    def test_one_photon_stays_zero(self):
        self._stays_zero(1, 0.05, 5.0)

    def test_two_photon_stays_zero(self):
        self._stays_zero(2, 0.1, 2.0)


class TestOnePhotonConvergence:
    @pytest.mark.parametrize("length", [2.0, 5.0, 10.0])
    def test_error_and_first_order_rate(self, length):
        run = run_rect(length, 0.01, P)
        err = rect_error_one_photon(run, length, P)
        run_half = run_rect(length, 0.005, P)
        err_half = rect_error_one_photon(run_half, length, P)
        assert err <= 2e-2
        assert 1.7 <= err / err_half <= 2.3

    def test_norm_drift_bound_and_halving(self):
        drift = _rect_drift(5.0, 0.005, 1, 5)
        assert drift <= 1e-3
        drift_half = _rect_drift(5.0, 0.0025, 1, 10)
        assert 1.7 <= drift / drift_half <= 2.3


@pytest.mark.parametrize("photons, dx", [(1, 0.02), (2, 0.04)], ids=["one", "two"])
def test_causality_upstream_cells_untouched(photons, dx):
    """The far field is exactly 0 wherever any coordinate lies upstream of
    the pulse (x_i > L): nothing reaches a cell the atom crossed before the
    pulse arrived."""
    ff = far_field(run_rect(2.0, dx, P, photons=photons).state, P)
    assert isinstance(ff, (Wavefunction1, Wavefunction2)[photons - 1])
    upstream = ff.grid.points > 2.0
    assert np.any(upstream)
    for axis in range(ff.amp.ndim):
        assert np.max(np.abs(np.moveaxis(ff.amp, axis, 0)[upstream])) == 0.0


class TestExcitationTrace:
    def test_saturation_then_decay_at_2_gamma(self):
        run = run_rect(10.0, 0.01, P)
        tr = run.trace
        assert np.all(tr.values >= 0) and np.all(tr.values <= 1)
        # rises toward saturation while the pulse drives the atom
        drive = (tr.times > -9.0) & (tr.times < -5.0)
        assert tr.values[drive][-1] > tr.values[drive][0]
        sat = tr.values[(tr.times > -5.0) & (tr.times < -1.0)]
        assert np.max(sat) - np.min(sat) <= 0.05 * np.max(sat)
        # free decay after the trailing edge has passed (t > 0): rate 2 gamma
        sel = (tr.times > 1.0) & (tr.times < 4.0)
        slope = np.polyfit(tr.times[sel], np.log(tr.values[sel]), 1)[0]
        assert slope == pytest.approx(-2.0 * P.gamma, rel=0.05)

    @pytest.mark.parametrize("photons", [1, 2], ids=["one", "two"])
    def test_one_value_per_step(self, photons):
        # (L + pad + clear) / dx steps, pad and clear in units of c/gamma = 1
        run = run_rect(2.0, 0.05, P, photons=photons)
        assert len(run.trace.values) == round((2.0 + 5.0 + 15.0) / 0.05) == 440


class TestTwoPhoton:
    def test_error_against_closed_form(self):
        length = 2.0
        run = run_rect(length, 0.02, P, photons=2)
        assert rect_error_two_photon(run, length, P) <= 3e-2

    @settings(max_examples=20, deadline=None)
    @given(length=st.sampled_from([0.4, 1.0, 2.0, 3.0]),
           dx=st.sampled_from([0.04, 0.05, 0.1]))
    def test_field_exactly_symmetric(self, length, dx):
        run = run_rect(length, dx, P, photons=2)
        assert np.max(np.abs(run.state.field - run.state.field.T)) == 0.0

    def test_norm_drift_halves(self):
        drifts = {}
        for dx in (0.04, 0.02):
            drifts[dx] = _rect_drift(2.0, dx, 2, 10)
        assert 1.7 <= drifts[0.04] / drifts[0.02] <= 2.3

    def test_trace_bounded(self):
        run = run_rect(2.0, 0.04, P, photons=2)
        tr = run.trace
        assert np.all(tr.values >= 0) and np.all(tr.values <= 1)


def test_deviation_relative():
    a = np.array([1.0, 2.0, 2.0])

    def fold(values, reference):
        sink = _Deviation(lambda i0, i1: reference[i0:i1].copy())
        sink(0, values.astype(complex))
        return relative_l2(sink.num, sink.den)

    assert fold(a, a) == 0.0
    assert fold(np.zeros(3), a) == 1.0
    assert fold(a, np.zeros(3)) == 3.0      # the numerator alone against a zero reference


def test_two_photon_error_reads_row_blocks():
    # the benchmark's two-photon run at dx/2: the closed form is built one
    # block of rows at a time, never as an m x m grid beside the far field
    length = 2.94
    run = run_rect(length, 0.015, P, photons=2, pad=3.0, clear=8.0)
    m = run.state.grid.n
    tracemalloc.start()
    try:
        err = rect_error_two_photon(run, length, P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 16 * m * m
    ff = far_field(run.state, P)
    x = ff.grid.points
    ref = rect_two_photon_out(x[:, None], x[None, :], length, P)
    dense = math.sqrt(np.sum(np.abs(ff.amp - ref) ** 2) / np.sum(ref ** 2))
    assert err == pytest.approx(dense, rel=1e-13)


def test_far_field_coordinates():
    run = run_rect(2.0, 0.05, P)
    ff = far_field(run.state, P)
    assert np.allclose(ff.grid.points,
                       run.state.grid.points - P.c * run.state.t)


def _dense_loop(initial, dx, t_final, norm_stride=0):
    """The step loop over the whole dense field, kept as the reference that
    the loop over held rows must match bit for bit.  Returns the far field,
    the excited amplitude, the trace and the total norm after every
    norm_stride-th step and after the last (none if norm_stride is 0)."""
    field = initial.field
    centers, steps, j_first = _prepare(initial.grid, initial.t, dx, t_final, P)
    n, rank = len(centers), field.ndim
    window = (slice(n - initial.grid.n, None),) * rank
    phi = np.zeros((n,) * rank, dtype=complex)
    phi[window] = field
    e = np.zeros((n,) * (rank - 1), dtype=complex)[()]

    gamma, c = P.gamma, P.c
    dt = dx / c
    s_abs = -math.sqrt(2.0 * gamma * c)
    s_em = math.sqrt(2.0 * gamma / c)
    gdt = gamma * dt
    a_coef, b_coef = 1.0 - gdt + 0.5 * gdt * gdt, dt * (1.0 - 0.5 * gdt)
    w_start, w_end = 1.0 - DEPOSIT_END_WEIGHT, DEPOSIT_END_WEIGHT
    lines = [np.moveaxis(phi, axis, 0) for axis in range(rank)]
    excitation = excitation_probability(rank, dx)
    trace, norm_vals = np.empty(steps), []
    for m in range(steps):
        j = j_first - m
        if 0 <= j < n:
            forcing = s_abs * phi[j]
            e_new = a_coef * e + b_coef * forcing
            deposit = s_em * (w_start * e + w_end * e_new)
            for line in lines:
                line[j] += deposit
        else:
            e_new = a_coef * e
        e = e_new
        trace[m] = excitation(e)
        if norm_stride and (m % norm_stride == 0 or m == steps - 1):
            norm_vals.append(lab_norm(phi, e, dx))
    return phi, e, trace, np.asarray(norm_vals)


@settings(max_examples=60, deadline=None)
@given(photons=st.sampled_from([1, 2]), dx=st.sampled_from([0.04, 0.05, 0.1, 0.25]),
       cells=st.integers(1, 20), pad_cells=st.integers(1, 20),
       clear=st.floats(-1.0, 3.0), block_cells=st.integers(1, 400))
def test_held_rows_match_the_dense_loop_to_the_bit(photons, dx, cells, pad_cells, clear,
                                                   block_cells):
    # any stop time, from before the pulse reaches the atom to after it has
    # passed, and blocks of finished rows from one cell to several rows
    length, pad = cells * dx, pad_cells * dx
    initial = rect_initial(length, dx, P, pad=pad)
    if photons == 2:
        initial = _dense(initial)
    t_final = initial.t + (clear + 1.0) / 4.0 * (length + pad + 2.0)
    with mock.patch.object(model, "BLOCK_CELLS", block_cells):
        run = EVOLVE[photons](initial, dx, t_final, P)
    _assert_same_bits(run, *_dense_loop(initial, dx, t_final)[:3])


def _assert_same_bits(run, field, e, trace):
    """The run's far field, excited amplitude and trace have the bytes of the
    given ones, signed zeros included."""
    assert run.state.field.tobytes() == field.tobytes()
    assert np.asarray(run.state.excited).tobytes() == np.asarray(e).tobytes()
    assert run.trace.values.tobytes() == trace.tobytes()


def _rect_drift(length, dx, photons, stride):
    """The norm drift max |norm - norm_0| of `run_rect(length, dx, P,
    photons=photons)`, sampled every stride-th step and after the last: read
    from `_dense_loop`, after checking that the run has its bytes."""
    run = run_rect(length, dx, P, photons=photons)
    initial = rect_initial(length, dx, P)
    if photons == 2:
        initial = _dense(initial)
    # run_rect's default clear, 15 c/gamma past the atom
    phi, e, trace, norms = _dense_loop(initial, dx, 15.0 / P.gamma, stride)
    _assert_same_bits(run, phi, e, trace)
    return float(np.max(np.abs(norms - norms[0])))


@settings(max_examples=60, deadline=None)
@given(dx=st.sampled_from([0.04, 0.05, 0.1, 0.25]), cells=st.integers(1, 20),
       pad_cells=st.integers(1, 20), clear=st.floats(-1.0, 3.0),
       block_cells=st.integers(1, 400))
def test_product_run_matches_the_dense_product_to_the_bit(dx, cells, pad_cells, clear,
                                                          block_cells):
    # a one-photon state given to evolve_two_photon stands for the product
    # of its pulse with itself: the same run as from the dense product
    length, pad = cells * dx, pad_cells * dx
    initial = rect_initial(length, dx, P, pad=pad)
    t_final = initial.t + (clear + 1.0) / 4.0 * (length + pad + 2.0)
    with mock.patch.object(model, "BLOCK_CELLS", block_cells):
        product = evolve_two_photon(initial, dx, t_final, P)
        dense = evolve_two_photon(_dense(initial), dx, t_final, P)
    _assert_same_bits(product, dense.state.field, dense.state.excited, dense.trace.values)


@pytest.mark.parametrize("photons", [1, 2], ids=["one", "two"])
@settings(max_examples=60, deadline=None)
@given(dx=st.sampled_from([0.04, 0.05, 0.1, 0.25]), cells=st.integers(1, 20),
       pad_cells=st.integers(1, 20), clear=st.floats(0.0, 3.0),
       block_cells=st.integers(1, 400))
def test_error_run_matches_the_error_of_the_held_field(photons, dx, cells, pad_cells, clear,
                                                       block_cells):
    # both errors fold the same rows in the same blocks and order: the same
    # sums, so the same error to the bit
    length, pad = cells * dx, pad_cells * dx
    with mock.patch.object(model, "BLOCK_CELLS", block_cells):
        run = run_rect(length, dx, P, photons=photons, pad=pad, clear=clear)
        held = RECT_ERROR[photons](run, length, P)
        folded = run_rect_error(length, dx, P, photons=photons, pad=pad, clear=clear)
    assert folded == held


def test_error_run_holds_only_the_pulse_rows():
    # the benchmark's pad and clear at dx/2, with a pulse long enough that
    # its rows, not the one block of finished rows, set the peak
    length, dx, pad, clear = 9.0, 0.015, 3.0, 8.0
    n = round((length + pad + clear) / dx)
    tracemalloc.start()
    try:
        run_rect_error(length, dx, P, photons=2, pad=pad, clear=clear)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * round(length / dx) * n * 16 + 16 * model.BLOCK_CELLS


def test_written_run_holds_no_dense_initial():
    # a short clear, so that the (cells + pad)^2 product state would be
    # comparable to the far field: the run holds that field, one block of
    # finished rows and the pulse rows, and starts from the pulse line
    length, dx, pad, clear = 2.0, 0.02, 3.0, 1.0
    tracemalloc.start()
    try:
        run = run_rect(length, dx, P, photons=2, pad=pad, clear=clear)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = run.state.grid.n
    held = 16 * (n * n + min(n, model.block_rows(n)) * n + round(length / dx) * n)
    assert peak - held < 0.5 * 16 * round((length + pad) / dx) ** 2
