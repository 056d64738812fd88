import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onedatom import (
    Grid1D,
    LabState1,
    LabState2,
    PhysicalParams,
    evolve_one_photon,
    evolve_two_photon,
    excitation_trace,
    far_field_one_photon,
    far_field_two_photon,
    one_photon_initial,
    run_one_photon_rect,
    run_two_photon_rect,
    two_photon_initial,
)
from onedatom.oracle import rect_error_one_photon, rect_error_two_photon, relative_l2

P = PhysicalParams()


class TestPreconditions:
    def test_rejects_outgoing_support(self):
        g = Grid1D(-0.95, 1.05, 21)
        field = np.ones(21, dtype=complex)
        st = LabState1(t=0.0, grid=g, field=field)
        with pytest.raises(ValueError):
            evolve_one_photon(st, 0.1, 1.0, P)

    def test_rejects_excited_start(self):
        initial = one_photon_initial(2.0, 0.1, P)
        bumped = LabState1(t=initial.t, grid=initial.grid, field=initial.field,
                           excited=0.1 + 0j)
        with pytest.raises(ValueError):
            evolve_one_photon(bumped, 0.1, 1.0, P)

    def test_rejects_mismatched_dx(self):
        initial = one_photon_initial(2.0, 0.1, P)
        with pytest.raises(ValueError):
            evolve_one_photon(initial, 0.05, 1.0, P)

    def test_rejects_backwards_time(self):
        initial = one_photon_initial(2.0, 0.1, P)
        with pytest.raises(ValueError):
            evolve_one_photon(initial, 0.1, initial.t - 1.0, P)

    def test_rejects_bad_dx(self):
        with pytest.raises(ValueError):
            one_photon_initial(2.0, -0.1, P)

    def test_rejects_asymmetric_two_photon(self):
        initial = two_photon_initial(2.0, 0.1, P)
        amp = initial.field2.copy()
        amp[0, 1] += 1.0
        st = LabState2(t=initial.t, grid=initial.grid, field2=amp,
                       excited1=initial.excited1)
        with pytest.raises(ValueError):
            evolve_two_photon(st, 0.1, 1.0, P)

    def test_rejects_infinite_two_photon_without_a_warning(self):
        initial = two_photon_initial(2.0, 0.1, P)
        amp = initial.field2.copy()
        amp[0, 0] = math.inf
        state = LabState2(t=initial.t, grid=initial.grid, field2=amp,
                          excited1=initial.excited1)
        with pytest.raises(ValueError, match="finite"):
            evolve_two_photon(state, 0.1, 1.0, P)

    def test_memory_layout_is_irrelevant(self):
        initial = two_photon_initial(2.0, 0.1, P)
        fortran = LabState2(t=initial.t, grid=initial.grid,
                            field2=np.asfortranarray(initial.field2),
                            excited1=initial.excited1)
        a = evolve_two_photon(fortran, 0.1, 1.0, P)
        b = evolve_two_photon(initial, 0.1, 1.0, P)
        assert np.array_equal(a.state.field2, b.state.field2)
        one = one_photon_initial(2.0, 0.1, P)
        columns = np.stack([one.field, one.field], axis=1)
        strided = LabState1(t=one.t, grid=one.grid, field=columns[:, 0])
        assert np.array_equal(evolve_one_photon(strided, 0.1, 1.0, P).state.field,
                              evolve_one_photon(one, 0.1, 1.0, P).state.field)
        bad = np.asfortranarray(initial.field2.copy())
        bad[0, 0] = math.nan
        with pytest.raises(ValueError, match="finite"):
            evolve_two_photon(LabState2(t=initial.t, grid=initial.grid, field2=bad,
                                        excited1=initial.excited1), 0.1, 1.0, P)


class TestZeroInput:
    def test_one_photon_stays_zero(self):
        base = one_photon_initial(2.0, 0.05, P)
        zero = LabState1(t=base.t, grid=base.grid,
                         field=np.zeros_like(base.field))
        run = evolve_one_photon(zero, 0.05, 5.0, P, record_trace=True)
        assert np.all(run.state.field == 0)
        assert run.state.excited == 0
        assert np.all(excitation_trace(run).values == 0)

    def test_two_photon_stays_zero(self):
        base = two_photon_initial(2.0, 0.1, P)
        zero = LabState2(t=base.t, grid=base.grid,
                         field2=np.zeros_like(base.field2),
                         excited1=np.zeros_like(base.excited1))
        run = evolve_two_photon(zero, 0.1, 2.0, P, record_trace=True)
        assert np.all(run.state.field2 == 0)
        assert np.all(excitation_trace(run).values == 0)


class TestOnePhotonConvergence:
    @pytest.mark.parametrize("length", [2.0, 5.0, 10.0])
    def test_error_and_first_order_rate(self, length):
        run = run_one_photon_rect(length, 0.01, P)
        err = rect_error_one_photon(run, length, P)
        run_half = run_one_photon_rect(length, 0.005, P)
        err_half = rect_error_one_photon(run_half, length, P)
        assert err <= 2e-2
        assert 1.7 <= err / err_half <= 2.3

    def test_norm_drift_bound_and_halving(self):
        length = 5.0
        run = run_one_photon_rect(length, 0.005, P, norm_stride=5)
        drift = np.max(np.abs(run.norm_values - run.norm_values[0]))
        assert drift <= 1e-3
        run_half = run_one_photon_rect(length, 0.0025, P, norm_stride=10)
        drift_half = np.max(np.abs(run_half.norm_values - run_half.norm_values[0]))
        assert 1.7 <= drift / drift_half <= 2.3


@pytest.mark.parametrize("run_rect, far_field, dx", [
    (run_one_photon_rect, far_field_one_photon, 0.02),
    (run_two_photon_rect, far_field_two_photon, 0.04),
], ids=["one", "two"])
def test_causality_upstream_cells_untouched(run_rect, far_field, dx):
    """The far field is exactly 0 wherever any coordinate lies upstream of
    the pulse (x_i > L): nothing reaches a cell the atom crossed before the
    pulse arrived."""
    ff = far_field(run_rect(2.0, dx, P).state, P)
    upstream = ff.grid.points > 2.0
    assert np.any(upstream)
    for axis in range(ff.amp.ndim):
        assert np.max(np.abs(np.moveaxis(ff.amp, axis, 0)[upstream])) == 0.0


@pytest.mark.parametrize("stride", [1, 7, 10])
@pytest.mark.parametrize("initial, evolve, dx", [
    (one_photon_initial, evolve_one_photon, 0.05),
    (two_photon_initial, evolve_two_photon, 0.1),
], ids=["one", "two"])
def test_norm_sampled_every_stride_and_at_the_last_step(initial, evolve, dx, stride):
    start = initial(2.0, dx, P)
    run = evolve(start, dx, 15.0, P, record_trace=True, norm_stride=stride)
    steps = len(run.trace.values)
    sampled = sorted(set(range(0, steps, stride)) | {steps - 1})
    assert len(run.norm_values) == len(sampled)
    # the state's grid spacing is rebuilt from its points, so not to the bit
    assert run.norm_values[-1] == pytest.approx(run.state.total_norm(), rel=1e-12)
    # sample k is the norm after step sampled[k], at t0 + (sampled[k] + 1) dt
    for k in (1, len(sampled) // 2):
        mid = evolve(start, dx, start.t + (sampled[k] + 1) * dx / P.c, P)
        assert run.norm_values[k] == pytest.approx(mid.state.total_norm(), rel=1e-12)


class TestExcitationTrace:
    def test_saturation_then_decay_at_2_gamma(self):
        run = run_one_photon_rect(10.0, 0.01, P, record_trace=True)
        tr = excitation_trace(run)
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

    def test_trace_disabled_raises(self):
        run = run_one_photon_rect(2.0, 0.05, P)
        with pytest.raises(ValueError):
            excitation_trace(run)


class TestTwoPhoton:
    def test_error_against_closed_form(self):
        length = 2.0
        run = run_two_photon_rect(length, 0.02, P)
        assert rect_error_two_photon(run, length, P) <= 3e-2

    @settings(max_examples=20, deadline=None)
    @given(length=st.sampled_from([0.4, 1.0, 2.0, 3.0]),
           dx=st.sampled_from([0.04, 0.05, 0.1]))
    def test_field_exactly_symmetric(self, length, dx):
        run = run_two_photon_rect(length, dx, P)
        assert np.max(np.abs(run.state.field2 - run.state.field2.T)) == 0.0

    def test_norm_drift_halves(self):
        drifts = {}
        for dx in (0.04, 0.02):
            run = run_two_photon_rect(2.0, dx, P, norm_stride=10)
            drifts[dx] = np.max(np.abs(run.norm_values - run.norm_values[0]))
        assert 1.7 <= drifts[0.04] / drifts[0.02] <= 2.3

    def test_trace_bounded(self):
        run = run_two_photon_rect(2.0, 0.04, P, record_trace=True)
        tr = excitation_trace(run)
        assert np.all(tr.values >= 0) and np.all(tr.values <= 1)


def test_relative_l2():
    a = np.array([1.0, 2.0, 2.0])
    assert relative_l2(a, a) == 0.0
    assert relative_l2(np.zeros(3), a) == 1.0


def test_far_field_coordinates():
    run = run_one_photon_rect(2.0, 0.05, P)
    ff = far_field_one_photon(run.state, P)
    assert np.allclose(ff.grid.points,
                       run.state.grid.points - P.c * run.state.t)
