import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from onedatom import (
    PhysicalParams,
    longpulse_g2,
    rect_nonlin_out,
    rect_one_photon_out,
    rect_process_amplitudes,
    rect_two_photon_out,
)

P = PhysicalParams()
L = 20.0
TWO_LN2 = 2 * math.log(2.0)


class TestOnePhotonOut:
    def test_value_at_pulse_end(self):
        assert rect_one_photon_out(L, L, P) == pytest.approx(1 / math.sqrt(L), rel=1e-15)

    def test_branch_jump_at_zero_equals_input_edge(self):
        # incoming edge discontinuity: middle branch minus x->0- limit is 1/sqrt(L)
        left_limit = (2 / math.sqrt(L)) * (math.exp(-L) - 1.0)
        jump = rect_one_photon_out(0.0, L, P) - left_limit
        assert jump == pytest.approx(1 / math.sqrt(L), abs=1e-15)

    def test_zero_beyond_pulse(self):
        assert rect_one_photon_out(L + 1e-9, L, P) == 0.0
        assert rect_one_photon_out(37.0, L, P) == 0.0

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            rect_one_photon_out(0.0, -3.0, P)

    def test_unit_norm_by_quadrature(self):
        # integrate |psi|^2 exactly over the two smooth branches; the mass
        # below tail depth 20 c/gamma is ~e^{-40}
        f = lambda x: rect_one_photon_out(x, L, P) ** 2
        tail, _ = quad(f, -20.0, 0.0, limit=200)
        body, _ = quad(f, 0.0, L, limit=200)
        assert abs(tail + body - 1.0) <= 1e-8


class TestNonlinOut:
    def test_pinned_plateau_value(self):
        expected = -(4 / L) * (1 - math.exp(-10.0)) ** 2
        assert rect_nonlin_out(10.0, 10.0, L, P) == pytest.approx(expected, rel=1e-14)

    def test_zero_beyond_pulse(self):
        assert rect_nonlin_out(L + 1e-9, 5.0, L, P) == 0.0

    def test_exchange_symmetric(self):
        assert rect_nonlin_out(3.0, 7.0, L, P) == rect_nonlin_out(7.0, 3.0, L, P)

    def test_no_overflow_for_long_pulses(self):
        big = 5000.0
        v = rect_nonlin_out(2500.0, 2500.0, big, P)
        assert math.isfinite(v)
        assert v == pytest.approx(-4 / big, rel=1e-10)


class TestTwoPhotonOut:
    def test_coincident_plateau_drops_to_minus_3_over_L(self):
        assert rect_two_photon_out(10.0, 10.0, L, P) == pytest.approx(-3 / L, abs=1e-4)

    def test_separated_plateau_near_1_over_L(self):
        assert rect_two_photon_out(2.0, 10.0, L, P) == pytest.approx(1 / L, abs=5e-4)

    def test_sign_change_near_two_ln2_separation(self):
        centre = 10.0
        below = rect_two_photon_out(centre - 0.6, centre + 0.6, L, P)   # sep 1.2
        above = rect_two_photon_out(centre - 0.8, centre + 0.8, L, P)   # sep 1.6
        assert below < 0 < above


class TestProcessDecomposition:
    def test_plateau_values(self):
        parts = rect_process_amplitudes(10.0, 10.0, L, P)
        assert parts.p_i == 1 / L
        assert parts.p_ii == pytest.approx(-4 / L, abs=1e-4)
        assert abs(parts.p_iii) <= 1e-3 / L

    def test_separated_plateau_p_iii_near_4_over_L(self):
        parts = rect_process_amplitudes(2.0, 10.0, L, P)
        assert parts.p_iii == pytest.approx(4 / L, abs=2e-3 / L)

    def test_sum_identity(self):
        x = np.linspace(0.0, L, 101)
        parts = rect_process_amplitudes(x[:, None], x[None, :], L, P)
        total = rect_two_photon_out(x[:, None], x[None, :], L, P)
        assert np.max(np.abs(parts.total - total)) <= 1e-12

    def test_rejects_outside_interval(self):
        with pytest.raises(ValueError):
            rect_process_amplitudes(-0.1, 5.0, L, P)
        with pytest.raises(ValueError):
            rect_process_amplitudes(1.0, L + 0.1, L, P)


class TestLongPulse:
    def test_consistency_with_exact_solution(self):
        # the plateau output (1 - 4 e^{-gamma |x1 - x2|/c}) / L, for
        # 0 < x_i < L - 2 c/gamma: its discarded terms are bounded by
        # 4 e^{-gamma (L - max x_i)/c} / L, attained (to rounding) at zero
        # separation
        big = 40.0
        pts = [(10.0, 10.0), (5.0, 20.0), (13.0, 31.0), (1.0, 37.0)]
        for x1, x2 in pts:
            exact = rect_two_photon_out(x1, x2, big, P)
            approx = (1.0 - 4.0 * math.exp(-abs(x1 - x2))) / big
            bound = 4 * math.exp(-(big - max(x1, x2))) / big
            assert abs(exact - approx) <= bound * (1 + 1e-9) + 1e-18


class TestLongPulseG2:
    def test_peak(self):
        assert longpulse_g2(0.0, P) == 4.5

    def test_zero_at_two_ln2(self):
        assert longpulse_g2(TWO_LN2, P) <= 1e-30

    def test_shoulder(self):
        assert longpulse_g2(50.0, P) == pytest.approx(0.5, rel=1e-12)

    def test_exactly_two_zeros_via_root_finder(self):
        # zeros of g2 are the roots of 1 - 4 e^{-gamma |tau|}
        h = lambda t: 1.0 - 4.0 * math.exp(-P.gamma * abs(t))
        right = brentq(h, 0.1, 10.0, xtol=1e-14)
        left = -brentq(lambda t: h(-t), 0.1, 10.0, xtol=1e-14)
        assert right == pytest.approx(TWO_LN2, abs=1e-12)
        assert left == pytest.approx(-TWO_LN2, abs=1e-12)
        # no further sign changes anywhere else
        tau = np.linspace(-30, 30, 60001)
        signs = np.sign(1.0 - 4.0 * np.exp(-np.abs(tau)))
        assert np.count_nonzero(np.diff(signs)) == 2
