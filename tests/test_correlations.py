import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import onedatom
from onedatom import (
    CorrelationCurve,
    Grid1D,
    PhysicalParams,
    Wavefunction2,
    apply_two_photon,
    find_dip_zeros,
    g2_slice,
    gaussian_pulse,
    longpulse_g2,
    norm2,
    normalized_g2,
    rectangular_pulse,
    second_order_correlation,
)
from onedatom import model
from onedatom.correlations import marginal_density
from onedatom.model import _row_density, grid_weights

P = PhysicalParams()
L = 40.0
TWO_LN2 = 2 * math.log(2.0)


@pytest.fixture(scope="module")
def scattered():
    rect = rectangular_pulse(L)
    grid = Grid1D.with_breakpoints(-10.0, L, 2501, (0.0, L))
    return apply_two_photon(rect, grid, P)


@pytest.fixture(scope="module")
def curve(scattered):
    return g2_slice(scattered.total, 20.0, (-10.0, 10.0), 4001, L, P)


class TestSecondOrderCorrelation:
    def test_plateau_coincidence(self, scattered):
        # amplitude -3/L at tau=0 gives G2 = 2 c^2 (3/L)^2
        got = second_order_correlation(scattered.total, 20.0, 0.0, P)
        assert got == pytest.approx(2 * (3 / L) ** 2, rel=1e-5)

    def test_zero_amplitude_gives_zero(self):
        g = Grid1D(0.0, 1.0, 11)
        psi = Wavefunction2(g, np.zeros((11, 11)))
        assert second_order_correlation(psi, 0.5, 0.2, P) == 0.0

    def test_detector_exchange_symmetry(self, scattered):
        taus = np.linspace(-6, 6, 121)
        a = second_order_correlation(scattered.total, 20.0, taus, P)
        b = second_order_correlation(scattered.total, 20.0 + P.c * taus, -taus, P)
        assert np.max(np.abs(a - b)) <= 1e-10

    def test_rejects_points_outside_grid(self, scattered):
        with pytest.raises(ValueError):
            second_order_correlation(scattered.total, 39.0, 5.0, P)

    def test_nonnegative(self, curve):
        assert np.all(curve.values >= 0)


class TestNormalizedG2:
    def test_peak_value(self, scattered):
        assert normalized_g2(scattered.total, 20.0, 0.0, L, P) == pytest.approx(
            4.5, abs=1e-3)

    def test_zero_at_two_ln2(self, scattered):
        assert normalized_g2(scattered.total, 20.0, TWO_LN2, L, P) <= 1e-3

    def test_shoulder_at_large_delay(self, scattered):
        assert normalized_g2(scattered.total, 20.0, 10.0, L, P) == pytest.approx(
            0.5, abs=1e-3)

    def test_agrees_with_longpulse_curve(self, curve):
        sel = np.abs(curve.tau) <= 8.0
        dev = np.max(np.abs(curve.values[sel] - longpulse_g2(curve.tau[sel], P)))
        assert dev <= 2e-3

    def test_shoulder_mean(self, curve):
        sel = (np.abs(curve.tau) >= 6.0) & (np.abs(curve.tau) <= 10.0)
        assert np.mean(curve.values[sel]) == pytest.approx(0.5, abs=1e-2)

    def test_local_density_normalization_near_plateau(self, scattered):
        loc = normalized_g2(scattered.total, 20.0, 0.0, None, P)
        assert loc == pytest.approx(4.5, rel=0.05)

    def test_rejects_bad_length(self, scattered):
        with pytest.raises(ValueError):
            normalized_g2(scattered.total, 20.0, 0.0, -1.0, P)


class TestMarginalDensity:
    def test_rejects_non_finite_points(self, scattered):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                marginal_density(scattered.total, [20.0, bad], P)
        with pytest.raises(ValueError, match="outside"):
            marginal_density(scattered.total, [20.0, L + 1.0], P)

    def test_no_points_read_no_rows(self, scattered):
        assert marginal_density(scattered.total, [], P).shape == (0,)

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["rectangular", "sampled", "general", "dense"]),
           n=st.integers(2, 90), start=st.floats(0.0, 1.0), width=st.floats(0.0, 1.0),
           nodes=st.integers(0, 3), block_cells=st.integers(1, 3000),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_window_matches_full_grid(self, kind, n, start, width, nodes,
                                      block_cells, seed):
        # the rows read for a window of points give the same densities, bit
        # for bit, as interpolating the density of every row; and neither
        # they nor norm2 depend on how many cells a block holds
        rng = np.random.default_rng(seed)
        grid = Grid1D(-4.0, 6.0, n)
        if kind == "dense":
            amp = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            psi = Wavefunction2(grid, amp)
        else:
            f = gaussian_pulse(3.0, 0.8, Grid1D(0.0, 6.0, 31))
            source = {"rectangular": rectangular_pulse(4.0), "sampled": f,
                      "general": Wavefunction2.from_product(f)}[kind]
            psi = apply_two_photon(source, grid, P).total
        pts = grid.points
        lo = pts[0] + start * (pts[-1] - pts[0])
        hi = lo + width * (pts[-1] - lo)
        inside = pts[(pts >= lo) & (pts <= hi)]
        x = np.concatenate([rng.uniform(lo, hi, 5),
                            rng.choice(inside, nodes) if len(inside) else []])
        full = 2.0 * P.c * np.interp(x, pts, _row_density(psi, grid_weights(grid)))
        norm = norm2(psi).hex()
        assert np.array_equal(marginal_density(psi, x, P), full)
        with mock.patch.object(model, "BLOCK_CELLS", block_cells):
            assert np.array_equal(marginal_density(psi, x, P), full)
            assert norm2(psi).hex() == norm


class TestCurve:
    def test_symmetric_in_tau_at_plateau_anchor(self, scattered):
        c = g2_slice(scattered.total, 10.0, (-4.0, 4.0), 1601, L, P)
        assert np.max(np.abs(c.values - c.values[::-1])) <= 1e-10

    def test_longpulse_curve_exactly_symmetric(self):
        half = np.linspace(0.0, 8.0, 1601)
        tau = np.concatenate([-half[:0:-1], half])     # mirror-exact delays
        c = CorrelationCurve(tau, longpulse_g2(tau, P))
        assert np.max(np.abs(c.values - c.values[::-1])) == 0.0

    def test_zero_wavefunction_curve(self):
        g = Grid1D(-1.0, 1.0, 21)
        psi = Wavefunction2(g, np.zeros((21, 21)))
        c = g2_slice(psi, 0.0, (-0.5, 0.5), 101, 1.0, P)
        assert np.all(c.values == 0)
        assert find_dip_zeros(c) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            CorrelationCurve(np.zeros(3), np.zeros(4))


class TestFindDipZeros:
    def test_double_dip_locations(self, curve):
        zeros = find_dip_zeros(curve)
        assert len(zeros) == 2
        assert sorted(abs(z) for z in zeros) == pytest.approx(
            [TWO_LN2, TWO_LN2], abs=1e-3)

    def test_analytic_curve(self):
        tau = np.arange(-6.0, 6.0 + 1e-12, 0.005)
        c = CorrelationCurve(tau, longpulse_g2(tau, P))
        zeros = sorted(find_dip_zeros(c))
        assert zeros == pytest.approx([-TWO_LN2, TWO_LN2], abs=1e-3)

    def test_linear_component_has_no_zeros(self, scattered):
        c = g2_slice(scattered.linear, 20.0, (-10.0, 10.0), 4001, L, P)
        assert find_dip_zeros(c) == []
        sel = np.abs(c.tau) <= 4.0
        assert np.min(c.values[sel]) > 0.4

    def test_constant_curve(self):
        tau = np.linspace(-1, 1, 201)
        c = CorrelationCurve(tau, np.full(201, 0.7))
        assert find_dip_zeros(c) == []

    @pytest.mark.parametrize("undefined, zeros", [([], [0.0]),
                                                   (slice(-5, None), [0.0]),
                                                   ([101], [])])
    def test_nan_values_are_skipped(self, undefined, zeros):
        tau = np.linspace(-1.0, 1.0, 201)
        values = tau ** 2
        values[undefined] = np.nan
        c = CorrelationCurve(tau, values)
        assert find_dip_zeros(c) == zeros

    def test_empty_curve_rejected(self):
        c = CorrelationCurve(np.array([]), np.array([]))
        with pytest.raises(ValueError):
            find_dip_zeros(c)


# A row count that is not a multiple of the rows per block (2^16 cells over
# 1500 columns is 43 rows), where a BLAS matrix-vector product would split
# the rows between threads differently.
_DENSITY_SCRIPT = """
import sys
import numpy as np
from onedatom import Grid1D, PhysicalParams, Wavefunction2, norm2
from onedatom.correlations import marginal_density
n = 1500
rng = np.random.default_rng(5)
psi = Wavefunction2(Grid1D(0.0, 1.0, n),
                    rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
rho = marginal_density(psi, psi.grid.points, PhysicalParams())
sys.stdout.write(rho.tobytes().hex() + " " + norm2(psi).hex())
"""


def test_densities_do_not_depend_on_blas_threads():
    src = str(Path(onedatom.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        outs.append(subprocess.run([sys.executable, "-c", _DENSITY_SCRIPT], env=env,
                                   capture_output=True, text=True, check=True,
                                   timeout=300).stdout)
    assert outs[0] == outs[1]
