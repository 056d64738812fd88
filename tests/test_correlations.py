import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import onedatom
from onedatom import (
    CorrelationCurve,
    Grid1D,
    PhysicalParams,
    Wavefunction1,
    Wavefunction2,
    apply_two_photon,
    find_dip_zeros,
    g2_slice,
    gaussian_pulse,
    longpulse_g2,
    norm2,
    rectangular_pulse,
)
from onedatom import model
from onedatom.correlations import _interp2
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
        # amplitude -3/L at tau=0 gives G2 = 2 c^2 (3/L)^2, which the
        # long-pulse normalisation divides by (2c/L)^2
        got = g2_slice(scattered.total, 20.0, (0.0, 1.0), 2, L, P).values[0]
        assert got * (2 * P.c / L) ** 2 == pytest.approx(2 * (3 / L) ** 2, rel=1e-5)

    def test_zero_amplitude_gives_zero(self):
        g = Grid1D(0.0, 1.0, 11)
        psi = Wavefunction2(g, np.zeros((11, 11)))
        assert np.all(g2_slice(psi, 0.5, (0.0, 0.2), 2, 1.0, P).values == 0.0)

    @pytest.mark.parametrize("anchor, delay", [(20.0, 6.0), (20.013, 5.5), (30.7, -9.2)])
    def test_detector_exchange_symmetry(self, scattered, anchor, delay):
        # G2(x, tau) = G2(x + c tau, -tau): the long-pulse curves at the two
        # anchors x and x + c tau meet in this one pair of samples
        a = g2_slice(scattered.total, anchor, (-delay, delay), 2, L, P)
        b = g2_slice(scattered.total, anchor + P.c * delay, (-delay, delay), 2, L, P)
        assert abs(a.values[1] - b.values[0]) <= 1e-10

    def test_rejects_points_outside_grid(self, scattered):
        with pytest.raises(ValueError, match="outside"):
            g2_slice(scattered.total, 39.0, (0.0, 5.0), 2, L, P)

    def test_nonnegative(self, curve):
        assert np.all(curve.values >= 0)


class TestNormalizedG2:
    def test_peak_value(self, scattered):
        assert g2_slice(scattered.total, 20.0, (0.0, 1.0), 2, L, P).values[0] == \
            pytest.approx(4.5, abs=1e-3)

    def test_zero_at_two_ln2(self, scattered):
        assert g2_slice(scattered.total, 20.0, (0.0, TWO_LN2), 2, L, P).values[1] <= 1e-3

    def test_shoulder_at_large_delay(self, scattered):
        assert g2_slice(scattered.total, 20.0, (0.0, 10.0), 2, L, P).values[1] == \
            pytest.approx(0.5, abs=1e-3)

    def test_agrees_with_longpulse_curve(self, curve):
        sel = np.abs(curve.tau) <= 8.0
        dev = np.max(np.abs(curve.values[sel] - longpulse_g2(curve.tau[sel], P)))
        assert dev <= 2e-3

    def test_shoulder_mean(self, curve):
        sel = (np.abs(curve.tau) >= 6.0) & (np.abs(curve.tau) <= 10.0)
        assert np.mean(curve.values[sel]) == pytest.approx(0.5, abs=1e-2)

    def test_local_density_normalization_near_plateau(self, scattered):
        loc = g2_slice(scattered.total, 20.0, (0.0, 1.0), 2, None, P).values[0]
        assert loc == pytest.approx(4.5, rel=0.05)

    def test_rejects_bad_length(self, scattered):
        with pytest.raises(ValueError):
            g2_slice(scattered.total, 20.0, (0.0, 1.0), 2, -1.0, P)


class TestMarginalDensity:
    def test_rejects_non_finite_points(self, scattered):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                g2_slice(scattered.total, bad, (0.0, 1.0), 2, None, P)
        with pytest.raises(ValueError, match="finite"):
            g2_slice(scattered.total, 20.0, (0.0, math.nan), 2, None, P)
        with pytest.raises(ValueError, match="outside"):
            g2_slice(scattered.total, 20.0, (0.0, L - 19.0), 2, None, P)

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["rectangular", "sampled", "general", "dense"]),
           n=st.integers(2, 90), start=st.floats(0.0, 1.0), width=st.floats(0.0, 1.0),
           nodes=st.integers(0, 3), block_cells=st.integers(1, 3000),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_window_matches_full_grid(self, kind, n, start, width, nodes,
                                      block_cells, seed):
        # the rows read for the window of a curve's points give the same
        # curve, bit for bit, as interpolating the density of every row; and
        # neither it nor norm2 depends on how many cells a block holds.  Of
        # the anchor and the two ends of its tau line, `nodes` sit on nodes.
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
        ends = rng.uniform(lo, hi, 3)
        if len(inside):
            ends[:nodes] = rng.choice(inside, nodes)
        anchor = ends[0]
        tau_range = ((ends[1] - anchor) / P.c, (ends[2] - anchor) / P.c)
        x = np.append(anchor + P.c * np.linspace(*tau_range, 5), anchor)
        assume(pts[0] <= np.min(x) and np.max(x) <= pts[-1])   # rounding at a grid end
        rho = 2.0 * P.c * np.interp(x, pts, _row_density(psi, grid_weights(grid)))
        density = rho[:-1] * rho[-1]
        g2 = 2.0 * P.c ** 2 * np.abs(_interp2(psi, x[:-1], anchor)) ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            full = np.where(density > 0, g2 / density, np.nan)
        norm = norm2(psi).hex()
        curve = g2_slice(psi, anchor, tau_range, 5, None, P)
        assert np.array_equal(curve.values, full, equal_nan=True)
        with mock.patch.object(model, "BLOCK_CELLS", block_cells):
            curve = g2_slice(psi, anchor, tau_range, 5, None, P)
            assert np.array_equal(curve.values, full, equal_nan=True)
            assert norm2(psi).hex() == norm


class _RowRecorder:
    """A two-photon state that reads through another and records every row
    it is asked for."""

    def __init__(self, psi):
        self.psi, self.grid, self.read = psi, psi.grid, set()

    def rows(self, i0, i1):
        self.read.update(range(self.grid.n)[i0:i1])
        return self.psi.rows(i0, i1)


class TestCornerRead:
    """The bilinear corners come from the rows at x2's nodes, by exchange
    symmetry, bit for bit as a dense read of the four corners."""

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(["dense", "chirped"]), n=st.integers(2, 40),
           block_cells=st.integers(1, 200), edge=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_dense_bilinear(self, kind, n, block_cells, edge, seed):
        rng = np.random.default_rng(seed)
        grid = Grid1D(-4.0, 6.0, n)
        if kind == "dense":
            psi = Wavefunction2.symmetric(
                grid, rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        else:
            f = gaussian_pulse(1.0, 0.8, Grid1D(-2.0, 4.0, 31))
            f = Wavefunction1(f.grid, f.amp * np.exp(0.5j * f.grid.points ** 2))
            psi = apply_two_photon(f, grid, P).total
        amp, pts = psi.amp, grid.points
        x1 = rng.uniform(pts[0], pts[-1], (3, 7))
        x1[0, 0] = pts[-1]                              # the grid edges
        x2 = pts[0] if edge else rng.uniform(pts[0], pts[-1])
        i = np.clip(np.searchsorted(pts, x1, side="right") - 1, 0, n - 2)
        j = np.clip(np.searchsorted(pts, x2, side="right") - 1, 0, n - 2)
        u = (x1 - pts[i]) / (pts[i + 1] - pts[i])
        v = (x2 - pts[j]) / (pts[j + 1] - pts[j])
        ref = ((1 - u) * (1 - v) * amp[i, j] + u * (1 - v) * amp[i + 1, j]
               + (1 - u) * v * amp[i, j + 1] + u * v * amp[i + 1, j + 1])
        with mock.patch.object(model, "BLOCK_CELLS", block_cells):
            assert np.array_equal(_interp2(psi, x1, x2), ref)

    @pytest.mark.parametrize("length", [L, None], ids=["length", "local"])
    def test_scalar_anchor_reads_two_rows(self, scattered, length):
        # the amplitude needs rows j and j + 1 around the anchor; the local
        # density adds only its window of rows, from the last node at or
        # below the lowest point to the first at or above the highest
        pts, anchor = scattered.total.grid.points, 20.3
        x = np.append(anchor + P.c * np.linspace(-10.0, 10.0, 301), anchor)
        recorder = _RowRecorder(scattered.total)
        got = g2_slice(recorder, anchor, (-10.0, 10.0), 301, length, P)
        j = int(np.searchsorted(pts, anchor, side="right")) - 1
        window = set()
        if length is None:
            window = set(range(np.flatnonzero(pts <= np.min(x))[-1],
                               np.flatnonzero(pts >= np.max(x))[0] + 1))
        assert recorder.read == {j, j + 1} | window
        assert got.density_rows == len(window)
        want = g2_slice(scattered.total, anchor, (-10.0, 10.0), 301, length, P)
        assert np.array_equal(got.values, want.values)


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

    @pytest.mark.parametrize("n", [512, 1024, 2048])
    def test_plateau_dips_at_every_sampling(self, n):
        # the default rectangle: the dips are found wherever the tau samples
        # land, not only where one falls within 1e-6 of the peak
        rect = apply_two_photon(rectangular_pulse(20.0),
                                Grid1D.with_breakpoints(-10.0, 20.0, n, (0.0, 20.0)), P)
        for count in (500, 1000, 2001, 4001):
            zeros = find_dip_zeros(g2_slice(rect.total, 10.0, (-10.0, 10.0), count, 20.0, P))
            for dip in (-TWO_LN2, TWO_LN2):
                assert min((abs(z - dip) for z in zeros), default=math.inf) <= 2e-3, \
                    (count, zeros)

    @pytest.mark.parametrize("count", [11, 101, 1001])
    def test_nonzero_minimum_is_no_zero(self, count):
        tau = np.linspace(-1.0, 1.0, count)
        assert find_dip_zeros(CorrelationCurve(tau, (tau - 0.3) ** 2 + 1e-3)) == []

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
from onedatom import Grid1D, Wavefunction2, norm2
from onedatom.model import _row_density, grid_weights
n = 1500
rng = np.random.default_rng(5)
psi = Wavefunction2(Grid1D(0.0, 1.0, n),
                    rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
rho = _row_density(psi, grid_weights(psi.grid))
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
