import math
import tracemalloc

import numpy as np
import pytest

from onedatom import CorrelationCurve, Grid1D, Wavefunction1, Wavefunction2
from onedatom.csvio import (
    read_curve,
    read_wavefunction1,
    read_wavefunction2,
    write_curve,
    write_wavefunction1,
    write_wavefunction2,
)


def test_wavefunction1_round_trip_is_exact(tmp_path):
    g = Grid1D(-2.0, 3.0, 77)
    rng = np.random.default_rng(5)
    amp = rng.normal(size=77) + 1j * rng.normal(size=77)
    path = tmp_path / "wf1.csv"
    write_wavefunction1(path, Wavefunction1.sampled(g, amp), {"gamma": 1.0})
    back = read_wavefunction1(path)
    # 17 significant digits round-trip doubles exactly
    assert np.array_equal(back.amp, amp)
    assert np.array_equal(back.grid.points, g.points)


def test_wavefunction2_round_trip_is_exact(tmp_path):
    g = Grid1D(0.0, 1.0, 9)
    rng = np.random.default_rng(6)
    amp = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    psi = Wavefunction2.symmetric(g, amp)
    path = tmp_path / "wf2.csv"
    write_wavefunction2(path, psi)
    back = read_wavefunction2(path)
    assert np.array_equal(back.amp, psi.amp)


def test_wavefunction2_read_streams(tmp_path):
    n = 129
    rng = np.random.default_rng(7)
    amp = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    path = tmp_path / "wf2.csv"
    write_wavefunction2(path, Wavefunction2(Grid1D(0.0, 1.0, n), amp))
    tracemalloc.start()
    try:
        back = read_wavefunction2(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.amp, amp)
    # the result alone is 16 n^2 bytes; the file text is never held whole
    assert peak < 10 * 16 * n * n


def test_blank_lines_and_comments_skipped(tmp_path):
    path = tmp_path / "wf1.csv"
    path.write_text("\n# meta\n  \n x, re, im \n0,1,2\n   \n  # note\n\t\n1,3,4\n\n")
    back = read_wavefunction1(path)
    assert np.array_equal(back.grid.points, [0.0, 1.0])
    assert np.array_equal(back.amp, [1 + 2j, 3 + 4j])


def test_curve_round_trip(tmp_path):
    tau = np.linspace(-1, 1, 41)
    c = CorrelationCurve(tau, np.cos(tau) ** 2, "normalized", 0.5)
    path = tmp_path / "curve.csv"
    write_curve(path, c, {"anchor": 0.5})
    back = read_curve(path)
    assert np.array_equal(back.tau, tau)
    assert np.array_equal(back.values, c.values)


def test_header_mismatch_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# meta\nfoo,bar\n1,2\n")
    with pytest.raises(ValueError):
        read_wavefunction1(path)


def test_non_square_2d_rejected(tmp_path):
    path = tmp_path / "bad2.csv"
    path.write_text("x1,x2,re,im\n" + "\n".join("0,0,1,0" for _ in range(3)) + "\n")
    with pytest.raises(ValueError):
        read_wavefunction2(path)
