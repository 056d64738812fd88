import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onedatom import CorrelationCurve, Grid1D, Wavefunction1, Wavefunction2
from onedatom.csvio import (
    _complex,
    read_curve,
    read_wavefunction1,
    read_wavefunction2,
    write_curve,
    write_trace,
    write_wavefunction1,
    write_wavefunction2,
)
from onedatom.oracle import ExcitationTrace


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


# ---------------------------------------------------------------------------
# the writers against np.savetxt, the format they reproduce
# ---------------------------------------------------------------------------

META = {"gamma": 1.0, "pulse.kind": "rectangular"}
META_LINE = "# gamma=1.0 pulse.kind=rectangular\n"
ADVERSARIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-310,
               1.7e308, -1.7e308, 1.0, -3.0, 1e16, 2.0 ** 53 + 2.0, 0.1]
values = st.one_of(st.sampled_from(ADVERSARIAL), st.floats(allow_subnormal=True))
finite = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)


def _savetxt(path, head, columns):
    with open(path, "w") as fh:
        fh.write(head)
        np.savetxt(fh, np.column_stack(columns), fmt="%.17g", delimiter=",")


def _savetxt_grid(path, head, pts, amp):
    """The row-by-row np.savetxt loop the two-photon writer replaced."""
    with open(path, "w") as fh:
        fh.write(head)
        for i in range(len(pts)):
            np.savetxt(fh, np.column_stack([np.full(len(pts), pts[i]), pts,
                                            amp[i].real, amp[i].imag]),
                       fmt="%.17g", delimiter=",")


def _grid(points):
    return Grid1D(0.0, 1.0, len(points), _points=np.array(points))


def _bits_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(2, 6))
def test_wavefunction2_writer_matches_savetxt(tmp_path_factory, data, n):
    pts = data.draw(st.lists(values, min_size=n, max_size=n))
    re = data.draw(st.lists(values, min_size=n * n, max_size=n * n))
    im = data.draw(st.lists(values, min_size=n * n, max_size=n * n))
    amp = _complex(np.reshape(re, (n, n)), np.reshape(im, (n, n)))
    out = tmp_path_factory.mktemp("wf2")
    write_wavefunction2(out / "got.csv", Wavefunction2(_grid(pts), amp), META)
    _savetxt_grid(out / "ref.csv", META_LINE + "x1,x2,re,im\n", np.array(pts), amp)
    assert (out / "got.csv").read_bytes() == (out / "ref.csv").read_bytes()


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 9), meta=st.sampled_from([None, META]))
def test_table_writers_match_savetxt(tmp_path_factory, data, n, meta):
    cols = [np.array(data.draw(st.lists(values, min_size=n, max_size=n)))
            for _ in range(3)]
    head = "#\n" if meta is None else META_LINE
    out = tmp_path_factory.mktemp("tables")
    write_curve(out / "curve.csv", CorrelationCurve(cols[0], cols[1], "raw", 0.0), meta)
    _savetxt(out / "curve_ref.csv", head + "tau,value\n", cols[:2])
    write_trace(out / "trace.csv", ExcitationTrace(cols[0], cols[1]))
    _savetxt(out / "trace_ref.csv", "t,value\n", cols[:2])
    pairs = [("curve", "curve_ref"), ("trace", "trace_ref")]
    if n >= 2:
        amp = _complex(cols[1], cols[2])
        write_wavefunction1(out / "wf1.csv", Wavefunction1.sampled(_grid(cols[0]), amp), meta)
        _savetxt(out / "wf1_ref.csv", head + "x,re,im\n", cols)
        pairs.append(("wf1", "wf1_ref"))
    for got, ref in pairs:
        assert (out / f"{got}.csv").read_bytes() == (out / f"{ref}.csv").read_bytes()


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(2, 6))
def test_finite_values_round_trip_bit_for_bit(tmp_path_factory, data, n):
    pts = np.array(sorted(data.draw(st.sets(finite, min_size=n, max_size=n))))
    re, im = (np.array(data.draw(st.lists(finite, min_size=n * n, max_size=n * n)))
              .reshape(n, n) for _ in range(2))
    amp = _complex(re, im)
    out = tmp_path_factory.mktemp("round")
    grid = _grid(pts)
    write_wavefunction2(out / "wf2.csv", Wavefunction2(grid, amp))
    back2 = read_wavefunction2(out / "wf2.csv")
    write_wavefunction1(out / "wf1.csv", Wavefunction1.sampled(grid, amp[0]))
    back1 = read_wavefunction1(out / "wf1.csv")
    write_curve(out / "curve.csv", CorrelationCurve(pts, re[0], "raw", 0.0))
    back_c = read_curve(out / "curve.csv")
    assert _bits_equal(back2.grid.points, pts) and _bits_equal(back2.amp, amp)
    assert _bits_equal(back1.grid.points, pts) and _bits_equal(back1.amp, amp[0])
    assert _bits_equal(back_c.tau, pts) and _bits_equal(back_c.values, re[0])
