import ast
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace
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
    Wavefunction1,
    Wavefunction2,
    apply_two_photon,
    csvio,
    model,
    rectangular_pulse,
)
from onedatom.cli import main
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
from onedatom.propagate import ScatteredState


def test_wavefunction1_round_trip_is_exact(tmp_path):
    g = Grid1D(-2.0, 3.0, 77)
    rng = np.random.default_rng(5)
    amp = rng.normal(size=77) + 1j * rng.normal(size=77)
    path = tmp_path / "wf1.csv"
    write_wavefunction1(path, Wavefunction1(g, amp), {"gamma": 1.0})
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


def test_wavefunction2_read_keeps_no_table(tmp_path):
    # the grid's axis is a copy, so the parsed table is freed on return and
    # only the amplitude grid (16 n^2 bytes) stays
    n = 381
    rng = np.random.default_rng(9)
    path = tmp_path / "wf2.csv"
    write_wavefunction2(path, Wavefunction2(Grid1D(0.0, 1.0, n), rng.normal(size=(n, n)) + 0j))
    tracemalloc.start()
    try:
        back = read_wavefunction2(path)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert back.grid.points.base is None
    assert held < 1.5 * 16 * n * n


def test_blank_lines_and_comments_skipped(tmp_path):
    path = tmp_path / "wf1.csv"
    path.write_text("\n# meta\n  \n x, re, im \n0,1,2\n   \n  # note\n\t\n1,3,4\n\n")
    back = read_wavefunction1(path)
    assert np.array_equal(back.grid.points, [0.0, 1.0])
    assert np.array_equal(back.amp, [1 + 2j, 3 + 4j])


def test_curve_round_trip(tmp_path):
    tau = np.linspace(-1, 1, 41)
    c = CorrelationCurve(tau, np.cos(tau) ** 2)
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


# ---------------------------------------------------------------------------
# the two-photon writer split over forked processes, one row range each
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cpus", [2, 3])
@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(2, 7))
def test_split_writer_matches_savetxt(tmp_path_factory, cpus, data, n):
    # every grid is split, so n = 2 < 3 processes and uneven ranges occur
    pts = data.draw(st.lists(values, min_size=n, max_size=n))
    re = data.draw(st.lists(values, min_size=n * n, max_size=n * n))
    im = data.draw(st.lists(values, min_size=n * n, max_size=n * n))
    amp = _complex(np.reshape(re, (n, n)), np.reshape(im, (n, n)))
    out = tmp_path_factory.mktemp("split")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(csvio, "_usable_cpus", lambda: cpus)
        mp.setattr(csvio, "SPLIT_CELLS", 1)
        write_wavefunction2(out / "got.csv", Wavefunction2(_grid(pts), amp), META)
    _savetxt_grid(out / "ref.csv", META_LINE + "x1,x2,re,im\n", np.array(pts), amp)
    assert (out / "got.csv").read_bytes() == (out / "ref.csv").read_bytes()
    assert sorted(os.listdir(out)) == ["got.csv", "ref.csv"]


def _special_grid(n, seed):
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    for part in (amp.real, amp.imag):
        mask = rng.random((n, n)) < 0.05
        part[mask] = rng.choice(ADVERSARIAL, size=mask.sum())
    return Wavefunction2(Grid1D(-2.0, 3.0, n), amp)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_split_writer_forks_one_process_per_extra_cpu(tmp_path, monkeypatch, cpus):
    n = 157                             # 3 ranges of SPLIT_CELLS; 157 is odd and prime
    assert n * n // csvio.SPLIT_CELLS >= 3
    psi = _special_grid(n, 8)
    forked = []
    fork_rows = csvio._fork_rows
    monkeypatch.setattr(csvio, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(csvio, "_fork_rows",
                        lambda *args: forked.append(args[-2:]) or fork_rows(*args))
    write_wavefunction2(tmp_path / "got.csv", psi, META)
    _savetxt_grid(tmp_path / "ref.csv", META_LINE + "x1,x2,re,im\n",
                  psi.grid.points, psi.amp)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert len(forked) == cpus - 1 and all(i1 > i0 for i0, i1 in forked)


# ---------------------------------------------------------------------------
# structured states, read by each process in row blocks
# ---------------------------------------------------------------------------

def _scattered(kind, n_in, n, seed):
    """A scattered pair on an n-point grid over [-3, 4], from a product
    rectangle, a sampled product pulse or a general 2-D input."""
    params = PhysicalParams()
    grid = Grid1D.with_breakpoints(-3.0, 4.0, n, (0.0, 2.5))
    if kind == "rectangle":
        return apply_two_photon(rectangular_pulse(2.5), grid, params)
    rng = np.random.default_rng(seed)
    g_in = Grid1D(0.0, 2.5, n_in)
    if kind == "sampled":
        amp = rng.normal(size=n_in) + 1j * rng.normal(size=n_in)
        return apply_two_photon(Wavefunction1(g_in, amp), grid, params)
    amp = rng.normal(size=(n_in, n_in)) + 1j * rng.normal(size=(n_in, n_in))
    return apply_two_photon(Wavefunction2.symmetric(g_in, amp + amp.T), grid, params)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["rectangle", "sampled", "general"]),
       part=st.sampled_from(["total", "linear", "nonlinear"]),
       n_in=st.integers(2, 9), n=st.integers(2, 30), seed=st.integers(0, 2 ** 16),
       rows=st.integers(1, 8), cpus=st.integers(1, 3))
def test_structured_state_written_in_row_blocks(tmp_path_factory, kind, part, n_in, n,
                                                seed, rows, cpus):
    # block and range edges fall anywhere: each process reads its range
    # through `rows`, a few rows at a time, with the bytes of the dense grid
    out = tmp_path_factory.mktemp("rows")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "BLOCK_CELLS", rows * n)
        mp.setattr(csvio, "SPLIT_CELLS", 1)
        mp.setattr(csvio, "_usable_cpus", lambda: cpus)
        psi = getattr(_scattered(kind, n_in, n, seed), part)
        # written without its dense grid: a read of it fails the test, in
        # the parent, or in a child, whose failure the writer raises
        with mock.patch.object(ScatteredState, "amp", property(
                lambda self: pytest.fail("a scattered state's dense grid was read"))):
            write_wavefunction2(out / "rows.csv", psi, META)
        write_wavefunction2(out / "dense.csv", Wavefunction2(psi.grid, psi.amp), META)
    _savetxt_grid(out / "ref.csv", META_LINE + "x1,x2,re,im\n", psi.grid.points, psi.amp)
    assert (out / "rows.csv").read_bytes() == (out / "dense.csv").read_bytes()
    assert (out / "rows.csv").read_bytes() == (out / "ref.csv").read_bytes()


def _failing_at(row):
    """`csvio._write_rows` that raises once it reaches `row`."""
    write_rows = csvio._write_rows

    def rows(fh, template, xs, amp, i0, i1):
        if i0 <= row < i1:
            write_rows(fh, template, xs, amp, i0, row)
            raise ValueError(f"row {row}")
        write_rows(fh, template, xs, amp, i0, i1)
    return rows


@pytest.mark.parametrize("row, error", [(156, OSError), (0, ValueError)],
                         ids=["in a child", "in the parent"])
def test_failed_range_leaves_no_file_or_process(tmp_path, monkeypatch, row, error):
    monkeypatch.setattr(csvio, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(csvio, "_write_rows", _failing_at(row))
    with pytest.raises(error):
        write_wavefunction2(tmp_path / "grid.csv", _special_grid(157, 9))
    assert os.listdir(tmp_path) == ["grid.csv"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)      # every forked child was waited for


@pytest.mark.parametrize("row, error", [(156, OSError), (0, ValueError)],
                         ids=["in a child", "in the parent"])
def test_failed_row_read_leaves_no_file_or_process(tmp_path, monkeypatch, row, error):
    # each process evaluates its own rows; a child whose read fails exits 1,
    # which the parent raises as OSError
    monkeypatch.setattr(csvio, "_usable_cpus", lambda: 3)
    psi = _special_grid(157, 9)

    def rows(i0, i1):
        if i0 <= row < i1:
            raise ValueError(f"row {row}")
        return psi.rows(i0, i1)
    with pytest.raises(error):
        write_wavefunction2(tmp_path / "grid.csv", SimpleNamespace(grid=psi.grid, rows=rows))
    assert os.listdir(tmp_path) == ["grid.csv"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_failed_child_exits_4(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(csvio, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(csvio, "_write_rows", _failing_at(200))
    out = tmp_path / "sim"
    assert main(["simulate", "--grid.n", "201", "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("i/o error:") and "Traceback" not in err
    assert os.listdir(out) == ["psi_out.csv"]


BLAS_NAMES = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum", "linalg"}


def test_package_calls_no_blas():
    # forked writer children evaluate `rows`, so no code in the package may
    # enter a BLAS thread pool the fork left behind: no `@` and no BLAS name,
    # used, imported or imported from
    found = []
    for path in sorted(Path(onedatom.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = []
            if isinstance(node, ast.MatMult):
                names = ["@"]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.alias):
                names = node.name.split(".")
            elif isinstance(node, ast.ImportFrom):
                names = (node.module or "").split(".")
            found += [f"{path.name}:{getattr(node, 'lineno', '?')} {name}"
                      for name in names if name == "@" or name in BLAS_NAMES]
    assert found == []


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_simulate_bytes_do_not_depend_on_cpus(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(onedatom.__file__).resolve().parents[1])}
    one_cpu = {min(os.sched_getaffinity(0))}
    for name, pin in [("one", lambda: os.sched_setaffinity(0, one_cpu)), ("all", None)]:
        subprocess.run([sys.executable, "-m", "onedatom.cli", "simulate", "--grid.n", "199",
                        "--out", str(tmp_path / name)],
                       env=env, preexec_fn=pin, capture_output=True, check=True, timeout=300)
    for name in ("psi_out.csv", "psi_lin.csv", "psi_nonlin.csv"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "all" / name).read_bytes()


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 9), meta=st.sampled_from([None, META]))
def test_table_writers_match_savetxt(tmp_path_factory, data, n, meta):
    cols = [np.array(data.draw(st.lists(values, min_size=n, max_size=n)))
            for _ in range(3)]
    head = "#\n" if meta is None else META_LINE
    out = tmp_path_factory.mktemp("tables")
    write_curve(out / "curve.csv", CorrelationCurve(cols[0], cols[1]), meta)
    _savetxt(out / "curve_ref.csv", head + "tau,value\n", cols[:2])
    write_trace(out / "trace.csv", ExcitationTrace(cols[0], cols[1]))
    _savetxt(out / "trace_ref.csv", "t,value\n", cols[:2])
    pairs = [("curve", "curve_ref"), ("trace", "trace_ref")]
    if n >= 2:
        amp = _complex(cols[1], cols[2])
        write_wavefunction1(out / "wf1.csv", Wavefunction1(_grid(cols[0]), amp), meta)
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
    write_wavefunction1(out / "wf1.csv", Wavefunction1(grid, amp[0]))
    write_curve(out / "curve.csv", CorrelationCurve(pts, re[0]))
    back_c = read_curve(out / "curve.csv")
    assert _bits_equal(back_c.tau, pts) and _bits_equal(back_c.values, re[0])
    if not math.isfinite(float(pts[-1]) - float(pts[0])):
        # an axis whose span overflows is no grid: both readers reject it
        for read, name in ((read_wavefunction2, "wf2"), (read_wavefunction1, "wf1")):
            with pytest.raises(ValueError, match="overflows"):
                read(out / f"{name}.csv")
        return
    back2 = read_wavefunction2(out / "wf2.csv")
    back1 = read_wavefunction1(out / "wf1.csv")
    assert _bits_equal(back2.grid.points, pts) and _bits_equal(back2.amp, amp)
    assert _bits_equal(back1.grid.points, pts) and _bits_equal(back1.amp, amp[0])


@pytest.mark.parametrize("read, text", [
    (read_wavefunction1, "x,re,im\n-1e308,1,0\n1e308,1,0\n"),
    (read_wavefunction2, "x1,x2,re,im\n-1e308,-1e308,1,0\n-1e308,1e308,1,0\n"
                         "1e308,-1e308,1,0\n1e308,1e308,1,0\n"),
], ids=["one", "two"])
def test_axis_whose_span_overflows_is_rejected(read, text, tmp_path):
    # the increasing-axis test compares neighbours, so it cannot overflow;
    # the grid then rejects the span
    (tmp_path / "wide.csv").write_text(text)
    with pytest.raises(ValueError, match="overflows"):
        read(tmp_path / "wide.csv")
