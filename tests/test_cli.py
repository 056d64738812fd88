import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import onedatom
from onedatom import PhysicalParams, Wavefunction2, cli, max_asymmetry, model, oracle, \
    rect_two_photon_out
from onedatom.cli import COMMANDS, load_config, main
from onedatom.csvio import read_curve, read_wavefunction1, read_wavefunction2, \
    write_wavefunction1, write_wavefunction2
from onedatom.oracle import run_rect
from onedatom import Grid1D, Wavefunction1

P = PhysicalParams()


def write_config(path, **extra):
    base = {
        "gamma": 1.0,
        "c": 1.0,
        "pulse.kind": "rectangular",
        "pulse.length": 6.0,
        "grid.x_min": -6.0,
        "grid.x_max": 6.0,
        "grid.n": 241,
        "anchor.x": 3.0,
        "tau.min": -3.0,
        "tau.max": 3.0,
        "tau.n": 601,
    }
    base.update(extra)
    path.write_text("# test config\n" + "".join(
        f"{k} = {v}\n" for k, v in base.items()))
    return str(path)


def manifest_entries(path):
    out = {}
    for line in path.read_text().splitlines():
        if line.startswith("#") or "=" not in line:
            continue
        k, _, v = line.partition("=")
        out[k.strip()] = v.strip()
    return out


class TestSimulate:
    def test_outputs_match_closed_form(self, tmp_path):
        cfg = write_config(tmp_path / "run.cfg")
        out = tmp_path / "sim"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--check"]) == 0
        psi = read_wavefunction2(out / "psi_out.csv")
        x = psi.grid.points
        ref = rect_two_photon_out(x[:, None], x[None, :], 6.0, P)
        assert np.max(np.abs(psi.amp - ref)) <= 1e-10
        assert (out / "psi_lin.csv").exists()
        assert (out / "psi_nonlin.csv").exists()
        entries = manifest_entries(out / "manifest.txt")
        assert entries["run.command"] == "simulate"
        assert "run.norm_out" in entries

    def test_reruns_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "run.cfg")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--out", str(out_a)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out_b)]) == 0
        assert (out_a / "psi_out.csv").read_bytes() == (out_b / "psi_out.csv").read_bytes()

    def test_grid_must_cover_pulse(self, tmp_path):
        cfg = write_config(tmp_path / "run.cfg")
        rc = main(["simulate", "--config", cfg, "--grid.x_max", "4.0",
                   "--out", str(tmp_path / "x")])
        assert rc == 2

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("pulse.shape = square\n")
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 2

    def test_has_no_linear_only_flag(self, tmp_path):
        # psi_lin.csv already holds the linear part
        cfg = write_config(tmp_path / "run.cfg")
        out = tmp_path / "lin"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", cfg, "--out", str(out), "--linear-only"])
        assert exc.value.code == 2
        assert not out.exists()


class TestG2:
    def test_double_dip_zero_locations(self, tmp_path):
        cfg = write_config(tmp_path / "run.cfg", **{
            "pulse.length": 20.0, "grid.x_min": -10.0, "grid.x_max": 20.0,
            "grid.n": 1201, "anchor.x": 10.0,
            "tau.min": -6.0, "tau.max": 6.0, "tau.n": 3001})
        out = tmp_path / "g2"
        assert main(["g2", "--config", cfg, "--out", str(out)]) == 0
        entries = manifest_entries(out / "manifest.txt")
        assert entries["run.zero_count"] == "2"
        zeros = sorted(float(entries[f"run.zero_{i}"]) for i in range(2))
        t0 = 2 * math.log(2.0)
        assert zeros == pytest.approx([-t0, t0], abs=1e-3)
        curve = read_curve(out / "g2_curve.csv")
        assert len(curve.tau) == 3001

    @pytest.mark.parametrize("flags, zeros", [
        ([], [-2 * math.log(2.0), 2 * math.log(2.0), 10.0 - math.log(2.0)]),
        (["--linear-only"], [10.0 - math.log(2.0)])], ids=["total", "linear-only"])
    def test_default_zeros(self, flags, zeros, tmp_path):
        # the defaults: L 20 on [-10, 20], anchor 10, 2001 delays in [-10, 10].
        # Both plateau dips, and the zero of phi_out at x = L - (c/gamma) ln 2
        # (tau = 10 - ln 2), which the linear part has too: no dip but a true
        # zero of the amplitude
        out = tmp_path / "g2"
        assert main(["g2", "--out", str(out), *flags]) == 0
        entries = manifest_entries(out / "manifest.txt")
        assert entries["run.zero_count"] == str(len(zeros))
        got = [float(entries[f"run.zero_{i}"]) for i in range(len(zeros))]
        assert got == pytest.approx(zeros, abs=2e-3)

    def test_linear_only_has_no_zeros(self, tmp_path):
        cfg = write_config(tmp_path / "run.cfg", **{
            "pulse.length": 20.0, "grid.x_min": -10.0, "grid.x_max": 20.0,
            "grid.n": 1201, "anchor.x": 10.0,
            "tau.min": -6.0, "tau.max": 6.0, "tau.n": 3001})
        out = tmp_path / "g2lin"
        assert main(["g2", "--config", cfg, "--out", str(out),
                     "--linear-only"]) == 0
        entries = manifest_entries(out / "manifest.txt")
        assert entries["run.zero_count"] == "0"

    @pytest.mark.parametrize("flags, count", [(["--pulse.kind", "gaussian"], 200),
                                              ([], 0)])
    def test_undefined_values_are_counted(self, flags, count, tmp_path, capsys):
        # the default gaussian's output is exactly 0 beyond x = 18, so the
        # local densities vanish for tau > 8
        out = tmp_path / "g2"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["g2", "--out", str(out), *flags]) == 0
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert manifest_entries(out / "manifest.txt")["run.undefined_tau"] == str(count)
        assert np.count_nonzero(np.isnan(read_curve(out / "g2_curve.csv").values)) == count
        assert f"g2 undefined at {count} tau" in capsys.readouterr().out

    @pytest.mark.parametrize("kind", ["gaussian", "rectangular"])
    def test_density_rows_recorded(self, kind, tmp_path):
        # the local density of the default gaussian reads only the rows under
        # anchor + tau, [0, 20] of [-10, 20]; the long-pulse normalisation none
        out = tmp_path / "g2"
        assert main(["g2", "--out", str(out), "--pulse.kind", kind]) == 0
        rows = int(manifest_entries(out / "manifest.txt")["run.density_rows"])
        if kind == "gaussian":
            assert 0 < rows < 512
            assert rows == pytest.approx(512 * 2 / 3, abs=2)
        else:
            assert rows == 0

    def test_tau_window_outside_grid(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.cfg")
        out = tmp_path / "g2far"
        rc = main(["g2", "--config", cfg, "--out", str(out),
                   "--tau.min", "-40", "--tau.max", "40"])
        assert rc == 2
        assert "outside the output grid" in capsys.readouterr().err
        assert not out.exists()


class TestOracle:
    def test_report_and_check(self, tmp_path):
        cfg = write_config(tmp_path / "run.cfg", **{"pulse.length": 2.0})
        out = tmp_path / "orc"
        rc = main(["oracle", "--config", cfg, "--oracle.dx", "0.02",
                   "--out", str(out), "--check"])
        assert rc == 0
        entries = manifest_entries(out / "manifest.txt")
        assert float(entries["run.rel_l2"]) <= 2e-2
        assert 1.7 <= float(entries["run.convergence_ratio"]) <= 2.3
        assert (out / "oracle_trace.csv").exists()
        assert (out / "oracle_farfield.csv").exists()

    def test_check_failure_gives_exit_3(self, tmp_path, monkeypatch, capsys):
        cfg = write_config(tmp_path / "run.cfg", **{"pulse.length": 2.0})
        monkeypatch.setitem(cli.ORACLE_REL_L2, 1, 1e-9)
        rc = main(["oracle", "--config", cfg, "--oracle.dx", "0.02",
                   "--out", str(tmp_path / "x"), "--check"])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("tolerance failure: run.rel_l2 = ")
        assert err.rstrip().endswith("exceeds 1.000e-09")

    @pytest.mark.parametrize("bound,ratio,array,cells", [
        (100_000, "false", "the far field of 440 x 440", 440 * 440),
        (50_000, "true", "the held rows of 80 x 880", 80 * 880),
    ], ids=["far-field", "ratio-run-band"])
    def test_two_photon_arrays_bounded_by_max_count(self, bound, ratio, array, cells,
                                                    tmp_path, monkeypatch, capsys):
        # every count passes, but the far field or the dx/2 run's band of
        # held rows exceeds the bound: it is refused before it is allocated
        out = tmp_path / "orc2"
        argv = ["oracle", "--oracle.mode", "two", "--pulse.length", "2",
                "--oracle.dx", "0.05", "--oracle.ratio", ratio, "--out", str(out)]
        monkeypatch.setattr(oracle, "MAX_COUNT", bound)
        tracemalloc.start()
        try:
            assert main(argv) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f"error: {array} cells exceeds {bound} cells" in capsys.readouterr().err
        assert peak < 16 * cells / 2
        assert not out.exists()
        monkeypatch.undo()
        assert main(argv) == 0

    def test_two_photon_mode(self, tmp_path):
        cfg = write_config(tmp_path / "run.cfg", **{
            "pulse.length": 2.0, "oracle.mode": "two", "oracle.dx": "0.05",
            "oracle.ratio": "false"})
        out = tmp_path / "orc2"
        assert main(["oracle", "--config", cfg, "--out", str(out)]) == 0
        entries = manifest_entries(out / "manifest.txt")
        assert float(entries["run.rel_l2"]) <= 8e-2


class TestCompare:
    def test_identical_files(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.cfg")
        out = tmp_path / "sim"
        main(["simulate", "--config", cfg, "--out", str(out)])
        rc = main(["compare", str(out / "psi_out.csv"), str(out / "psi_out.csv"),
                   "--tol", "1e-12"])
        assert rc == 0
        assert "max-abs 0.0" in capsys.readouterr().out

    def test_zero_reference(self, tmp_path, capsys):
        # against a zero reference rel-L2 is the norm of the difference, as
        # for the oracle's errors: 0 for two zero files, not inf
        g = Grid1D(0.0, 1.0, 11)
        for name, value in (("z.csv", 0.0), ("h.csv", 0.5)):
            write_wavefunction1(tmp_path / name, Wavefunction1(g, np.full(11, value)))
        for a, rel in (("z.csv", 0.0), ("h.csv", math.sqrt(11 * 0.25))):
            assert main(["compare", str(tmp_path / a), str(tmp_path / "z.csv")]) == 0
            assert f"rel-L2 {rel:.6e}," in capsys.readouterr().out

    def test_shape_mismatch(self, tmp_path):
        g1 = Grid1D(0.0, 1.0, 11)
        g2 = Grid1D(0.0, 1.0, 13)
        write_wavefunction1(tmp_path / "a.csv",
                            Wavefunction1(g1, np.zeros(11)))
        write_wavefunction1(tmp_path / "b.csv",
                            Wavefunction1(g2, np.zeros(13)))
        assert main(["compare", str(tmp_path / "a.csv"),
                     str(tmp_path / "b.csv")]) == 2

    def test_tolerance_violation(self, tmp_path):
        g = Grid1D(0.0, 1.0, 11)
        write_wavefunction1(tmp_path / "a.csv",
                            Wavefunction1(g, np.zeros(11)))
        write_wavefunction1(tmp_path / "b.csv",
                            Wavefunction1(g, np.full(11, 0.5)))
        assert main(["compare", str(tmp_path / "a.csv"),
                     str(tmp_path / "b.csv"), "--tol", "1e-3"]) == 3

    def test_missing_file(self, tmp_path):
        assert main(["compare", str(tmp_path / "no.csv"),
                     str(tmp_path / "no.csv")]) == 2

    @pytest.mark.parametrize("two_photon", [False, True], ids=["one-photon", "two-photon"])
    def test_nan_cell_fails_any_tolerance(self, tmp_path, capsys, two_photon):
        # a nan difference is within no tolerance, not even an infinite one
        n = 7
        g = Grid1D(0.0, 1.0, n)
        amp = np.ones((n, n) if two_photon else n, dtype=complex)
        bad = amp.copy()
        bad[(3,) * amp.ndim] = np.nan
        write = write_wavefunction2 if two_photon else write_wavefunction1
        kind = Wavefunction2 if two_photon else Wavefunction1
        write(tmp_path / "a.csv", kind(g, bad))
        write(tmp_path / "b.csv", kind(g, amp))
        argv = ["compare", str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]
        assert main([*argv, "--tol", "0"]) == 3
        assert main([*argv, "--tol", "1e300"]) == 3
        assert "max-abs nan" in capsys.readouterr().out

    def test_two_photon_files_read_in_row_blocks(self, tmp_path, capsys):
        # any block height gives the dense max-abs and rel-L2
        n = 23
        rng = np.random.default_rng(8)
        g = Grid1D(0.0, 1.0, n)
        a, b = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for _ in range(2))
        write_wavefunction2(tmp_path / "a.csv", Wavefunction2(g, a))
        write_wavefunction2(tmp_path / "b.csv", Wavefunction2(g, b))
        dense = np.abs(a - b)
        rel = math.sqrt(np.sum(dense ** 2) / np.sum(np.abs(b) ** 2))
        expected = f"compare: max-abs {np.max(dense):.6e}, rel-L2 {rel:.6e}"
        for rows in (1, 5, n):
            with mock.patch.object(model, "BLOCK_CELLS", rows * n):
                assert main(["compare", str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]) == 0
            assert capsys.readouterr().out.startswith(expected)


class TestDecompose:
    def test_emits_process_grids(self, tmp_path):
        cfg = write_config(tmp_path / "run.cfg", **{"grid.n": 41})
        out = tmp_path / "dec"
        assert main(["decompose", "--config", cfg, "--out", str(out)]) == 0
        for name in ("p_i", "p_ii", "p_iii"):
            assert (out / f"{name}.csv").exists()
        entries = manifest_entries(out / "manifest.txt")
        assert float(entries["run.sum_identity_max_abs"]) <= 1e-12
        p_i = read_wavefunction2(out / "p_i.csv")
        assert np.all(p_i.amp.real == 1.0 / 6.0)


class TestFilePulse:
    def test_file_pulse_renormalized(self, tmp_path, capsys):
        g = Grid1D(0.0, 4.0, 401)
        amp = np.exp(-((g.points - 2.0) ** 2)) * 0.8     # deliberately not unit norm
        write_wavefunction1(tmp_path / "pulse.csv", Wavefunction1(g, amp))
        cfg = write_config(tmp_path / "run.cfg", **{
            "pulse.kind": "file", "pulse.path": str(tmp_path / "pulse.csv"),
            "grid.x_min": -6.0, "grid.x_max": 4.0, "grid.n": 201})
        out = tmp_path / "sim"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        entries = manifest_entries(out / "manifest.txt")
        assert float(entries["run.norm_out"]) == pytest.approx(1.0, abs=2e-2)

    def test_missing_path(self, tmp_path):
        cfg = write_config(tmp_path / "run.cfg", **{"pulse.kind": "file"})
        assert main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "x")]) == 2


def test_dotted_overrides(tmp_path):
    cfg = write_config(tmp_path / "run.cfg")
    out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--pulse.length", "4.0",
                 "--grid.n", "121", "--out", str(out)]) == 0
    entries = manifest_entries(out / "manifest.txt")
    assert float(entries["pulse.length"]) == 4.0


@pytest.mark.parametrize("key", ["check.max_abs", "check.g2", "check.oracle_one",
                                 "check.oracle_two"])
def test_removed_check_key_exits_2(key, tmp_path, capsys):
    # each --check bound is fixed by the method, not a setting
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--check", f"--{key}", "1", "--out", str(out)])
    assert exc.value.code == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"grid.n = 41\n{key} = 1\n")
    capsys.readouterr()
    assert main(["simulate", "--check", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {cfg}:2: unknown key {key!r}\n"
    assert not out.exists()


def test_config_with_byte_order_mark(tmp_path):
    cfg = tmp_path / "bom.cfg"
    cfg.write_text("grid.n = 64\n", encoding="utf-8-sig")
    out = tmp_path / "g2"
    assert main(["g2", "--config", str(cfg), "--out", str(out)]) == 0
    assert manifest_entries(out / "manifest.txt")["grid.n"] == "64"


def test_bad_value_names_key_and_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\ngrid.n = 64 # comment\n")
    out = tmp_path / "g2"
    assert main(["g2", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {cfg}:2: bad value for grid.n: '64 # comment'\n")
    assert main(["g2", "--tau.n", "many", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: bad value for tau.n: 'many'\n"
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("tau.min", "-1e-3"), ("grid.x_min", "-1e1")])
def test_negative_value_in_scientific_notation(tmp_path, key, value):
    # argparse alone reads -1e-3 as a flag, not as the value of the flag before it
    out = tmp_path / "g2"
    assert main(["g2", "--config", write_config(tmp_path / "run.cfg"), f"--{key}", value,
                 "--out", str(out)]) == 0
    assert float(manifest_entries(out / "manifest.txt")[key]) == float(value)


GAUSSIAN = ["--pulse.kind", "gaussian", "--pulse.center", "0", "--pulse.width", "0.5"]


@pytest.mark.parametrize("argv", [
    ["g2", "--tau.n", "1"],
    # a reversed or empty tau window
    ["g2", "--tau.min", "2", "--tau.max", "-2"],
    ["g2", "--tau.min", "1", "--tau.max", "1"],
    ["g2", "--anchor.x", "nan"],
    ["simulate", "--pulse.length", "inf"],
    ["decompose", "--pulse.length", "nan"],
    ["decompose", "--pulse.length", "-1"],
    ["oracle", "--pulse.length", "nan"],
    ["oracle", "--oracle.pad", "nan"],
    ["simulate", "--pulse.kind", "gaussian", "--pulse.width", "nan"],
    ["oracle", "--oracle.dx", "0.3"],
    ["oracle", "--oracle.dx", "-1"],
    ["oracle", "--pulse.length", "2", "--oracle.dx", "0.05", "--oracle.clear", "-100"],
    ["oracle", "--oracle.clear", "-5"],
    # cell and step counts that are not finite
    ["oracle", "--pulse.length", "1e308"],
    ["oracle", "--oracle.pad", "1e308"],
    ["oracle", "--oracle.clear", "1e308", "--pulse.length", "1", "--oracle.dx", "0.05",
     "--oracle.pad", "1"],
    # a finite count too large to run, rejected before any array is built
    ["oracle", "--oracle.clear", "1e12", "--pulse.length", "1", "--oracle.dx", "0.05",
     "--oracle.pad", "1"],
    ["simulate", "--pulse.kind", "file", "--pulse.path", "{dir}/unsorted.csv"],
    ["simulate", "--pulse.kind", "file", "--pulse.path", "{dir}/empty.csv"],
    ["compare", "{dir}/unsorted.csv", "{dir}/unsorted.csv"],
    ["compare", "{dir}/empty.csv", "{dir}/empty.csv"],
    ["simulate", "--check", *GAUSSIAN],
    ["g2", "--check", *GAUSSIAN],
    ["compare", "{dir}/pulse.csv", "{dir}/pulse.csv", "--tol", "nan"],
    ["compare", "{dir}/pulse.csv", "{dir}/pulse.csv", "--tol", "-1"],
    ["decompose", "--grid.n", "1"],
    # sizes too large to build, rejected before any array is built
    ["g2", "--grid.n", "1000000000000"],
    ["g2", "--tau.n", "1000000000000"],
    ["simulate", "--grid.n", "1000000000000"],
    ["decompose", "--grid.n", "1000000000000"],
    ["simulate", "--pulse.kind", "file", "--pulse.path", "{dir}/swapped.csv"],
    ["simulate", "--pulse.kind", "file", "--pulse.path", "{dir}/shifted.csv"],
    ["compare", "{dir}/swapped.csv", "{dir}/swapped.csv"],
    ["compare", "{dir}/shifted.csv", "{dir}/shifted.csv"],
    # non-finite amplitudes in a pulse file are rejected before the norm
    *([command, "--pulse.kind", "file", "--pulse.path", f"{{dir}}/{name}.csv"]
      for command in ("simulate", "g2") for name in ("nan1", "inf1", "nan2")),
    # an asymmetric two-photon pulse file is rejected, not mirrored
    *([command, "--pulse.kind", "file", "--pulse.path", "{dir}/asymmetric.csv"]
      for command in ("simulate", "g2")),
    # a config file that is not UTF-8
    ["g2", "--config", "{dir}/binary.cfg"],
    # a Gaussian wider than the grid, too narrow for its 2049 sampling nodes
    # to be distinct, or whose width squared leaves the floating-point range
    ["g2", "--pulse.kind", "gaussian", "--pulse.center", "3", "--pulse.width", "1e300"],
    ["g2", "--pulse.kind", "gaussian", "--pulse.center", "3", "--pulse.width", "1e-15"],
    ["g2", "--pulse.kind", "gaussian", "--pulse.center", "3", "--pulse.width", "1e-300"],
    ["g2", "--pulse.kind", "gaussian", "--pulse.center", "0", "--pulse.width", "1e-200"],
    ["g2", "--pulse.kind", "gaussian", "--pulse.center", "0", "--pulse.width", "1e200",
     "--grid.x_min", "-1e202", "--grid.x_max", "1e202"],
    # gamma, c or a pulse length whose coefficients leave the floating-point
    # range: 4 (gamma/c)^2, 2 c^2, the density 64/L^2 or g2's normaliser (2c/L)^2
    ["simulate", "--gamma", "1e300", "--grid.n", "16"],
    ["simulate", "--c", "1e-160", "--grid.n", "16"],
    ["g2", "--c", "1e160", "--tau.min", "-1e-170", "--tau.max", "1e-170", "--grid.n", "64"],
    ["g2", "--pulse.length", "1e-160", "--grid.n", "64"],
    ["simulate", "--pulse.length", "1e-160", "--grid.n", "64"],
    ["g2", "--c", "1e150", "--pulse.length", "1e-150", "--tau.min", "-1e-170",
     "--tau.max", "1e-170", "--grid.n", "64"],
    # a grid whose span x_max - x_min overflows
    ["g2", "--grid.x_min", "-1e308", "--grid.x_max", "1e308"],
    ["simulate", "--grid.x_min", "-1e308", "--grid.x_max", "1e308", "--grid.n", "8"],
    ["g2", "--pulse.kind", "gaussian", "--grid.x_min", "-1e308", "--grid.x_max", "1e308"],
], ids=lambda argv: " ".join(argv).replace("{dir}/", ""))
def test_bad_input_exits_2_before_writing(argv, tmp_path, capsys):
    (tmp_path / "unsorted.csv").write_text("x,re,im\n0,1,0\n0,1,0\n")
    (tmp_path / "empty.csv").write_text("# no data\n")
    (tmp_path / "pulse.csv").write_text("x,re,im\n0,1,0\n1,1,0\n")
    # two-photon files whose first block is well formed; in the second, two
    # rows are swapped, or one x1 is off the axis
    first, last = "x1,x2,re,im\n0,0,1,0\n0,1,1,0\n0,2,1,0\n", "2,0,1,0\n2,1,1,0\n2,2,1,0\n"
    (tmp_path / "swapped.csv").write_text(first + "1,0,1,0\n1,2,1,0\n1,1,1,0\n" + last)
    (tmp_path / "shifted.csv").write_text(first + "1,0,1,0\n1,1,1,0\n1.5,2,1,0\n" + last)
    (tmp_path / "nan1.csv").write_text("x,re,im\n0,1,0\n1,nan,0\n2,1,0\n")
    (tmp_path / "inf1.csv").write_text("x,re,im\n0,1,0\n1,1,-inf\n2,1,0\n")
    (tmp_path / "nan2.csv").write_text(first + "1,0,1,0\n1,1,nan,0\n1,2,1,0\n" + last)
    (tmp_path / "asymmetric.csv").write_text(first + "1,0,1,0\n1,1,1,0\n1,2,2,0\n" + last)
    (tmp_path / "binary.cfg").write_bytes(b"\xff\n")
    out = tmp_path / "out"
    argv = [arg.format(dir=tmp_path) for arg in argv]
    if argv[0] != "compare":
        # a --config of the case's own comes later, so it wins
        argv[1:1] = ["--config", write_config(tmp_path / "run.cfg"), "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert not out.exists()


def test_complex_pulse_output_reads_back_as_input(tmp_path):
    # a chirped pulse's scattered pair is exactly exchange symmetric, so the
    # psi_out.csv that simulate writes passes g2's symmetry check as input
    g = Grid1D(-2.0, 2.0, 81)
    x = g.points
    amp = np.exp(-x ** 2 + 0.7j * x ** 2)
    write_wavefunction1(tmp_path / "chirp.csv", Wavefunction1(g, amp), {})
    cfg = write_config(tmp_path / "run.cfg", **{"grid.n": 61, "anchor.x": 0.0})
    pulse = ["--pulse.kind", "file"]
    sim = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(sim), *pulse,
                 "--pulse.path", str(tmp_path / "chirp.csv")]) == 0
    psi = read_wavefunction2(sim / "psi_out.csv")
    assert np.any(psi.amp.imag != 0) and max_asymmetry(psi) == 0.0
    assert main(["g2", "--config", cfg, "--out", str(tmp_path / "g2"), *pulse,
                 "--pulse.path", str(sim / "psi_out.csv")]) == 0


def test_check_failure_prints_summary(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path / "run.cfg")
    out = tmp_path / "sim"
    monkeypatch.setattr(cli, "MAX_ABS", 1e-30)
    assert main(["simulate", "--config", cfg, "--out", str(out), "--check"]) == 3
    captured = capsys.readouterr()
    assert captured.out.startswith(f"simulate: wrote {out}/psi_out.csv")
    entries = manifest_entries(out / "manifest.txt")
    assert float(entries["check.max_abs_total"]) > 1e-30
    assert captured.err == (f"tolerance failure: check.max_abs_total = "
                            f"{float(entries['check.max_abs_total']):.3e} exceeds 1.000e-30\n")


@pytest.mark.parametrize("extra", [[], ["--linear-only"], ["--pulse.kind", "gaussian",
                                                         "--pulse.center", "0.0"]],
                         ids=["total", "linear-only", "gaussian"])
def test_g2_builds_no_grid(extra, tmp_path):
    # g2 on a product input reads the scattered pair from its O(n) generators,
    # and a sampled pulse's local density reads row blocks of them; an eighth
    # of one dense n x n complex grid bounds its peak
    n = 2048
    cfg = write_config(tmp_path / "run.cfg", **{"grid.n": n})
    tracemalloc.start()
    try:
        assert main(["g2", "--config", cfg, "--out", str(tmp_path / "g2"), *extra]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * n ** 2 / 8


@pytest.mark.parametrize("argv", [
    ["simulate", "--grid.n", "41"],
    ["g2"],
    ["oracle", "--pulse.length", "2.0", "--oracle.dx", "0.05", "--oracle.ratio", "false"],
    ["decompose", "--grid.n", "41"],
], ids=lambda argv: argv[0])
def test_write_seconds_recorded(argv, tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "run.cfg")
    assert main([*argv, "--config", cfg, "--out", str(out)]) == 0
    entries = manifest_entries(out / "manifest.txt")
    write_seconds = float(entries["run.write_seconds"])
    assert write_seconds >= 0.0
    assert list(entries)[-2:] == ["run.seconds", "run.write_seconds"]
    # one summary format for every command
    summary = capsys.readouterr().out.strip()
    assert summary.startswith(f"{argv[0]}: wrote {out}/")
    assert summary.endswith(f"written in {write_seconds:.2f}s)")


@pytest.mark.parametrize("command,overrides", [
    ("simulate", {"grid.n": "41"}),
    ("g2", {}),
    ("oracle", {"pulse.length": "2.0", "oracle.dx": "0.05", "oracle.ratio": "false"}),
    ("decompose", {"grid.n": "41"}),
], ids=["simulate", "g2", "oracle", "decompose"])
def test_commands_only_compute(command, overrides, tmp_path, monkeypatch):
    # a command validates, computes and checks; the runner writes what it
    # returns, so a command called on its own creates nothing, even once its
    # file list is consumed
    cfg = load_config(write_config(tmp_path / "run.cfg"), overrides)
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    files, entries, detail, _ = COMMANDS[command][0](cfg, {"version": "test"}, False, True)
    files = list(files)
    assert list(work.iterdir()) == []
    assert files and entries and detail
    for name, writer, *args in files:
        assert name.endswith(".csv") and writer.__module__ == "onedatom.csvio" and args


def test_decompose_check_gates_sum_identity(tmp_path, monkeypatch):
    # the process amplitudes sum to the closed form only to rounding, so a
    # zero bound fails the check (exit 3); without --check the run passes
    monkeypatch.setattr(cli, "MAX_ABS", 0.0)
    argv = ["decompose", "--grid.n", "64", "--out", str(tmp_path)]
    assert main(argv) == 0
    assert main([*argv, "--check"]) == 3
    assert float(manifest_entries(tmp_path / "manifest.txt")["run.sum_identity_max_abs"]) > 0


def test_decompose_builds_grids_as_written(tmp_path, monkeypatch):
    # the writer reads each process grid through its row reader, one block of
    # 16 rows at a time, so no process grid is ever held whole
    n = 320
    monkeypatch.setattr(model, "BLOCK_CELLS", 16 * n)
    tracemalloc.start()
    try:
        assert main(["decompose", "--grid.n", str(n), "--out", str(tmp_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 16 * n ** 2


def test_decompose_call_reads_row_blocks(tmp_path, monkeypatch):
    # the sum identity reads row blocks of the processes and the closed form,
    # and the command returns row readers, no process rows
    n = 320
    monkeypatch.setattr(model, "BLOCK_CELLS", 16 * n)
    cfg = load_config(None, {"grid.n": str(n)})
    tracemalloc.start()
    try:
        files, entries, _, _ = COMMANDS["decompose"][0](cfg, {}, False, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 16 * n ** 2
    assert len(files) == 3 and entries["run.sum_identity_max_abs"] <= 1e-12


def test_simulate_check_reads_row_blocks(tmp_path):
    # the norms and the check read the structured parts and each closed form
    # a few blocks of the cell budget at a time; no grid is built to be written
    cfg = load_config(write_config(tmp_path / "run.cfg", **{"grid.n": 1024}), {})
    tracemalloc.start()
    try:
        files, entries, _, gates = COMMANDS["simulate"][0](cfg, {}, False, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = entries["run.grid_points"]
    assert len(gates) == 3 and all(entries[key] <= bound for key, bound in gates.items())
    assert len(files) == 3
    assert peak < 0.5 * 16 * n ** 2


def test_oracle_ratio_run_is_gone_before_the_written_run(tmp_path):
    # the dx/2 run goes first, keeps only its error and holds only the rows
    # of its pulse, never its dense field; the dx run's field is a quarter
    # of that field
    field = run_rect(2.97, 0.015, P, photons=2, pad=3.0, clear=8.0).state.field.nbytes
    tracemalloc.start()
    try:
        assert main(["oracle", "--oracle.mode", "two", "--pulse.length", "2.97",
                     "--oracle.dx", "0.03", "--oracle.pad", "3", "--oracle.clear", "8",
                     "--out", str(tmp_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * field


def _nan_like(*args, **kwargs):
    shape = np.broadcast(*[a for a in args if isinstance(a, np.ndarray)]).shape
    return np.full(shape, np.nan)


@pytest.mark.parametrize("argv,name,key", [
    (["simulate", "--grid.n", "41"], "rect_nonlin_out", "check.max_abs_nonlinear"),
    (["decompose", "--grid.n", "41"], "rect_two_photon_out", "run.sum_identity_max_abs"),
    # the bilinear read is within the bound on a grid this fine
    (["g2", "--pulse.length", "40", "--grid.x_max", "40", "--anchor.x", "20",
      "--grid.n", "2048"], "longpulse_g2", "check.max_abs_vs_longpulse"),
    # the linear part alone has the long-pulse limit 1/2, within the bound
    (["g2", "--pulse.length", "40", "--grid.x_max", "40", "--anchor.x", "20",
      "--linear-only"], "longpulse_g2", "check.max_abs_vs_longpulse"),
    (["oracle", "--pulse.length", "2.0", "--oracle.dx", "0.05", "--oracle.ratio", "false"],
     "rect_error_one_photon", "run.rel_l2"),
], ids=["simulate-rect_nonlin_out", "decompose-rect_two_photon_out", "g2-longpulse_g2",
        "g2-linear-only-longpulse_g2", "oracle-rect_error_one_photon"])
def test_nan_deviation_fails_check(argv, name, key, tmp_path, monkeypatch, capsys):
    # every tolerance gate reads "not (value <= bound)", so a nan deviation fails
    argv = [*argv, "--config", write_config(tmp_path / "run.cfg"),
            "--out", str(tmp_path / "out"), "--check"]
    assert main(argv) == 0
    monkeypatch.setattr(cli, name, lambda *a, **k: (
        math.nan if name.startswith("rect_error") else _nan_like(*a)))
    capsys.readouterr()
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith(f"tolerance failure: {key} = nan exceeds ")


def _run_under_blas_threads(argv, tmp_path):
    """The --out directories of the CLI run in a fresh interpreter with
    OPENBLAS_NUM_THREADS 1 and 2."""
    src = str(Path(onedatom.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-m", "onedatom.cli", *argv, "--out", str(out)],
                       env=env, capture_output=True, check=True, timeout=300)
        outs.append(out)
    return outs


def test_oracle_rel_l2_does_not_depend_on_blas_threads(tmp_path):
    outs = _run_under_blas_threads(
        ["oracle", "--oracle.mode", "two", "--pulse.length", "2.94", "--oracle.dx", "0.03",
         "--oracle.pad", "3", "--oracle.clear", "8"], tmp_path)
    one, two = (manifest_entries(out / "manifest.txt") for out in outs)
    for key in ("run.rel_l2", "run.rel_l2_half_dx", "run.convergence_ratio"):
        assert one[key] == two[key]


def test_sampled_g2_does_not_depend_on_blas_threads(tmp_path):
    g = Grid1D(2.0, 8.0, 4001)
    x = g.points
    amp = np.exp(-((x - 5.0) ** 2) / 2.0 + 0.3j * (x - 5.0) ** 2)
    write_wavefunction1(tmp_path / "pulse.csv", Wavefunction1(g, amp))
    cfg = write_config(tmp_path / "run.cfg", **{
        "pulse.kind": "file", "pulse.path": str(tmp_path / "pulse.csv"),
        "grid.x_min": -4.0, "grid.x_max": 8.0, "grid.n": 777,
        "anchor.x": 5.0, "tau.min": -2.5, "tau.max": 2.5, "tau.n": 1001})
    one, two = _run_under_blas_threads(["g2", "--config", cfg], tmp_path)
    assert (one / "g2_curve.csv").read_bytes() == (two / "g2_curve.csv").read_bytes()



def test_long_sampled_g2_does_not_depend_on_blas_threads(tmp_path):
    # above 10^4 samples a BLAS dot splits between threads; the input's norm
    # is a numpy reduction, so the renormalized curve keeps its bits
    g = Grid1D(2.0, 8.0, 20001)
    x = g.points
    amp = 1.7 * np.exp(-((x - 5.0) ** 2) / 2.0 + 0.3j * (x - 5.0) ** 2)
    write_wavefunction1(tmp_path / "pulse.csv", Wavefunction1(g, amp))
    cfg = write_config(tmp_path / "run.cfg", **{
        "pulse.kind": "file", "pulse.path": str(tmp_path / "pulse.csv"),
        "grid.x_min": -4.0, "grid.x_max": 8.0, "grid.n": 513,
        "anchor.x": 5.0, "tau.min": -2.5, "tau.max": 2.5, "tau.n": 1001})
    one, two = _run_under_blas_threads(["g2", "--config", cfg], tmp_path)
    assert (one / "g2_curve.csv").read_bytes() == (two / "g2_curve.csv").read_bytes()


# Starts one command and reports its peak RSS from wait4.  A child forked
# from the test process would report at least that process's own resident
# set, so the command is started from this small interpreter instead.
_PEAK_RSS = ("import os, subprocess, sys\n"
             "p = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL,"
             " stderr=subprocess.DEVNULL)\n"
             "_, status, usage = os.wait4(p.pid, 0)\n"
             "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n")


def _peak_rss(*args) -> int:
    """Peak RSS in bytes of `onedatom <args>`, which must exit 0."""
    env = {**os.environ, "PYTHONPATH": str(Path(onedatom.__file__).resolve().parents[1])}
    argv = [sys.executable, "-m", "onedatom.cli", *args]
    out = subprocess.run([sys.executable, "-c", _PEAK_RSS, *argv], env=env,
                         capture_output=True, text=True, check=True, timeout=300).stdout
    code, kb = map(int, out.split())
    assert code == 0
    return 1024 * kb


def test_general_input_g2_memory_grows_with_n_not_n_squared(tmp_path):
    # a general 2-D input's g2 holds O(n_in n) arrays, never an n x n grid:
    # doubling grid.n from 1024 to 2048 would add 16 (2048^2 - 1024^2) bytes,
    # about 50 MB, for one grid alone
    g = Grid1D(0.0, 12.0, 129)
    x = g.points
    a = np.exp(-((x[:, None] - 6.0) ** 2 + (x[None, :] - 5.0) ** 2) / 2.0)
    write_wavefunction2(tmp_path / "pair.csv", Wavefunction2.symmetric(g, a + a.T))
    peak = {n: _peak_rss("g2", "--pulse.kind", "file", "--pulse.path",
                         str(tmp_path / "pair.csv"), "--grid.x_min", "-6",
                         "--grid.x_max", "12", "--grid.n", str(n), "--anchor.x", "6",
                         "--tau.min", "-2", "--tau.max", "2", "--tau.n", "1001",
                         "--out", str(tmp_path / f"out-{n}"))
            for n in (1024, 2048)}
    assert peak[2048] - peak[1024] < 16 * (2048 ** 2 - 1024 ** 2) / 4


def test_simulate_memory_does_not_grow_with_its_grids(tmp_path):
    # simulate writes its three grids from row blocks of the structured state:
    # from n = 512 to 1024 they would add 3 * 16 (1024^2 - 512^2) bytes, about
    # 36 MB, if any process built them; one grid's growth bounds the peak's
    peak = {n: _peak_rss("simulate", "--grid.n", str(n), "--out", str(tmp_path / f"out-{n}"))
            for n in (512, 1024)}
    assert peak[1024] - peak[512] < 16 * (1024 ** 2 - 512 ** 2)


def test_import_starts_no_process_pool():
    # each CLI run pays for its imports; the grid writer forks with `os` alone
    code = ("import sys, onedatom.cli; print([m for m in ('multiprocessing', "
            "'concurrent.futures') if m in sys.modules])")
    env = {**os.environ, "PYTHONPATH": str(Path(onedatom.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    assert out.strip() == "[]"
