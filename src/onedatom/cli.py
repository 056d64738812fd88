"""Configuration-driven command-line front end.

Commands: simulate (scattering map -> output grids), g2 (correlation curve),
oracle (lab-frame integrator cross-check), compare (diff two result files),
decompose (interaction-process grids).  Configuration is a flat file of
dotted keys (`pulse.kind = rectangular`), each overridable by a flag of the
same name.  Exit codes: 0 success, 2 configuration error, 3 tolerance failure
in --check mode, 4 I/O error.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from . import __version__
from .analytic import (
    longpulse_g2,
    rect_nonlin_out,
    rect_one_photon_out,
    rect_process_amplitudes,
    rect_two_photon_out,
)
from .correlations import find_dip_zeros, g2_slice
from .csvio import (
    read_wavefunction1,
    read_wavefunction2,
    sniff_columns,
    write_curve,
    write_wavefunction1,
    write_wavefunction2,
)
from .model import (
    Grid1D,
    PhysicalParams,
    Wavefunction1,
    Wavefunction2,
    gaussian_pulse,
    norm1,
    norm2,
    rectangular_pulse,
)
from .oracle import (
    far_field_one_photon,
    far_field_two_photon,
    rect_error_one_photon,
    rect_error_two_photon,
    run_one_photon_rect,
    run_two_photon_rect,
)
from .propagate import apply_two_photon

__all__ = ["main", "RunConfig", "ConfigError", "ToleranceError"]


class ConfigError(ValueError):
    """Invalid configuration or inputs (exit code 2)."""


class ToleranceError(RuntimeError):
    """A --check comparison exceeded its tolerance (exit code 3)."""


def _parse_bool(text: str) -> bool:
    low = str(text).strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


@dataclass(frozen=True)
class RunConfig:
    gamma: float = 1.0
    c: float = 1.0
    pulse_kind: str = "rectangular"
    pulse_length: float = 20.0
    pulse_center: float = 10.0
    pulse_width: float = 1.0
    pulse_path: str = ""
    grid_x_min: float = -10.0
    grid_x_max: float = 20.0
    grid_n: int = 512
    anchor_x: float = 10.0
    tau_min: float = -10.0
    tau_max: float = 10.0
    tau_n: int = 2001
    oracle_mode: str = "one"
    oracle_dx: float = 0.01
    oracle_pad: float = 5.0
    oracle_clear: float = 15.0
    oracle_ratio: bool = True
    check_max_abs: float = 1e-10
    check_g2: float = 2e-3
    check_oracle_one: float = 2e-2
    check_oracle_two: float = 5e-2


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
KEYS = {f.name.replace("_", ".", 1): f.name for f in fields(RunConfig)}
# gamma and c have no dots
KEYS["gamma"] = "gamma"
KEYS["c"] = "c"


def _coerce(field_name: str, raw: str):
    kind = _FIELD_TYPES[field_name]
    try:
        if kind in ("bool", bool):
            return _parse_bool(raw)
        if kind in ("int", int):
            return int(raw)
        if kind in ("float", float):
            return float(raw)
        return str(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {field_name}: {raw!r}") from exc


def load_config(path: str | None, overrides: dict[str, str]) -> RunConfig:
    cfg = RunConfig()
    updates: dict[str, object] = {}
    if path:
        try:
            with open(path) as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        for lineno, line in enumerate(lines, 1):
            s = line.strip()
            if not s or s.startswith("#"):
                continue
            if "=" not in s:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, raw = s.partition("=")
            key = key.strip()
            if key not in KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            updates[KEYS[key]] = _coerce(KEYS[key], raw.strip())
    for key, raw in overrides.items():
        updates[KEYS[key]] = _coerce(KEYS[key], raw)
    return replace(cfg, **updates)


def _params(cfg: RunConfig) -> PhysicalParams:
    try:
        return PhysicalParams(gamma=cfg.gamma, c=cfg.c)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _build_input(cfg: RunConfig, params: PhysicalParams):
    """Two-photon input state, its support, and breakpoints for the output
    grid.  File pulses are renormalized to unit norm on load."""
    kind = cfg.pulse_kind
    if kind == "rectangular":
        if cfg.pulse_length <= 0:
            raise ConfigError("pulse.length must be positive")
        one = rectangular_pulse(cfg.pulse_length)
        return (Wavefunction2.from_product(one), (0.0, cfg.pulse_length),
                (0.0, cfg.pulse_length))
    if kind == "gaussian":
        if cfg.pulse_width <= 0:
            raise ConfigError("pulse.width must be positive")
        lo = cfg.pulse_center - 8.0 * cfg.pulse_width
        hi = cfg.pulse_center + 8.0 * cfg.pulse_width
        grid = Grid1D(lo, hi, 2049)
        one = gaussian_pulse(cfg.pulse_center, cfg.pulse_width, grid)
        support = (cfg.pulse_center - 5.0 * cfg.pulse_width,
                   cfg.pulse_center + 5.0 * cfg.pulse_width)
        return Wavefunction2.from_product(one), support, ()
    if kind == "file":
        if not cfg.pulse_path:
            raise ConfigError("pulse.kind=file requires pulse.path")
        try:
            ncols = sniff_columns(cfg.pulse_path)
        except OSError as exc:
            raise ConfigError(f"cannot read pulse file: {exc}") from exc
        if ncols == 3:
            one = read_wavefunction1(cfg.pulse_path)
            nrm = norm1(one)
            if nrm <= 0:
                raise ConfigError("pulse file has zero norm")
            if abs(nrm - 1.0) > 1e-6:
                print(f"warning: renormalizing pulse (norm was {nrm:.9g})",
                      file=sys.stderr)
            one = Wavefunction1.sampled(one.grid, one.amp / math.sqrt(nrm))
            return (Wavefunction2.from_product(one),
                    (one.grid.x_min, one.grid.x_max), ())
        if ncols == 4:
            two = read_wavefunction2(cfg.pulse_path)
            two = Wavefunction2.symmetric(two.grid, two.amp)
            nrm = norm2(two)
            if nrm <= 0:
                raise ConfigError("pulse file has zero norm")
            if abs(nrm - 1.0) > 1e-6:
                print(f"warning: renormalizing pulse (norm was {nrm:.9g})",
                      file=sys.stderr)
            two = Wavefunction2(two.grid, two.amp / math.sqrt(nrm))
            return two, (two.grid.x_min, two.grid.x_max), ()
        raise ConfigError(f"unrecognized pulse file layout ({ncols} columns)")
    raise ConfigError(f"unknown pulse.kind {kind!r}")


def _build_grid(cfg: RunConfig, support: tuple[float, float],
                breakpoints) -> Grid1D:
    if cfg.grid_n < 2:
        raise ConfigError("grid.n must be at least 2")
    if cfg.grid_x_min > support[0] or cfg.grid_x_max < support[1]:
        raise ConfigError(
            f"grid [{cfg.grid_x_min}, {cfg.grid_x_max}] does not cover the "
            f"pulse support [{support[0]:.6g}, {support[1]:.6g}]")
    try:
        return Grid1D.with_breakpoints(cfg.grid_x_min, cfg.grid_x_max,
                                       cfg.grid_n, tuple(breakpoints))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_manifest(path, entries: dict) -> None:
    with open(path, "w") as fh:
        fh.write(f"# onedatom {__version__} run manifest\n")
        for key, value in entries.items():
            fh.write(f"{key} = {_fmt(value)}\n")


def _config_entries(cfg: RunConfig) -> dict:
    return {dotted: getattr(cfg, attr) for dotted, attr in sorted(KEYS.items())}


def _meta(cfg: RunConfig) -> dict:
    m = {"version": __version__}
    m.update(_config_entries(cfg))
    return m


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_simulate(cfg: RunConfig, out_dir, linear_only: bool, check: bool) -> int:
    params = _params(cfg)
    psi_in, support, breaks = _build_input(cfg, params)
    grid = _build_grid(cfg, support, breaks)
    started = time.perf_counter()
    result = apply_two_photon(psi_in, grid, params)
    elapsed = time.perf_counter() - started
    total = result.linear if linear_only else result.total

    out_dir.mkdir(parents=True, exist_ok=True)
    meta = _meta(cfg)
    write_wavefunction2(out_dir / "psi_out.csv", total, meta)
    write_wavefunction2(out_dir / "psi_lin.csv", result.linear, meta)
    write_wavefunction2(out_dir / "psi_nonlin.csv", result.nonlinear, meta)

    entries = _config_entries(cfg)
    entries.update({
        "run.command": "simulate",
        "run.linear_only": linear_only,
        "run.grid_points": grid.n,
        "run.norm_out": norm2(total),
        "run.norm_linear": norm2(result.linear),
        "run.norm_nonlinear": norm2(result.nonlinear),
        "run.seconds": elapsed,
    })
    if check:
        if cfg.pulse_kind != "rectangular":
            raise ConfigError("--check for simulate requires a rectangular pulse")
        x = grid.points
        ref = rect_two_photon_out(x[:, None], x[None, :], cfg.pulse_length, params)
        ref_lin = np.multiply.outer(
            rect_one_photon_out(x, cfg.pulse_length, params),
            rect_one_photon_out(x, cfg.pulse_length, params))
        ref_nl = rect_nonlin_out(x[:, None], x[None, :], cfg.pulse_length, params)
        diff = float(np.max(np.abs(result.total.amp - ref)))
        diff_lin = float(np.max(np.abs(result.linear.amp - ref_lin)))
        diff_nl = float(np.max(np.abs(result.nonlinear.amp - ref_nl)))
        entries["check.max_abs_total"] = diff
        entries["check.max_abs_linear"] = diff_lin
        entries["check.max_abs_nonlinear"] = diff_nl
        _write_manifest(out_dir / "manifest.txt", entries)
        worst = max(diff, diff_lin, diff_nl)
        if worst > cfg.check_max_abs:
            raise ToleranceError(
                f"max-abs deviation {worst:.3e} exceeds {cfg.check_max_abs:.3e}")
    else:
        _write_manifest(out_dir / "manifest.txt", entries)
    print(f"simulate: wrote {out_dir}/psi_out.csv "
          f"(norm {entries['run.norm_out']:.6f}, {elapsed:.2f}s)")
    return 0


def cmd_g2(cfg: RunConfig, out_dir, linear_only: bool, check: bool) -> int:
    params = _params(cfg)
    psi_in, support, breaks = _build_input(cfg, params)
    grid = _build_grid(cfg, support, breaks)
    reach = [cfg.anchor_x + params.c * t for t in (0.0, cfg.tau_min, cfg.tau_max)]
    if min(reach) < grid.points[0] or max(reach) > grid.points[-1]:
        raise ConfigError(
            f"anchor.x + c*tau over [{cfg.tau_min}, {cfg.tau_max}] spans "
            f"[{min(reach):.6g}, {max(reach):.6g}], outside the output grid "
            f"[{grid.points[0]:.6g}, {grid.points[-1]:.6g}]")
    started = time.perf_counter()
    result = apply_two_photon(psi_in, grid, params)
    psi = result.linear if linear_only else result.total

    rectangular = cfg.pulse_kind == "rectangular"
    length = cfg.pulse_length if rectangular else 1.0
    curve = g2_slice(psi, cfg.anchor_x, (cfg.tau_min, cfg.tau_max), cfg.tau_n,
                     length, params, local_density=not rectangular)
    zeros = find_dip_zeros(curve)
    elapsed = time.perf_counter() - started

    out_dir.mkdir(parents=True, exist_ok=True)
    write_curve(out_dir / "g2_curve.csv", curve, _meta(cfg))
    entries = _config_entries(cfg)
    entries.update({
        "run.command": "g2",
        "run.linear_only": linear_only,
        "run.zero_count": len(zeros),
        "run.seconds": elapsed,
    })
    for i, z in enumerate(zeros):
        entries[f"run.zero_{i}"] = z
    if check:
        if not rectangular:
            raise ConfigError("--check for g2 requires a rectangular pulse")
        ref = longpulse_g2(curve.tau, params)
        dev = float(np.max(np.abs(curve.values - ref)))
        entries["check.max_abs_vs_longpulse"] = dev
        _write_manifest(out_dir / "manifest.txt", entries)
        if dev > cfg.check_g2:
            raise ToleranceError(
                f"g2 deviates from the long-pulse curve by {dev:.3e} "
                f"(> {cfg.check_g2:.3e})")
    else:
        _write_manifest(out_dir / "manifest.txt", entries)
    zs = ", ".join(f"{z:.4f}" for z in zeros) or "none"
    print(f"g2: wrote {out_dir}/g2_curve.csv (zeros at {zs}, {elapsed:.2f}s)")
    return 0


def cmd_oracle(cfg: RunConfig, out_dir, check: bool) -> int:
    params = _params(cfg)
    if cfg.pulse_kind != "rectangular":
        raise ConfigError("the oracle command requires a rectangular pulse")
    if cfg.oracle_mode not in ("one", "two"):
        raise ConfigError("oracle.mode must be 'one' or 'two'")
    length, dx = cfg.pulse_length, cfg.oracle_dx
    started = time.perf_counter()
    if cfg.oracle_mode == "one":
        run = run_one_photon_rect(length, dx, params, pad=cfg.oracle_pad,
                                  clear=cfg.oracle_clear, record_trace=True)
        err = rect_error_one_photon(run, length, params)
        err_half = None
        if cfg.oracle_ratio:
            run_half = run_one_photon_rect(length, dx / 2, params,
                                           pad=cfg.oracle_pad,
                                           clear=cfg.oracle_clear)
            err_half = rect_error_one_photon(run_half, length, params)
        far = far_field_one_photon(run.state, params)
        tol = cfg.check_oracle_one
    else:
        run = run_two_photon_rect(length, dx, params, pad=cfg.oracle_pad,
                                  clear=cfg.oracle_clear, record_trace=True)
        err = rect_error_two_photon(run, length, params)
        err_half = None
        if cfg.oracle_ratio:
            run_half = run_two_photon_rect(length, dx / 2, params,
                                           pad=cfg.oracle_pad,
                                           clear=cfg.oracle_clear)
            err_half = rect_error_two_photon(run_half, length, params)
        far = far_field_two_photon(run.state, params)
        tol = cfg.check_oracle_two
    elapsed = time.perf_counter() - started

    out_dir.mkdir(parents=True, exist_ok=True)
    meta = _meta(cfg)
    if cfg.oracle_mode == "one":
        write_wavefunction1(out_dir / "oracle_farfield.csv", far, meta)
    else:
        write_wavefunction2(out_dir / "oracle_farfield.csv", far, meta)
    trace = run.trace
    with open(out_dir / "oracle_trace.csv", "w") as fh:
        fh.write("t,value\n")
        np.savetxt(fh, np.column_stack([trace.times, trace.values]),
                   fmt="%.17g", delimiter=",")
    entries = _config_entries(cfg)
    entries.update({
        "run.command": "oracle",
        "run.rel_l2": err,
        "run.final_norm": run.state.total_norm(),
        "run.seconds": elapsed,
    })
    if err_half is not None:
        entries["run.rel_l2_half_dx"] = err_half
        entries["run.convergence_ratio"] = err / err_half if err_half else math.inf
    _write_manifest(out_dir / "manifest.txt", entries)
    ratio_txt = (f", ratio {entries['run.convergence_ratio']:.2f}"
                 if err_half is not None else "")
    print(f"oracle[{cfg.oracle_mode}]: rel-L2 {err:.3e}{ratio_txt} "
          f"({elapsed:.1f}s)")
    if check and err > tol:
        raise ToleranceError(f"oracle rel-L2 {err:.3e} exceeds {tol:.3e}")
    return 0


def cmd_compare(path_a, path_b, tol: float | None) -> int:
    try:
        cols_a, cols_b = sniff_columns(path_a), sniff_columns(path_b)
    except OSError as exc:
        raise ConfigError(str(exc)) from exc
    if cols_a != cols_b:
        raise ConfigError(f"layout mismatch: {cols_a} vs {cols_b} columns")
    if cols_a == 3:
        a, b = read_wavefunction1(path_a), read_wavefunction1(path_b)
    elif cols_a == 4:
        a, b = read_wavefunction2(path_a), read_wavefunction2(path_b)
    else:
        raise ConfigError(f"unsupported layout with {cols_a} columns")
    if a.amp.shape != b.amp.shape:
        raise ConfigError(f"grid shapes differ: {a.amp.shape} vs {b.amp.shape}")
    grid_dev = float(np.max(np.abs(a.grid.points - b.grid.points)))
    diff = a.amp - b.amp
    max_abs = float(np.max(np.abs(diff)))
    ref = float(np.linalg.norm(np.ravel(b.amp)))
    rel_l2 = float(np.linalg.norm(np.ravel(diff))) / ref if ref else math.inf
    print(f"compare: max-abs {max_abs:.6e}, rel-L2 {rel_l2:.6e}, "
          f"grid deviation {grid_dev:.3e}")
    if tol is not None and max_abs > tol:
        raise ToleranceError(f"max-abs {max_abs:.3e} exceeds {tol:.3e}")
    return 0


def cmd_decompose(cfg: RunConfig, out_dir) -> int:
    params = _params(cfg)
    if cfg.pulse_kind != "rectangular":
        raise ConfigError("decompose requires a rectangular pulse")
    length = cfg.pulse_length
    n = max(2, cfg.grid_n)
    grid = Grid1D(0.0, length, n)
    x = grid.points
    started = time.perf_counter()
    parts = rect_process_amplitudes(x[:, None], x[None, :], length, params)
    total = rect_two_photon_out(x[:, None], x[None, :], length, params)
    sum_dev = float(np.max(np.abs(parts.total - total)))
    elapsed = time.perf_counter() - started

    out_dir.mkdir(parents=True, exist_ok=True)
    meta = _meta(cfg)
    for name, arr in (("p_i", parts.p_i), ("p_ii", parts.p_ii),
                      ("p_iii", parts.p_iii)):
        psi = Wavefunction2(grid, np.broadcast_to(arr, (n, n)).astype(complex))
        write_wavefunction2(out_dir / f"{name}.csv", psi, meta)
    entries = _config_entries(cfg)
    entries.update({
        "run.command": "decompose",
        "run.sum_identity_max_abs": sum_dev,
        "run.seconds": elapsed,
    })
    _write_manifest(out_dir / "manifest.txt", entries)
    print(f"decompose: wrote process grids (sum identity {sum_dev:.2e}, "
          f"{elapsed:.2f}s)")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--check", action="store_true",
                        help="verify results against closed forms (exit 3 on failure)")
    for dotted in sorted(KEYS):
        parser.add_argument(f"--{dotted}", dest=f"key_{KEYS[dotted]}",
                            metavar="V", help=argparse.SUPPRESS)


def _collect_overrides(args: argparse.Namespace) -> dict[str, str]:
    out = {}
    for dotted, attr in KEYS.items():
        value = getattr(args, f"key_{attr}", None)
        if value is not None:
            out[dotted] = value
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onedatom",
        description="Two-photon scattering at a single atom in a chiral 1D field")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run the scattering map, emit grids")
    _add_common(p_sim)
    p_sim.add_argument("--linear-only", action="store_true",
                       help="disable the nonlinear kernel")

    p_g2 = sub.add_parser("g2", help="compute a normalized g2 curve")
    _add_common(p_g2)
    p_g2.add_argument("--linear-only", action="store_true",
                      help="correlations of the linear component only")

    p_or = sub.add_parser("oracle", help="lab-frame integrator cross-check")
    _add_common(p_or)

    p_cmp = sub.add_parser("compare", help="diff two result CSV files")
    p_cmp.add_argument("file_a")
    p_cmp.add_argument("file_b")
    p_cmp.add_argument("--tol", type=float, default=None,
                       help="fail (exit 3) if max-abs exceeds this")

    p_dec = sub.add_parser("decompose", help="emit interaction-process grids")
    _add_common(p_dec)
    return parser


def main(argv: list[str] | None = None) -> int:
    from pathlib import Path

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "compare":
            return cmd_compare(args.file_a, args.file_b, args.tol)
        cfg = load_config(args.config, _collect_overrides(args))
        out_dir = Path(args.out)
        if args.command == "simulate":
            return cmd_simulate(cfg, out_dir, args.linear_only, args.check)
        if args.command == "g2":
            return cmd_g2(cfg, out_dir, args.linear_only, args.check)
        if args.command == "oracle":
            return cmd_oracle(cfg, out_dir, args.check)
        if args.command == "decompose":
            return cmd_decompose(cfg, out_dir)
        parser.error(f"unknown command {args.command}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ToleranceError as exc:
        print(f"tolerance failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
