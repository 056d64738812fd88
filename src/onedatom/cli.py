"""Configuration-driven command-line front end.

Commands: simulate (scattering map -> output grids), g2 (correlation curve),
oracle (lab-frame integrator cross-check), decompose (interaction-process
grids) and compare (diff two result files).  The first four are the rows of
`COMMANDS`; they share their flags and one run path, `_run_command`: load the
config (a flat file of dotted keys such as `pulse.kind = rectangular`, each
overridable by a flag of the same name), call the command, write
`manifest.txt`, print the command's summary and raise `ToleranceError` on a
failed check.  A command validates its inputs before it writes anything.
Exit codes: 0 success, 2 configuration error or malformed input (files and
non-finite values included), 3 tolerance failure in --check mode, 4 I/O error.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .analytic import (
    longpulse_g2,
    rect_nonlin_out,
    rect_one_photon_out,
    rect_process_amplitudes,
    rect_two_photon_out,
)
from .correlations import _density_window, find_dip_zeros, g2_slice
from .csvio import (
    read_wavefunction1,
    read_wavefunction2,
    sniff_columns,
    write_curve,
    write_trace,
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


@contextmanager
def _invalid_input():
    """Re-raise a library's ValueError about the given inputs as a ConfigError."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


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
_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def _coerce(field_name: str, raw: str):
    kind = _FIELD_TYPES[field_name]
    try:
        if kind == "bool":
            return _BOOLS[raw.strip().lower()]
        if kind == "int":
            return int(raw)
        if kind == "float":
            value = float(raw)
            if not math.isfinite(value):
                raise ValueError("not a finite number")
            return value
        return str(raw)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad value for {field_name}: {raw!r}") from exc


def load_config(path: str | None, overrides: dict[str, str]) -> RunConfig:
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
    return RunConfig(**updates)


def _params(cfg: RunConfig) -> PhysicalParams:
    with _invalid_input():
        return PhysicalParams(gamma=cfg.gamma, c=cfg.c)


def _rect_length(cfg: RunConfig, what: str) -> float:
    """pulse.length, for a command or check that needs a rectangular pulse."""
    if cfg.pulse_kind != "rectangular":
        raise ConfigError(f"{what} requires a rectangular pulse")
    if cfg.pulse_length <= 0:
        raise ConfigError("pulse.length must be positive")
    return cfg.pulse_length


def _read_file(path):
    """The one- or two-photon wavefunction in a result CSV, by its columns."""
    try:
        ncols = sniff_columns(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read input file: {exc}") from exc
    if ncols not in (3, 4):
        raise ConfigError(f"{path}: unsupported layout ({ncols} columns)")
    with _invalid_input():
        return read_wavefunction1(path) if ncols == 3 else read_wavefunction2(path)


def _build_input(cfg: RunConfig) -> tuple[Wavefunction1 | Wavefunction2, Grid1D]:
    """Two-photon input state and the output grid, which covers its support
    and has the pulse edges as nodes.  A product input is returned as the
    pulse of its photon.  File pulses are renormalized to unit norm on load."""
    kind = cfg.pulse_kind
    breakpoints = ()
    if kind == "rectangular":
        if cfg.pulse_length <= 0:
            raise ConfigError("pulse.length must be positive")
        psi = rectangular_pulse(cfg.pulse_length)
        support = breakpoints = (0.0, cfg.pulse_length)
    elif kind == "gaussian":
        if cfg.pulse_width <= 0:
            raise ConfigError("pulse.width must be positive")
        with _invalid_input():
            grid = Grid1D(cfg.pulse_center - 8.0 * cfg.pulse_width,
                          cfg.pulse_center + 8.0 * cfg.pulse_width, 2049)
            psi = gaussian_pulse(cfg.pulse_center, cfg.pulse_width, grid)
        support = (cfg.pulse_center - 5.0 * cfg.pulse_width,
                   cfg.pulse_center + 5.0 * cfg.pulse_width)
    elif kind == "file":
        if not cfg.pulse_path:
            raise ConfigError("pulse.kind=file requires pulse.path")
        psi = _read_file(cfg.pulse_path)
        one_photon = isinstance(psi, Wavefunction1)
        if not one_photon:
            psi = Wavefunction2.symmetric(psi.grid, psi.amp)
        nrm = norm1(psi) if one_photon else norm2(psi)
        if nrm <= 0:
            raise ConfigError("pulse file has zero norm")
        if abs(nrm - 1.0) > 1e-6:
            print(f"warning: renormalizing pulse (norm was {nrm:.9g})", file=sys.stderr)
        psi = type(psi)(psi.grid, psi.amp / math.sqrt(nrm))
        support = (psi.grid.x_min, psi.grid.x_max)
    else:
        raise ConfigError(f"unknown pulse.kind {kind!r}")
    if cfg.grid_n < 2:
        raise ConfigError("grid.n must be at least 2")
    if cfg.grid_x_min > support[0] or cfg.grid_x_max < support[1]:
        raise ConfigError(
            f"grid [{cfg.grid_x_min}, {cfg.grid_x_max}] does not cover the "
            f"pulse support [{support[0]:.6g}, {support[1]:.6g}]")
    with _invalid_input():
        grid = Grid1D.with_breakpoints(cfg.grid_x_min, cfg.grid_x_max,
                                       cfg.grid_n, breakpoints)
    return psi, grid


# Each configured command takes (cfg, out_dir, CSV header meta, --linear-only,
# --check) and returns (manifest entries, summary line, failure message or None).

def cmd_simulate(cfg: RunConfig, out_dir: Path, meta: dict, linear_only, check):
    if check:
        _rect_length(cfg, "--check for simulate")
    params = _params(cfg)
    psi_in, grid = _build_input(cfg)
    started = time.perf_counter()
    result = apply_two_photon(psi_in, grid, params)
    total = result.linear if linear_only else result.total
    outputs = {"psi_out.csv": total, "psi_lin.csv": result.linear,
               "psi_nonlin.csv": result.nonlinear}
    for part in outputs.values():
        part.amp                        # every grid is written: build it here, timed
    elapsed = time.perf_counter() - started

    started = time.perf_counter()
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, part in outputs.items():
        write_wavefunction2(out_dir / name, part, meta)
    write_seconds = time.perf_counter() - started

    entries = {
        "run.linear_only": linear_only,
        "run.grid_points": grid.n,
        "run.norm_out": norm2(total),
        "run.norm_linear": norm2(result.linear),
        "run.norm_nonlinear": norm2(result.nonlinear),
        "run.seconds": elapsed,
        "run.write_seconds": write_seconds,
    }
    failure = None
    if check:
        x = grid.points
        length = cfg.pulse_length
        one = rect_one_photon_out(x, length, params)
        refs = {"total": rect_two_photon_out(x[:, None], x[None, :], length, params),
                "linear": np.multiply.outer(one, one),
                "nonlinear": rect_nonlin_out(x[:, None], x[None, :], length, params)}
        for part, ref in refs.items():
            dev = np.abs(getattr(result, part).amp - ref)
            entries[f"check.max_abs_{part}"] = float(np.max(dev))
        worst = max(entries[f"check.max_abs_{part}"] for part in refs)
        if worst > cfg.check_max_abs:
            failure = f"max-abs deviation {worst:.3e} exceeds {cfg.check_max_abs:.3e}"
    summary = (f"simulate: wrote {out_dir}/psi_out.csv "
               f"(norm {entries['run.norm_out']:.6f}, {elapsed:.2f}s, "
               f"written in {write_seconds:.2f}s)")
    return entries, summary, failure


def cmd_g2(cfg: RunConfig, out_dir: Path, meta: dict, linear_only, check):
    if check:
        _rect_length(cfg, "--check for g2")
    if cfg.tau_n < 2:
        raise ConfigError("tau.n must be at least 2")
    params = _params(cfg)
    psi_in, grid = _build_input(cfg)
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
    undefined = int(np.count_nonzero(np.isnan(curve.values)))
    # the rows g2_slice's local density read: those around anchor + c tau
    # and the anchor itself
    lo, hi = (0, 0) if rectangular else _density_window(
        grid.points, np.append(cfg.anchor_x + params.c * curve.tau, cfg.anchor_x))
    elapsed = time.perf_counter() - started

    started = time.perf_counter()
    out_dir.mkdir(parents=True, exist_ok=True)
    write_curve(out_dir / "g2_curve.csv", curve, meta)
    entries = {
        "run.linear_only": linear_only,
        "run.zero_count": len(zeros),
        "run.undefined_tau": undefined,
        "run.density_rows": hi - lo,
        "run.seconds": elapsed,
        "run.write_seconds": time.perf_counter() - started,
        **{f"run.zero_{i}": z for i, z in enumerate(zeros)},
    }
    failure = None
    if check:
        ref = longpulse_g2(curve.tau, params)
        dev = float(np.max(np.abs(curve.values - ref)))
        entries["check.max_abs_vs_longpulse"] = dev
        if dev > cfg.check_g2:
            failure = (f"g2 deviates from the long-pulse curve by {dev:.3e} "
                       f"(> {cfg.check_g2:.3e})")
    zs = ", ".join(f"{z:.4f}" for z in zeros) or "none"
    summary = (f"g2: wrote {out_dir}/g2_curve.csv (zeros at {zs}, "
               f"g2 undefined at {undefined} tau, {elapsed:.2f}s)")
    return entries, summary, failure


def cmd_oracle(cfg: RunConfig, out_dir: Path, meta: dict, linear_only, check):
    params = _params(cfg)
    length = _rect_length(cfg, "the oracle command")
    # Built per call, so each name is looked up in this module when it runs.
    modes = {
        "one": (run_one_photon_rect, rect_error_one_photon, far_field_one_photon,
                write_wavefunction1, cfg.check_oracle_one),
        "two": (run_two_photon_rect, rect_error_two_photon, far_field_two_photon,
                write_wavefunction2, cfg.check_oracle_two),
    }
    if cfg.oracle_mode not in modes:
        raise ConfigError("oracle.mode must be 'one' or 'two'")
    run_rect, rect_error, far_field, write, tol = modes[cfg.oracle_mode]
    dx = cfg.oracle_dx
    window = {"pad": cfg.oracle_pad, "clear": cfg.oracle_clear}
    started = time.perf_counter()
    with _invalid_input():
        run = run_rect(length, dx, params, record_trace=True, **window)
        err = rect_error(run, length, params)
        err_half = None
        if cfg.oracle_ratio:
            run_half = run_rect(length, dx / 2, params, **window)
            err_half = rect_error(run_half, length, params)
    far = far_field(run.state, params)
    elapsed = time.perf_counter() - started

    started = time.perf_counter()
    out_dir.mkdir(parents=True, exist_ok=True)
    write(out_dir / "oracle_farfield.csv", far, meta)
    write_trace(out_dir / "oracle_trace.csv", run.trace)
    entries = {
        "run.rel_l2": err,
        "run.final_norm": run.state.total_norm(),
        "run.seconds": elapsed,
        "run.write_seconds": time.perf_counter() - started,
    }
    ratio_txt = ""
    if err_half is not None:
        entries["run.rel_l2_half_dx"] = err_half
        entries["run.convergence_ratio"] = err / err_half if err_half else math.inf
        ratio_txt = f", ratio {entries['run.convergence_ratio']:.2f}"
    summary = f"oracle[{cfg.oracle_mode}]: rel-L2 {err:.3e}{ratio_txt} ({elapsed:.1f}s)"
    failure = None
    if check and err > tol:
        failure = f"oracle rel-L2 {err:.3e} exceeds {tol:.3e}"
    return entries, summary, failure


def cmd_decompose(cfg: RunConfig, out_dir: Path, meta: dict, linear_only, check):
    params = _params(cfg)
    length = _rect_length(cfg, "decompose")
    n = cfg.grid_n
    if n < 2:
        raise ConfigError("grid.n must be at least 2")
    grid = Grid1D(0.0, length, n)
    x = grid.points
    started = time.perf_counter()
    parts = rect_process_amplitudes(x[:, None], x[None, :], length, params)
    total = rect_two_photon_out(x[:, None], x[None, :], length, params)
    sum_dev = float(np.max(np.abs(parts.total - total)))
    elapsed = time.perf_counter() - started

    started = time.perf_counter()
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in ("p_i", "p_ii", "p_iii"):
        amp = np.broadcast_to(getattr(parts, name), (n, n)).astype(complex)
        write_wavefunction2(out_dir / f"{name}.csv", Wavefunction2(grid, amp), meta)
    entries = {"run.sum_identity_max_abs": sum_dev, "run.seconds": elapsed,
               "run.write_seconds": time.perf_counter() - started}
    summary = (f"decompose: wrote process grids (sum identity {sum_dev:.2e}, "
               f"{elapsed:.2f}s)")
    return entries, summary, None


def cmd_compare(path_a, path_b, tol: float | None) -> None:
    if tol is not None and not (math.isfinite(tol) and tol >= 0):
        raise ConfigError(f"--tol must be a finite number >= 0, got {tol!r}")
    a, b = _read_file(path_a), _read_file(path_b)
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


# name -> (command, help, --linear-only help or None for no such flag).  The
# table holds the cmd_* functions only: the layer functions they call are
# looked up in this module at call time, where the benchmark's tracer wraps them.
COMMANDS = {
    "simulate": (cmd_simulate, "run the scattering map, emit grids",
                 "disable the nonlinear kernel"),
    "g2": (cmd_g2, "compute a normalized g2 curve",
           "correlations of the linear component only"),
    "oracle": (cmd_oracle, "lab-frame integrator cross-check", None),
    "decompose": (cmd_decompose, "emit interaction-process grids", None),
}


def _run_command(args: argparse.Namespace) -> None:
    overrides = {key: value for key, value in vars(args).items()
                 if key in KEYS and value is not None}
    cfg = load_config(args.config, overrides)
    config = {dotted: getattr(cfg, attr) for dotted, attr in sorted(KEYS.items())}
    out_dir = Path(args.out)
    entries, summary, failure = COMMANDS[args.command][0](
        cfg, out_dir, {"version": __version__, **config},
        getattr(args, "linear_only", False), args.check)
    with open(out_dir / "manifest.txt", "w") as fh:
        fh.write(f"# onedatom {__version__} run manifest\n")
        for key, value in {**config, "run.command": args.command, **entries}.items():
            text = f"{value:.17g}" if isinstance(value, float) else value
            fh.write(f"{key} = {text}\n")
    print(summary)
    if failure:
        raise ToleranceError(failure)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onedatom",
        description="Two-photon scattering at a single atom in a chiral 1D field")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, linear_help) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="path to a key = value config file")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--check", action="store_true",
                       help="verify results against closed forms (exit 3 on failure)")
        for dotted in sorted(KEYS):
            p.add_argument(f"--{dotted}", metavar="V", help=argparse.SUPPRESS)
        if linear_help:
            p.add_argument("--linear-only", action="store_true", help=linear_help)

    p_cmp = sub.add_parser("compare", help="diff two result CSV files")
    p_cmp.add_argument("file_a")
    p_cmp.add_argument("file_b")
    p_cmp.add_argument("--tol", type=float, default=None,
                       help="fail (exit 3) if max-abs exceeds this")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "compare":
            cmd_compare(args.file_a, args.file_b, args.tol)
        else:
            _run_command(args)
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
