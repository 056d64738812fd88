"""Configuration-driven command-line front end.

Commands: simulate (scattering map -> output grids), g2 (correlation curve),
oracle (lab-frame integrator cross-check), decompose (interaction-process
grids) and compare (diff two result files).  The first four are the rows of
`COMMANDS`; they share their flags and one runner, `_run_command`: it loads
the config (a flat file of dotted keys such as `pulse.kind = rectangular`,
each overridable by a flag of the same name) and calls the command, which
validates and computes but writes nothing; then it creates --out,
writes the command's files and `manifest.txt`, prints one summary line and,
under --check, raises `ToleranceError` on a gate the run fails.
Exit codes: 0 success, 2 configuration error or malformed input (files and
non-finite values included), 3 tolerance failure in --check mode, 4 I/O error."""

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
from .correlations import find_dip_zeros, g2_slice
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
    MAX_COUNT,
    Grid1D,
    PhysicalParams,
    Wavefunction1,
    Wavefunction2,
    deviation,
    gaussian_pulse,
    max_asymmetry,
    norm1,
    norm2,
    rectangular_pulse,
    relative_l2,
)
from .oracle import (
    far_field,
    rect_error_one_photon,
    rect_error_two_photon,
    rect_initial,
    run_rect,
    run_rect_error,
)
from .propagate import ScatteredState, apply_two_photon

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


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
KEYS = {f.name.replace("_", ".", 1): f.name for f in fields(RunConfig)}
_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def _coerce(key: str, raw: str, where: str = ""):
    """The value of dotted `key` written as `raw`; `where` prefixes an error."""
    kind = _FIELD_TYPES[KEYS[key]]
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
        raise ConfigError(f"{where}bad value for {key}: {raw!r}") from exc


def load_config(path: str | None, overrides: dict[str, str]) -> RunConfig:
    updates: dict[str, object] = {}
    if path:
        try:
            with open(path, encoding="utf-8-sig") as fh:    # a BOM is no key
                lines = fh.readlines()
        except (OSError, UnicodeDecodeError) as exc:
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
            updates[KEYS[key]] = _coerce(key, raw.strip(), f"{path}:{lineno}: ")
    for key, raw in overrides.items():
        updates[KEYS[key]] = _coerce(key, raw)
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
    peak = 8.0 / cfg.pulse_length      # the rectangle's output reaches 8/L in modulus
    if not math.isfinite(peak * peak):
        raise ConfigError(f"pulse.length = {cfg.pulse_length}: the output density 64/L^2 "
                          "is not finite")
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
    pulse of its photon.  File pulses are renormalized to unit norm on load;
    a two-photon file must be exactly exchange symmetric."""
    if not 2 <= cfg.grid_n <= MAX_COUNT:
        raise ConfigError(f"grid.n must be between 2 and {MAX_COUNT}, got {cfg.grid_n}")
    kind = cfg.pulse_kind
    breakpoints = ()
    if kind == "rectangular":
        length = _rect_length(cfg, "a rectangular input")
        psi = rectangular_pulse(length)
        support = breakpoints = (0.0, length)
    elif kind == "gaussian":
        if cfg.pulse_width <= 0:
            raise ConfigError("pulse.width must be positive")
        support = (cfg.pulse_center - 5.0 * cfg.pulse_width,
                   cfg.pulse_center + 5.0 * cfg.pulse_width)
    elif kind == "file":
        if not cfg.pulse_path:
            raise ConfigError("pulse.kind=file requires pulse.path")
        psi = _read_file(cfg.pulse_path)
        if not np.all(np.isfinite(psi.amp)):
            raise ConfigError(f"{cfg.pulse_path}: amplitudes must be finite")
        one_photon = isinstance(psi, Wavefunction1)
        if not one_photon and max_asymmetry(psi) > 0:
            raise ConfigError(
                f"{cfg.pulse_path}: two-photon amplitudes must be exchange symmetric")
        nrm = norm1(psi) if one_photon else norm2(psi)
        if nrm <= 0:
            raise ConfigError("pulse file has zero norm")
        if abs(nrm - 1.0) > 1e-6:
            print(f"warning: renormalizing pulse (norm was {nrm:.9g})", file=sys.stderr)
        psi = type(psi)(psi.grid, psi.amp / math.sqrt(nrm))
        support = (psi.grid.x_min, psi.grid.x_max)
    else:
        raise ConfigError(f"unknown pulse.kind {kind!r}")
    if cfg.grid_x_min > support[0] or cfg.grid_x_max < support[1]:
        raise ConfigError(
            f"grid [{cfg.grid_x_min}, {cfg.grid_x_max}] does not cover the "
            f"pulse support [{support[0]:.6g}, {support[1]:.6g}]")
    if kind == "gaussian":
        # sampled on 2049 nodes over center +- 8 width, which must be distinct
        x = np.linspace(cfg.pulse_center - 8.0 * cfg.pulse_width,
                        cfg.pulse_center + 8.0 * cfg.pulse_width, 2049)
        if not np.all(np.diff(x) > 0):
            raise ConfigError(f"pulse.width {cfg.pulse_width:g} is too narrow to sample "
                              f"at pulse.center {cfg.pulse_center:g}")
        with _invalid_input():
            psi = gaussian_pulse(cfg.pulse_center, cfg.pulse_width, Grid1D(x[0], x[-1], 2049))
    with _invalid_input():
        grid = Grid1D.with_breakpoints(cfg.grid_x_min, cfg.grid_x_max,
                                       cfg.grid_n, breakpoints)
    return psi, grid


# The --check bounds: rounding against the closed forms, g2 against the
# long-pulse curve, and the first-order oracle's rel-L2 by photon number.
MAX_ABS = 1e-10
G2_MAX_ABS = 2e-3
ORACLE_REL_L2 = {1: 2e-2, 2: 5e-2}

# A configured command takes (cfg, CSV header meta, --linear-only, --check),
# validates its inputs, computes, and touches no file.  It returns (files,
# manifest entries, summary detail, gates), where `gates` maps a manifest key
# to its --check bound and, under --check, every gated key is in the entries;
# `files` holds (name, writer, *writer args after the path) in write order.
# A two-photon grid is passed as a `ScatteredState`, of the map or of a closed
# form, that the writer reads in row blocks (`csvio.write_wavefunction2`), so
# no command builds one to write it.

def cmd_simulate(cfg: RunConfig, meta: dict, linear_only, check):
    if check:
        _rect_length(cfg, "--check for simulate")
    params = _params(cfg)
    psi_in, grid = _build_input(cfg)
    result = apply_two_photon(psi_in, grid, params)
    outputs = {"psi_out.csv": result.total, "psi_lin.csv": result.linear,
               "psi_nonlin.csv": result.nonlinear}
    entries = {"run.grid_points": grid.n,
               "run.norm_out": norm2(result.total), "run.norm_linear": norm2(result.linear),
               "run.norm_nonlinear": norm2(result.nonlinear)}
    if check:
        x = grid.points
        length = cfg.pulse_length
        one = rect_one_photon_out(x, length, params)
        # each reference is built one block of rows at a time
        refs = {"total": lambda i0, i1: rect_two_photon_out(x[i0:i1, None], x, length, params),
                "linear": lambda i0, i1: np.multiply.outer(one[i0:i1], one),
                "nonlinear": lambda i0, i1: rect_nonlin_out(x[i0:i1, None], x, length, params)}
        for part, ref in refs.items():
            entries[f"check.max_abs_{part}"] = deviation(
                getattr(result, part).rows, ref, grid.n)[0]
    files = [(name, write_wavefunction2, part, meta) for name, part in outputs.items()]
    return files, entries, f"norm {entries['run.norm_out']:.6f}", {
        f"check.max_abs_{part}": MAX_ABS for part in ("total", "linear", "nonlinear")}


def cmd_g2(cfg: RunConfig, meta: dict, linear_only, check):
    if check:
        _rect_length(cfg, "--check for g2")
    if not 2 <= cfg.tau_n <= MAX_COUNT:
        raise ConfigError(f"tau.n must be between 2 and {MAX_COUNT}, got {cfg.tau_n}")
    if not cfg.tau_min < cfg.tau_max:
        raise ConfigError(f"need tau.min < tau.max, got [{cfg.tau_min}, {cfg.tau_max}]")
    params = _params(cfg)
    psi_in, grid = _build_input(cfg)
    reach = [cfg.anchor_x + params.c * t for t in (0.0, cfg.tau_min, cfg.tau_max)]
    if min(reach) < grid.points[0] or max(reach) > grid.points[-1]:
        raise ConfigError(
            f"anchor.x + c*tau over [{cfg.tau_min}, {cfg.tau_max}] spans "
            f"[{min(reach):.6g}, {max(reach):.6g}], outside the output grid "
            f"[{grid.points[0]:.6g}, {grid.points[-1]:.6g}]")
    result = apply_two_photon(psi_in, grid, params)
    psi = result.linear if linear_only else result.total

    with _invalid_input():
        curve = g2_slice(psi, cfg.anchor_x, (cfg.tau_min, cfg.tau_max), cfg.tau_n,
                         cfg.pulse_length if cfg.pulse_kind == "rectangular" else None, params)
    zeros = find_dip_zeros(curve)
    undefined = int(np.count_nonzero(np.isnan(curve.values)))
    entries = {"run.linear_only": linear_only, "run.zero_count": len(zeros),
               "run.undefined_tau": undefined, "run.density_rows": curve.density_rows,
               **{f"run.zero_{i}": z for i, z in enumerate(zeros)}}
    if check:
        # the linear part's photons are uncorrelated: its curve is the
        # long-pulse curve's limit at |tau| -> inf, 1/2
        ref = longpulse_g2(np.full_like(curve.tau, np.inf) if linear_only else curve.tau,
                           params)
        entries["check.max_abs_vs_longpulse"] = float(np.max(np.abs(curve.values - ref)))
    zs = ", ".join(f"{z:.4f}" for z in zeros) or "none"
    return ([("g2_curve.csv", write_curve, curve, meta)], entries,
            f"zeros at {zs}, g2 undefined at {undefined} tau",
            {"check.max_abs_vs_longpulse": G2_MAX_ABS})


def cmd_oracle(cfg: RunConfig, meta: dict, linear_only, check):
    params = _params(cfg)
    length = _rect_length(cfg, "the oracle command")
    # Built per call, so each name is looked up in this module when it runs.
    modes = {"one": (1, rect_error_one_photon, write_wavefunction1),
             "two": (2, rect_error_two_photon, write_wavefunction2)}
    if cfg.oracle_mode not in modes:
        raise ConfigError("oracle.mode must be 'one' or 'two'")
    photons, rect_error, write = modes[cfg.oracle_mode]
    dx = cfg.oracle_dx
    run_args = {"photons": photons, "pad": cfg.oracle_pad, "clear": cfg.oracle_clear}
    with _invalid_input():
        # the dx/2 run keeps only its error and holds no field; it goes
        # first, so its rows are freed before the dx run, whose field is
        # written, starts; dx is checked before either, so a bad dx is named
        # as given
        rect_initial(length, dx, params, cfg.oracle_pad)
        err_half = None
        if cfg.oracle_ratio:
            err_half = run_rect_error(length, dx / 2, params, **run_args)
        run = run_rect(length, dx, params, **run_args)
        err = rect_error(run, length, params)
    entries = {"run.rel_l2": err, "run.final_norm": run.state.total_norm()}
    detail = f"mode {cfg.oracle_mode}, rel-L2 {err:.3e}"
    if err_half is not None:
        entries["run.rel_l2_half_dx"] = err_half
        entries["run.convergence_ratio"] = err / err_half if err_half else math.inf
        detail += f", ratio {entries['run.convergence_ratio']:.2f}"
    files = [("oracle_farfield.csv", write, far_field(run.state, params), meta),
             ("oracle_trace.csv", write_trace, run.trace)]
    return files, entries, detail, {"run.rel_l2": ORACLE_REL_L2[photons]}


def cmd_decompose(cfg: RunConfig, meta: dict, linear_only, check):
    params = _params(cfg)
    length = _rect_length(cfg, "decompose")
    n = cfg.grid_n
    if not 2 <= n <= MAX_COUNT:
        raise ConfigError(f"grid.n must be between 2 and {MAX_COUNT}, got {n}")
    grid = Grid1D(0.0, length, n)
    x = grid.points

    processes = {name: ScatteredState(grid, lambda i0, i1, name=name: getattr(
        rect_process_amplitudes(x[i0:i1, None], x, length, params), name))
        for name in ("total", "p_i", "p_ii", "p_iii")}
    sum_dev = deviation(processes["total"].rows, lambda i0, i1: rect_two_photon_out(
        x[i0:i1, None], x, length, params), n)[0]
    files = [(f"{name}.csv", write_wavefunction2, processes[name], meta)
             for name in ("p_i", "p_ii", "p_iii")]
    return (files, {"run.sum_identity_max_abs": sum_dev}, f"sum identity {sum_dev:.2e}",
            {"run.sum_identity_max_abs": MAX_ABS})


def cmd_compare(path_a, path_b, tol: float | None) -> None:
    if tol is not None and not (math.isfinite(tol) and tol >= 0):
        raise ConfigError(f"--tol must be a finite number >= 0, got {tol!r}")
    a, b = _read_file(path_a), _read_file(path_b)
    if a.amp.shape != b.amp.shape:
        raise ConfigError(f"grid shapes differ: {a.amp.shape} vs {b.amp.shape}")
    grid_dev = float(np.max(np.abs(a.grid.points - b.grid.points)))
    amp_a, amp_b = (psi.amp.reshape(-1, psi.grid.n) for psi in (a, b))
    max_abs, num, den = deviation(lambda i0, i1: amp_a[i0:i1],
                                  lambda i0, i1: amp_b[i0:i1], len(amp_a))
    rel_l2 = relative_l2(num, den)
    print(f"compare: max-abs {max_abs:.6e}, rel-L2 {rel_l2:.6e}, "
          f"grid deviation {grid_dev:.3e}")
    if tol is not None and not max_abs <= tol:
        raise ToleranceError(f"max-abs {max_abs:.3e} exceeds {tol:.3e}")


# name -> (command, help, --linear-only help or None for no such flag).  The
# table holds the cmd_* functions only: the layer functions they call and the
# writers they return are looked up in this module at call time, where the
# benchmark's tracer wraps them.
COMMANDS = {
    "simulate": (cmd_simulate, "run the scattering map, emit grids", None),
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
    started = time.perf_counter()
    files, entries, detail, gates = COMMANDS[args.command][0](
        cfg, {"version": __version__, **config},
        getattr(args, "linear_only", False), args.check)
    seconds = time.perf_counter() - started

    started = time.perf_counter()
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for name, write, *write_args in files:
        write(out_dir / name, *write_args)
        written.append(name)
    write_seconds = time.perf_counter() - started

    entries = {**config, "run.command": args.command, **entries,
               "run.seconds": seconds, "run.write_seconds": write_seconds}
    with open(out_dir / "manifest.txt", "w") as fh:
        fh.write(f"# onedatom {__version__} run manifest\n")
        for key, value in entries.items():
            text = f"{value:.17g}" if isinstance(value, float) else value
            fh.write(f"{key} = {text}\n")
    print(f"{args.command}: wrote {out_dir}/{written[0]} ({detail}, {seconds:.2f}s, "
          f"written in {write_seconds:.2f}s)")
    for key, bound in gates.items() if args.check else ():
        if not entries[key] <= bound:
            raise ToleranceError(f"{key} = {entries[key]:.3e} exceeds {bound:.3e}")


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
    # a dotted key takes the next token, even -1e-3, which argparse reads as a flag
    tokens = []
    for token in sys.argv[1:] if argv is None else argv:
        if tokens and tokens[-1].startswith("--") and tokens[-1][2:] in KEYS:
            token = f"{tokens.pop()}={token}"
        tokens.append(token)
    args = build_parser().parse_args(tokens)
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
