"""Seeded op lists of the workloads.

An op is one `onedatom` CLI invocation: its argv (relative to the workload's
work directory), the config file it reads, and what the verifier needs to
check its outputs.  The program only ever sees the generated configs and
input files; the seed never reaches it.

Sizes are stratified: each workload has a fixed ladder of grid sizes over its
ranges and the seed jitters every rung down by at most 2%, while the
shape parameters (pulse length, widths, chirp, tau windows and sample counts)
are drawn freely.  The cost of an op grows like n^2, so unstratified sizes
would make the batch time a property of the seed rather than of the program.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

import reference as R

X_MIN = -8.0        # left edge of every rectangular-pulse output grid
TAIL = 6.0          # reemission tail kept left of a sampled input's support
JITTER = 0.02


@dataclass
class Op:
    id: str
    argv: list[str]
    config: dict = field(default_factory=dict)
    check: dict = field(default_factory=dict)


@dataclass
class Workload:
    ops: list[Op]
    inputs: list = field(default_factory=list)     # (relative path, writer)


def _jittered(n: float, rng: random.Random) -> int:
    return int(round(n * (1.0 - JITTER * rng.random())))


def _ladder(lo: int, hi: int, count: int, rng: random.Random) -> list[int]:
    return [_jittered(lo + (hi - lo) * i / (count - 1), rng) for i in range(count)]


def _rect_config(length, n):
    return {"pulse.kind": "rectangular", "pulse.length": length,
            "grid.x_min": X_MIN, "grid.x_max": length, "grid.n": n}


def _g2_config(anchor, tau_lo, tau_hi, tau_n):
    return {"anchor.x": anchor, "tau.min": tau_lo, "tau.max": tau_hi, "tau.n": tau_n}


def _g2_rect(seed: int) -> Workload:
    rng = random.Random(f"g2_rect:{seed}")
    ops = []
    for i, n_target in enumerate(_ladder(2048, 4096, 5, rng)):
        length, n = R.aligned_rect_grid(rng.uniform(12.0, 40.0), n_target, X_MIN)
        half = length / 2.0
        tau_lo = -rng.uniform(0.35, 0.95) * half
        tau_hi = rng.uniform(0.35, 0.95) * half
        tau_n = rng.randint(1001, 8001)
        ops.append(Op(f"g2-{i}", ["g2"],
                      {**_rect_config(length, n), **_g2_config(half, tau_lo, tau_hi, tau_n)},
                      {"kind": "g2_rect", "length": length, "n": n, "anchor": half,
                       "tau": (tau_lo, tau_hi, tau_n)}))
    return Workload(ops)


def grid_io(seed: int) -> Workload:
    rng = random.Random(f"grid_io:{seed}")
    ops = []
    for i, n_target in enumerate(_ladder(256, 512, 3, rng)):
        length, n = R.aligned_rect_grid(rng.uniform(12.0, 40.0), n_target, X_MIN)
        ops.append(Op(f"simulate-{i}", ["simulate", "--check"], _rect_config(length, n),
                      {"kind": "simulate", "length": length, "n": n}))
    first = ops[0]
    ops.append(Op("compare", ["compare", f"out/{first.id}/psi_out.csv",
                              f"out/{first.id}/psi_lin.csv"], {},
                  {**first.check, "kind": "compare"}))
    length = rng.uniform(12.0, 40.0)
    n = _jittered(320, rng)
    ops.append(Op("decompose", ["decompose"],
                  {"pulse.kind": "rectangular", "pulse.length": length, "grid.n": n},
                  {"kind": "decompose", "length": length, "n": n}))
    dx = 0.005
    length = _jittered(1000, rng) * dx
    ops.append(Op("oracle-one", ["oracle", "--check"],
                  {"pulse.length": length, "oracle.mode": "one", "oracle.dx": dx},
                  {"kind": "oracle", "mode": "one", "length": length, "tol": 2e-2}))
    dx = 0.03
    length = _jittered(100, rng) * dx
    ops.append(Op("oracle-two", ["oracle", "--check"],
                  {"pulse.length": length, "oracle.mode": "two", "oracle.dx": dx,
                   "oracle.pad": 3.0, "oracle.clear": 8.0},
                  {"kind": "oracle", "mode": "two", "length": length, "tol": 5e-2}))
    return Workload(ops)


def _write_wf1(path, x, amp):
    with open(path, "w") as fh:
        fh.write("# benchmark input: chirped Gaussian\nx,re,im\n")
        np.savetxt(fh, np.column_stack([x, amp.real, amp.imag]), fmt="%.17g", delimiter=",")


def _write_wf2(path, x, amp):
    n = len(x)
    cols = np.column_stack([np.repeat(x, n), np.tile(x, n),
                            amp.real.ravel(), amp.imag.ravel()])
    with open(path, "w") as fh:
        fh.write("# benchmark input: symmetrised Gaussian products\nx1,x2,re,im\n")
        np.savetxt(fh, cols, fmt="%.17g", delimiter=",")


def _local_g2_op(op_id, config, points, terms, anchor, tau_lo, tau_hi, tau_n, tol):
    config = {**config, "grid.x_min": float(points[0]), "grid.x_max": float(points[-1]),
              "grid.n": len(points), **_g2_config(anchor, tau_lo, tau_hi, tau_n)}
    return Op(op_id, ["g2"], config,
              {"kind": "g2_local", "lo": float(points[0]), "hi": float(points[-1]),
               "n": len(points), "terms": terms, "anchor": anchor,
               "tau": (tau_lo, tau_hi, tau_n), "tol": tol})


def _sampling_tol(h, alphas):
    """Accepted deviation of a sampled-input g2 from its exact reference, as
    a share of the curve's peak.  The program integrates the piecewise-linear
    interpolant of the samples, whose error is O(h^2 |alpha|); measured
    deviations stay below 0.55 h^2 max|alpha|, and the bound is three times
    that."""
    return 1e-6 + 1.5 * h * h * max(abs(a) for a in alphas)


def _sampled_g2(seed: int) -> Workload:
    rng = random.Random(f"sampled_g2:{seed}")
    ops, inputs = [], []
    center = 5.0
    grid_sizes = _ladder(1024, 2048, 2, rng)
    for i, n_in in enumerate(_ladder(513, 8193, 2, rng)):
        width = rng.uniform(0.6, 2.0)
        g = R.unit_gaussian(center, width, rng.uniform(0.0, 0.5) / width ** 2)
        x = np.linspace(center - 8.0 * width, center + 8.0 * width, n_in)
        path = f"inputs/chirped-{i}.csv"
        inputs.append((path, lambda p, x=x, g=g: _write_wf1(p, x, R.gaussian(x, *g))))
        points = np.linspace(x[0] - TAIL, x[-1], grid_sizes[i])
        tau = rng.uniform(1.0, 2.0) * width
        ops.append(_local_g2_op(f"file1d-{i}", {"pulse.kind": "file", "pulse.path": path},
                                points, [(1.0, g, g)], center, -tau, tau,
                                rng.randint(1001, 4001),
                                _sampling_tol(x[1] - x[0], [g[1]])))
    for i, n_in in enumerate(_ladder(129, 385, 2, rng)):
        w_a, w_b = rng.uniform(0.7, 1.2), rng.uniform(0.7, 1.2)
        sep = rng.uniform(1.0, 2.5)
        a, b = R.unit_gaussian(center, w_a), R.unit_gaussian(center + sep, w_b)
        s = R.gaussian_overlap(w_a, w_b, sep)
        coef = 1.0 / math.sqrt(2.0 * (1.0 + s * s))
        x = np.linspace(min(center - 8 * w_a, center + sep - 8 * w_b),
                        max(center + 8 * w_a, center + sep + 8 * w_b), n_in)
        path = f"inputs/pair-{i}.csv"
        inputs.append((path, lambda p, x=x, a=a, b=b, coef=coef: _write_wf2(
            p, x, coef * (np.outer(R.gaussian(x, *a), R.gaussian(x, *b))
                          + np.outer(R.gaussian(x, *b), R.gaussian(x, *a))))))
        points = np.linspace(x[0] - TAIL, x[-1], _jittered(1024, rng))
        tau = rng.uniform(1.0, 1.5)
        ops.append(_local_g2_op(f"file2d-{i}", {"pulse.kind": "file", "pulse.path": path},
                                points, [(coef, a, b), (coef, b, a)], center + sep / 2,
                                -tau, tau, rng.randint(1001, 4001),
                                _sampling_tol(x[1] - x[0], [a[1], b[1]])))
    width = rng.uniform(0.5, 2.0)
    g = R.unit_gaussian(center, width)
    points = np.linspace(center - 5 * width - TAIL, center + 5 * width, _jittered(1536, rng))
    tau = rng.uniform(1.0, 2.0) * width
    ops.append(_local_g2_op("gaussian", {"pulse.kind": "gaussian", "pulse.center": center,
                                             "pulse.width": width},
                            points, [(1.0, g, g)], center, -tau, tau, rng.randint(1001, 4001),
                            # the program samples kind=gaussian at 2049 points on center +- 8 width
                            _sampling_tol(16.0 * width / 2048, [g[1]])))
    return Workload(ops, inputs)


def g2(seed: int) -> Workload:
    """`g2` on rectangular pulses, then on sampled inputs: one workload, so
    each run measures more of it."""
    rect, sampled = _g2_rect(seed), _sampled_g2(seed)
    return Workload(rect.ops + sampled.ops, sampled.inputs)


BUILDERS = {"g2": g2, "grid_io": grid_io}
