"""Spans around the public functions of each `onedatom` layer, recorded from
the benchmark's side so the program itself is unchanged.

Each wrapper replaces a function where its caller looks it up (the CLI
imports most names into `onedatom.cli`, `apply_two_photon` calls its parts
through `onedatom.propagate`, constructors go through `Wavefunction2`).
`Tracer.resolve()` fails loudly when any of those names is gone, so a rename
cannot silently zero a layer.  Spans stay in memory: (name, start, end,
parent index, op id).  Counters are kept at the same boundaries.
"""

from __future__ import annotations

import importlib
import os
import time
from contextlib import contextmanager

import numpy as np


def _out_cells(args, kwargs, result):
    return {"propagate.out_cells": result.total.grid.n ** 2}


def _wf2_bytes(args, kwargs, result):
    return {"model.wf2_bytes": 16 * args[0].grid.n ** 2}


def _tau_samples(args, kwargs, result):
    return {"correlations.tau_samples": len(result.tau)}


def _bytes_written(args, kwargs, result):
    return {"csvio.bytes_written": os.path.getsize(args[0])}


def _bytes_read(args, kwargs, result):
    return {"csvio.bytes_read": os.path.getsize(args[0])}


def _analytic_points(args, kwargs, result):
    arrays = [a for a in args if isinstance(a, np.ndarray)]
    return {"analytic.points": np.broadcast(*arrays).size if arrays else 1}


def _oracle_steps(args, kwargs, result):
    initial, dx, params = args[0], args[1], args[3]
    return {"oracle.steps": int(round((result.state.t - initial.t) * params.c / dx))}


# (span name or None for a counter-only wrapper, module, attribute path, counter)
TARGETS = [
    ("cli", "onedatom.cli", "main", None),
    ("propagate.apply", "onedatom.cli", "apply_two_photon", _out_cells),
    ("propagate.linear", "onedatom.propagate", "apply_two_photon_linear", None),
    ("propagate.nonlinear", "onedatom.propagate", "apply_two_photon_nonlinear", None),
    ("propagate.one_photon", "onedatom.propagate", "apply_one_photon", None),
    ("model.symmetric", "onedatom.model", "Wavefunction2.symmetric", None),
    ("model.from_product", "onedatom.model", "Wavefunction2.from_product", None),
    (None, "onedatom.model", "Wavefunction2.__post_init__", _wf2_bytes),
    ("correlations.g2_slice", "onedatom.cli", "g2_slice", _tau_samples),
    ("correlations.find_dip_zeros", "onedatom.cli", "find_dip_zeros", None),
    ("csvio.write", "onedatom.cli", "write_wavefunction1", _bytes_written),
    ("csvio.write", "onedatom.cli", "write_wavefunction2", _bytes_written),
    ("csvio.write", "onedatom.cli", "write_curve", _bytes_written),
    ("csvio.read", "onedatom.cli", "read_wavefunction1", _bytes_read),
    ("csvio.read", "onedatom.cli", "read_wavefunction2", _bytes_read),
    ("csvio.read", "onedatom.cli", "sniff_columns", None),
    ("analytic", "onedatom.cli", "rect_two_photon_out", _analytic_points),
    ("analytic", "onedatom.cli", "rect_one_photon_out", _analytic_points),
    ("analytic", "onedatom.cli", "rect_nonlin_out", _analytic_points),
    ("analytic", "onedatom.cli", "rect_process_amplitudes", _analytic_points),
    ("analytic", "onedatom.cli", "longpulse_g2", _analytic_points),
    ("oracle.evolve", "onedatom.oracle", "evolve_one_photon", _oracle_steps),
    ("oracle.evolve", "onedatom.oracle", "evolve_two_photon", _oracle_steps),
    ("oracle.error", "onedatom.cli", "rect_error_one_photon", None),
    ("oracle.error", "onedatom.cli", "rect_error_two_photon", None),
]

# Layers of the package no CLI command reaches; reported, never measured.
UNMEASURED = {"kernels": "only the tests call eval_abs_kernel / eval_nonlin_kernel"}


class Tracer:
    def __init__(self, targets=TARGETS):
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self.op_id = None
        self.calls = 0
        self._stack: list[int] = []
        self._targets = self.resolve(targets)

    @staticmethod
    def resolve(targets):
        """(owner, attribute, raw value, span name, counter) for every target;
        raises if any name no longer resolves."""
        resolved = []
        for name, module_name, path, counter in targets:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None or not callable(getattr(raw, "__func__", raw)):
                raise RuntimeError(f"tracer target {module_name}.{path} does not resolve; "
                                   "update perfbench/tracer.py TARGETS")
            resolved.append((owner, attr, raw, name, counter))
        return resolved

    def _wrap(self, func, name, counter):
        spans, stack, counters = self.spans, self._stack, self.counters

        def wrapper(*args, **kwargs):
            self.calls += 1
            if name is not None:
                index = len(spans)
                spans.append([name, time.perf_counter(), None,
                              stack[-1] if stack else None, self.op_id])
                stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                if name is not None:
                    stack.pop()
                    spans[index][2] = time.perf_counter()
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    counters[key] = counters.get(key, 0) + value
            return result

        wrapper.__wrapped__ = func
        return wrapper

    @contextmanager
    def installed(self):
        for owner, attr, raw, name, counter in self._targets:
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrap(raw.__func__, name, counter)))
            else:
                setattr(owner, attr, self._wrap(raw, name, counter))
        try:
            yield self
        finally:
            for owner, attr, raw, _, _ in self._targets:
                setattr(owner, attr, raw)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span's duration minus its children's."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals: dict[str, float] = {}
        for (name, start, end, _, _), inner in zip(self.spans, child):
            totals[name] = totals.get(name, 0.0) + (end - start) - inner
        return totals

    def total_times(self) -> dict[str, float]:
        """Seconds per span name, children included (no layer calls itself,
        so no interval is counted twice)."""
        totals: dict[str, float] = {}
        for name, start, end, _, _ in self.spans:
            totals[name] = totals.get(name, 0.0) + end - start
        return totals

    def reset(self) -> None:
        """Forget all spans and counts (the wrappers keep these objects)."""
        self.spans.clear()
        self.counters.clear()
        self.calls = 0


def call_overhead(calls: int = 20000, reps: int = 7) -> float:
    """Seconds one span wrapper adds to a call: `calls` calls of an empty
    function through a wrapper minus as many direct calls, the median over
    `reps` rounds, divided by `calls`."""
    probe = Tracer(targets=())

    def empty():
        return None

    wrapped = probe._wrap(empty, "probe", None)
    extra = []
    for _ in range(reps):
        started = time.perf_counter()
        for _ in range(calls):
            empty()
        direct = time.perf_counter() - started
        started = time.perf_counter()
        for _ in range(calls):
            wrapped()
        extra.append(time.perf_counter() - started - direct)
        probe.reset()
    extra.sort()
    return extra[reps // 2] / calls
