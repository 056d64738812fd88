"""The benchmark harness in perfbench/ wraps named functions of each layer
(see perfbench/tracer.py TARGETS) and refuses to start when one of them no
longer resolves.  Renaming a wrapped name therefore breaks every benchmark
run; this test turns such a break into a test failure."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    resolved = tracer.Tracer.resolve(tracer.TARGETS)
    assert len(resolved) == len(tracer.TARGETS)
