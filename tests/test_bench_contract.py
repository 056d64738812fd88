"""The benchmark harness in perfbench/ wraps named functions of each layer
(see perfbench/tracer.py TARGETS) and refuses to start when one of them no
longer resolves.  Renaming a wrapped name therefore breaks every benchmark
run; the first test turns such a break into a test failure.  The second
pins the span names each CLI command records under the tracer."""

from pathlib import Path

import numpy as np
import pytest

from onedatom import Grid1D, Wavefunction1
from onedatom.csvio import write_wavefunction1

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# apply_two_photon runs the axis-0 pass itself and builds each part from its
# share, so no command reaches apply_one_photon or the public part maps; the
# scattered pair is read through its generators, by g2 and by the grid
# writer alike, so no command builds the dense product grid either
PROPAGATE = {"cli", "propagate.apply", "csvio.write"}


def test_tracer_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    resolved = tracer.Tracer.resolve(tracer.TARGETS)
    assert len(resolved) == len(tracer.TARGETS)


# The tracer wraps the layer functions where `onedatom.cli` looks them up, so
# a command that captured one of them earlier would leave its span at zero.
@pytest.mark.parametrize("argv, spans", [
    (["simulate", "--check"], PROPAGATE | {"analytic"}),
    (["g2"], PROPAGATE | {"correlations.g2_slice", "correlations.find_dip_zeros"}),
    (["decompose"], {"cli", "analytic", "csvio.write"}),
    (["oracle", "--pulse.length", "1", "--oracle.dx", "0.05"],
     {"cli", "oracle.evolve", "oracle.error", "csvio.write"}),
    (["compare", "a.csv", "b.csv"], {"cli", "csvio.read"}),
], ids=["simulate", "g2", "decompose", "oracle", "compare"])
def test_tracer_sees_every_layer_of_each_command(argv, spans, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.chdir(tmp_path)
    import tracer

    import onedatom.cli

    grid = Grid1D(0.0, 1.0, 11)
    for name in ("a.csv", "b.csv"):
        write_wavefunction1(name, Wavefunction1(grid, np.ones(11)))
    if argv[0] != "compare":
        argv = argv + ["--pulse.length", "4", "--grid.x_min", "-4", "--grid.x_max", "4",
                       "--grid.n", "81", "--anchor.x", "2", "--tau.min", "-1",
                       "--tau.max", "1", "--tau.n", "101", "--out", "out"]
    trace = tracer.Tracer()
    with trace.installed():
        assert onedatom.cli.main(argv) == 0
    assert {span[0] for span in trace.spans} == spans
