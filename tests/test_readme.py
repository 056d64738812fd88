"""The README's examples run as written."""

import ast
import math
import re
from pathlib import Path

import pytest

from onedatom.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _block(lang: str) -> str:
    """The one fenced code block of the README in language `lang`."""
    found = re.findall(rf"^```{lang}\n(.*?)^```$", README.read_text(),
                       flags=re.MULTILINE | re.DOTALL)
    assert len(found) == 1, f"expected one ```{lang} block, found {len(found)}"
    return found[0]


def test_example_config_runs_g2(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_block("ini"))
    assert main(["g2", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0


def test_quick_start_finds_the_two_zeros(capsys):
    exec(compile(_block("python"), str(README), "exec"), {})
    zeros = ast.literal_eval(capsys.readouterr().out.strip())
    two_ln2 = 2.0 * math.log(2.0)
    assert zeros == [pytest.approx(-two_ln2, abs=1e-3), pytest.approx(two_ln2, abs=1e-3)]
