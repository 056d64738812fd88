"""Package-wide checks: every name a module exports resolves."""

import importlib
import pkgutil

import pytest

import onedatom

MODULES = ["onedatom", *(f"onedatom.{m.name}" for m in pkgutil.iter_modules(onedatom.__path__))]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names missing attributes: {missing}"
