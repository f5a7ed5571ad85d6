"""Every public export of every margraph module resolves."""

import importlib
import pkgutil

import pytest

import margraph

MODULES = ["margraph"] + [f"margraph.{m.name}" for m in pkgutil.iter_modules(margraph.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    exports = getattr(module, "__all__", [])
    assert len(exports) == len(set(exports)), f"{name}.__all__ lists a name twice"
    missing = [export for export in exports if not hasattr(module, export)]
    assert not missing, f"{name}.__all__ names what the module does not define: {missing}"
