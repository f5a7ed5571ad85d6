"""Every public export of every margraph module resolves, and every
imported name is used."""

import ast
import importlib
import pkgutil
from pathlib import Path

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


@pytest.mark.parametrize("name", MODULES)
def test_every_imported_name_is_used(name):
    module = importlib.import_module(name)
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    # a name counts as used when the code reads it or __all__ re-exports it
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(imported - used - set(getattr(module, "__all__", ())))
    assert not unused, f"{name} imports names it never uses: {unused}"
