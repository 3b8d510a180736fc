"""Every name a matmi module imports is used in that module or listed in
its __all__, and every name in its __all__ is defined there."""

import ast
import importlib

import pytest

from astrules import SRC, exported


def _unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add((alias.asname or alias.name).split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used - exported(tree))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_all_names_are_defined(path):
    # a stale export breaks `from matmi.<module> import *`
    name = "matmi" if path.stem == "__init__" else "matmi." + path.stem
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", [])
            if not hasattr(module, n)] == []
