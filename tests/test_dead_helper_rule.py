"""No unread private helpers: every module-level private function, class
or constant defined in matmi (a name with one leading underscore) is
read somewhere in matmi.  A private name is not part of the package's
interface, so one that no code of the package reads is dead, whatever
a test still does with it.  A read inside the helper's own definition
(a recursive call) does not count."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "matmi"


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _defined(tree):
    """(name, line) of each module-level private def, class or
    assigned name."""
    out = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            out.append((stmt.name, stmt.lineno))
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target])
            out.extend((node.id, stmt.lineno) for t in targets
                       for node in ast.walk(t) if isinstance(node, ast.Name))
    return [(name, line) for name, line in out if _private(name)]


def _read(tree):
    """Names read in a module, as a bare name or as an attribute, except
    a module-level definition's reads of its own name."""
    out = set()
    for stmt in tree.body:
        own = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load):
                name = node.attr
            else:
                continue
            if name != own:
                out.add(name)
    return out


def _unread(sources):
    """(module, name, line) of each private module-level definition in
    `sources`, a dict of module name to source text, that none of them
    reads."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    read = set().union(*map(_read, trees.values()))
    return sorted((mod, name, line) for mod, tree in trees.items()
                  for name, line in _defined(tree) if name not in read)


def test_the_rule_finds_unread_private_definitions():
    helper = "def _helper(x):\n    return x\n"
    assert _unread({"a": helper}) == [("a", "_helper", 1)]
    assert _unread({"a": helper, "b": "y = _helper(1)\n"}) == []
    # read through a module attribute or an import in another module
    assert _unread({"a": helper, "b": "y = a._helper(1)\n"}) == []
    assert _unread({"a": helper,
                    "b": "from .a import _helper\nz = _helper\n"}) == []
    # an import alone, an assignment or a recursive call is no read
    assert _unread({"a": helper, "b": "from .a import _helper\n"}) == [
        ("a", "_helper", 1)]
    assert _unread({"a": helper + "_helper = None\n"}) == [
        ("a", "_helper", 1), ("a", "_helper", 3)]
    assert _unread({"a": "def _f(n):\n    return _f(n - 1)\n"}) == [
        ("a", "_f", 1)]
    # classes and constants, in tuple targets too; public and dunder
    # names and names inside a scope are not checked
    assert _unread({"a": "class _Box:\n    pass\n_A, (_B, c) = 1, (2, 3)\n"
                         "x = _B\n"}) == [("a", "_A", 3), ("a", "_Box", 1)]
    assert _unread({"a": "__all__ = []\ndef f():\n    _local = 1\n"
                         "class C:\n    _k = 2\n    def _m(self):\n"
                         "        pass\n"}) == []


def test_every_private_helper_is_read():
    sources = {path.stem: path.read_text()
               for path in sorted(SRC.glob("*.py"))}
    assert _unread(sources) == []
