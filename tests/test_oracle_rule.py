"""The production path holds only what reconstruction runs: of the matmi
modules, only `transport` imports `matmi.oracles`, in one line whose
names it re-exports through its __all__ and never uses itself; and
`oracles` imports nothing from the modules that run the
reconstruction (`transport`, `reconstruction`, `cli`)."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "matmi"

# modules that oracles must not import
RUNNERS = {"transport", "reconstruction", "cli"}


def _imports(tree):
    """(matmi module, imported names, line) of each import of a matmi
    module, relative (`from .x import f`, `from . import x`) or
    absolute (`from matmi.x import f`, `import matmi.x`)."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [a.name for a in node.names]
            mod = node.module or ""
            if node.level == 0:
                if mod != "matmi" and not mod.startswith("matmi."):
                    continue
                mod = mod[len("matmi."):] if mod != "matmi" else ""
            if mod:
                out.append((mod, names, node.lineno))
            else:                               # from . import x, y
                out.extend((n, [], node.lineno) for n in names)
        elif isinstance(node, ast.Import):
            out.extend((a.name.split(".", 2)[1], [], node.lineno)
                       for a in node.names if a.name.startswith("matmi."))
    return out


def _exported(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def _violations(source, module):
    """(reason, line) of each import that breaks the rule in `module`."""
    tree = ast.parse(source)
    found = [imp for imp in _imports(tree)
             if imp[0] == "oracles"
             or (module == "oracles" and imp[0] in RUNNERS)]
    if module == "oracles":
        return [("oracles imports %s" % mod, line)
                for mod, _, line in found]
    if module != "transport":
        return [("%s imports oracles" % module, line)
                for _, _, line in found]
    out = [("a second import of oracles", line) for _, _, line in found[1:]]
    if found:
        _, names, line = found[0]
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        exported = _exported(tree)
        if not names:
            out.append(("oracles imported as a module", line))
        out.extend(("%s is not re-exported" % n, line)
                   for n in names if n not in exported)
        out.extend(("%s is used in transport" % n, line)
                   for n in names if n in used)
    return out


_TRANSPORT = """
from .oracles import solve_linear_dg
__all__ = ["solve_linear_dg"]
"""


def test_the_rule_sees_every_way_to_reach_the_oracles():
    assert _violations(_TRANSPORT, "transport") == []
    assert _violations("from .oracles import solve_linear_dg\n",
                       "transport") == [
        ("solve_linear_dg is not re-exported", 1)]
    assert _violations(_TRANSPORT + "x = solve_linear_dg(p)\n",
                       "transport") == [
        ("solve_linear_dg is used in transport", 2)]
    assert _violations(_TRANSPORT + "from . import oracles\n",
                       "transport") == [("a second import of oracles", 4)]
    assert _violations(_TRANSPORT, "reconstruction") == [
        ("reconstruction imports oracles", 2)]
    assert _violations("def f():\n    import matmi.oracles\n", "cli") == [
        ("cli imports oracles", 2)]
    assert _violations("from matmi.oracles import upwind_cells\n",
                       "functional") == [("functional imports oracles", 1)]
    assert _violations("from .mesh import classify_inflow\n"
                       "from .transport import FluxFit\n"
                       "from . import cli, fields\n", "oracles") == [
        ("oracles imports transport", 2), ("oracles imports cli", 3)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_only_transport_reexports_the_oracles(path):
    assert _violations(path.read_text(), path.stem) == []
