"""One update path: the adaptive and plain outer updates differ only in
the candidate set and the accept rule, so outside the configuration
tables the key "picard.adaptive" is read by reconstruction._ls_update
alone."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "matmi"

KEY = "picard.adaptive"
# (module, scope) pairs allowed to name the key: the update, and the
# module-level tables that declare the key or set it for a preset
ALLOWED = {("reconstruction", "_ls_update"),
           ("reconstruction", "_DEFAULTS"),
           ("presets", "PRESETS")}


def _violations(source, module):
    """(enclosing scope, line) of each string constant equal to KEY
    outside ALLOWED; a module-level assignment to one name is the scope
    of that name."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = scope + (child.name,)
            elif (not scope and isinstance(child, ast.Assign)
                  and len(child.targets) == 1
                  and isinstance(child.targets[0], ast.Name)):
                inner = (child.targets[0].id,)
            elif isinstance(child, ast.Constant) and child.value == KEY:
                where = ".".join(scope)
                if (module, where) not in ALLOWED:
                    out.append((where, child.lineno))
            visit(child, inner)

    visit(ast.parse(source), ())
    return out


_UPDATE = """
_DEFAULTS = {"picard.adaptive": True}

def _ls_update(problem, cfg):
    return cfg["picard.adaptive"]

def reconstruct(config):
    cfg = config.resolve()
    adaptive = cfg.get("picard.adaptive")
"""


def test_the_rule_sees_reads_by_scope_and_module():
    assert _violations(_UPDATE, "reconstruction") == [("reconstruct", 9)]
    assert _violations(_UPDATE, "cli") == [
        ("_DEFAULTS", 2), ("_ls_update", 5), ("reconstruct", 9)]
    assert _violations('def f(cfg):\n    """reads `picard.adaptive`"""\n',
                       "reconstruction") == []
    assert _violations('PRESETS = {"a": dict(picard={"picard.adaptive": 0})}',
                       "presets") == []
    assert _violations('KEYS = ("picard.adaptive",)', "presets") == [
        ("KEYS", 1)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_only_the_update_reads_the_adaptive_key(path):
    assert _violations(path.read_text(), path.stem) == []
