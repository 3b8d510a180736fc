"""One forward path in the sweeps: inside matmi.stability only the memo
of forward solves, `_solved_field`, calls neumann.solve_field, so no
sweep solves a parameter the memo already holds; and nothing there calls
functional.synthesize, which would solve past the memo."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "matmi"

# callee -> the functions of matmi.stability allowed to call it
ALLOWED = {
    "solve_field": {"_solved_field"},
    "synthesize": set(),
}


def _violations(source):
    """(callee, enclosing scope, line) of each call of a guarded name,
    bare (`solve_field(...)`) or as an attribute
    (`neumann.solve_field(...)`), made outside its allowed functions; an
    import that renames a guarded name is one too, since its calls would
    go unseen."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = scope + (child.name,)
            elif isinstance(child, ast.Call):
                f = child.func
                name = f.attr if isinstance(f, ast.Attribute) \
                    else getattr(f, "id", None)
                where = ".".join(scope)
                if name in ALLOWED and where not in ALLOWED[name]:
                    out.append((name, where, child.lineno))
            elif isinstance(child, (ast.Import, ast.ImportFrom)):
                out.extend((a.name.rsplit(".", 1)[-1], ".".join(scope),
                            child.lineno) for a in child.names
                           if a.name.rsplit(".", 1)[-1] in ALLOWED
                           and a.asname not in (None, a.name))
            visit(child, inner)

    visit(ast.parse(source), ())
    return out


def test_the_rule_sees_calls_by_scope():
    helper = ("def _solved_field(mesh, family, gamma, factor):\n"
              "    return solve_field(mesh, family, gamma, factor=factor)\n")
    assert _violations(helper) == []
    assert _violations("def sweep(mesh, family, g):\n"
                       "    _, E = solve_field(mesh, family, g)\n") == [
        ("solve_field", "sweep", 2)]
    # nested scopes and attribute calls are seen
    assert _violations("def sweep(m, f, gs):\n"
                       "    def one(g):\n"
                       "        return neumann.solve_field(m, f, g)\n"
                       "    return [one(g) for g in gs]\n") == [
        ("solve_field", "sweep.one", 3)]
    assert _violations("def _solved_field(m, f, g):\n"
                       "    return synthesize(f, g, m).field\n") == [
        ("synthesize", "_solved_field", 2)]
    assert _violations("x = functional.synthesize(f, g, m)") == [
        ("synthesize", "", 1)]
    assert _violations("from .neumann import solve_field as solve") == [
        ("solve_field", "", 1)]
    assert _violations("from .neumann import LaggedFactor, solve_field\n"
                       "from .functional import field_data") == []


def test_only_the_memo_solves_in_the_sweeps():
    assert _violations((SRC / "stability.py").read_text()) == []
