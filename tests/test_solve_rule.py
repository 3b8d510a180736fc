"""One solve path: in matmi, only neumann.LaggedFactor.solve factors an
SPD system (`spd_factor`) and runs CG with that factor; the other CG is
the factor-free Jacobi mass solve, functional._mass_solve.  Only
spd_factor calls scipy's sparse LU."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "matmi"

# callee -> the (module, function) pairs allowed to call it
ALLOWED = {
    "spd_factor": {("neumann", "LaggedFactor.solve")},
    "cg": {("neumann", "LaggedFactor.solve"), ("functional", "_mass_solve")},
    "splu": {("neumann", "spd_factor")},
}


def _violations(source, module):
    """(callee, enclosing scope, line) of each call of a guarded name,
    bare (`cg(...)`) or as an attribute (`spla.cg(...)`), made outside
    its allowed functions; an import that renames a guarded name is one
    too, since its calls would go unseen."""
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
                if name in ALLOWED and (module, where) not in ALLOWED[name]:
                    out.append((name, where, child.lineno))
            elif isinstance(child, (ast.Import, ast.ImportFrom)):
                out.extend((a.name.rsplit(".", 1)[-1], ".".join(scope),
                            child.lineno) for a in child.names
                           if a.name.rsplit(".", 1)[-1] in ALLOWED
                           and a.asname not in (None, a.name))
            visit(child, inner)

    visit(ast.parse(source), ())
    return out


_LAGGED = """
class LaggedFactor:
    def solve(self, A, rhs):
        self.lu = spd_factor(A)
        return spla.cg(A, rhs, M=self.lu)
"""


def test_the_rule_sees_calls_by_scope_and_module():
    assert _violations(_LAGGED, "neumann") == []
    assert _violations(_LAGGED, "transport") == [
        ("spd_factor", "LaggedFactor.solve", 4),
        ("cg", "LaggedFactor.solve", 5)]
    assert _violations("def _mass_solve(M, r):\n    return cg(M, r)",
                       "functional") == []
    assert _violations("def step(A, r):\n    lu = spd_factor(A)\n"
                       "    return lu.solve(r)", "transport") == [
        ("spd_factor", "step", 2)]
    assert _violations("x = scipy.sparse.linalg.cg(A, b)", "fields") == [
        ("cg", "", 1)]
    assert _violations("def f(A):\n    return g(lambda: spla.splu(A))",
                       "neumann") == [("splu", "f", 2)]
    assert _violations("from scipy.sparse.linalg import cg as krylov",
                       "stability") == [("cg", "", 1)]
    assert _violations("import scipy.sparse.linalg as spla\n"
                       "from .neumann import spd_factor", "transport") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_only_the_lagged_factor_factors_and_runs_cg(path):
    assert _violations(path.read_text(), path.stem) == []
