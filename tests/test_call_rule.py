"""Who may call what: `CALLERS` is one allow-list of the scopes, per
module of matmi, that may call each guarded name.

- One solve path: only neumann.LaggedFactor.solve factors an SPD system
  (`spd_factor`) and runs CG with that factor; the other CG is the
  factor-free Jacobi mass solve, functional._mass_solve.  Both run the
  package's one CG loop, `neumann.pcg`: scipy's `cg` and the
  `LinearOperator` wrappers it needs are called nowhere.  Only
  spd_factor calls LAPACK's banded Cholesky and only its factor object
  solves with it; nothing calls scipy's sparse LU.
- One forward path in the sweeps: inside matmi.stability only the memo
  of forward solves, `_solved_field`, calls neumann.solve_field, so no
  sweep solves a parameter the memo already holds; and nothing there
  calls functional.synthesize, which would solve past the memo.
- The command line drives no solver: matmi.cli reads what reconstruct
  and the sweeps computed and calls none of the forward-solve entry
  points (the Neumann solve and its assembly, the data map, or a held
  factor).

A call is seen bare (`cg(...)`) or as an attribute (`spla.cg(...)`); an
import that renames a guarded name is a violation wherever the name is
guarded, since its calls would go unseen.  Importing or naming a guarded
function is not a call."""

import ast
import pathlib

import pytest

from astrules import callee, renamed, scoped

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "matmi"

# callee -> {module: the scopes allowed to call it}; "*" stands for every
# module the entry does not name, and a module the entry does not cover
# may call the callee anywhere
CALLERS = {
    "spd_factor": {"neumann": {"LaggedFactor.solve"}, "*": set()},
    "pcg": {"neumann": {"LaggedFactor.solve"},
            "functional": {"_mass_solve"}, "*": set()},
    "cholesky_banded": {"neumann": {"spd_factor"}, "*": set()},
    "cho_solve_banded": {"neumann": {"_BandCholesky.solve"}, "*": set()},
    "cg": {"*": set()},
    "LinearOperator": {"*": set()},
    "splu": {"*": set()},
    "solve_field": {"stability": {"_solved_field"}, "cli": set()},
    "synthesize": {"stability": set(), "cli": set()},
    "solve_mean_zero": {"cli": set()},
    "assemble": {"cli": set()},
    "field_data": {"cli": set()},
    "LaggedFactor": {"cli": set()},
}


def _allowed(name, module):
    """The scopes of `module` allowed to call `name`; None if free."""
    entry = CALLERS.get(name, {})
    return entry.get(module, entry.get("*"))


def _violations(source, module):
    """(callee, enclosing scope, line) of each guarded call made outside
    its allowed scopes, and of each import renaming a guarded name."""
    out = []
    for node, scope in scoped(source):
        if isinstance(node, ast.Call):
            name = callee(node)
            allowed = _allowed(name, module)
            if allowed is not None and scope not in allowed:
                out.append((name, scope, node.lineno))
        out.extend((name, scope, node.lineno) for name in renamed(node)
                   if _allowed(name, module) is not None)
    return out


_LAGGED = """
class LaggedFactor:
    def solve(self, A, rhs):
        self.lu = spd_factor(A)
        return pcg(A, rhs, None, 1e-10, 20, self.lu.solve)
"""


def test_the_rule_sees_solver_calls_by_scope_and_module():
    assert _violations(_LAGGED, "neumann") == []
    assert _violations(_LAGGED, "transport") == [
        ("spd_factor", "LaggedFactor.solve", 4),
        ("pcg", "LaggedFactor.solve", 5)]
    assert _violations("def _mass_solve(M, r):\n"
                       "    return pcg(M, r, None, 1e-13, 200, jacobi)",
                       "functional") == []
    assert _violations("class LaggedFactor:\n"
                       "    def solve(self, A, b):\n"
                       "        M = spla.LinearOperator(A.shape, self.f)\n"
                       "        return spla.cg(A, b, M=M)", "neumann") == [
        ("LinearOperator", "LaggedFactor.solve", 3),
        ("cg", "LaggedFactor.solve", 4)]
    assert _violations("def _mass_solve(M, r):\n    return cg(M, r)",
                       "functional") == [("cg", "_mass_solve", 2)]
    assert _violations("def step(A, r):\n    lu = spd_factor(A)\n"
                       "    return lu.solve(r)", "transport") == [
        ("spd_factor", "step", 2)]
    assert _violations("x = scipy.sparse.linalg.cg(A, b)", "fields") == [
        ("cg", "", 1)]
    assert _violations("def f(A):\n    return g(lambda: spla.splu(A))",
                       "neumann") == [("splu", "f", 2)]
    assert _violations("def spd_factor(A):\n"
                       "    return sla.cholesky_banded(band(A))\n"
                       "class _BandCholesky:\n"
                       "    def solve(self, b):\n"
                       "        return sla.cho_solve_banded(self.c, b)",
                       "neumann") == []
    assert _violations("def step(c, b):\n"
                       "    return cho_solve_banded(c, b)", "transport") == [
        ("cho_solve_banded", "step", 2)]
    assert _violations("from scipy.linalg import cholesky_banded as chol",
                       "neumann") == [("cholesky_banded", "", 1)]
    assert _violations("from scipy.sparse.linalg import cg as krylov",
                       "stability") == [("cg", "", 1)]
    assert _violations("import scipy.sparse.linalg as spla\n"
                       "from .neumann import spd_factor", "transport") == []


def test_the_rule_sees_sweep_calls_by_scope():
    helper = ("def _solved_field(mesh, family, gamma, factor):\n"
              "    return solve_field(mesh, family, gamma, factor=factor)\n")
    assert _violations(helper, "stability") == []
    assert _violations("def sweep(mesh, family, g):\n"
                       "    _, E = solve_field(mesh, family, g)\n",
                       "stability") == [("solve_field", "sweep", 2)]
    # nested scopes and attribute calls are seen
    assert _violations("def sweep(m, f, gs):\n"
                       "    def one(g):\n"
                       "        return neumann.solve_field(m, f, g)\n"
                       "    return [one(g) for g in gs]\n",
                       "stability") == [("solve_field", "sweep.one", 3)]
    assert _violations("def _solved_field(m, f, g):\n"
                       "    return synthesize(f, g, m).field\n",
                       "stability") == [("synthesize", "_solved_field", 2)]
    assert _violations("x = functional.synthesize(f, g, m)",
                       "stability") == [("synthesize", "", 1)]
    assert _violations("from .neumann import solve_field as solve",
                       "stability") == [("solve_field", "", 1)]
    assert _violations("from .neumann import LaggedFactor, solve_field\n"
                       "from .functional import field_data",
                       "stability") == []


def test_the_rule_sees_every_guarded_cli_call():
    assert _violations("def verify(mesh, family, it):\n"
                       "    u, _ = solve_field(mesh, family, it)\n",
                       "cli") == [("solve_field", "verify", 2)]
    # attribute calls, nested scopes and a held factor are seen
    assert _violations("def verify(m, f, its):\n"
                       "    factor = neumann.LaggedFactor()\n"
                       "    def one(g):\n"
                       "        return functional.synthesize(f, g, m)\n"
                       "    return [one(g) for g in its]\n", "cli") == [
        ("LaggedFactor", "verify", 2), ("synthesize", "verify.one", 4)]
    assert _violations("x = field_data(m, f, g, E)\n"
                       "y = solve_mean_zero(assemble(m, f, g))", "cli") == [
        ("field_data", "", 1), ("solve_mean_zero", "", 2),
        ("assemble", "", 2)]
    assert _violations("from .neumann import solve_field as solve",
                       "cli") == [("solve_field", "", 1)]
    # importing or naming a guarded function is not a call
    assert _violations("from .neumann import SolverError, etilde\n"
                       "from .functional import synthesize\n"
                       "handler = synthesize", "cli") == []


def test_the_cli_drives_no_solver():
    # the table itself still forbids every forward-solve entry point
    assert all(_allowed(name, "cli") == set() for name in (
        "solve_field", "solve_mean_zero", "assemble", "synthesize",
        "field_data", "LaggedFactor"))
    assert _violations((SRC / "cli.py").read_text(), "cli") == []


def test_only_the_memo_solves_in_the_sweeps():
    # the table itself still routes every sweep solve through the memo
    assert _allowed("solve_field", "stability") == {"_solved_field"}
    assert _allowed("synthesize", "stability") == set()
    assert _violations((SRC / "stability.py").read_text(), "stability") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_calls_stay_in_their_allowed_scopes(path):
    assert _violations(path.read_text(), path.stem) == []
