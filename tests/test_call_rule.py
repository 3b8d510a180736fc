"""Who may call, read or name what: `CALLERS` is one allow-list of the
scopes, per module of matmi, allowed the guarded use of each name.

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
- One flux route: the in-plane flux A(x_c, gamma_c) (E x B0) of the
  data and of the least-squares update comes from functional.FluxSplit.
  So `transport` reads none of the family's evaluators (`poly_coeffs`,
  `eval_many`, `rational`) and takes no weak divergence of its own
  (`weak_p1_rows`, `weak_p1_from_flux`): its operator comes from the
  split's cached per-power rows.  `functional` evaluates no full matrix
  (`eval_many`), and the polynomial coefficients are read only by the
  split, by the in-plane conductivity of the Neumann problem
  (`neumann.conductivity_blocks`), by anisotropy's own evaluators and
  by the independent checks in `oracles`.
- One update path: the adaptive and plain outer updates differ only in
  the candidate set and the accept rule, so outside the configuration
  tables the key "picard.adaptive" is named by
  reconstruction._ls_update alone.

Each guarded name has one kind of use.  A call is seen bare (`cg(...)`)
or as an attribute (`spla.cg(...)`); an import that renames a called
name is a violation wherever the name is guarded, since its calls would
go unseen, but importing or naming a called function is not a call.  A
read is an attribute (`family.poly_coeffs(xs)`, or the bound method
taken without a call), a bare name (`weak_p1_rows(mesh, q)`) or an
import of the name.  A string is a constant equal to the name
(`cfg["picard.adaptive"]`).  A module-level assignment to one name is
the scope of what it holds (`_DEFAULTS = {...}`), as a def or class is
of its body."""

import ast

import pytest

from astrules import SRC, callee, renamed, scoped

# name -> (kind of use, {module: the scopes allowed that use}); "*" stands
# for every module the entry does not name, and a module the entry does
# not cover, or maps to None, may use the name anywhere
CALLERS = {
    "spd_factor": ("call", {"neumann": {"LaggedFactor.solve"}, "*": set()}),
    "pcg": ("call", {"neumann": {"LaggedFactor.solve"},
                     "functional": {"_mass_solve"}, "*": set()}),
    "cholesky_banded": ("call", {"neumann": {"spd_factor"}, "*": set()}),
    "cho_solve_banded": ("call", {"neumann": {"_BandCholesky.solve"},
                                  "*": set()}),
    "cg": ("call", {"*": set()}),
    "LinearOperator": ("call", {"*": set()}),
    "splu": ("call", {"*": set()}),
    "solve_field": ("call", {"stability": {"_solved_field"}, "cli": set()}),
    "synthesize": ("call", {"stability": set(), "cli": set()}),
    "solve_mean_zero": ("call", {"cli": set()}),
    "assemble": ("call", {"cli": set()}),
    "field_data": ("call", {"cli": set()}),
    "LaggedFactor": ("call", {"cli": set()}),
    "poly_coeffs": ("read", {
        "functional": {"FluxSplit.__init__"},
        "neumann": {"conductivity_blocks"},
        "anisotropy": {"AnisotropyFamily.eval_many",
                       "AnisotropyFamily.deriv_t_many"},
        "oracles": None, "*": set()}),
    "eval_many": ("read", {"transport": set(), "functional": set()}),
    "rational": ("read", {"transport": set()}),
    "weak_p1_rows": ("read", {"transport": set()}),
    "weak_p1_from_flux": ("read", {"transport": set()}),
    "picard.adaptive": ("string", {
        "reconstruction": {"_ls_update", "_DEFAULTS"},
        "presets": {"PRESETS"}, "*": set()}),
}


def _allowed(name, module):
    """The scopes of `module` allowed the guarded use of `name`; None if
    free."""
    scopes = CALLERS.get(name, ("", {}))[1]
    return scopes.get(module, scopes.get("*"))


def _uses(node):
    """(name, kind of use) of each name `node` uses."""
    if isinstance(node, ast.Call):
        return [(callee(node), "call")]
    if isinstance(node, ast.Attribute):
        return [(node.attr, "read")]
    if isinstance(node, ast.Name):
        return [(node.id, "read")]
    if isinstance(node, ast.Constant):
        return [(node.value, "string")]
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return ([(a.name.rsplit(".", 1)[-1], "read") for a in node.names]
                + [(name, "call") for name in renamed(node)])
    return []


def _violations(source, module):
    """(name, enclosing scope, line) of each guarded use of a name made
    outside the scopes allowed it."""
    out = []
    for node, scope in scoped(source):
        for name, kind in _uses(node):
            allowed = _allowed(name, module)
            if (CALLERS.get(name, ("",))[0] == kind and allowed is not None
                    and scope not in allowed):
                out.append((name, scope, node.lineno))
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
        ("cg", "x", 1)]
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
                       "stability") == [("synthesize", "x", 1)]
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
        ("field_data", "x", 1), ("solve_mean_zero", "y", 2),
        ("assemble", "y", 2)]
    assert _violations("from .neumann import solve_field as solve",
                       "cli") == [("solve_field", "", 1)]
    # importing or naming a guarded function is not a call
    assert _violations("from .neumann import SolverError, etilde\n"
                       "from .functional import synthesize\n"
                       "handler = synthesize", "cli") == []


_SPLIT = """
class FluxSplit:
    def __init__(self, mesh, family, E):
        P = family.poly_coeffs(mesh.centroid_points)

    def __call__(self, gamma_c):
        return self.family.rational(self.mesh.centroid_points, gamma_c)
"""


def test_the_rule_sees_flux_reads_by_scope_and_module():
    assert _violations(_SPLIT, "functional") == []
    assert _violations(_SPLIT, "transport") == [
        ("poly_coeffs", "FluxSplit.__init__", 4),
        ("rational", "FluxSplit.__call__", 7)]
    assert _violations(_SPLIT, "oracles") == []
    assert _violations("def flux_field(mesh, family, t):\n"
                       "    return family.eval_many(mesh.x, t)",
                       "functional") == [("eval_many", "flux_field", 2)]
    assert _violations("def assemble(mesh, family, t):\n"
                       "    return family.eval_many(mesh.x, t)",
                       "neumann") == []
    assert _violations("def f(family, xs):\n"
                       "    coeffs = family.poly_coeffs\n"
                       "    return coeffs(xs)", "neumann") == [
        ("poly_coeffs", "f", 2)]
    assert _violations("class AnisotropyFamily:\n"
                       "    def rational(self, xs, ts):\n"
                       "        return self.poly_coeffs(xs)",
                       "anisotropy") == [
        ("poly_coeffs", "AnisotropyFamily.rational", 3)]
    assert _violations("x = fam.rational_dt(xs, ts)", "transport") == []
    assert _violations("from .functional import FluxSplit, weak_p1_rows\n"
                       "def _flux_operator(mesh, g):\n"
                       "    return weak_p1_rows(mesh, g)", "transport") == [
        ("weak_p1_rows", "", 1), ("weak_p1_rows", "_flux_operator", 3)]
    assert _violations("def f(mesh, h):\n"
                       "    return functional.weak_p1_from_flux(mesh, h)",
                       "transport") == [("weak_p1_from_flux", "f", 2)]
    assert _violations("def weak_divergence(self, t):\n"
                       "    return weak_p1_rows(self.mesh, t)",
                       "functional") == []


_UPDATE = """
_DEFAULTS = {"picard.adaptive": True}

def _ls_update(problem, cfg):
    return cfg["picard.adaptive"]

def reconstruct(config):
    cfg = config.resolve()
    adaptive = cfg.get("picard.adaptive")
"""


def test_the_rule_sees_the_adaptive_key_by_scope_and_module():
    key = "picard.adaptive"
    assert _violations(_UPDATE, "reconstruction") == [(key, "reconstruct", 9)]
    assert _violations(_UPDATE, "cli") == [
        (key, "_DEFAULTS", 2), (key, "_ls_update", 5),
        (key, "reconstruct", 9)]
    assert _violations('def f(cfg):\n    """reads `picard.adaptive`"""\n',
                       "reconstruction") == []
    assert _violations('PRESETS = {"a": dict(picard={"picard.adaptive": 0})}',
                       "presets") == []
    assert _violations('KEYS = ("picard.adaptive",)', "presets") == [
        (key, "KEYS", 1)]


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


def violations_of(kind, path):
    """The guarded uses of `kind` in the matmi module at `path` made
    outside the scopes allowed them."""
    return [v for v in _violations(path.read_text(), path.stem)
            if CALLERS[v[0]][0] == kind]


# every matmi module; the read and string rows are checked over it in
# test_flux_rule.py and test_update_rule.py
MODULES = pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                                  ids=lambda p: p.name)


@MODULES
def test_calls_stay_in_their_allowed_scopes(path):
    assert violations_of("call", path) == []
