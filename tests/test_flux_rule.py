"""One flux route: the in-plane flux A(x_c, gamma_c) (E x B0) of the data
and of the least-squares update comes from functional.FluxSplit.  So
`transport` reads none of the family's evaluators (`poly_coeffs`,
`eval_many`, `rational`) and takes no weak divergence of its own
(`weak_p1_rows`, `weak_p1_from_flux`): its operator comes from the
split's cached per-power rows.  `functional` evaluates no full matrix
(`eval_many`), and the polynomial coefficients are read only by the
split, by the in-plane conductivity of the Neumann problem
(`neumann.conductivity_blocks`), by anisotropy's own evaluators and by
the independent checks in `oracles`."""

import ast
import pathlib

import pytest

from astrules import scoped

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "matmi"

# attribute -> the (module, scope) pairs allowed to read it; a scope of
# None admits the whole module
ONLY = {
    "poly_coeffs": {("functional", "FluxSplit.__init__"),
                    ("neumann", "conductivity_blocks"),
                    ("anisotropy", "AnisotropyFamily.eval_many"),
                    ("anisotropy", "AnisotropyFamily.deriv_t_many"),
                    ("oracles", None)},
}
# attribute -> the modules that read it nowhere
NEVER = {
    "eval_many": {"transport", "functional"},
    "rational": {"transport"},
    "weak_p1_rows": {"transport"},
    "weak_p1_from_flux": {"transport"},
}


def _violations(source, module):
    """(name, enclosing scope, line) of each read of a guarded name --
    an attribute (`family.poly_coeffs(xs)`, or the bound method taken
    without a call), a bare name (`weak_p1_rows(mesh, q)`) or an import
    of it -- outside the places allowed to read it."""
    out = []
    for node, scope in scoped(source):
        names = []
        if isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name.rsplit(".", 1)[-1] for a in node.names]
        for name in names:
            if name in ONLY:
                bad = not ({(module, scope), (module, None)} & ONLY[name])
            else:
                bad = module in NEVER.get(name, ())
            if bad:
                out.append((name, scope, node.lineno))
    return out


_SPLIT = """
class FluxSplit:
    def __init__(self, mesh, family, E):
        P = family.poly_coeffs(mesh.centroid_points)

    def __call__(self, gamma_c):
        return self.family.rational(self.mesh.centroid_points, gamma_c)
"""


def test_the_rule_sees_reads_by_scope_and_module():
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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_the_flux_has_one_route(path):
    assert _violations(path.read_text(), path.stem) == []
