"""The command line drives no solver: matmi.cli reads what reconstruct
and the sweeps computed and calls none of the forward-solve entry points
(the Neumann solve and its assembly, the data map, or a held factor)."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "matmi"

GUARDED = {"solve_field", "solve_mean_zero", "assemble", "synthesize",
           "field_data", "LaggedFactor"}


def _violations(source):
    """(name, line) of each call of a guarded name, bare
    (`solve_field(...)`) or as an attribute (`neumann.solve_field(...)`);
    an import that renames a guarded name is one too, since its calls
    would go unseen."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) \
                else getattr(f, "id", None)
            if name in GUARDED:
                out.append((name, node.lineno))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.extend((a.name.rsplit(".", 1)[-1], node.lineno)
                       for a in node.names
                       if a.name.rsplit(".", 1)[-1] in GUARDED
                       and a.asname not in (None, a.name))
    return sorted(out, key=lambda v: v[1])


def test_the_rule_sees_every_guarded_call():
    assert _violations("def verify(mesh, family, it):\n"
                       "    u, _ = solve_field(mesh, family, it)\n") == [
        ("solve_field", 2)]
    # attribute calls, nested scopes and a held factor are seen
    assert _violations("def verify(m, f, its):\n"
                       "    factor = neumann.LaggedFactor()\n"
                       "    def one(g):\n"
                       "        return functional.synthesize(f, g, m)\n"
                       "    return [one(g) for g in its]\n") == [
        ("LaggedFactor", 2), ("synthesize", 4)]
    assert _violations("x = field_data(m, f, g, E)\n"
                       "y = solve_mean_zero(assemble(m, f, g))") == [
        ("field_data", 1), ("solve_mean_zero", 2), ("assemble", 2)]
    assert _violations("from .neumann import solve_field as solve") == [
        ("solve_field", 1)]
    # importing or naming a guarded function is not a call
    assert _violations("from .neumann import SolverError, etilde\n"
                       "from .functional import synthesize\n"
                       "handler = synthesize") == []


def test_the_cli_drives_no_solver():
    assert _violations((SRC / "cli.py").read_text()) == []
