"""Two-operand contractions: in matmi, `np.einsum` takes at most two
operands.  numpy runs a three-operand einsum through its generic
product loop, several times slower than the two-operand kernels, and
the per-cell kernels of every forward solve can form the product of two
of the operands first (`neumann.assemble` contracts the gradients,
already scaled by the cell volumes, with the conductivity block once,
into `vgB`, and contracts that with the gradients and with Etilde).
The one exception is `fields.h1_matrix`, built once per mesh."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "matmi"

MAX_OPERANDS = 2
# (module, enclosing scope) allowed more operands
EXEMPT = {("fields", "h1_matrix")}


def _operands(call):
    """Number of operands of an einsum call: the inputs its subscripts
    string names; in the sublist form (`einsum(a, [0, 1], b, [1])`),
    one per operand-sublist pair; otherwise every positional argument
    after the first.  None when a starred argument hides the count."""
    args = call.args
    if any(isinstance(a, ast.Starred) for a in args):
        return None
    if args and isinstance(args[0], ast.Constant) \
            and isinstance(args[0].value, str):
        return args[0].value.split("->")[0].count(",") + 1
    if len(args) > 1 and isinstance(args[1], (ast.List, ast.Tuple)):
        return len(args) // 2
    return len(args) - 1


def _violations(source, module):
    """(enclosing scope, operand count or None, line) of each einsum
    call, bare (`einsum(...)`) or as an attribute (`np.einsum(...)`),
    with more than MAX_OPERANDS operands or an uncountable argument
    list outside EXEMPT; an import that renames einsum is one too, since
    its calls would go unseen."""
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
                if name == "einsum" and (module, where) not in EXEMPT:
                    count = _operands(child)
                    if count is None or count > MAX_OPERANDS:
                        out.append((where, count, child.lineno))
            elif isinstance(child, (ast.Import, ast.ImportFrom)):
                out.extend((".".join(scope), None, child.lineno)
                           for a in child.names
                           if a.name.rsplit(".", 1)[-1] == "einsum"
                           and a.asname not in (None, "einsum"))
            visit(child, inner)

    visit(ast.parse(source), ())
    return out


_ASSEMBLE = """
def assemble(mesh, q, vgB):
    b = np.einsum("iec,ec->ic", vgB, q)
    return -np.einsum("c,idc,dc->ic", mesh.cell_volumes, mesh.local_grads, q)
"""


def test_the_rule_counts_operands_by_scope_and_module():
    assert _violations(_ASSEMBLE, "neumann") == [("assemble", 3, 4)]
    assert _violations("def h1_matrix(mesh):\n"
                       "    return np.einsum('c,cid,cjd->cij', v, g, g)",
                       "fields") == []
    assert _violations("def h1_matrix(mesh):\n"
                       "    return np.einsum('c,cid,cjd->cij', v, g, g)",
                       "neumann") == [("h1_matrix", 3, 2)]
    assert _violations("def mass(mesh):\n"
                       "    return np.einsum('c,cid,cjd->cij', v, g, g)",
                       "fields") == [("mass", 3, 2)]
    assert _violations("x = einsum('i,i,i', a, b, c)", "oracles") == [
        ("", 3, 1)]
    # implicit output and the sublist form
    assert _violations("x = np.einsum('ij,jk', a, b)", "oracles") == []
    assert _violations("x = np.einsum(a, [0, 1], b, [1])", "oracles") == []
    assert _violations("x = np.einsum(a, [0], b, [0], c, [0], [])",
                       "oracles") == [("", 3, 1)]
    assert _violations("x = np.einsum(s, a, b)", "functional") == []
    assert _violations("def f(ops):\n    return np.einsum('i,i', *ops)",
                       "functional") == [("f", None, 2)]
    assert _violations("class FluxSplit:\n    def __init__(self, P, w):\n"
                       "        self.Pw = np.einsum('mijc,jc->mic', P, w)",
                       "functional") == []
    assert _violations("from numpy import einsum as contract",
                       "transport") == [("", None, 1)]
    assert _violations("from numpy import einsum", "transport") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_einsum_takes_at_most_two_operands(path):
    assert _violations(path.read_text(), path.stem) == []
