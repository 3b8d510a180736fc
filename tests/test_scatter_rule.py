"""No matmi module scatters per-cell values into vertices with
np.add.at / np.subtract.at indexed by mesh.cells: vectors go through
fields.scatter_p1 and matrices through fields.assemble_p1."""

import ast

import pytest

from astrules import SRC


def _reads_cells(node, names):
    return any((isinstance(n, ast.Attribute) and n.attr == "cells")
               or (isinstance(n, ast.Name) and n.id in names)
               for n in ast.walk(node))


def _cell_indexed_scatters(source):
    """Line numbers of add.at / subtract.at calls whose index argument
    reads a `cells` attribute, directly or through a name assigned from
    one."""
    tree = ast.parse(source)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and _reads_cells(node.value, set()):
            names.update(t.id for t in node.targets
                         if isinstance(t, ast.Name))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "at"
            and isinstance(node.func.value, ast.Attribute)
            and node.func.value.attr in ("add", "subtract")
            and len(node.args) >= 2
            and _reads_cells(node.args[1], names)]


def test_the_rule_sees_direct_and_aliased_cell_indices():
    assert _cell_indexed_scatters(
        "np.add.at(r, mesh.cells.ravel(), x)") == [1]
    assert _cell_indexed_scatters(
        "np.subtract.at(r, mesh.cells[:, i], x)") == [1]
    assert _cell_indexed_scatters(
        "idx = mesh.cells.ravel()\nnp.add.at(d, idx, w)") == [2]
    assert _cell_indexed_scatters(
        "np.add.at(r, mesh.face_left, qn)\n"
        "np.add.at(r, mesh.facet_cells, qn)") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_cell_indexed_ufunc_scatter(path):
    assert _cell_indexed_scatters(path.read_text()) == []
