"""The per-cell kernels of every forward solve round exactly as the
expressions they replaced, which are kept here as references: the cell
means as `.mean(axis=1)` of the gathered vertex values, the flux split's
`Pw` as the contraction of the family's (possibly strided or zero-stride)
in-plane coefficient view, and the Neumann right-hand side as the
three-operand contraction with the cell volumes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matmi.anisotropy import BUILTIN_NAMES, builtin
from matmi.fields import NodalField, assemble_p1, interpolate_nodal, scatter_p1
from matmi.functional import FluxSplit, cross_b0
from matmi.mesh import build_unit_cube, build_unit_square
from matmi.neumann import (assemble, conductivity_blocks, etilde,
                           electric_field)


def _pw_reference(mesh, family, w):
    P = family.poly_coeffs(mesh.centroid_points)[:, :, :mesh.dim]
    return np.einsum("cmij,cj->mci", P, w)


def _assemble_reference(mesh, family, gamma):
    B = conductivity_blocks(mesh, family, gamma)
    g = mesh.cell_grads
    vg = g * mesh.cell_volumes[:, None, None]
    K = assemble_p1(mesh, vg @ B @ g.transpose(0, 2, 1))
    et = etilde(mesh.cell_centroids)[:, :mesh.dim]
    q = np.einsum("cde,ce->cd", B, et)
    b = scatter_p1(mesh, -np.einsum("c,cid,cd->ci", mesh.cell_volumes, g, q))
    return K, b


def _bitwise(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


_MESHES = {2: build_unit_square(24), 3: build_unit_cube(6)}

# bounded so that no sum of a cell's values overflows
_values = st.floats(-1e300, 1e300) | st.sampled_from(
    [0.0, -0.0, 1e-300, -1e-300, 5e-324])


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(dim=st.sampled_from([2, 3]), n=st.integers(1, 6), data=st.data())
def test_cell_means_round_as_the_mean_of_the_gathered_values(dim, n, data):
    mesh = (build_unit_square if dim == 2 else build_unit_cube)(n)
    vals = np.array(data.draw(st.lists(
        _values, min_size=mesh.num_vertices, max_size=mesh.num_vertices)))
    field = NodalField(mesh, vals)
    assert _bitwise(field.cell_means(), vals[mesh.cells].mean(axis=1))


@pytest.mark.parametrize("dim", [2, 3])
def test_cell_means_of_negative_zeros_are_positive_zeros(dim):
    # `.mean(axis=1)` adds to +0.0, so a cell of -0.0 values averages to
    # +0.0, not to the -0.0 that adding the values alone gives
    mesh = _MESHES[dim]
    vals = np.full(mesh.num_vertices, -0.0)
    assert _bitwise(NodalField(mesh, vals).cell_means(),
                    vals[mesh.cells].mean(axis=1))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_flux_split_and_assembly_match_the_reference(dim, name):
    mesh = _MESHES[dim]
    family = builtin(name)
    gamma = interpolate_nodal(mesh, lambda x: 1.0 + 0.4 * np.sin(
        3.0 * x[:, 0] + 2.0 * x[:, 1]) * x[:, -1])
    K, b = _assemble_reference(mesh, family, gamma)
    system = assemble(mesh, family, gamma)
    assert _bitwise(system.matrix.data, K.data)
    assert _bitwise(system.matrix.indices, K.indices)
    assert _bitwise(system.rhs, b)
    rng = np.random.default_rng(7)
    E = electric_field(mesh, NodalField(mesh,
                                        rng.standard_normal(mesh.num_vertices)))
    split = FluxSplit(mesh, family, E)
    assert _bitwise(split.Pw, _pw_reference(mesh, family, cross_b0(E.values)))
