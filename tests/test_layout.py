"""One layout for the per-cell arrays: the mesh stores each of them once,
cell-last (the cell index on the last, contiguous axis), and its
cell-first names are read-only transposed views of that store.  The
public shapes stay cell-first, and the cell-last kernels depend on the
cells' order only through rounding."""

import numpy as np
import pytest

from matmi import transport as tr
from matmi.anisotropy import builtin
from matmi.fields import CellField, NodalField, interpolate_nodal
from matmi.functional import field_data, flux_field
from matmi.mesh import Mesh, build_unit_cube, build_unit_square
from matmi.neumann import assemble, electric_field, solve_field

_BUILDERS = [(build_unit_square, 5), (build_unit_cube, 3)]


def _cell_first_grads(mesh):
    """The P1 basis gradients (nc, nloc, dim), computed cell-first."""
    x = mesh.vertices[mesh.cells]
    g = np.transpose(np.linalg.inv(x[:, 1:] - x[:, :1]), (0, 2, 1))
    return np.concatenate([-g.sum(axis=1, keepdims=True), g], axis=1)


@pytest.mark.parametrize("builder, n", _BUILDERS)
def test_cell_arrays_are_stored_once_cell_last(builder, n):
    mesh = builder(n)
    nc, nloc, dim = mesh.num_cells, mesh.dim + 1, mesh.dim
    for store, view, shape in (
            (mesh.local_vertices, mesh.cells, (nc, nloc)),
            (mesh.local_grads, mesh.cell_grads, (nc, nloc, dim)),
            (mesh.centroid_points.T, mesh.cell_centroids, (nc, dim))):
        assert store.flags.c_contiguous and store.shape[-1] == nc
        assert view.shape == shape and np.shares_memory(view, store)
        assert not store.flags.writeable and not view.flags.writeable
    assert np.shares_memory(mesh.centroid_points, mesh.cell_centroids)
    assert np.array_equal(mesh.cells, mesh.local_vertices.T)
    assert np.array_equal(mesh.cell_grads, _cell_first_grads(mesh))
    assert not mesh.centroid_points[:, dim:].any()


@pytest.mark.parametrize("builder, n", _BUILDERS)
def test_public_shapes_stay_cell_first(builder, n):
    mesh = builder(n)
    nc, dim = mesh.num_cells, mesh.dim
    fam = builtin("D4")
    gamma = interpolate_nodal(mesh, lambda p: 1.0 + 0.3 * p[:, 0])
    t = gamma.cell_means()
    assert fam.eval_many(mesh.centroid_points, t).shape == (nc, 3, 3)
    assert fam.deriv_t_many(mesh.centroid_points, t).shape == (nc, 3, 3)
    assert mesh.cell_grads.shape == (nc, dim + 1, dim)
    assert gamma.cell_gradients().shape == (nc, dim)
    _, E = solve_field(mesh, fam, gamma)
    assert isinstance(E, CellField) and E.values.shape == (nc, 3)
    assert flux_field(mesh, fam, t, E).shape == (nc, dim)


@pytest.mark.parametrize("builder, n", [(build_unit_square, 6),
                                        (build_unit_cube, 3)])
@pytest.mark.parametrize("name", ["D4", "D6"])
def test_shuffled_cells_give_the_same_kernels(builder, n, name):
    # the cell-last slot order holds beyond the builders' numbering: on
    # the same cells in another order, the per-cell results are permuted
    # with them and the vertex-indexed ones agree to rounding
    ref = builder(n)
    perm = np.random.default_rng(5).permutation(ref.num_cells)
    mesh = Mesh(ref.dim, n, ref.vertices, ref.cells[perm])
    fam = builtin(name)
    lo, hi = fam.t_range

    def gfun(p):
        return lo + (hi - lo) * (0.3 + 0.4 * p[:, 0] * p[:, 1])
    g_ref, g_mesh = interpolate_nodal(ref, gfun), interpolate_nodal(mesh, gfun)

    def close(a, b, rtol=1e-13):
        return np.abs(a - b).max() <= rtol * np.abs(b).max()

    s_ref, s_mesh = assemble(ref, fam, g_ref), assemble(mesh, fam, g_mesh)
    assert np.array_equal(s_mesh.matrix.indices, s_ref.matrix.indices)
    assert close(s_mesh.matrix.data, s_ref.matrix.data)
    assert close(s_mesh.rhs, s_ref.rhs)

    u, E_ref = solve_field(ref, fam, g_ref)
    E = electric_field(mesh, NodalField(mesh, u.values))
    assert np.array_equal(E.values, E_ref.values[perm])

    d_ref, d_mesh = (field_data(ref, fam, g_ref, E_ref),
                     field_data(mesh, fam, g_mesh, E))
    assert close(d_mesh.p1_weak, d_ref.p1_weak)
    assert close(d_mesh.nodal_projection.values,
                 d_ref.nodal_projection.values, rtol=1e-10)

    t = np.clip(g_ref.cell_means(), lo, hi)
    L_ref, c_ref = tr._flux_operator(tr.FluxFit(ref, fam, E_ref, None, g_ref),
                                     t)
    L, c = tr._flux_operator(tr.FluxFit(mesh, fam, E, None, g_mesh), t[perm])
    assert np.array_equal(L.indices, L_ref.indices)
    assert close(L.data, L_ref.data)
    assert close(c, c_ref)
