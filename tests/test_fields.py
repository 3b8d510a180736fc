import numpy as np
import pytest
import scipy.sparse as sp

from matmi.fields import (CellField, NodalField, assemble_p1, cell_to_nodal,
                          interpolate_nodal, l2_norm_cell, l2_norm_nodal,
                          level_set_centroid, mass_matrix, scatter_p1)
from matmi.mesh import Mesh, build_unit_cube, build_unit_square


def test_nodal_field_shape_checked():
    mesh = build_unit_square(3)
    with pytest.raises(ValueError):
        NodalField(mesh, np.zeros(5))


def test_mass_matrix_integrates_one():
    mesh = build_unit_square(5)
    M = mass_matrix(mesh)
    ones = np.ones(mesh.num_vertices)
    assert ones @ (M @ ones) == pytest.approx(1.0, abs=1e-12)


def _local_matrices(mesh, kind):
    """(nloc, nloc, nc) local matrices, cell-last."""
    nloc = mesh.dim + 1
    vol = mesh.cell_volumes[:, None, None]
    if kind == "mass":
        local = vol * (np.ones((nloc, nloc)) + np.eye(nloc)) / (nloc * (nloc + 1))
    elif kind == "stiffness":
        g = mesh.cell_grads
        local = vol * g @ g.transpose(0, 2, 1)
    else:
        local = np.random.default_rng(5).standard_normal((mesh.num_cells,
                                                          nloc, nloc))
    return np.ascontiguousarray(local.transpose(1, 2, 0))


@pytest.mark.parametrize("kind", ["mass", "stiffness", "random"])
@pytest.mark.parametrize("builder, n, shuffle",
                         [(build_unit_square, 6, False),
                          (build_unit_square, 6, True),
                          (build_unit_cube, 3, False),
                          (build_unit_cube, 3, True)])
def test_assemble_p1_matches_coo_conversion(builder, n, shuffle, kind):
    # the fixed pattern gives the COO-to-CSR result; only the order in
    # which duplicate entries are summed differs
    mesh = builder(n)
    if shuffle:
        perm = np.random.default_rng(11).permutation(mesh.num_cells)
        mesh = Mesh(mesh.dim, n, mesh.vertices, mesh.cells[perm])
    local = _local_matrices(mesh, kind)
    nloc, nv = mesh.dim + 1, mesh.num_vertices
    shape = (nloc, nloc, mesh.num_cells)
    rows = np.broadcast_to(mesh.cells.T[:, None, :], shape).ravel()
    cols = np.broadcast_to(mesh.cells.T[None, :, :], shape).ravel()
    ref = sp.coo_matrix((local.ravel(), (rows, cols)), shape=(nv, nv)).tocsr()
    A = assemble_p1(mesh, local)
    assert A.shape == (nv, nv)
    assert np.array_equal(A.indptr, ref.indptr)
    assert np.array_equal(A.indices, ref.indices)
    assert np.abs(A.data - ref.data).max() <= 1e-14 * np.abs(ref.data).max()
    assert mesh.p1_pattern is mesh.p1_pattern


def test_l2_norm_of_linear_function():
    # ||x||_{L2([0,1]^2)} = 1/sqrt(3), exactly integrated by P1 mass
    mesh = build_unit_square(6)
    vals = mesh.vertices[:, 0]
    assert l2_norm_nodal(mesh, vals) == pytest.approx(1 / np.sqrt(3.0),
                                                      abs=1e-12)


def test_l2_norm_cell_scalar_and_vector():
    mesh = build_unit_square(4)
    assert l2_norm_cell(mesh, np.ones(mesh.num_cells)) == pytest.approx(1.0)
    vecs = np.tile([3.0, 4.0, 0.0], (mesh.num_cells, 1))
    assert l2_norm_cell(mesh, vecs) == pytest.approx(5.0)


def test_interpolate_and_cell_means():
    mesh = build_unit_square(4)
    f = interpolate_nodal(mesh, lambda p: p[:, 0] + 2 * p[:, 1])
    want = mesh.cell_centroids[:, 0] + 2 * mesh.cell_centroids[:, 1]
    assert np.allclose(f.cell_means(), want, atol=1e-12)


def test_interpolate_rejects_a_result_of_the_wrong_shape():
    # the callable gets the (nv, dim) vertex array; a pointwise one
    # returns another shape, and the callable's own errors propagate
    mesh = build_unit_square(3)
    with pytest.raises(ValueError, match="expected 16 nodal values"):
        interpolate_nodal(mesh, lambda p: 1 + p[0])

    def broken(p):
        raise RuntimeError("bug in a vectorised callable")

    with pytest.raises(RuntimeError, match="vectorised"):
        interpolate_nodal(mesh, broken)


def test_cell_gradients_of_interpolant():
    mesh = build_unit_square(5)
    f = interpolate_nodal(mesh, lambda p: 4 * p[:, 0] - p[:, 1])
    g = f.cell_gradients()
    assert np.allclose(g, [4.0, -1.0], atol=1e-12)


def test_round_trip_constant_field():
    mesh = build_unit_cube(2)
    c = CellField(mesh, np.full(mesh.num_cells, 3.5))
    nodal = cell_to_nodal(c)
    assert np.allclose(nodal, 3.5, atol=1e-12)
    back = NodalField(mesh, nodal).cell_means()
    assert np.allclose(back, 3.5, atol=1e-12)


def _scatter_loop(mesh, local):
    """np.add.at of (nloc, nc) local rows, slot by slot."""
    out = np.zeros(mesh.num_vertices)
    np.add.at(out, mesh.cells.T.ravel(), local.ravel())
    return out


@pytest.mark.parametrize("builder, n", [(build_unit_square, 7),
                                        (build_unit_cube, 3)])
def test_scatter_p1_and_cell_to_nodal_match_add_at(builder, n):
    # one bincount adds the same values in the same order as np.add.at
    mesh = builder(n)
    rng = np.random.default_rng(2)
    local = rng.standard_normal(mesh.cells.T.shape)
    assert np.array_equal(scatter_p1(mesh, local), _scatter_loop(mesh, local))
    vals = rng.standard_normal((mesh.num_cells, 2))
    w = np.repeat(mesh.cell_volumes[None, :], mesh.dim + 1, axis=0)
    denom = _scatter_loop(mesh, w)
    want = np.column_stack([_scatter_loop(mesh, vals[None, :, k] * w)
                            for k in range(2)]) / denom[:, None]
    assert np.array_equal(cell_to_nodal(CellField(mesh, vals)), want)
    assert np.array_equal(cell_to_nodal(CellField(mesh, vals[:, 0])),
                          want[:, 0])


def test_level_set_centroid_of_centered_disc():
    mesh = build_unit_square(32)
    f = interpolate_nodal(
        mesh, lambda p: np.where((p[:, 0] - 0.5) ** 2
                                 + (p[:, 1] - 0.5) ** 2 <= 0.1, 2.0, 1.0))
    c = level_set_centroid(f, 1.5)
    assert np.allclose(c, [0.5, 0.5], atol=0.02)


def test_level_set_centroid_empty_region_is_nan():
    mesh = build_unit_square(4)
    f = interpolate_nodal(mesh, lambda p: np.ones(p.shape[0]))
    assert np.isnan(level_set_centroid(f, 5.0)).all()
