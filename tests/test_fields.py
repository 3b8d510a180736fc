import numpy as np
import pytest

from matmi.fields import (CellField, NodalField, cell_to_nodal,
                          interpolate_nodal, l2_norm_cell, l2_norm_nodal,
                          level_set_centroid, mass_matrix, nodal_to_cell)
from matmi.mesh import build_unit_cube, build_unit_square


def test_nodal_field_shape_checked():
    mesh = build_unit_square(3)
    with pytest.raises(ValueError):
        NodalField(mesh, np.zeros(5))


def test_mass_matrix_integrates_one():
    mesh = build_unit_square(5)
    M = mass_matrix(mesh)
    ones = np.ones(mesh.num_vertices)
    assert ones @ (M @ ones) == pytest.approx(1.0, abs=1e-12)


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


def test_interpolate_falls_back_to_pointwise_only_on_array_errors():
    mesh = build_unit_square(3)
    f = interpolate_nodal(mesh, lambda p: 1 + p[0])
    assert np.allclose(f.values, 1 + mesh.vertices[:, 0])

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
    back = nodal_to_cell(NodalField(mesh, nodal))
    assert np.allclose(back.values, 3.5, atol=1e-12)


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
