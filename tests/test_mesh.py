import numpy as np
import pytest

from matmi.mesh import build_unit_cube, build_unit_square


@pytest.mark.parametrize("n", [1, 2, 5])
def test_unit_square_counts(n):
    mesh = build_unit_square(n)
    assert mesh.dim == 2
    assert mesh.num_vertices == (n + 1) ** 2
    assert mesh.num_cells == 2 * n * n


@pytest.mark.parametrize("n", [1, 2, 3])
def test_unit_cube_counts(n):
    mesh = build_unit_cube(n)
    assert mesh.dim == 3
    assert mesh.num_vertices == (n + 1) ** 3
    assert mesh.num_cells == 6 * n ** 3


@pytest.mark.parametrize("builder,n", [(build_unit_square, 7),
                                       (build_unit_cube, 3)])
def test_volumes_partition_unit_domain(builder, n):
    mesh = builder(n)
    assert mesh.cell_volumes.min() > 0
    assert mesh.cell_volumes.sum() == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("builder,n", [(build_unit_square, 5),
                                       (build_unit_cube, 2)])
def test_boundary_normals_point_outward(builder, n):
    mesh = builder(n)
    for f in mesh.boundary_facets:
        centroid = mesh.vertices[f.vertices].mean(axis=0)
        # moving from the facet centroid along the normal must leave
        # the unit domain
        outside = centroid + 1e-6 * f.normal[:mesh.dim]
        assert (outside.min() < -1e-12) or (outside.max() > 1 + 1e-12)
        assert np.linalg.norm(f.normal) == pytest.approx(1.0, abs=1e-12)


def test_boundary_measure_totals():
    mesh = build_unit_square(6)
    total = sum(f.measure for f in mesh.boundary_facets)
    assert total == pytest.approx(4.0, abs=1e-12)
    mesh3 = build_unit_cube(2)
    total3 = sum(f.measure for f in mesh3.boundary_facets)
    assert total3 == pytest.approx(6.0, abs=1e-12)


def test_boundary_vertex_indices_match_coordinates():
    mesh = build_unit_square(4)
    bidx = mesh.boundary_vertex_indices()
    pts = mesh.vertices[bidx]
    on_edge = ((np.abs(pts) < 1e-14) | (np.abs(pts - 1) < 1e-14)).any(axis=1)
    assert on_edge.all()
    assert len(bidx) == 4 * 4


@pytest.mark.parametrize("builder, n", [(build_unit_square, 7),
                                        (build_unit_cube, 3)])
def test_boundary_vertex_indices_match_facet_loop(builder, n):
    mesh = builder(n)
    ref = set()
    for f in mesh.boundary_facets:
        ref.update(int(v) for v in f.vertices)
    want = np.array(sorted(ref), dtype=int)
    bidx = mesh.boundary_vertex_indices()
    assert np.array_equal(bidx, want) and bidx.dtype == want.dtype
    assert mesh.boundary_vertex_indices() is bidx
    with pytest.raises(ValueError):
        bidx[0] = 0


def test_gradients_reproduce_linear_functions():
    mesh = build_unit_square(3)
    # a P1 gradient of an affine function is exact on every cell
    vals = 2.0 * mesh.vertices[:, 0] - 3.0 * mesh.vertices[:, 1] + 1.0
    grads = np.einsum("cid,ci->cd", mesh.cell_grads, vals[mesh.cells])
    assert np.allclose(grads[:, 0], 2.0, atol=1e-12)
    assert np.allclose(grads[:, 1], -3.0, atol=1e-12)


def test_gradients_sum_to_zero():
    mesh = build_unit_cube(2)
    assert np.abs(mesh.cell_grads.sum(axis=1)).max() < 1e-12


def test_content_hash_is_stable_and_discriminating():
    a = build_unit_square(4)
    b = build_unit_square(4)
    c = build_unit_square(5)
    assert a.content_hash() == b.content_hash()
    assert a.content_hash() != c.content_hash()


@pytest.mark.parametrize("builder", [build_unit_square, build_unit_cube])
def test_invalid_resolution_rejected(builder):
    with pytest.raises(ValueError):
        builder(0)
