import hashlib

import numpy as np
import pytest

from matmi.fields import CellField, assemble_p1, mass_matrix
from matmi.mesh import (Mesh, build_unit_cube, build_unit_square,
                        classify_inflow)


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
    centroid = mesh.vertices[mesh.facet_vertices].mean(axis=1)
    # moving from the facet centroid along the normal must leave the unit
    # domain
    outside = centroid + 1e-6 * mesh.facet_normals
    assert ((outside.min(axis=1) < -1e-12)
            | (outside.max(axis=1) > 1 + 1e-12)).all()
    assert np.linalg.norm(mesh.facet_normals, axis=1) == pytest.approx(
        1.0, abs=1e-12)


def test_boundary_measure_totals():
    mesh = build_unit_square(6)
    total = mesh.facet_measures.sum()
    assert total == pytest.approx(4.0, abs=1e-12)
    mesh3 = build_unit_cube(2)
    total3 = mesh3.facet_measures.sum()
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
    for verts in mesh.facet_vertices:
        ref.update(int(v) for v in verts)
    want = np.array(sorted(ref), dtype=int)
    bidx = mesh.boundary_vertex_indices()
    assert np.array_equal(bidx, want) and bidx.dtype == want.dtype
    assert mesh.boundary_vertex_indices() is bidx
    with pytest.raises(ValueError):
        bidx[0] = 0


def _facet_vertices_from_slots(mesh):
    return np.sort(mesh.cells[mesh.facet_cells[:, None], mesh.facet_local],
                   axis=1)


@pytest.mark.parametrize("builder, n", [(build_unit_square, 7),
                                        (build_unit_cube, 3)])
def test_facet_local_slots_hold_the_facet_vertices(builder, n):
    mesh = builder(n)
    loc = mesh.facet_local
    assert loc.shape == mesh.facet_vertices.shape
    assert (np.diff(loc, axis=1) > 0).all()
    assert np.array_equal(_facet_vertices_from_slots(mesh),
                          mesh.facet_vertices)
    with pytest.raises(ValueError):
        loc[0, 0] = 0


# SHA-256 of the mesh arrays as built by the per-facet loop that the
# vectorized build replaced: int arrays as int64, float arrays as float64,
# C order (numpy 2.4 on x86_64).
_GOLDEN = {
    (build_unit_square, 1): {
        "cells":
            "2f0423ed92951d2a036addbcfa5cbadb84c31d0bbc8385ee700d3947be498348",
        "facet_cells":
            "af8a44699e0fe2cbe8fcb03e513ef95500dcd533abce01646342d7d2d5dbc5d4",
        "facet_vertices":
            "0b59f53d0cb749742cb7813ec56d75a7128a21fc24e8ab16a258593266401dee",
        "facet_normals":
            "5d550a6dd49c734be72d97484782a74a6b56b44f72c2df4c4c64248a01874346",
        "facet_measures":
            "c914e8188e43fff1c96e25283e15b252af0d9f39b469f2d1518915802c756d18",
        "facet_midpoints":
            "1368bce6a0ab9e7eb48bad48b3fa8f2961d28c424097cddd27c007cb58eb2c40",
        "face_left":
            "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
        "face_right":
            "7c9fa136d4413fa6173637e883b6998d32e1d675f88cddff9dcbcf331820f4b8",
        "face_normals":
            "38f9126defdfe1b0f4b5f6ff7ea12fba670962892cb5ce4215e465dc54909072",
        "face_measures":
            "7e7ecd23c181573c53ff18b325494a2814570c6c82d4be80001267e19d4924a4",
        "content_hash":
            "3b6cb6c81f0597c197ede7388a01bd5a82e95f7553b0fa0a8b97bb9a9a38dcf1",
    },
    (build_unit_square, 7): {
        "cells":
            "a3bde99f43f78f63c571b53aa84e09b76ec9caa52d4ebfa9d22787ea6959cb80",
        "facet_cells":
            "3f09703af889892d606dfe5cf54098e24446846208328996353cc317bf534dc7",
        "facet_vertices":
            "765cd669d28d6e9fce83f108918dad2ad7a11009c871ad21214a4d58d2b1d0ad",
        "facet_normals":
            "69ed34648be783965b292851ee8e03ad61396d087556f8a136f70850c0464f62",
        "facet_measures":
            "2a835bfe6bb2b97e343ebd89d017b9655ba41bdbc69a911c2341e519d8520585",
        "facet_midpoints":
            "fee0ac1a10efd8291c791526616b0a1a4e2a8ce531dc8de972329b1577990c35",
        "face_left":
            "099f84a34b5d201760a2c819d9f8e734d71fc326c88f6b5c12975065b6361d59",
        "face_right":
            "e3ca0699f897a7a69ed2b3fbe4fd972e121b8a211f081d78e5a02b76a55353fd",
        "face_normals":
            "aa74b279df383431f7a903f723ac2acadb23910af5af503bfd80abcbf4157e2d",
        "face_measures":
            "a106c2d1b7775d7982391f76dad765d5c1156739ff56b2d18f65531ef7b90512",
        "content_hash":
            "ac4d8c153dd50e5f1c9984befebb3d62bf9d3e41440e1fd50e0ba3511bb1ff46",
    },
    (build_unit_cube, 1): {
        "cells":
            "a422c669071248daa98c025725508a1a56f480db138def5c9bef56f8309e1b26",
        "facet_cells":
            "cf86fcea618f09951db2622ba5cabf35eceadf19d8d9ca890372db1282b5f0e6",
        "facet_vertices":
            "6a7d1fcfe9115cc69347d138982520f80ef93247dab20eddd0edafc3a43e7990",
        "facet_normals":
            "acf7a3a14c05493609ed3d2f2396680615c43b30b20f8d6ac7f0adabd5982115",
        "facet_measures":
            "414b5dc2592ba4d44cf485af193e5507dde963711c0a96a826c4bd4163d0f10e",
        "facet_midpoints":
            "19667a38172697ba416096748723e3898cffa2b520263cfebe2fe19c3bbcbf59",
        "face_left":
            "dc5daf035acb417eb1c14dccbace7dd6fc1596d8e9efff4b9602894008580876",
        "face_right":
            "cdc75c3641205f271dfba99d620d6d5bb9cd699c20d1872840771afa078613c8",
        "face_normals":
            "4902a0eb3b837ec7f7385bc1d8d1eaa0a5bd122eced97f93edd1fd1802df1cd8",
        "face_measures":
            "74741fc5139ef9f6a4e43edec406b4c5a6197178bc446a8be8bab2b81686efdb",
        "content_hash":
            "bba7fc6e131b67e1ef05f6300ea6c6e6c04bb2b2c3f8f6a348db3ae99abacc3f",
    },
    (build_unit_cube, 3): {
        "cells":
            "d0d89b89171749db430310899ca511b79e44c74422b48c51d2a6396e0b2f34b7",
        "facet_cells":
            "467e50c86bf6899475f98da4c9728ca317d97497cede9d8c179da63ea05caa1f",
        "facet_vertices":
            "180cbf41023b67f3ea29be38e67fd14ca2089f2eb6cb6d77ffd9b77785b73b2e",
        "facet_normals":
            "88e592e3e0ae364667019d88edb7397b55270db89440c016ce795f6560a7972b",
        "facet_measures":
            "bc315c3e8acf6a005c16632f055f14c40f25d9008ab8fd6a11a69dcfa6fd1b9b",
        "facet_midpoints":
            "51eb29e4925c8c17a8ee9c79243f0378391ff02a923351d3a871bc970f76e4ce",
        "face_left":
            "d9d19fdb98e572084afdb7050439ca13a7c5268905822492a703b477f05129b5",
        "face_right":
            "2e69cbd8b90e9c9f583dc8f046648c569cde9df5b93a7be046fddaff9eb91fa4",
        "face_normals":
            "c9e3591b04f0dd560edb46bf1f9ab4b5f108bc98beeeb3d8fe2192dac20e6fe7",
        "face_measures":
            "1c35335f1992526d6d8d448df38f3c27471677751e8bd92a15ba7c2f821d1065",
        "content_hash":
            "21b960c3ec9fef2d2705b0b5f5d4875e1995eb53696e7641d27570b4e5cbcff6",
    },
}


def _digest(a, dtype):
    return hashlib.sha256(np.ascontiguousarray(a, dtype=dtype).tobytes()
                          ).hexdigest()


@pytest.mark.parametrize("builder, n", list(_GOLDEN))
def test_mesh_arrays_match_golden_digests(builder, n):
    mesh = builder(n)
    want = _GOLDEN[(builder, n)]
    got = {"content_hash": mesh.content_hash()}
    for name in want:
        if name != "content_hash":
            a = getattr(mesh, name)
            got[name] = _digest(a, np.int64 if a.dtype.kind == "i"
                                else np.float64)
    assert got == want


@pytest.mark.parametrize("builder, n, total", [(build_unit_square, 5, 4.0),
                                               (build_unit_cube, 3, 6.0)])
def test_shuffled_cells_give_the_same_boundary(builder, n, total):
    # the facet matching must not rely on the builders' cell order
    ref = builder(n)
    perm = np.random.default_rng(7).permutation(ref.num_cells)
    mesh = Mesh(ref.dim, n, ref.vertices, ref.cells[perm])

    def facet_set(m):
        return {tuple(v) for v in m.facet_vertices.tolist()}

    assert len(mesh.facet_cells) == len(ref.facet_cells)
    assert facet_set(mesh) == facet_set(ref)
    for verts, cell in zip(mesh.facet_vertices.tolist(),
                           mesh.cells[mesh.facet_cells].tolist()):
        assert set(verts) <= set(cell)
    assert np.array_equal(_facet_vertices_from_slots(mesh),
                          mesh.facet_vertices)
    nrm = mesh.facet_normals
    assert np.linalg.norm(nrm, axis=1) == pytest.approx(1.0, abs=1e-12)
    away = mesh.facet_midpoints - mesh.cell_centroids[mesh.facet_cells]
    assert (np.einsum("fd,fd->f", nrm, away) > 0).all()
    outside = mesh.facet_midpoints + 1e-6 * nrm
    assert ((outside.min(axis=1) < -1e-12)
            | (outside.max(axis=1) > 1 + 1e-12)).all()
    assert mesh.facet_measures.sum() == pytest.approx(total, abs=1e-12)
    # interior normals point from the left cell into the right one
    cross = (mesh.cell_centroids[mesh.face_right]
             - mesh.cell_centroids[mesh.face_left])
    assert (np.einsum("fd,fd->f", mesh.face_normals, cross) > 0).all()
    assert len(mesh.face_left) == len(ref.face_left)


def test_facet_shared_by_three_cells_rejected():
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0],
                         [0.5, 2.0]])
    cells = np.array([[0, 1, 2], [0, 3, 1], [0, 1, 4]])
    with pytest.raises(ValueError, match="more than two cells"):
        Mesh(2, 1, vertices, cells)


def test_classify_inflow_callable_and_cell_field_agree():
    mesh = build_unit_square(4)
    west = np.flatnonzero(mesh.facet_midpoints[:, 0] == 0.0)
    by_point = classify_inflow(
        mesh, lambda p: np.tile([1.0, 0.0], (len(p), 1)))
    by_cell = classify_inflow(
        mesh, CellField(mesh, np.tile([1.0, 0.0], (mesh.num_cells, 1))))
    # facets parallel to the flow are characteristic, not inflow
    assert np.array_equal(by_point, west)
    assert np.array_equal(by_cell, west)
    with pytest.raises(ValueError):
        classify_inflow(mesh, lambda p: p, tol=-1.0)


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


def _same_csr(A, B):
    return (np.array_equal(A.indptr, B.indptr)
            and np.array_equal(A.indices, B.indices)
            and np.array_equal(A.data, B.data))


@pytest.mark.parametrize("builder,n", [(build_unit_square, 5),
                                       (build_unit_cube, 3)])
def test_fixed_operators_are_shared_and_read_only(builder, n):
    mesh = builder(n)
    for name in ("mass", "h1", "centroid_points"):
        assert getattr(mesh, name) is getattr(mesh, name)
    # the values of a fresh build and of the former per-caller formulas
    M = mass_matrix(mesh)
    assert _same_csr(mesh.mass, M)
    g = mesh.cell_grads
    K = assemble_p1(mesh, np.einsum("c,cid,cjd->cij", mesh.cell_volumes,
                                    g, g))
    assert _same_csr(mesh.h1, K + M)
    xs = np.zeros((mesh.num_cells, 3))
    xs[:, :mesh.dim] = mesh.cell_centroids
    assert np.array_equal(mesh.centroid_points, xs)
    for write in (lambda: mesh.mass.data.__setitem__(0, 1.0),
                  lambda: mesh.mass.__setitem__((0, 0), 1.0),
                  lambda: mesh.mass.__imul__(2.0),
                  lambda: mesh.h1.data.__setitem__(0, 1.0),
                  lambda: mesh.h1.indices.__setitem__(0, 0),
                  lambda: mesh.centroid_points.__setitem__((0, 0), 1.0)):
        with pytest.raises(ValueError, match="read-only"):
            write()
    assert _same_csr(mesh.mass, M)
