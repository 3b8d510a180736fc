import os
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from matmi import functional
from matmi.anisotropy import builtin
from matmi.fields import (NodalField, interpolate_nodal, l2_norm_nodal,
                          mass_matrix)
from matmi.functional import (FunctionalData, cross_b0, flux_field,
                              load_functional_data, save_functional_data,
                              synthesize, weak_p1_from_flux, weak_p1_rows)
from matmi.mesh import Mesh, build_unit_cube, build_unit_square
from matmi.neumann import SolverError, solve_field
from matmi.oracles import weak_dg0_from_flux
from matmi.presets import SLICE_LEVELS
from matmi.vtkio import write_nodal_csv, write_slice_csv

D1 = builtin("D1").with_t_range(0.25, 4.0)


def _gamma(p):
    return 1.0 + 0.5 * np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])


def test_cross_b0_componentwise():
    assert np.allclose(cross_b0(np.array([[1.0, 2.0, 5.0]])),
                       [[2.0, -1.0, 0.0]])


def test_weak_forms_agree_on_total_mass():
    # summing either weak vector integrates F over the domain, so the
    # data's P1 vector and the DG0 vector of the same-mesh flux
    # q = A (E x B0) must both give its boundary flux integral
    mesh = build_unit_square(12)
    data = synthesize(D1, _gamma, mesh)
    gamma = interpolate_nodal(mesh, _gamma)
    _, E = solve_field(mesh, D1, gamma)
    q = flux_field(mesh, D1, gamma.cell_means(), E)
    w = cross_b0(E.values)[:, :mesh.dim]
    assert data.p1_weak.sum() == pytest.approx(
        weak_dg0_from_flux(mesh, q, w).sum(), abs=1e-10)


def test_refined_data_converges_to_same_projection():
    mesh = build_unit_square(12)
    plain = synthesize(D1, _gamma, mesh)
    refined = synthesize(D1, _gamma, mesh, refine=2)
    assert refined.source_mesh_resolution == 24
    diff = l2_norm_nodal(mesh, plain.nodal_projection.values
                         - refined.nodal_projection.values)
    scale = l2_norm_nodal(mesh, plain.nodal_projection.values)
    assert diff <= 0.2 * scale


def test_refine_must_be_positive():
    mesh = build_unit_square(4)
    with pytest.raises(ValueError):
        synthesize(D1, _gamma, mesh, refine=0)


def test_save_load_round_trip(tmp_path):
    mesh = build_unit_square(8)
    data = synthesize(D1, _gamma, mesh)
    path = str(tmp_path / "data.bin")
    save_functional_data(data, path)
    back = load_functional_data(mesh, path)
    assert np.array_equal(back.p1_weak, data.p1_weak)
    assert np.array_equal(back.nodal_projection.values,
                          data.nodal_projection.values)
    assert back.source_mesh_resolution == 8


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(dim=st.sampled_from((2, 3)), n=st.integers(1, 6),
       src_n=st.integers(1, 64), data=st.data())
def test_save_load_round_trip_is_bit_identical(dim, n, src_n, data):
    mesh = (build_unit_square if dim == 2 else build_unit_cube)(n)
    vectors = st.lists(st.floats(allow_nan=False, allow_infinity=False),
                       min_size=mesh.num_vertices,
                       max_size=mesh.num_vertices)
    p1 = np.array(data.draw(vectors))
    nodal = np.array(data.draw(vectors))
    fd = FunctionalData(mesh, p1, NodalField(mesh, nodal), src_n)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.bin")
        save_functional_data(fd, path)
        back = load_functional_data(mesh, path)
    assert back.p1_weak.tobytes() == p1.tobytes()
    assert back.nodal_projection.values.tobytes() == nodal.tobytes()
    assert back.source_mesh_resolution == src_n


def test_load_rejects_wrong_mesh(tmp_path):
    # same dim and n, other connectivity: only the mesh hash tells
    mesh = build_unit_square(8)
    data = synthesize(D1, _gamma, mesh)
    path = str(tmp_path / "data.bin")
    save_functional_data(data, path)
    other = Mesh(2, 8, mesh.vertices, mesh.cells[::-1].copy())
    with pytest.raises(ValueError, match="mesh hash"):
        load_functional_data(other, path)


@pytest.mark.parametrize("builder, n", [(build_unit_square, 6),
                                        (build_unit_square, 9),
                                        (build_unit_cube, 8)])
def test_load_names_another_resolution_by_its_descriptor(tmp_path,
                                                         builder, n):
    mesh = build_unit_square(8)
    path = str(tmp_path / "data.bin")
    save_functional_data(synthesize(D1, _gamma, mesh), path)
    with pytest.raises(ValueError, match="descriptor does not match"):
        load_functional_data(builder(n), path)


def test_load_rejects_corrupted_payload(tmp_path):
    mesh = build_unit_square(8)
    data = synthesize(D1, _gamma, mesh)
    path = str(tmp_path / "data.bin")
    save_functional_data(data, path)
    raw = bytearray(Path(path).read_bytes())
    raw[8 + 64 + 64 + 150] ^= 0xFF          # flip one payload byte
    Path(path).write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="corrupted"):
        load_functional_data(mesh, path)


def _payload(mesh, sizes, extra=b""):
    """Descriptor of `mesh`, then one vector of ones per entry of sizes."""
    chunks = [struct.pack("<iii", mesh.dim, mesh.n, mesh.n)]
    for size in sizes:
        chunks += [struct.pack("<q", size), np.ones(size).tobytes()]
    return b"".join(chunks) + extra


@pytest.mark.parametrize("cut, match", [
    (lambda p: p[:2], "ends inside the descriptor"),
    (lambda p: p[:12 + 4], "ends inside the p1_weak size"),
    (lambda p: p[:12 + 8 + 8 * 25 + 8 + 8 * 24],
     "ends inside the nodal projection"),
    (lambda p: p + b"\0", "trailing bytes")],
    ids=["descriptor", "size", "vector", "trailing"])
def test_load_rejects_a_short_or_long_payload(tmp_path, write_container,
                                              cut, match):
    mesh = build_unit_square(4)
    path = str(tmp_path / "data.bin")
    good = _payload(mesh, (25, 25))
    write_container(mesh, good, path)
    assert load_functional_data(mesh, path).p1_weak.shape == (25,)
    write_container(mesh, cut(good), path)
    with pytest.raises(ValueError, match=match):
        load_functional_data(mesh, path)


@pytest.mark.parametrize("sizes, match", [
    ((3, 25), "p1_weak has 3 values for 25 mesh vertices"),
    ((25, 26), "nodal projection has 26 values for 25 mesh vertices")],
    ids=["p1_weak", "projection"])
def test_load_rejects_a_vector_for_another_vertex_count(tmp_path,
                                                        write_container,
                                                        sizes, match):
    mesh = build_unit_square(4)
    path = str(tmp_path / "data.bin")
    write_container(mesh, _payload(mesh, sizes), path)
    with pytest.raises(ValueError, match=match):
        load_functional_data(mesh, path)


def test_load_refuses_the_old_container(tmp_path):
    # a MATMIFN1 file (it also stored the DG0 vector and the flux) is
    # refused by name, before its hash or payload is read
    mesh = build_unit_square(8)
    path = str(tmp_path / "data.bin")
    save_functional_data(synthesize(D1, _gamma, mesh), path)
    raw = Path(path).read_bytes()
    Path(path).write_bytes(b"MATMIFN1" + raw[8:])
    with pytest.raises(ValueError, match="MATMIFN1 .* no longer read; "
                                         "save the data again"):
        load_functional_data(mesh, path)


def test_load_rejects_bad_magic(tmp_path):
    path = str(tmp_path / "junk.bin")
    Path(path).write_bytes(b"NOTMAGIC" + b"\x00" * 200)
    with pytest.raises(ValueError, match="magic"):
        load_functional_data(build_unit_square(4), path)


def _eval_p1_loop(field, points):
    """A P1 field's values at arbitrary points, each located among the
    cells of its grid box by a barycentric solve, one point at a time:
    the reference for refined data's injection and for slice export."""
    mesh = field.mesh
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = mesh.n
    out = np.empty(pts.shape[0])
    cells_per_box = 2 if mesh.dim == 2 else 6
    for k, p in enumerate(pts):
        idx = np.minimum((p * n).astype(int), n - 1)
        if mesh.dim == 2:
            box = (idx[0] * n + idx[1]) * 2
        else:
            box = ((idx[0] * n + idx[1]) * n + idx[2]) * 6
        val = None
        for c in range(box, box + cells_per_box):
            x = mesh.vertices[mesh.cells[c]]
            T = (x[1:] - x[0]).T
            lam = np.linalg.solve(T, p - x[0])
            bary = np.concatenate([[1.0 - lam.sum()], lam])
            if np.all(bary >= -1e-10):
                val = float(bary @ field.values[mesh.cells[c]])
                break
        if val is None:
            raise ValueError("point %s not located in mesh" % (p,))
        out[k] = val
    return out


@pytest.mark.parametrize("builder, n, refine", [(build_unit_square, 5, 3),
                                                (build_unit_cube, 3, 2)])
def test_refined_data_are_the_fine_projection_at_the_coarse_vertices(
        builder, n, refine):
    # every coarse vertex is a fine vertex, so injection gives the fine
    # projection's value there, as locating the vertex would
    mesh = builder(n)
    data = synthesize(D1, _gamma, mesh, refine=refine)
    fine = synthesize(D1, _gamma, builder(n * refine)).nodal_projection
    want = _eval_p1_loop(fine, mesh.vertices)
    got = data.nodal_projection.values
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    assert np.array_equal(data.p1_weak, mesh.mass @ got)
    assert data.source_mesh_resolution == n * refine


@pytest.mark.parametrize("z", SLICE_LEVELS + (0.5, 1.0))
def test_slice_csv_samples_the_field_on_the_plane(tmp_path, z):
    # the P1 field along a vertical grid edge, evaluated at height z, is
    # the field at that point; on a grid plane (z n an integer) it is
    # the plane's nodal values, bit for bit
    mesh = build_unit_cube(4)
    field = NodalField(mesh, np.random.default_rng(7).standard_normal(
        mesh.num_vertices))
    path = tmp_path / "slice.csv"
    write_slice_csv(field, z, str(path))
    table = np.loadtxt(path, delimiter=",", skiprows=1)
    ticks = np.linspace(0.0, 1.0, mesh.n + 1)
    xs, ys = np.meshgrid(ticks, ticks, indexing="ij")
    assert np.array_equal(table[:, :2], np.column_stack([xs.ravel(),
                                                         ys.ravel()]))
    want = _eval_p1_loop(field, np.column_stack([table[:, :2],
                                                 np.full(xs.size, z)]))
    if float(z * mesh.n).is_integer():
        assert np.array_equal(table[:, 2], want)
    else:
        assert np.abs(table[:, 2] - want).max() <= 1e-15 * np.abs(
            field.values).max()


def test_write_nodal_csv(tmp_path):
    mesh = build_unit_square(2)
    f = interpolate_nodal(mesh, lambda p: p[:, 0])
    path = tmp_path / "f.csv"
    write_nodal_csv(f, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x,y,value"
    assert len(lines) == 1 + mesh.num_vertices


def _weak_p1_rows_loop(mesh, q):
    """weak_p1_rows of the (nc, dim) flux q, (nloc, nc) rows, with each
    facet's share added to a copy of the volume rows facet by facet and
    vertex by vertex."""
    rows = -mesh.cell_volumes * np.einsum("idc,dc->ic", mesh.local_grads,
                                          q.T)
    for cell, verts, nrm, meas in zip(mesh.facet_cells, mesh.facet_vertices,
                                      mesh.facet_normals,
                                      mesh.facet_measures):
        qn = float(np.dot(q[cell], nrm))
        for v in verts:
            i = mesh.cells[cell].tolist().index(int(v))
            rows[i, cell] += qn * meas * (1.0 / mesh.dim)
    return rows


@pytest.mark.parametrize("builder, n", [(build_unit_square, 9),
                                        (build_unit_square, 17),
                                        (build_unit_cube, 4),
                                        (build_unit_cube, 5)])
def test_weak_p1_boundary_term_matches_facet_loop(builder, n):
    # the facet shares are folded into the local rows in facet order and
    # the rows scattered once, so rows and weak vector are bit-identical
    # to the per-facet loop followed by a cell-by-cell scatter
    mesh = builder(n)
    rng = np.random.default_rng(3)
    q = rng.standard_normal((mesh.num_cells, mesh.dim))
    rows = _weak_p1_rows_loop(mesh, q)
    r = np.zeros(mesh.num_vertices)
    np.add.at(r, mesh.cells.T.ravel(), rows.ravel())
    assert np.array_equal(weak_p1_rows(mesh, q.T), rows)
    assert np.array_equal(weak_p1_from_flux(mesh, q), r)


def _weak_dg0_loop(mesh, q, w):
    """weak_dg0_from_flux with its boundary term added facet by facet."""
    r = np.zeros(mesh.num_cells)
    L, R = mesh.face_left, mesh.face_right
    vn = np.einsum("fd,fd->f", 0.5 * (w[L] + w[R]), mesh.face_normals)
    q_up = np.where((vn >= 0.0)[:, None], q[L], q[R])
    qn = np.einsum("fd,fd->f", q_up, mesh.face_normals) * mesh.face_measures
    np.add.at(r, L, qn)
    np.add.at(r, R, -qn)
    for cell, nrm, meas in zip(mesh.facet_cells, mesh.facet_normals,
                               mesh.facet_measures):
        r[cell] += float(np.dot(q[cell], nrm)) * meas
    return r


@pytest.mark.parametrize("builder, n", [(build_unit_square, 9),
                                        (build_unit_cube, 4)])
def test_weak_dg0_boundary_term_matches_facet_loop(builder, n):
    # one np.add.at adds the same products in the same order as the loop
    mesh = builder(n)
    rng = np.random.default_rng(4)
    q = rng.standard_normal((mesh.num_cells, mesh.dim))
    w = rng.standard_normal((mesh.num_cells, mesh.dim))
    assert np.array_equal(weak_dg0_from_flux(mesh, q, w),
                          _weak_dg0_loop(mesh, q, w))



def test_field_data_builds_no_weak_rows_per_power(monkeypatch):
    # the forward map only evaluates the flux; the split's cached
    # per-power weak rows are built for the least-squares update alone
    splits = []

    class Recording(functional.FluxSplit):
        def __init__(self, *args):
            super().__init__(*args)
            splits.append(self)
    monkeypatch.setattr(functional, "FluxSplit", Recording)
    mesh = build_unit_square(6)
    fam = builtin("D4")
    gamma = interpolate_nodal(mesh, _gamma)
    _, E = solve_field(mesh, fam, gamma)
    functional.field_data(mesh, fam, gamma, E)
    [split] = splits
    assert "_weak_powers" not in vars(split)
    # the first weak divergence builds them, read-only, and later calls
    # reuse them
    rows, c = split.weak_divergence(gamma.cell_means())
    W, c0 = vars(split)["_weak_powers"]
    assert not W.flags.writeable and not c0.flags.writeable
    again = split.weak_divergence(gamma.cell_means())
    assert vars(split)["_weak_powers"][0] is W
    assert np.array_equal(again[0], rows) and np.array_equal(again[1], c)


@pytest.mark.parametrize("refine", [1, 2])
def test_mass_projection_matches_direct_solve(refine, monkeypatch):
    solves = []
    mass_solve = functional._mass_solve

    def recording(m, rhs):
        x = mass_solve(m, rhs)
        solves.append((m.mass, rhs, x))
        return x

    monkeypatch.setattr(functional, "_mass_solve", recording)
    mesh = build_unit_square(10)
    data = synthesize(D1, _gamma, mesh, refine=refine)
    [(M, rhs, x)] = solves
    assert M.shape[0] == (10 * refine + 1) ** 2
    if refine == 1:
        assert np.array_equal(data.nodal_projection.values, x)
    ref = spla.spsolve(M.tocsc(), rhs)
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


def test_unconverged_mass_projection_is_solver_error(monkeypatch):
    monkeypatch.setattr(functional, "_MASS_MAXITER", 2)
    with pytest.raises(SolverError, match="mass-matrix CG"):
        synthesize(D1, _gamma, build_unit_square(8))
