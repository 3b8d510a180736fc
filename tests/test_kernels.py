"""The per-cell kernels of every forward solve run in the cell-last
layout, the cell index last and contiguous, and round exactly as
reference expressions written in that layout: products of rows of nc
values, added to zero in the order of the summed axis.  The cell-first
expressions they replaced are kept as references too.  The new kernels
add the same products in another order (and the assembly sums a cell's
entries in another order), so those agree to a relative tolerance of
_RTOL times the largest reference value; the cell means keep their
`.mean(axis=1)` rounding exactly."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matmi.anisotropy import BUILTIN_NAMES, builtin
from matmi.fields import (NodalField, assemble_p1, interpolate_nodal,
                          l2_norm_cell, scatter_p1)
from matmi.functional import FluxSplit, cross_b0
from matmi.mesh import build_unit_cube, build_unit_square
from matmi.neumann import (assemble, conductivity_blocks, etilde,
                           electric_field)

# a few dozen roundings of float64 apart, relative to the largest value
_RTOL = 64 * np.finfo(float).eps


def _bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _close(got, want):
    return (got.shape == want.shape and np.abs(got - want).max()
            <= _RTOL * np.abs(want).max())


def _row_sum(terms):
    """sum of the row products in `terms`, added to zero in order."""
    out = 0.0
    for t in terms:
        out = out + t
    return out


# -- references in the cell-last layout (bitwise) ------------------------

def _assemble_rows(mesh, family, gamma):
    """Local matrices (nloc, nloc, nc) and right-hand-side rows (nloc, nc)
    of the Neumann system: vgB[i][e] = sum_d (g[i, d] |c|) B[d, e], the
    matrix sum_e vgB[i][e] g[j, e] and the rows -sum_e vgB[i][e] et[e]."""
    B = conductivity_blocks(mesh, family, gamma)          # (dim, dim, nc)
    g, d = mesh.local_grads, mesh.dim
    nloc = d + 1
    vg = g * mesh.cell_volumes
    vgB = [[_row_sum(vg[i, k] * B[k, e] for k in range(d))
            for e in range(d)] for i in range(nloc)]
    K = np.array([[_row_sum(vgB[i][e] * g[j, e] for e in range(d))
                   for j in range(nloc)] for i in range(nloc)])
    et = etilde(mesh.cell_centroids).T
    b = np.array([-_row_sum(vgB[i][e] * et[e] for e in range(d))
                  for i in range(nloc)])
    return K, b


def _pw_rows(mesh, family, w):
    """(M, dim, nc): sum_j P[m, i, j] w[j], for w (3, nc)."""
    P = family.poly_coeffs(mesh.centroid_points)
    return np.array([[_row_sum(P[m, i, j] * w[j] for j in range(3))
                      for i in range(mesh.dim)] for m in range(len(P))])


def _gradient_rows(mesh, vals):
    """(dim, nc): sum over the slots of the vertex value times the
    basis gradient."""
    V, g = mesh.local_vertices, mesh.local_grads
    return _row_sum(vals[V[i]] * g[i] for i in range(mesh.dim + 1))


# -- the cell-first expressions the kernels replaced (to _RTOL) -----------

def _coo(mesh, local):
    """CSR of cell-first (nc, nloc, nloc) local matrices, by COO
    conversion."""
    nloc, nv = mesh.dim + 1, mesh.num_vertices
    rows = np.repeat(mesh.cells, nloc, axis=1).ravel()
    cols = np.tile(mesh.cells, (1, nloc)).ravel()
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(nv, nv)).tocsr()


def _assemble_cell_first(mesh, family, gamma):
    B = conductivity_blocks(mesh, family, gamma).transpose(2, 0, 1)
    g = mesh.cell_grads
    vg = g * mesh.cell_volumes[:, None, None]
    K = _coo(mesh, vg @ B @ g.transpose(0, 2, 1))
    et = etilde(mesh.cell_centroids)[:, :mesh.dim]
    q = np.einsum("cde,ce->cd", B, et)
    local = -np.einsum("c,cid,cd->ci", mesh.cell_volumes, g, q)
    return K, np.bincount(mesh.cells.ravel(), local.ravel(),
                          minlength=mesh.num_vertices)


def _pw_cell_first(mesh, family, w):
    P = np.moveaxis(family.poly_coeffs(mesh.centroid_points), -1, 0)
    return np.einsum("cmij,cj->mci", P[:, :, :mesh.dim], w)


_MESHES = {2: build_unit_square(24), 3: build_unit_cube(6)}

# bounded so that no sum of a cell's values overflows
_values = st.floats(-1e300, 1e300) | st.sampled_from(
    [0.0, -0.0, 1e-300, -1e-300, 5e-324])
_EDGE_CASES = {"negative zeros": [-0.0],
               "subnormals": [5e-324, -5e-324, 1e-310, -0.0],
               "huge": [1e300, -1e300, 1e300, 1e300]}


def _nodal(mesh, vals):
    """The drawn values repeated over the mesh's vertices."""
    return np.resize(np.array(vals, dtype=float), mesh.num_vertices)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(dim=st.sampled_from([2, 3]), n=st.integers(1, 6),
       vals=st.lists(_values, min_size=1, max_size=80))
@example(dim=2, n=3, vals=_EDGE_CASES["negative zeros"])
@example(dim=3, n=2, vals=_EDGE_CASES["subnormals"])
@example(dim=2, n=4, vals=_EDGE_CASES["huge"])
def test_cell_means_round_as_the_mean_of_the_gathered_values(dim, n, vals):
    mesh = (build_unit_square if dim == 2 else build_unit_cube)(n)
    vals = _nodal(mesh, vals)
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


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(dim=st.sampled_from([2, 3]), n=st.integers(1, 6),
       vals=st.lists(_values, min_size=1, max_size=80))
@example(dim=2, n=3, vals=_EDGE_CASES["negative zeros"])
@example(dim=3, n=2, vals=_EDGE_CASES["subnormals"])
@example(dim=2, n=4, vals=_EDGE_CASES["huge"])
def test_cell_gradients_and_norms_round_as_the_row_sums(dim, n, vals):
    # the gradient rows and the squared norm per cell are added to zero
    # in slot and component order, -0.0 and subnormal terms included
    mesh = (build_unit_square if dim == 2 else build_unit_cube)(n)
    grad = NodalField(mesh, _nodal(mesh, vals)).cell_gradients()
    rows = _gradient_rows(mesh, _nodal(mesh, vals))
    assert grad.shape == (mesh.num_cells, dim)
    assert _bitwise(grad.T, rows)
    with np.errstate(over="ignore"):        # 1e300 squared is inf in both
        sq = _row_sum(rows[k] * rows[k] for k in range(dim))
        want = float(np.sqrt(np.dot(mesh.cell_volumes, sq)))
        assert _bitwise(l2_norm_cell(mesh, grad), want)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_flux_split_and_assembly_match_the_reference(dim, name):
    mesh = _MESHES[dim]
    family = builtin(name)
    gamma = interpolate_nodal(mesh, lambda x: 1.0 + 0.4 * np.sin(
        3.0 * x[:, 0] + 2.0 * x[:, 1]) * x[:, -1])
    system = assemble(mesh, family, gamma)
    K_loc, b_loc = _assemble_rows(mesh, family, gamma)
    K = assemble_p1(mesh, K_loc)
    assert _bitwise(system.matrix.data, K.data)
    assert _bitwise(system.matrix.indices, K.indices)
    assert _bitwise(system.rhs, scatter_p1(mesh, b_loc))
    K_cf, b_cf = _assemble_cell_first(mesh, family, gamma)
    assert np.array_equal(system.matrix.indptr, K_cf.indptr)
    assert np.array_equal(system.matrix.indices, K_cf.indices)
    assert _close(system.matrix.data, K_cf.data)
    assert _close(system.rhs, b_cf)

    rng = np.random.default_rng(7)
    u = NodalField(mesh, rng.standard_normal(mesh.num_vertices))
    E = electric_field(mesh, u)
    rows = etilde(mesh.cell_centroids).T.copy()
    rows[:dim] += _gradient_rows(mesh, u.values)
    assert _bitwise(E.values.T, rows)
    split = FluxSplit(mesh, family, E)
    w = cross_b0(E.values)
    assert _bitwise(split.Pw, _pw_rows(mesh, family, w.T))
    assert _close(split.Pw.transpose(0, 2, 1), _pw_cell_first(mesh, family, w))
