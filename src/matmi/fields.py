"""P1 nodal fields, per-cell fields, and L2 norms on simplicial meshes."""

import numpy as np
import scipy.sparse as sp

__all__ = [
    "NodalField",
    "CellField",
    "assemble_p1",
    "scatter_p1",
    "mass_matrix",
    "h1_matrix",
    "l2_norm_nodal",
    "l2_norm_cell",
    "cell_to_nodal",
    "interpolate_nodal",
    "level_set_centroid",
]


class NodalField:
    """Scalar P1 field: one value per mesh vertex."""

    def __init__(self, mesh, values):
        values = np.asarray(values, dtype=float)
        if values.shape != (mesh.num_vertices,):
            raise ValueError("expected %d nodal values, got shape %s"
                             % (mesh.num_vertices, values.shape))
        if not np.all(np.isfinite(values)):
            raise ValueError("nodal field contains non-finite values")
        self.mesh = mesh
        self.values = values

    def cell_means(self):
        """Value at cell centroids (mean of the cell's vertex values):
        the gathered vertex rows are added to zero in slot order and
        divided by nloc, which rounds as `.mean(axis=1)` does."""
        total = np.zeros(self.mesh.num_cells)
        for slot in self.mesh.local_vertices:
            total += self.values[slot]
        return total / (self.mesh.dim + 1)

    def cell_gradients(self):
        """Exact per-cell P1 gradient, shape (nc, dim): the transposed
        view of the (dim, nc) sum over the slots, in slot order, of the
        vertex value times the basis gradient."""
        vals = self.values[self.mesh.local_vertices]   # (nloc, nc)
        return np.einsum("ic,idc->dc", vals, self.mesh.local_grads).T


class CellField:
    """Piecewise-constant field: one scalar or one vector per cell."""

    def __init__(self, mesh, values):
        values = np.asarray(values, dtype=float)
        if values.shape[0] != mesh.num_cells:
            raise ValueError("expected %d cell values, got shape %s"
                             % (mesh.num_cells, values.shape))
        if not np.all(np.isfinite(values)):
            raise ValueError("cell field contains non-finite values")
        self.mesh = mesh
        self.values = values


def assemble_p1(mesh, local):
    """CSR (nv, nv) matrix summing per-cell local P1 matrices.

    local : (nloc, nloc, nc) array, cell-last; entry [i, j, c] couples
    vertices cells[c, i] and cells[c, j].  The entries are summed into
    the mesh's fixed pattern (`Mesh.p1_pattern`), whose index arrays
    every assembled matrix shares read-only, in the order of `local`'s
    memory: each global entry adds its (i, j) pairs in order, and the
    cells in order within one pair.
    """
    indptr, indices, slot = mesh.p1_pattern
    nv = mesh.num_vertices
    data = np.bincount(slot, local.ravel(), minlength=indices.size)
    return sp.csr_matrix((data, indices, indptr), shape=(nv, nv))


def scatter_p1(mesh, local):
    """(nv,) vector summing per-cell local P1 rows.

    local : (nloc, nc) array, cell-last; entry [i, c] is added to vertex
    cells[c, i], slot by slot and cell by cell within a slot.
    """
    return np.bincount(mesh.local_vertices.ravel(), local.ravel(),
                       minlength=mesh.num_vertices)


def mass_matrix(mesh):
    """Consistent P1 mass matrix (CSR), built anew; callers use the
    mesh's copy, `Mesh.mass`."""
    nloc = mesh.dim + 1
    # local P1 mass on a simplex: vol/((d+1)(d+2)) * (1 + delta_ij)
    local = (np.ones((nloc, nloc)) + np.eye(nloc)) / ((nloc) * (nloc + 1))
    return assemble_p1(mesh, local[:, :, None] * mesh.cell_volumes)


def h1_matrix(mesh):
    """Unit-coefficient stiffness plus the mass matrix (an H1 inner
    product), built anew; callers use the mesh's copy, `Mesh.h1`."""
    g = mesh.local_grads
    ke = np.einsum("c,idc,jdc->ijc", mesh.cell_volumes, g, g)
    return assemble_p1(mesh, ke) + mesh.mass


def l2_norm_nodal(mesh, values):
    """L2(Omega) norm of a P1 field given by vertex values."""
    v = np.asarray(values, dtype=float)
    return float(np.sqrt(max(v @ (mesh.mass @ v), 0.0)))


def l2_norm_cell(mesh, values):
    """L2(Omega) norm of a piecewise-constant field, (nc,) or (nc, k)."""
    v = np.asarray(values, dtype=float)
    sq = v * v if v.ndim == 1 else np.einsum("ck,ck->c", v, v)
    return float(np.sqrt(np.dot(mesh.cell_volumes, sq)))


def cell_to_nodal(field):
    """Volume-weighted average of adjacent cell values at each vertex.

    Works for scalar or vector CellFields; returns raw vertex values
    (shape (nv,) or (nv, k)).
    """
    mesh = field.mesh
    vals = field.values.reshape(mesh.num_cells, -1)
    w = np.broadcast_to(mesh.cell_volumes, mesh.local_vertices.shape)
    num = np.column_stack([scatter_p1(mesh, vals[:, k] * w)
                           for k in range(vals.shape[1])])
    out = num / scatter_p1(mesh, w)[:, None]
    return out.reshape((mesh.num_vertices,) + field.values.shape[1:])


def level_set_centroid(field, level):
    """Volume-weighted centroid of the region where the P1 field's
    cell means reach `level`; nan vector if the region is empty."""
    mesh = field.mesh
    means = field.cell_means()
    mask = means >= level
    if not mask.any():
        return np.full(mesh.dim, float("nan"))
    vols = mesh.cell_volumes[mask]
    return (vols[:, None] * mesh.cell_centroids[mask]).sum(axis=0) / vols.sum()


def interpolate_nodal(mesh, func):
    """NodalField from a function of the coordinates: `func` receives
    the (nv, dim) vertex array and returns (nv,) values."""
    return NodalField(mesh, func(mesh.vertices))
