"""Structured simplicial meshes of the unit square and unit cube.

Meshes are immutable after construction: the cell and boundary geometry
is built once, with whole-array operations, in `__init__`, and the
interior faces, the P1 matrix pattern and fixed operators once, on first
use.  The unit square is
split into 2*n^2 triangles (diagonal fixed from lower-left to
upper-right), the unit cube into 6*n^3 tetrahedra via the standard
six-tetrahedra subdivision of each grid cube.
"""

import functools
import hashlib

import numpy as np
import scipy.sparse as sp

from .fields import h1_matrix, mass_matrix

__all__ = [
    "Mesh",
    "build_unit_square",
    "build_unit_cube",
    "classify_inflow",
]


def _frozen(a):
    """`a`, an array or a sparse matrix, made read-only."""
    for arr in (a.data, a.indices, a.indptr) if sp.issparse(a) else (a,):
        arr.flags.writeable = False
    return a


def _rowdot(a, b):
    """Row-wise dot products of (N, d) arrays; batched matmul rounds each
    row exactly as np.dot rounds one pair of vectors."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


# local vertex slots of facet j of a cell (all but slot j), per dim
_FACET_SLOTS = {dim: np.array([[k for k in range(dim + 1) if k != j]
                               for j in range(dim + 1)]) for dim in (2, 3)}


class Mesh:
    """Simplicial mesh with cached cell/facet geometry.

    Per-cell arrays are stored cell-last, the cell index on the last and
    contiguous axis, so that per-cell kernels run over rows of nc values;
    the cell-first names are read-only transposed views of the same
    memory, each array stored once.

    Attributes
    ----------
    dim : int
        2 or 3.
    n : int
        Grid resolution (cells per axis).
    vertices : (nv, dim) float array
    local_vertices : (dim+1, nc) int array
        local_vertices[i, c] is the vertex in local slot i of cell c;
        cells are positively oriented.
    cells : (nc, dim+1) int array
        Its transposed view: the vertices of each cell.
    local_grads : (dim+1, dim, nc) float array
        local_grads[i, :, c] is the gradient of the P1 basis function of
        slot i on cell c.
    cell_grads : (nc, dim+1, dim) float array
        Its transposed view.
    cell_volumes : (nc,) float array
    cell_centroids, centroid_points : (nc, dim) and (nc, 3) float arrays
        Cell centroids, and the same padded with zeros, where
        coefficients are evaluated: views of one (3, nc) array.
    facet_cells : (nb,) int array
        The unique adjacent cell of each boundary facet (an edge in 2D, a
        triangle in 3D); the facet arrays share this order.
    facet_vertices : (nb, dim) int array
        Global vertex indices of each boundary facet, ascending.
    facet_local : (nb, dim) int array
        Local slots of the facet's vertices in its cell, ascending:
        cells[facet_cells[f], facet_local[f]] are the facet's vertices.
        Read-only.
    facet_normals : (nb, dim) float array
        Outward unit normals.
    facet_measures, facet_midpoints : (nb,) and (nb, dim) float arrays
        Length (2D) or area (3D), and barycenter.
    face_left, face_right : (ni,) int arrays
        The two cells of each interior face.
    face_normals, face_measures : (ni, dim) and (ni,) float arrays
        Unit normal pointing from the left cell into the right one, and
        measure.
    p1_pattern : (indptr, indices, slot)
        CSR sparsity of the P1 matrices and the scatter of local
        entries, cell-last, into it (`fields.assemble_p1`).
    mass, h1 : (nv, nv) CSR matrices
        P1 mass matrix (`fields.mass_matrix`) and H1 matrix, stiffness
        plus mass (`fields.h1_matrix`).

    The cell arrays are read-only.  The interior-face arrays, the P1
    pattern and the two matrices are read-only and built on first use,
    once per mesh; the faces (only the DG0 checks of `matmi.oracles`
    read them) repeat the facet matching of the boundary.
    """

    def __init__(self, dim, n, vertices, cells):
        self.dim = dim
        self.n = n
        self.vertices = vertices
        self.local_vertices = _frozen(np.ascontiguousarray(
            np.asarray(cells).T))
        self.cells = self.local_vertices.T
        self._build_geometry()
        self._build_boundary()

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_cells(self):
        return self.cells.shape[0]

    def _build_geometry(self):
        dim = self.dim
        x = self.vertices[self.cells]          # (nc, dim+1, dim)
        centroids = np.zeros((3, self.num_cells))
        centroids[:dim] = x.mean(axis=1).T
        _frozen(centroids)
        self.centroid_points = centroids.T
        self.cell_centroids = centroids[:dim].T
        e = x[:, 1:, :] - x[:, :1, :]          # (nc, dim, dim) edge matrix
        det = np.linalg.det(e)
        fact = 2.0 if dim == 2 else 6.0
        self.cell_volumes = _frozen(det / fact)
        if np.any(self.cell_volumes <= 0.0):
            raise ValueError("mesh contains a cell with non-positive volume")
        # P1 basis gradients: rows of inv(e) give gradients of barycentric
        # coordinates 1..dim; gradient of coordinate 0 closes the partition.
        grads = np.empty((dim + 1, dim, self.num_cells))
        grads[1:] = np.linalg.inv(e).transpose(2, 1, 0)  # grad lambda_1..dim
        grads[0] = -grads[1:].sum(axis=0)
        self.local_grads = _frozen(grads)
        self.cell_grads = grads.transpose(2, 0, 1)

    def _sorted_facets(self):
        """Every facet of every cell, matched by vertices: (verts, order,
        start, counts), where row c*nloc + j of verts (ascending) is the
        facet of cell c without local vertex j, `order` sorts the rows by
        vertex tuple (a stable sort keeps the lower cell of an interior
        face first), and each distinct facet covers `counts` sorted rows
        from `start`."""
        dim, nv = self.dim, self.num_vertices
        if nv ** dim >= 2 ** 63:
            raise ValueError("too many vertices for 64-bit facet keys")
        verts = np.sort(self.cells[:, _FACET_SLOTS[dim]].reshape(-1, dim),
                        axis=1)
        key = verts[:, 0].astype(np.int64)
        for k in range(1, dim):
            key = key * nv + verts[:, k]
        order = np.argsort(key, kind="stable")
        key = key[order]
        start = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        counts = np.diff(np.r_[start, key.size])
        if np.any(counts > 2):
            raise ValueError("facet shared by more than two cells")
        return verts, order, start, counts

    def _build_boundary(self):
        nloc = self.dim + 1
        verts, order, start, counts = self._sorted_facets()
        bnd = order[start[counts == 1]]
        self.facet_cells = bnd // nloc
        self.facet_vertices = verts[bnd]
        self.facet_local = _frozen(_FACET_SLOTS[self.dim][bnd % nloc])
        (self.facet_normals, self.facet_measures,
         self.facet_midpoints) = self._facet_geometry(self.facet_vertices,
                                                      self.facet_cells)

    def _facet_geometry(self, verts, cells):
        """Unit normals (pointing away from `cells`), measures and
        midpoints of the facets with vertex rows `verts`."""
        x = self.vertices[verts]               # (nf, dim, dim)
        mid = x.mean(axis=1)
        if self.dim == 2:
            t = x[:, 1] - x[:, 0]
            normal = np.stack([t[:, 1], -t[:, 0]], axis=1)
            measure = np.sqrt(_rowdot(t, t))
        else:
            normal = np.cross(x[:, 1] - x[:, 0], x[:, 2] - x[:, 0])
            measure = 0.5 * np.sqrt(_rowdot(normal, normal))
        normal = normal / np.sqrt(_rowdot(normal, normal))[:, None]
        inward = _rowdot(normal, mid - self.cell_centroids[cells]) < 0.0
        normal[inward] = -normal[inward]
        return normal, measure, mid

    def content_hash(self):
        """SHA-256 over vertex coordinates and connectivity."""
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.vertices).tobytes())
        h.update(np.ascontiguousarray(self.cells.astype(np.int64)).tobytes())
        return h.hexdigest()

    def grid_view(self, values):
        """Per-vertex `values` of a structured mesh as its grid of
        vertices, shape (n+1,)*dim: the vertices are numbered
        lexicographically, x slowest, so entry [i, j(, k)] is the vertex
        at (i, j(, k)) / n.  A view where `values` is contiguous."""
        return np.reshape(values, (self.n + 1,) * self.dim)

    @functools.cached_property
    def _boundary_vertices(self):
        return _frozen(np.unique(self.facet_vertices))

    def boundary_vertex_indices(self):
        """Sorted read-only array of vertex indices lying on the boundary;
        computed once per mesh."""
        return self._boundary_vertices

    @functools.cached_property
    def p1_pattern(self):
        """CSR pattern shared by every P1 matrix on the mesh, built on
        first use: read-only (indptr, indices, slot), where slot[(i*nloc
        + j)*nc + c] is the position in `indices` of the coupling of
        vertex cells[c, i] with vertex cells[c, j] (cell-last, as the
        (nloc, nloc, nc) local matrices of `fields.assemble_p1`)."""
        nv, nloc = self.num_vertices, self.dim + 1
        rows = np.repeat(self.local_vertices, nloc, axis=0).ravel()
        cols = np.tile(self.local_vertices, (nloc, 1)).ravel()
        # canonical CSR: rows ascending, sorted unique columns in each row
        pat = sp.coo_matrix((np.ones(rows.size, dtype=np.int8), (rows, cols)),
                            shape=(nv, nv)).tocsr()
        keys = np.repeat(np.arange(nv, dtype=np.int64) * nv,
                         np.diff(pat.indptr)) + pat.indices
        slot = np.searchsorted(keys, rows.astype(np.int64) * nv + cols)
        return tuple(map(_frozen, (pat.indptr, pat.indices,
                                   slot.astype(np.int32))))

    @functools.cached_property
    def _interior_faces(self):
        nloc = self.dim + 1
        verts, order, start, counts = self._sorted_facets()
        interior = start[counts == 2]
        left = order[interior] // nloc
        normals, measures, _ = self._facet_geometry(verts[order[interior]],
                                                    left)
        return tuple(map(_frozen, (left, order[interior + 1] // nloc,
                                   normals, measures)))

    face_left = property(lambda self: self._interior_faces[0])
    face_right = property(lambda self: self._interior_faces[1])
    face_normals = property(lambda self: self._interior_faces[2])
    face_measures = property(lambda self: self._interior_faces[3])

    @functools.cached_property
    def mass(self):
        return _frozen(mass_matrix(self))

    @functools.cached_property
    def h1(self):
        return _frozen(h1_matrix(self))


def _grid_vertices(n, dim):
    coords = np.linspace(0.0, 1.0, n + 1)
    grids = np.meshgrid(*([coords] * dim), indexing="ij")
    return np.column_stack([g.ravel() for g in grids])


def _grid_cells(n, pattern):
    """Cells of every grid box, boxes in row-major order: the corner
    offsets `pattern`, an int array (cells per box, dim+1, dim), are
    added to each box's lowest vertex."""
    dim = pattern.shape[-1]
    lowest = 0
    for _ in range(dim):
        lowest = np.add.outer(lowest * (n + 1), np.arange(n))
    offsets = pattern @ (n + 1) ** np.arange(dim - 1, -1, -1)
    return (lowest.reshape(-1, 1, 1) + offsets).reshape(-1, dim + 1)


_SQUARE_PATTERN = np.array([[(0, 0), (1, 0), (1, 1)],
                            [(0, 0), (1, 1), (0, 1)]])


def build_unit_square(n):
    """Structured triangulation of [0,1]^2 with 2*n^2 cells.

    Each grid square is split along the diagonal running from its
    lower-left to its upper-right corner.
    """
    n = int(n)
    if n < 1:
        raise ValueError("resolution n must be >= 1, got %d" % n)
    return Mesh(2, n, _grid_vertices(n, 2), _grid_cells(n, _SQUARE_PATTERN))


_CUBE_PERMUTATIONS = [
    (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0),
]


def _cube_pattern():
    """Corner offsets of the six tetrahedra of a grid cube: tetrahedron p
    walks from the lowest corner along the axes in the order of
    permutation p.  Odd permutations give negative orientation, so their
    last two corners are swapped."""
    tets = []
    for perm in _CUBE_PERMUTATIONS:
        p = np.zeros((4, 3), dtype=int)
        for m, ax in enumerate(perm):
            p[m + 1] = p[m]
            p[m + 1, ax] += 1
        if np.linalg.det(p[1:] - p[0]) < 0.0:
            p[[2, 3]] = p[[3, 2]]
        tets.append(p)
    return np.array(tets)


_CUBE_PATTERN = _cube_pattern()


def build_unit_cube(n):
    """Structured tetrahedralization of [0,1]^3 with 6*n^3 cells."""
    n = int(n)
    if n < 1:
        raise ValueError("resolution n must be >= 1, got %d" % n)
    return Mesh(3, n, _grid_vertices(n, 3), _grid_cells(n, _CUBE_PATTERN))


def classify_inflow(mesh, v):
    """Boundary facets where the advective flux enters the domain.

    Parameters
    ----------
    v : CellField-like
        Per-cell velocity, evaluated on each facet's adjacent cell.
        Facets with |v . nu| <= 1e-12 are characteristic, not inflow.

    Returns
    -------
    (k,) int array
        Ascending indices into the mesh's boundary-facet arrays.
    """
    vec = np.asarray(v.values, dtype=float)[mesh.facet_cells]
    vn = _rowdot(np.ascontiguousarray(vec[:, :mesh.dim]), mesh.facet_normals)
    return np.flatnonzero(vn < -1e-12)
