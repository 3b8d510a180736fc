"""Structured simplicial meshes of the unit square and unit cube.

Meshes are immutable after construction: every geometry array is built
once, with whole-array operations, in `__init__`, and the P1 matrix
pattern and fixed operators once, on first use.  The unit square is
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


class Mesh:
    """Simplicial mesh with cached cell/facet geometry.

    Attributes
    ----------
    dim : int
        2 or 3.
    n : int
        Grid resolution (cells per axis).
    vertices : (nv, dim) float array
    cells : (nc, dim+1) int array
        Vertex indices, positively oriented.
    cell_centroids, cell_volumes, cell_grads : cell geometry
        (nc, dim), (nc,) and (nc, dim+1, dim) P1 basis gradients.
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
        entries into it (`fields.assemble_p1`).
    mass, h1 : (nv, nv) CSR matrices
        P1 mass matrix (`fields.mass_matrix`) and H1 matrix, stiffness
        plus mass (`fields.h1_matrix`).
    centroid_points : (nc, 3) float array
        Cell centroids padded with zeros: where coefficients are evaluated.

    The last four are read-only and built on first use, once per mesh.
    """

    def __init__(self, dim, n, vertices, cells):
        self.dim = dim
        self.n = n
        self.vertices = vertices
        self.cells = cells
        self._build_geometry()
        self._build_faces()

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_cells(self):
        return self.cells.shape[0]

    def _build_geometry(self):
        x = self.vertices[self.cells]          # (nc, dim+1, dim)
        self.cell_centroids = x.mean(axis=1)
        e = x[:, 1:, :] - x[:, :1, :]          # (nc, dim, dim) edge matrix
        det = np.linalg.det(e)
        fact = 2.0 if self.dim == 2 else 6.0
        self.cell_volumes = det / fact
        if np.any(self.cell_volumes <= 0.0):
            raise ValueError("mesh contains a cell with non-positive volume")
        # P1 basis gradients: rows of inv(e) give gradients of barycentric
        # coordinates 1..dim; gradient of coordinate 0 closes the partition.
        inv_e = np.linalg.inv(e)               # (nc, dim, dim)
        g = np.transpose(inv_e, (0, 2, 1))     # (nc, dim, dim): grad lambda_1..dim
        g0 = -g.sum(axis=1, keepdims=True)
        self.cell_grads = np.concatenate([g0, g], axis=1)  # (nc, dim+1, dim)

    def _build_faces(self):
        dim, nv = self.dim, self.num_vertices
        nloc = dim + 1
        if nv ** dim >= 2 ** 63:
            raise ValueError("too many vertices for 64-bit facet keys")
        # facet j of a cell = all local vertices except j; row c*nloc + j
        keep = np.array([[k for k in range(nloc) if k != j]
                         for j in range(nloc)])
        verts = np.sort(self.cells[:, keep].reshape(-1, dim), axis=1)
        key = verts[:, 0].astype(np.int64)
        for k in range(1, dim):
            key = key * nv + verts[:, k]
        # facets in ascending vertex-tuple order; a stable sort keeps the
        # lower cell of an interior face first
        order = np.argsort(key, kind="stable")
        key = key[order]
        start = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        counts = np.diff(np.r_[start, key.size])
        if np.any(counts > 2):
            raise ValueError("facet shared by more than two cells")
        bnd = order[start[counts == 1]]
        self.facet_cells = bnd // nloc
        self.facet_vertices = verts[bnd]
        self.facet_local = _frozen(keep[bnd % nloc])
        (self.facet_normals, self.facet_measures,
         self.facet_midpoints) = self._facet_geometry(self.facet_vertices,
                                                      self.facet_cells)
        interior = start[counts == 2]
        self.face_left = order[interior] // nloc
        self.face_right = order[interior + 1] // nloc
        self.face_normals, self.face_measures, _ = self._facet_geometry(
            verts[order[interior]], self.face_left)

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
        first use: read-only (indptr, indices, slot), where slot[(c*nloc
        + i)*nloc + j] is the position in `indices` of the coupling of
        vertex cells[c, i] with vertex cells[c, j]."""
        nv, nloc = self.num_vertices, self.dim + 1
        rows = np.repeat(self.cells, nloc, axis=1).ravel()
        cols = np.tile(self.cells, (1, nloc)).ravel()
        # canonical CSR: rows ascending, sorted unique columns in each row
        pat = sp.coo_matrix((np.ones(rows.size, dtype=np.int8), (rows, cols)),
                            shape=(nv, nv)).tocsr()
        keys = np.repeat(np.arange(nv, dtype=np.int64) * nv,
                         np.diff(pat.indptr)) + pat.indices
        slot = np.searchsorted(keys, rows.astype(np.int64) * nv + cols)
        return tuple(map(_frozen, (pat.indptr, pat.indices,
                                   slot.astype(np.int32))))

    @functools.cached_property
    def mass(self):
        return _frozen(mass_matrix(self))

    @functools.cached_property
    def h1(self):
        return _frozen(h1_matrix(self))

    @functools.cached_property
    def centroid_points(self):
        out = np.zeros((self.num_cells, 3))
        out[:, :self.dim] = self.cell_centroids
        return _frozen(out)


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


def classify_inflow(mesh, v, tol=1e-12):
    """Boundary facets where the advective flux enters the domain.

    Parameters
    ----------
    v : CellField-like or callable
        Velocity.  A per-cell vector field is evaluated on the facet's
        adjacent cell; a callable receives the (nb, dim) facet midpoints
        and returns one velocity row per facet.
    tol : float
        Facets with |v . nu| <= tol are characteristic, not inflow.

    Returns
    -------
    (k,) int array
        Ascending indices into the mesh's boundary-facet arrays.
    """
    if tol < 0.0:
        raise ValueError("tol must be nonnegative")
    if callable(v):
        vec = np.asarray(v(mesh.facet_midpoints), dtype=float)
    else:
        vec = np.asarray(v.values, dtype=float)[mesh.facet_cells]
    vn = _rowdot(np.ascontiguousarray(vec[:, :mesh.dim]), mesh.facet_normals)
    return np.flatnonzero(vn < -tol)
