"""Structured simplicial meshes of the unit square and unit cube.

Meshes are immutable after construction: geometry arrays are computed once
and cached.  The unit square is split into 2*n^2 triangles (diagonal fixed
from lower-left to upper-right), the unit cube into 6*n^3 tetrahedra via
the standard six-tetrahedra subdivision of each grid cube.
"""

import functools
import hashlib

import numpy as np

__all__ = [
    "Mesh",
    "BoundaryFacet",
    "build_unit_square",
    "build_unit_cube",
    "classify_inflow",
]


class BoundaryFacet:
    """One boundary facet: an edge (2D) or triangle (3D) of a single cell.

    Attributes
    ----------
    cell : int
        Index of the unique adjacent cell.
    local_id : int
        Local facet id in that cell (facet opposite local vertex `local_id`).
    vertices : ndarray of int
        Global vertex indices of the facet.
    normal : ndarray
        Outward unit normal.
    measure : float
        Length (2D) or area (3D).
    midpoint : ndarray
        Facet barycenter.
    """

    __slots__ = ("cell", "local_id", "vertices", "normal", "measure", "midpoint")

    def __init__(self, cell, local_id, vertices, normal, measure, midpoint):
        self.cell = int(cell)
        self.local_id = int(local_id)
        self.vertices = vertices
        self.normal = normal
        self.measure = float(measure)
        self.midpoint = midpoint


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
    boundary_facets : list of BoundaryFacet
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
        # cell diameter = longest edge
        nloc = self.dim + 1
        dmax = np.zeros(self.num_cells)
        for i in range(nloc):
            for j in range(i + 1, nloc):
                d = np.linalg.norm(x[:, i, :] - x[:, j, :], axis=1)
                dmax = np.maximum(dmax, d)
        self.cell_diameters = dmax

    def _build_faces(self):
        dim, cells = self.dim, self.cells
        nloc = dim + 1
        nc = self.num_cells
        # facet j of a cell = all local vertices except j
        keep = [[k for k in range(nloc) if k != j] for j in range(nloc)]
        fverts = np.stack([cells[:, k] for k in keep], axis=1)  # (nc, nloc, dim)
        flat = fverts.reshape(nc * nloc, dim)
        key = np.sort(flat, axis=1)
        uniq, inv, counts = np.unique(key, axis=0, return_inverse=True,
                                      return_counts=True)
        owner_cell = np.repeat(np.arange(nc), nloc)
        owner_local = np.tile(np.arange(nloc), nc)
        order = np.argsort(inv, kind="stable")

        boundary = []
        int_left, int_right = [], []
        int_left_local = []
        pos = 0
        for f in range(len(uniq)):
            c = counts[f]
            idx = order[pos:pos + c]
            pos += c
            if c == 1:
                boundary.append((owner_cell[idx[0]], owner_local[idx[0]], uniq[f]))
            elif c == 2:
                a, b = idx
                int_left.append((owner_cell[a], owner_local[a]))
                int_right.append(owner_cell[b])
                int_left_local.append(uniq[f])
            else:
                raise ValueError("facet shared by more than two cells")

        self.boundary_facets = []
        for i, (c, loc, verts) in enumerate(boundary):
            normal, measure, mid = self._facet_geometry(verts, c)
            self.boundary_facets.append(
                BoundaryFacet(c, loc, verts, normal, measure, mid))

        # internal faces (used by the DG transport solver)
        nf = len(int_left)
        self.face_left = np.array([p[0] for p in int_left], dtype=int)
        self.face_right = np.array(int_right, dtype=int)
        self.face_normals = np.zeros((nf, dim))
        self.face_measures = np.zeros(nf)
        self.face_midpoints = np.zeros((nf, dim))
        for i, verts in enumerate(int_left_local):
            normal, measure, mid = self._facet_geometry(verts, self.face_left[i])
            self.face_normals[i] = normal
            self.face_measures[i] = measure
            self.face_midpoints[i] = mid

    def _facet_geometry(self, verts, cell):
        """Unit normal (pointing away from `cell`), measure and midpoint."""
        x = self.vertices[verts]
        mid = x.mean(axis=0)
        if self.dim == 2:
            t = x[1] - x[0]
            normal = np.array([t[1], -t[0]])
            measure = np.linalg.norm(t)
        else:
            t1, t2 = x[1] - x[0], x[2] - x[0]
            normal = np.cross(t1, t2)
            measure = 0.5 * np.linalg.norm(normal)
        normal = normal / np.linalg.norm(normal)
        if np.dot(normal, mid - self.cell_centroids[cell]) < 0.0:
            normal = -normal
        return normal, measure, mid

    @functools.cached_property
    def facet_arrays(self):
        """Boundary facets as arrays (cells, vertices, normals, measures),
        in `boundary_facets` order; gathered on first use."""
        bf = self.boundary_facets
        return (np.array([f.cell for f in bf], dtype=int),
                np.array([f.vertices for f in bf], dtype=int),
                np.array([f.normal for f in bf]),
                np.array([f.measure for f in bf]))

    def content_hash(self):
        """SHA-256 over vertex coordinates and connectivity."""
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.vertices).tobytes())
        h.update(np.ascontiguousarray(self.cells.astype(np.int64)).tobytes())
        return h.hexdigest()

    @functools.cached_property
    def _boundary_vertices(self):
        out = np.unique(self.facet_arrays[1])
        out.flags.writeable = False
        return out

    def boundary_vertex_indices(self):
        """Sorted read-only array of vertex indices lying on the boundary;
        computed once per mesh."""
        return self._boundary_vertices


def build_unit_square(n):
    """Structured triangulation of [0,1]^2 with 2*n^2 cells.

    Each grid square is split along the diagonal running from its
    lower-left to its upper-right corner.
    """
    n = int(n)
    if n < 1:
        raise ValueError("resolution n must be >= 1, got %d" % n)
    coords = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(coords, coords, indexing="ij")
    vertices = np.column_stack([X.ravel(), Y.ravel()])

    def vid(i, j):
        return i * (n + 1) + j

    cells = []
    for i in range(n):
        for j in range(n):
            v00 = vid(i, j)
            v10 = vid(i + 1, j)
            v01 = vid(i, j + 1)
            v11 = vid(i + 1, j + 1)
            cells.append((v00, v10, v11))
            cells.append((v00, v11, v01))
    return Mesh(2, n, vertices, np.array(cells, dtype=int))


_CUBE_PERMUTATIONS = [
    (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0),
]


def build_unit_cube(n):
    """Structured tetrahedralization of [0,1]^3 with 6*n^3 cells."""
    n = int(n)
    if n < 1:
        raise ValueError("resolution n must be >= 1, got %d" % n)
    coords = np.linspace(0.0, 1.0, n + 1)
    X, Y, Z = np.meshgrid(coords, coords, coords, indexing="ij")
    vertices = np.column_stack([X.ravel(), Y.ravel(), Z.ravel()])

    def vid(i, j, k):
        return (i * (n + 1) + j) * (n + 1) + k

    cells = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                base = np.array([i, j, k])
                for perm in _CUBE_PERMUTATIONS:
                    p = [base.copy()]
                    cur = base.copy()
                    for ax in perm:
                        cur = cur.copy()
                        cur[ax] += 1
                        p.append(cur)
                    tet = [vid(*q) for q in p]
                    # odd permutations produce negative orientation
                    e = np.array([vertices[tet[m]] - vertices[tet[0]]
                                  for m in (1, 2, 3)])
                    if np.linalg.det(e) < 0.0:
                        tet[2], tet[3] = tet[3], tet[2]
                    cells.append(tet)
    return Mesh(3, n, vertices, np.array(cells, dtype=int))


def classify_inflow(mesh, v, tol=1e-12):
    """Boundary facets where the advective flux enters the domain.

    Parameters
    ----------
    v : CellField-like or callable
        Velocity.  A per-cell vector field is evaluated on the facet's
        adjacent cell; a callable is evaluated at the facet midpoint.
    tol : float
        Facets with |v . nu| <= tol are characteristic, not inflow.

    Returns
    -------
    set of int
        Indices into ``mesh.boundary_facets``.
    """
    if tol < 0.0:
        raise ValueError("tol must be nonnegative")
    inflow = set()
    for i, f in enumerate(mesh.boundary_facets):
        if callable(v):
            vec = np.asarray(v(f.midpoint), dtype=float)
        else:
            vec = np.asarray(v.values[f.cell], dtype=float)
        if np.dot(vec[:mesh.dim], f.normal) < -tol:
            inflow.add(i)
    return inflow
