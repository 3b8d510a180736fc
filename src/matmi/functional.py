"""The forward data map: gamma -> F(gamma) = div(A(x, gamma) (E x B0)).

F is kept in weak form, tested against the P1 nodal basis, together with
its L2 projection onto P1.  `field_data` computes both from a solved
field E, for `synthesize`, the outer loop's residual and the data sweep.
`FluxSplit`, the one evaluator of the flux at the cell centroids, and
`weak_p1_rows`, the one P1 weak divergence of a per-cell flux, are
shared by the data and the least-squares update.
"""

import functools
import hashlib
import io
import struct

import numpy as np

from .anisotropy import power_series
from .fields import NodalField, interpolate_nodal, scatter_p1
from .mesh import build_unit_cube, build_unit_square
from .neumann import SolverError, pcg, solve_field

__all__ = [
    "FunctionalData",
    "FluxSplit",
    "cross_b0",
    "flux_field",
    "weak_p1_rows",
    "weak_p1_from_flux",
    "field_data",
    "synthesize",
    "eval_p1",
    "save_functional_data",
    "load_functional_data",
]

_MAGIC = b"MATMIFN2"

# Jacobi-preconditioned CG on the P1 mass matrix converges in 18-26
# iterations at this tolerance whatever the mesh size.
_MASS_RTOL = 1e-13
_MASS_MAXITER = 200


def cross_b0(E):
    """E x B0 with B0 = (0, 0, 1), row by row of an (N, 3) array: maps
    (E1, E2, E3) to (E2, -E1, 0)."""
    out = np.zeros_like(E)
    out[:, 0] = E[:, 1]
    out[:, 1] = -E[:, 0]
    return out


class FunctionalData:
    """Weak-form acoustic source data on a mesh.

    Attributes
    ----------
    mesh : Mesh
    p1_weak : (nv,) array
        v -> int F v dx tested against the P1 nodal basis; the
        right-hand side of the least-squares transport update.
    nodal_projection : NodalField
        L2 projection of F onto P1 (mass-matrix solve of p1_weak); the
        data residual compares against it.
    source_mesh_resolution : int
        Resolution of the mesh the data was generated on.
    """

    def __init__(self, mesh, p1_weak, nodal_projection,
                 source_mesh_resolution):
        self.mesh = mesh
        self.p1_weak = p1_weak
        self.nodal_projection = nodal_projection
        self.source_mesh_resolution = int(source_mesh_resolution)


class FluxSplit:
    """The in-plane flux A(x_c, gamma_c) w, w = E x B0, at the cell
    centroids, split as gamma_c * g + h: g = sum_{m>=1} gamma_c^(m-1)
    P_m w and h = P_0 w + R(gamma_c) w, for the family's polynomial
    coefficients P_m and remainder R.  Holds `w` (nc, 3) and the
    read-only `Pw` = (P_m w)[:, :dim], shape (M, nc, dim); a call with
    gamma_c returns (g, h), each (nc, dim), and `weak_divergence` the
    same split after the P1 weak divergence.
    """

    def __init__(self, mesh, family, E):
        self.mesh = mesh
        self.family = family
        self.w = cross_b0(E.values)
        # einsum runs 3-6x slower on the family's strided or zero-stride
        # view than on a contiguous copy of the in-plane block
        P = np.ascontiguousarray(
            family.poly_coeffs(mesh.centroid_points)[:, :, :mesh.dim])
        self.Pw = np.einsum("cmij,cj->mci", P, self.w)  # P: (nc, M, dim, 3)
        self.Pw.flags.writeable = False     # a call hands out Pw[0] itself

    def __call__(self, gamma_c):
        g = power_series(self.Pw[1:], gamma_c)
        if not self.family.has_remainder:
            return g, self.Pw[0]
        return g, self.Pw[0] + self._remainder_flux(gamma_c)

    def _remainder_flux(self, gamma_c):
        rat = self.family.rational(self.mesh.centroid_points,
                                   gamma_c)[:, :self.mesh.dim]
        return np.einsum("cij,cj->ci", rat, self.w)

    @functools.cached_property
    def _weak_powers(self):
        """weak_p1_rows of each P_m w, m >= 1, shape (M - 1, nc, nloc),
        and the P1 weak divergence of P_0 w, both read-only; built on
        the first `weak_divergence`, so a split that only evaluates the
        flux never pays for them."""
        mesh = self.mesh
        W = np.empty((len(self.Pw) - 1, mesh.num_cells, mesh.dim + 1))
        for m in range(1, len(self.Pw)):
            W[m - 1] = weak_p1_rows(mesh, self.Pw[m])
        c0 = weak_p1_from_flux(mesh, self.Pw[0])
        W.flags.writeable = c0.flags.writeable = False
        return W, c0

    def weak_divergence(self, gamma_c):
        """(rows, c) at gamma_c: the local rows (nc, nloc) of g's P1 weak
        divergence and h's P1 weak divergence (nv,).  The weak
        divergence is linear in the flux, so rows sums the cached rows
        of the P_m w by `power_series`, and c is the cached constant
        (itself, read-only, without a remainder) plus the weak
        divergence of R(gamma_c) w."""
        W, c0 = self._weak_powers
        rows = power_series(W, gamma_c)
        if not self.family.has_remainder:
            return rows, c0
        return rows, c0 + weak_p1_from_flux(self.mesh,
                                            self._remainder_flux(gamma_c))


def flux_field(mesh, family, gamma_cell_values, E):
    """Per-cell flux q = A(x, gamma) (E x B0), in-plane components.

    gamma_cell_values: (nc,) parameter values at cell centroids.
    E: CellField (nc, 3).
    """
    g, h = FluxSplit(mesh, family, E)(gamma_cell_values)
    return gamma_cell_values[:, None] * g + h


def weak_p1_rows(mesh, q):
    """Per-cell local rows of the P1-weak divergence of a per-cell flux,
    shape (nc, nloc): row [c, i] is -|c| q . grad phi_i plus, for each
    boundary facet f of cell c through vertex i, the facet's share
    (q . nu) |f| / dim = int_f (q . nu) phi_i ds, added in facet order.
    """
    rows = -mesh.cell_volumes[:, None] * np.einsum("cid,cd->ci",
                                                   mesh.cell_grads, q)
    fc = mesh.facet_cells
    qn = np.einsum("fd,fd->f", q[fc], mesh.facet_normals)
    share = qn * mesh.facet_measures * (1.0 / mesh.dim)
    np.add.at(rows, (fc[:, None], mesh.facet_local), share[:, None])
    return rows


def weak_p1_from_flux(mesh, q):
    """P1-weak divergence of a per-cell flux:
    r_i = -int q . grad phi_i dx + bdry int (q . nu) phi_i ds."""
    return scatter_p1(mesh, weak_p1_rows(mesh, q))


def eval_p1(field, points):
    """Evaluate a NodalField on a structured mesh at arbitrary points.

    Each point is located among the cells of its grid box: the first
    cell whose barycentric coordinates are all >= -1e-10 holds it.
    """
    mesh = field.mesh
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n, dim = mesh.n, mesh.dim
    idx = np.minimum((pts * n).astype(int), n - 1)
    box = idx[:, 0]
    for d in range(1, dim):
        box = box * n + idx[:, d]
    per_box = 2 if dim == 2 else 6
    cand = box[:, None] * per_box + np.arange(per_box)   # (np, per_box)
    x = mesh.vertices[mesh.cells[cand]]       # (np, per_box, dim+1, dim)
    T = np.swapaxes(x[:, :, 1:] - x[:, :, :1], 2, 3)
    lam = np.linalg.solve(T, (pts[:, None] - x[:, :, 0])[..., None])[..., 0]
    bary = np.concatenate([1.0 - lam.sum(axis=2, keepdims=True), lam], axis=2)
    inside = np.all(bary >= -1e-10, axis=2)
    located = inside.any(axis=1)
    if not located.all():
        raise ValueError("point %s not located in mesh"
                         % (pts[np.argmin(located)],))
    rows = np.arange(len(pts))
    first = inside.argmax(axis=1)
    vals = field.values[mesh.cells[cand[rows, first]]]
    return (bary[rows, first][:, None, :] @ vals[:, :, None])[:, 0, 0]


def _mass_solve(mesh, rhs):
    """Nodal values of the L2 projection with P1-weak vector rhs: M x = rhs
    for M = mesh.mass by Jacobi-preconditioned CG, without a factor."""
    M = mesh.mass
    dinv = 1.0 / M.diagonal()
    x, info = pcg(M.dot, rhs, None, _MASS_RTOL, _MASS_MAXITER,
                  lambda r: dinv * r)
    if info != 0:
        resid = np.linalg.norm(rhs - M @ x) / np.linalg.norm(rhs)
        raise SolverError("mass-matrix CG did not reach rtol=%g in %d "
                          "iterations (residual %.3g)"
                          % (_MASS_RTOL, _MASS_MAXITER, resid))
    return x


def field_data(mesh, family, gamma, E):
    """The data F(gamma) on `mesh`, a FunctionalData, from the field E
    of gamma's Neumann solve there (a NodalField gamma, a CellField E)."""
    p1 = weak_p1_from_flux(mesh, flux_field(mesh, family,
                                            gamma.cell_means(), E))
    proj = NodalField(mesh, _mass_solve(mesh, p1))
    return FunctionalData(mesh, p1, proj, mesh.n)


def synthesize(family, gamma_star, mesh, refine=1):
    """Generate the weak acoustic-source data F(gamma_star) on `mesh`.

    gamma_star is a callable of the vertex coordinates or, at refine=1
    only, a NodalField on `mesh`.  With refine > 1 the Neumann solve runs
    on a refine-times finer mesh, on which the callable is interpolated,
    and the nodal projection of F is restricted to `mesh` by P1
    interpolation at the coarse vertices, avoiding the inverse crime.
    """
    if refine < 1:
        raise ValueError("refine must be >= 1")

    fine = mesh
    if refine > 1:
        if not callable(gamma_star):
            raise ValueError("refined data need gamma_star as a callable: "
                             "a P1 field on the coarse mesh lacks the "
                             "sub-cell variation the finer mesh resolves")
        builder = build_unit_square if mesh.dim == 2 else build_unit_cube
        fine = builder(mesh.n * refine)
    gamma = (interpolate_nodal(fine, gamma_star) if callable(gamma_star)
             else gamma_star)
    _, E = solve_field(fine, family, gamma)
    data = field_data(fine, family, gamma, E)
    if fine is mesh:
        return data
    F_coarse = NodalField(mesh, eval_p1(data.nodal_projection, mesh.vertices))
    return FunctionalData(mesh, mesh.mass @ F_coarse.values, F_coarse, fine.n)


# -- serialization ------------------------------------------------------

def save_functional_data(data, path):
    """Flat little-endian binary container for FunctionalData: the
    descriptor (dim, n, source resolution), p1_weak and the nodal
    projection.

    The header stores the mesh content hash and a SHA-256 of the payload
    so both loading onto the wrong mesh and file corruption are caught.
    """
    mesh = data.mesh
    chunks = [struct.pack("<iii", mesh.dim, mesh.n,
                          data.source_mesh_resolution)]
    for vec in (data.p1_weak, data.nodal_projection.values):
        arr = np.asarray(vec, dtype="<f8")
        chunks.append(struct.pack("<q", arr.size))
        chunks.append(arr.tobytes())
    payload = b"".join(chunks)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(mesh.content_hash().encode("ascii"))
        fh.write(hashlib.sha256(payload).hexdigest().encode("ascii"))
        fh.write(payload)


def load_functional_data(mesh, path):
    """Read a container written by save_functional_data.  The payload
    must be intact, its stored dim and n must match the supplied mesh,
    and so must the mesh hash, checked in that order; each vector must
    then hold one value per mesh vertex, with no bytes after them."""
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic == b"MATMIFN1":    # the earlier, larger container
            raise ValueError("MATMIFN1 functional-data containers are no "
                             "longer read; save the data again to write "
                             "MATMIFN2")
        if magic != _MAGIC:
            raise ValueError("not a functional-data container: bad magic")
        stored = fh.read(64).decode("ascii")
        payload_hash = fh.read(64).decode("ascii")
        payload = fh.read()
    if hashlib.sha256(payload).hexdigest() != payload_hash:
        raise ValueError("payload hash mismatch: file corrupted")
    with io.BytesIO(payload) as buf:
        def take(size, what):
            chunk = buf.read(size)
            if len(chunk) != size:
                raise ValueError("container payload ends inside the " + what)
            return chunk

        dim, n, src_n = struct.unpack("<iii", take(12, "descriptor"))
        if dim != mesh.dim or n != mesh.n:
            raise ValueError("container mesh descriptor does not match: "
                             "dim %d, n %d vs mesh dim %d, n %d"
                             % (dim, n, mesh.dim, mesh.n))
        if stored != mesh.content_hash():
            raise ValueError("mesh hash mismatch: container %s... vs mesh "
                             "%s..." % (stored[:12], mesh.content_hash()[:12]))

        def read_vec(what):
            (size,) = struct.unpack("<q", take(8, what + " size"))
            if size != mesh.num_vertices:
                raise ValueError("container %s has %d values for %d mesh "
                                 "vertices" % (what, size, mesh.num_vertices))
            return np.frombuffer(take(8 * size, what), dtype="<f8").copy()

        p1 = read_vec("p1_weak")
        nodal = read_vec("nodal projection")
        if buf.read(1):
            raise ValueError("container payload has trailing bytes")
    return FunctionalData(mesh, p1, NodalField(mesh, nodal), src_n)

