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
    (E1, E2, E3) to (E2, -E1, 0).  The result has E's memory layout, so
    the (3, N) rows of a transposed view stay contiguous."""
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
    coefficients P_m and remainder R.  Every array is cell-last: it holds
    `w` (3, nc) and the read-only `Pw` = (P_m w)[:dim], shape
    (M, dim, nc); a call with gamma_c (nc,) returns (g, h), each
    (dim, nc), and `weak_divergence` the same split after the P1 weak
    divergence.
    """

    def __init__(self, mesh, family, E):
        self.mesh = mesh
        self.family = family
        self.w = cross_b0(E.values).T
        P = family.poly_coeffs(mesh.centroid_points)[:, :mesh.dim]
        self.Pw = np.einsum("mijc,jc->mic", P, self.w)  # P: (M, dim, 3, nc)
        self.Pw.flags.writeable = False     # a call hands out Pw[0] itself

    def __call__(self, gamma_c):
        g = power_series(self.Pw[1:], gamma_c)
        if not self.family.has_remainder:
            return g, self.Pw[0]
        return g, self.Pw[0] + self._remainder_flux(gamma_c)

    def _remainder_flux(self, gamma_c):
        rat = self.family.rational(self.mesh.centroid_points,
                                   gamma_c)[:self.mesh.dim]
        return np.einsum("ijc,jc->ic", rat, self.w)

    @functools.cached_property
    def _weak_powers(self):
        """weak_p1_rows of each P_m w, m >= 1, shape (M - 1, nloc, nc),
        and the P1 weak divergence of P_0 w, both read-only; built on
        the first `weak_divergence`, so a split that only evaluates the
        flux never pays for them."""
        mesh = self.mesh
        W = np.empty((len(self.Pw) - 1, mesh.dim + 1, mesh.num_cells))
        for m in range(1, len(self.Pw)):
            W[m - 1] = weak_p1_rows(mesh, self.Pw[m])
        c0 = weak_p1_from_flux(mesh, self.Pw[0].T)
        W.flags.writeable = c0.flags.writeable = False
        return W, c0

    def weak_divergence(self, gamma_c):
        """(rows, c) at gamma_c: the local rows (nloc, nc) of g's P1 weak
        divergence and h's P1 weak divergence (nv,).  The weak
        divergence is linear in the flux, so rows sums the cached rows
        of the P_m w by `power_series`, and c is the cached constant
        (itself, read-only, without a remainder) plus the weak
        divergence of R(gamma_c) w."""
        W, c0 = self._weak_powers
        rows = power_series(W, gamma_c)
        if not self.family.has_remainder:
            return rows, c0
        return rows, c0 + weak_p1_from_flux(
            self.mesh, self._remainder_flux(gamma_c).T)


def flux_field(mesh, family, gamma_cell_values, E):
    """Per-cell flux q = A(x, gamma) (E x B0), in-plane components,
    shape (nc, dim): the transposed view of its (dim, nc) rows.

    gamma_cell_values: (nc,) parameter values at cell centroids.
    E: CellField (nc, 3).
    """
    g, h = FluxSplit(mesh, family, E)(gamma_cell_values)
    return (gamma_cell_values * g + h).T


def weak_p1_rows(mesh, q):
    """Per-cell local rows of the P1-weak divergence of a per-cell flux,
    cell-last: q has shape (dim, nc) and the rows (nloc, nc).  Row
    [i, c] is -|c| q . grad phi_i plus, for each boundary facet f of
    cell c through vertex i, the facet's share (q . nu) |f| / dim =
    int_f (q . nu) phi_i ds, added in facet order.
    """
    rows = -mesh.cell_volumes * np.einsum("idc,dc->ic", mesh.local_grads, q)
    fc = mesh.facet_cells
    qn = np.einsum("df,fd->f", q[:, fc], mesh.facet_normals)
    share = qn * mesh.facet_measures * (1.0 / mesh.dim)
    np.add.at(rows, (mesh.facet_local, fc[:, None]), share[:, None])
    return rows


def weak_p1_from_flux(mesh, q):
    """P1-weak divergence of a per-cell flux q, shape (nc, dim), read
    through its transpose (`weak_p1_rows`):
    r_i = -int q . grad phi_i dx + bdry int (q . nu) phi_i ds."""
    return scatter_p1(mesh, weak_p1_rows(mesh, q.T))


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
    avoiding the inverse crime, and the nodal projection of F is
    restricted to `mesh` by injection: every vertex of `mesh` is a vertex
    of the finer mesh and takes its value there.
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
    coarse = (slice(None, None, refine),) * mesh.dim
    F_coarse = NodalField(mesh, fine.grid_view(
        data.nodal_projection.values)[coarse].ravel())
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
    then hold one finite value per mesh vertex, with no bytes after
    them."""
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
            vec = np.frombuffer(take(8 * size, what), dtype="<f8").copy()
            if not np.all(np.isfinite(vec)):
                raise ValueError("container %s has non-finite values" % what)
            return vec

        p1 = read_vec("p1_weak")
        nodal = read_vec("nodal projection")
        if buf.read(1):
            raise ValueError("container payload has trailing bytes")
    return FunctionalData(mesh, p1, NodalField(mesh, nodal), src_n)

