"""The forward data map: gamma -> F(gamma) = div(A(x, gamma) (E x B0)).

F is kept in weak form.  Two test spaces are served, matching the two
transport discretizations: P1 (continuous) and DG0 (cell indicators).
The DG0 functional uses the upwind face trace of the flux so that data
generated on the inversion mesh is exactly consistent with the upwinded
transport operator.
"""

import csv
import hashlib
import io
import struct

import numpy as np
import scipy.sparse.linalg as spla

from .fields import CellField, NodalField, interpolate_nodal, scatter_p1
from .mesh import build_unit_cube, build_unit_square
from .neumann import SolverError, solve_field

__all__ = [
    "FunctionalData",
    "cross_b0",
    "flux_field",
    "weak_p1_rows",
    "weak_p1_from_flux",
    "upwind_cells",
    "weak_dg0_from_flux",
    "weak_p1_from_nodal",
    "weak_dg0_from_nodal",
    "synthesize",
    "eval_p1",
    "save_functional_data",
    "load_functional_data",
    "write_nodal_csv",
]

_MAGIC = b"MATMIFN1"

# Jacobi-preconditioned CG on the P1 mass matrix converges in 18-26
# iterations at this tolerance whatever the mesh size.
_MASS_RTOL = 1e-13
_MASS_MAXITER = 200


def cross_b0(E):
    """E x B0 with B0 = (0, 0, 1): maps (E1, E2, E3) to (E2, -E1, 0)."""
    E = np.asarray(E, dtype=float)
    single = E.ndim == 1
    v = np.atleast_2d(E)
    out = np.zeros_like(v)
    out[:, 0] = v[:, 1]
    out[:, 1] = -v[:, 0]
    return out[0] if single else out


class FunctionalData:
    """Weak-form acoustic source data on a mesh.

    Attributes
    ----------
    mesh : Mesh
    p1_weak : (nv,) array
        v -> int F v dx tested against the P1 nodal basis.
    dg0_weak : (nc,) array
        Same functional tested against cell indicator functions.
    nodal_projection : NodalField
        L2 projection of F onto P1 (mass-matrix solve of p1_weak).
    flux : CellField or None
        The per-cell flux q = A(gamma)(E x B0) when data was generated on
        this mesh; None when restricted from a finer mesh.
    source_mesh_resolution : int
        Resolution of the mesh the data was generated on.
    field : CellField or None
        The electric field E of the Neumann solve when data was generated
        on this mesh, so a caller need not solve for it again; None when
        restricted from a finer mesh or loaded from a file (not stored).
    """

    def __init__(self, mesh, p1_weak, dg0_weak, nodal_projection, flux,
                 source_mesh_resolution, field=None):
        self.mesh = mesh
        self.p1_weak = p1_weak
        self.dg0_weak = dg0_weak
        self.nodal_projection = nodal_projection
        self.flux = flux
        self.source_mesh_resolution = int(source_mesh_resolution)
        self.field = field

    def boundary_flux_total(self):
        """Total weak integral of F (equals the boundary flux integral)."""
        return float(self.p1_weak.sum())


def flux_field(mesh, family, gamma_cell_values, E):
    """Per-cell flux q = A(x, gamma) (E x B0), in-plane components.

    gamma_cell_values: (nc,) parameter values at cell centroids.
    E: CellField (nc, 3).
    """
    A = family.eval_many(mesh.centroid_points, gamma_cell_values,
                         check_range=False)
    w = cross_b0(E.values)                    # (nc, 3)
    q = np.einsum("cij,cj->ci", A, w)
    return q[:, :mesh.dim]


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


def upwind_cells(mesh, w):
    """Upwind cell of each internal face for the per-cell in-plane
    velocity w: face_left where the face-averaged w points along the
    face normal (or is tangent to the face), face_right otherwise."""
    L, R = mesh.face_left, mesh.face_right
    vn = np.einsum("fd,fd->f", 0.5 * (w[L] + w[R]), mesh.face_normals)
    return np.where(vn >= 0.0, L, R)


def weak_dg0_from_flux(mesh, q, w):
    """DG0-weak divergence with upwind face traces.

    On each internal face the flux trace is taken from the upwind cell
    with respect to the face-averaged advective velocity w (per-cell,
    in-plane, see `upwind_cells`); boundary facets use the adjacent
    cell's flux.
    """
    r = np.zeros(mesh.num_cells)
    qn = np.einsum("fd,fd->f", q[upwind_cells(mesh, w)],
                   mesh.face_normals) * mesh.face_measures
    np.add.at(r, mesh.face_left, qn)
    np.add.at(r, mesh.face_right, -qn)
    fc = mesh.facet_cells
    np.add.at(r, fc, np.einsum("fd,fd->f", q[fc], mesh.facet_normals)
              * mesh.facet_measures)
    return r


def weak_p1_from_nodal(mesh, F):
    """P1-weak vector of a pointwise P1 source field F."""
    return mesh.mass @ F.values


def weak_dg0_from_nodal(mesh, F):
    """Cell integrals of a P1 source field."""
    return mesh.cell_volumes * F.cell_means()


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
    prec = spla.LinearOperator(M.shape, matvec=lambda r: dinv * r,
                               dtype=float)
    x, info = spla.cg(M, rhs, rtol=_MASS_RTOL, maxiter=_MASS_MAXITER, M=prec)
    if info != 0:
        resid = np.linalg.norm(rhs - M @ x) / np.linalg.norm(rhs)
        raise SolverError("mass-matrix CG did not reach rtol=%g in %d "
                          "iterations (residual %.3g)"
                          % (_MASS_RTOL, _MASS_MAXITER, resid), [resid])
    return x


def synthesize(family, gamma_star, mesh, refine=1, factor=None):
    """Generate the weak acoustic-source data F(gamma_star) on `mesh`.

    gamma_star may be a NodalField on `mesh` or a callable of the vertex
    coordinates.  With refine > 1 the Neumann solve runs on a
    refine-times finer mesh and the nodal projection of F is restricted
    to `mesh` by P1 interpolation at the coarse vertices, avoiding the
    inverse crime.  `factor` is an optional neumann.LaggedFactor
    shared with other solves.
    """
    if refine < 1:
        raise ValueError("refine must be >= 1")

    if refine == 1:
        if callable(gamma_star):
            gamma = interpolate_nodal(mesh, gamma_star)
        else:
            gamma = gamma_star
        _, E = solve_field(mesh, family, gamma, factor=factor)
        gc = gamma.cell_means() if isinstance(gamma, NodalField) \
            else gamma.values
        q = flux_field(mesh, family, gc, E)
        w = cross_b0(E.values)[:, :mesh.dim]
        p1 = weak_p1_from_flux(mesh, q)
        dg0 = weak_dg0_from_flux(mesh, q, w)
        proj = NodalField(mesh, _mass_solve(mesh, p1))
        return FunctionalData(mesh, p1, dg0, proj, CellField(mesh, q), mesh.n,
                              field=E)

    builder = build_unit_square if mesh.dim == 2 else build_unit_cube
    fine = builder(mesh.n * refine)
    if callable(gamma_star):
        gamma_f = interpolate_nodal(fine, gamma_star)
    else:
        gamma_f = NodalField(fine, eval_p1(gamma_star, fine.vertices))
    _, E = solve_field(fine, family, gamma_f, factor=factor)
    q = flux_field(fine, family, gamma_f.cell_means(), E)
    p1_f = weak_p1_from_flux(fine, q)
    proj_f = NodalField(fine, _mass_solve(fine, p1_f))
    F_coarse = NodalField(mesh, eval_p1(proj_f, mesh.vertices))
    p1 = weak_p1_from_nodal(mesh, F_coarse)
    dg0 = weak_dg0_from_nodal(mesh, F_coarse)
    return FunctionalData(mesh, p1, dg0, F_coarse, None, fine.n)


# -- serialization ------------------------------------------------------

def save_functional_data(data, path):
    """Flat little-endian binary container for FunctionalData.

    The header stores the mesh content hash and a SHA-256 of the payload
    so both loading onto the wrong mesh and file corruption are caught.
    """
    mesh = data.mesh
    chunks = [struct.pack("<iii", mesh.dim, mesh.n,
                          data.source_mesh_resolution)]
    for vec in (data.p1_weak, data.dg0_weak,
                data.nodal_projection.values):
        arr = np.asarray(vec, dtype="<f8")
        chunks.append(struct.pack("<q", arr.size))
        chunks.append(arr.tobytes())
    if data.flux is not None:
        arr = np.ascontiguousarray(data.flux.values, dtype="<f8")
        chunks.append(struct.pack("<q", arr.size))
        chunks.append(arr.tobytes())
    else:
        chunks.append(struct.pack("<q", 0))
    payload = b"".join(chunks)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(mesh.content_hash().encode("ascii"))
        fh.write(hashlib.sha256(payload).hexdigest().encode("ascii"))
        fh.write(payload)


def load_functional_data(mesh, path):
    """Read a container written by save_functional_data.  The payload
    must be intact, its stored dim and n must match the supplied mesh,
    and so must the mesh hash, checked in that order."""
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != _MAGIC:
            raise ValueError("not a functional-data container: bad magic")
        stored = fh.read(64).decode("ascii")
        payload_hash = fh.read(64).decode("ascii")
        payload = fh.read()
    if hashlib.sha256(payload).hexdigest() != payload_hash:
        raise ValueError("payload hash mismatch: file corrupted")
    with io.BytesIO(payload) as buf:
        dim, n, src_n = struct.unpack("<iii", buf.read(12))
        if dim != mesh.dim or n != mesh.n:
            raise ValueError("container mesh descriptor does not match: "
                             "dim %d, n %d vs mesh dim %d, n %d"
                             % (dim, n, mesh.dim, mesh.n))
        if stored != mesh.content_hash():
            raise ValueError("mesh hash mismatch: container %s... vs mesh "
                             "%s..." % (stored[:12], mesh.content_hash()[:12]))

        def read_vec():
            (size,) = struct.unpack("<q", buf.read(8))
            return np.frombuffer(buf.read(8 * size), dtype="<f8").copy()

        p1 = read_vec()
        dg0 = read_vec()
        nodal = read_vec()
        raw = read_vec()
    flux = None
    if raw.size:
        flux = CellField(mesh, raw.reshape(mesh.num_cells, mesh.dim))
    return FunctionalData(mesh, p1, dg0, NodalField(mesh, nodal), flux, src_n)


def write_nodal_csv(field, path):
    """CSV of vertex coordinates and nodal values, for plotting."""
    mesh = field.mesh
    cols = ["x", "y", "z"][:mesh.dim]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(cols + ["value"])
        for p, v in zip(mesh.vertices, field.values):
            w.writerow(["%.17g" % c for c in p] + ["%.17g" % v])
