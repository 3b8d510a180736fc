"""P1 finite element solver for the Neumann conductivity problem.

The Maxwell system is reduced to the elliptic problem

    div(A(x, gamma) grad u) = -div(A(x, gamma) Etilde)   in Omega,
    (A grad u + A Etilde) . nu = 0                        on the boundary,

with Etilde = 0.5 * (-y, x, 0), and the electric field is recovered as
E = Etilde + grad u (per cell, exact P1 gradient).
"""

import numpy as np
import scipy.sparse.linalg as spla

from .fields import CellField, NodalField, assemble_p1, scatter_p1

__all__ = [
    "SparseSystem",
    "SolverError",
    "NeumannFactor",
    "etilde",
    "assemble",
    "load_vector",
    "spd_factor",
    "solve_mean_zero",
    "electric_field",
    "solve_field",
    "export_matrix_market",
]


class SolverError(RuntimeError):
    """Iterative solver failure; carries the residual history."""

    def __init__(self, message, residuals):
        super().__init__(message)
        self.residuals = residuals


class SparseSystem:
    """Symmetric sparse stiffness matrix plus right-hand side."""

    def __init__(self, matrix, rhs):
        self.matrix = matrix
        self.rhs = rhs


def etilde(x):
    """Reference field 0.5 * (-y, x, 0); accepts one point or (N, d)."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    out = np.zeros((pts.shape[0], 3))
    out[:, 0] = -0.5 * pts[:, 1]
    out[:, 1] = 0.5 * pts[:, 0]
    return out[0] if single else out


def conductivity_blocks(mesh, family, gamma):
    """In-plane conductivity matrix per cell, shape (nc, dim, dim).

    The raw dofs of gamma (vertex or cell values) are range-checked,
    then A is evaluated at cell centroids (one-point quadrature) and the
    upper-left dim x dim block kept; this is exact for the in-plane
    action of every builtin family because A couples the z-axis only
    diagonally.
    """
    nodal = isinstance(gamma, NodalField)
    family._check_range(gamma.values, "vertex" if nodal else "cell")
    gc = gamma.cell_means() if nodal else gamma.values
    A = family.eval_many(mesh.centroid_points, gc, check_range=False)
    return A[:, :mesh.dim, :mesh.dim]


def assemble(mesh, family, gamma):
    """Neumann system for the field potential u (pure Neumann, singular).

    rhs_i = -int A(x, gamma) Etilde . grad phi_i dx, evaluated with the
    same centroid quadrature as the stiffness matrix.
    """
    B = conductivity_blocks(mesh, family, gamma)
    g = mesh.cell_grads                       # (nc, nloc, dim)
    vg = g * mesh.cell_volumes[:, None, None]
    K = assemble_p1(mesh, vg @ B @ g.transpose(0, 2, 1))
    et = etilde(mesh.cell_centroids)[:, :mesh.dim]
    q = np.einsum("cde,ce->cd", B, et)        # A Etilde per cell, in-plane
    b = scatter_p1(mesh, -np.einsum("c,cid,cd->ci", mesh.cell_volumes, g, q))
    return SparseSystem(K, b)


def load_vector(mesh, f):
    """Load vector int f phi_i dx via an edge-midpoint quadrature (2D,
    exact for quadratics) or the vertex rule (3D)."""
    nloc = mesh.dim + 1
    x = mesh.vertices[mesh.cells]             # (nc, nloc, dim)
    vol = mesh.cell_volumes
    local = np.zeros((mesh.num_cells, nloc))
    if mesh.dim == 2:
        # midpoints of edges (i, j); phi_k = 1/2 on its two adjacent edges
        for (i, j) in [(0, 1), (1, 2), (0, 2)]:
            fv = np.asarray(f(0.5 * (x[:, i, :] + x[:, j, :])), dtype=float)
            local[:, [i, j]] += (0.5 * vol / 3.0 * fv)[:, None]
    else:
        for i in range(nloc):
            local[:, i] = vol / nloc * np.asarray(f(x[:, i, :]), dtype=float)
    return scatter_p1(mesh, local)


def spd_factor(A):
    """Sparse LU of a symmetric positive definite matrix: symmetric
    ordering and no pivoting (safe for SPD).  Raises scipy's
    RuntimeError on failure; callers turn it into their own error."""
    return spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A",
                     diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))


# CG iterations a lagged factor may take before the solve factors its own
# matrix; about what one factorization costs in iterations.
_LAG_MAXITER = 20
# Relative residual a lagged-factor solve reaches, whatever looser tol
# the caller asked for.  With its own factor, the single CG iteration of
# a solve ends at 1e-15 to 5e-13; stopping a lagged solve at tol (1e-10)
# instead would make results depend on which factor a holder kept, e.g.
# a field sweep's ratio on the order of its pairs (by 1e-9 relative).
# The two extra iterations this takes cost far less than a factor.
_LAG_RTOL = 1e-13


class NeumannFactor:
    """Holder for the sparse factor of a pinned Neumann matrix.

    A caller that solves several nearby systems (the perturbed parameters
    of a sweep) creates one holder and passes it to every solve.  The
    first solve factors its matrix and leaves the factor here; later
    solves use it as a lagged CG preconditioner and replace it only when
    CG has not converged within _LAG_MAXITER iterations.  The factor
    lives as long as the holder does.
    """

    def __init__(self):
        self.lu = None


def _deflated_cg(K, b, e, lu, tol, max_iter, history):
    """CG on the mean-zero subspace from zero, preconditioned with the
    deflated factor lu of the pinned matrix (the exact inverse on
    mean-zero vectors when lu is the factor of K).  Appends relative
    residuals to history; returns the solution, or None when tol was not
    reached within max_iter iterations."""
    n = K.shape[0]
    bnorm = np.linalg.norm(b)

    def deflate(v):
        return v - (e @ v) * e

    def precond(r):
        z = np.zeros(n)
        z[1:] = lu.solve(r[1:])
        return deflate(z)

    x = np.zeros(n)
    r = b.copy()
    z = precond(r)
    p = z.copy()
    rz = r @ z
    for _ in range(max_iter):
        Kp = deflate(K @ p)
        alpha = rz / (p @ Kp)
        x += alpha * p
        r -= alpha * Kp
        r = deflate(r)
        rel = np.linalg.norm(r) / bnorm
        history.append(rel)
        if rel <= tol:
            return deflate(x)
        z = precond(r)
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    return None


def solve_mean_zero(system, tol=1e-10, max_iter=None, factor=None):
    """Conjugate gradients on the singular Neumann system.

    The constant null-space mode is projected out of the residual at
    every iteration; the returned vector has zero Euclidean mean over the
    vertices.  CG is preconditioned with a sparse factor of a system
    with vertex 0 pinned, deflated.  `factor` is a NeumannFactor: when
    it holds a factor of the right size, CG first runs with that lagged
    factor (at most _LAG_MAXITER iterations, to a relative residual of
    min(tol, _LAG_RTOL)); when it is empty or that attempt falls short,
    the system's own matrix is factored, kept in the holder, and CG runs
    again from zero (one or two iterations, since the factor is then
    exact).  Without a holder the factor lives only for this call.
    Raises SolverError (with the residual history of every attempt) on
    non-convergence or a failed factorization.
    """
    K = system.matrix
    n = K.shape[0]
    if max_iter is None:
        max_iter = 10 * n
    e = np.ones(n) / np.sqrt(n)
    b = system.rhs.astype(float)
    b = b - (e @ b) * e
    if np.linalg.norm(b) == 0.0:
        return np.zeros(n), [0.0]

    holder = factor if factor is not None else NeumannFactor()
    history = [1.0]
    if holder.lu is not None and holder.lu.shape == (n - 1, n - 1):
        x = _deflated_cg(K, b, e, holder.lu, min(tol, _LAG_RTOL),
                         min(max_iter, _LAG_MAXITER), history)
        if x is not None:
            return x, history
    holder.lu = None              # release the old factor first
    try:
        holder.lu = spd_factor(K[1:, 1:])
    except RuntimeError as exc:
        raise SolverError("factorization of the pinned Neumann system "
                          "failed: %s" % exc, history)
    x = _deflated_cg(K, b, e, holder.lu, tol, max_iter, history)
    if x is not None:
        return x, history
    holder.lu = None   # the traceback of the error keeps this frame alive
    raise SolverError(
        "CG did not reach tol=%g in %d iterations (residual %.3g)"
        % (tol, max_iter, history[-1]), history)


def electric_field(mesh, u):
    """Per-cell electric field E = grad u + Etilde(centroid), shape (nc, 3)."""
    E = etilde(mesh.cell_centroids)
    E[:, :mesh.dim] += u.cell_gradients()
    return CellField(mesh, E)


def solve_field(mesh, family, gamma, tol=1e-10, factor=None):
    """Assemble and solve the Neumann problem; return (u, E).

    The potential u is normalized to zero L2 mean using the mesh's mass
    matrix.  `factor` is an optional NeumannFactor shared with other
    solves (see solve_mean_zero).
    """
    system = assemble(mesh, family, gamma)
    vals, _ = solve_mean_zero(system, tol=tol, factor=factor)
    vol = mesh.cell_volumes.sum()
    vals = vals - (mesh.mass @ vals).sum() / vol
    u = NodalField(mesh, vals)
    return u, electric_field(mesh, u)


def export_matrix_market(system, prefix):
    """Dump K and b in Matrix Market coordinate/array format."""
    from scipy.io import mmwrite
    mmwrite(prefix + "_K.mtx", system.matrix.tocoo())
    mmwrite(prefix + "_b.mtx", system.rhs.reshape(-1, 1))
