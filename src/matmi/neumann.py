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
    "LaggedFactor",
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


# CG iterations per attempt of a Neumann solve: a lagged factor that
# needs more is replaced by the solve's own (about what one factorization
# costs in iterations), and that one needs one or two.
_LAG_MAXITER = 20
# Relative residual a Neumann solve reaches, whatever looser tol the
# caller asked for.  With its own factor, CG ends at 1e-15 to 5e-13 after
# one iteration; stopping a lagged solve at tol (1e-10) instead would make
# results depend on which factor a holder kept, e.g. a field sweep's
# ratio on the order of its pairs (by 1e-9 relative).  The two extra
# iterations this takes cost far less than a factor.
_LAG_RTOL = 1e-13


class LaggedFactor:
    """Holder for the sparse factor of an SPD matrix, used as the CG
    preconditioner of later, nearby systems.

    A caller that solves several nearby systems (the perturbed parameters
    of a sweep, the inner steps of a least-squares update) creates one
    holder and passes it to every solve.  The factor lives as long as the
    holder does.
    """

    def __init__(self):
        self.lu = None

    def solve(self, A, rhs, x0, rtol, maxiter, matrix=None, callback=None):
        """Solve the SPD system A x = rhs by CG from x0 (None: zero) to a
        relative residual of rtol, preconditioned with the held factor.

        When the holder is empty, holds a factor of another size, or CG
        has not converged within maxiter iterations, `matrix()` (default:
        A itself, which must then be a sparse matrix) is factored, kept
        here, and CG runs again from x0.  `callback(x)` is called after
        every CG iteration of either attempt.  Raises SolverError when
        the factorization fails or CG misses even with the fresh factor.
        """
        n = rhs.shape[0]
        lagged = self.lu is not None and self.lu.shape == (n, n)
        for fresh in ((False, True) if lagged else (True,)):
            if fresh:
                self.lu = None              # release the old factor first
                try:
                    self.lu = spd_factor(A if matrix is None else matrix())
                except RuntimeError as exc:
                    raise SolverError("factorization failed: %s" % exc, [])
            # the preconditioner is built inline: a name bound to it would
            # keep the lagged factor alive while the fresh one is built
            x, info = spla.cg(A, rhs, x0=x0, rtol=rtol, maxiter=maxiter,
                              M=spla.LinearOperator((n, n), dtype=float,
                                                    matvec=self.lu.solve),
                              callback=callback)
            if info == 0:
                return x
        self.lu = None   # the traceback of the error keeps this frame alive
        resid = np.linalg.norm(rhs - A @ x) / np.linalg.norm(rhs)
        raise SolverError("CG did not reach rtol=%g in %d iterations with "
                          "a fresh factor (residual %.3g)"
                          % (rtol, maxiter, resid), [resid])


def solve_mean_zero(system, tol=1e-10, factor=None):
    """Solve the singular Neumann system; the returned vector has zero
    Euclidean mean over the vertices.

    The right-hand side is projected to mean zero, which makes the
    system compatible; then the block with vertex 0 pinned is symmetric
    positive definite, and its solution (with vertex 0 set to 0) solves
    the singular system exactly.  That block is solved through `factor`,
    a LaggedFactor (see LaggedFactor.solve), to a relative residual of
    min(tol, _LAG_RTOL) within _LAG_MAXITER CG iterations per attempt.
    Without a holder the factor lives only for this call.  Returns the
    values and the residual history: 1.0, then the relative residual of
    the pinned block after every CG iteration.  Raises SolverError (with
    that history) on non-convergence or a failed factorization.
    """
    K = system.matrix
    n = K.shape[0]
    b = system.rhs.astype(float)
    b = b - b.mean()
    if np.linalg.norm(b) == 0.0:
        return np.zeros(n), [0.0]

    K1, b1 = K[1:, 1:], b[1:]
    bnorm = np.linalg.norm(b1)
    history = [1.0]

    def record(x):
        history.append(np.linalg.norm(b1 - K1 @ x) / bnorm)

    holder = factor if factor is not None else LaggedFactor()
    try:
        x1 = holder.solve(K1, b1, None, min(tol, _LAG_RTOL), _LAG_MAXITER,
                          callback=record)
    except SolverError as exc:
        raise SolverError("pinned Neumann system: %s" % exc, history)
    x = np.r_[0.0, x1]
    return x - x.mean(), history


def electric_field(mesh, u):
    """Per-cell electric field E = grad u + Etilde(centroid), shape (nc, 3)."""
    E = etilde(mesh.cell_centroids)
    E[:, :mesh.dim] += u.cell_gradients()
    return CellField(mesh, E)


def solve_field(mesh, family, gamma, tol=1e-10, factor=None):
    """Assemble and solve the Neumann problem; return (u, E).

    The potential u is normalized to zero L2 mean using the mesh's mass
    matrix.  `factor` is an optional LaggedFactor shared with other
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
