"""P1 finite element solver for the Neumann conductivity problem.

The Maxwell system is reduced to the elliptic problem

    div(A(x, gamma) grad u) = -div(A(x, gamma) Etilde)   in Omega,
    (A grad u + A Etilde) . nu = 0                        on the boundary,

with Etilde = 0.5 * (-y, x, 0), and the electric field is recovered as
E = Etilde + grad u (per cell, exact P1 gradient).

Every SPD system of the package (this pinned block and the normal matrix
of the least-squares update) is solved here by `LaggedFactor`: CG in
double precision, preconditioned with a banded Cholesky factor in the
mesh's lexicographic vertex order.  The factor is only ever a
preconditioner, so its band is stored and factored in single precision
(half the bytes); CG recovers the digits.  `pcg` is the package's one CG
loop, used by that holder and by the Jacobi mass solve of `functional`.
"""

import mmap

import numpy as np
import scipy.linalg as sla

from .anisotropy import power_series
from .fields import CellField, NodalField, assemble_p1, scatter_p1

__all__ = [
    "SparseSystem",
    "SolverError",
    "LaggedFactor",
    "etilde",
    "assemble",
    "load_vector",
    "spd_factor",
    "pcg",
    "solve_mean_zero",
    "electric_field",
    "solve_field",
]


class SolverError(RuntimeError):
    """A failed solve; the message says why, with the residual reached
    when CG missed its tolerance."""


class SparseSystem:
    """Symmetric sparse stiffness matrix plus right-hand side."""

    def __init__(self, matrix, rhs):
        self.matrix = matrix
        self.rhs = rhs


def etilde(x):
    """Reference field 0.5 * (-y, x, 0) at each row of an (N, d) array."""
    out = np.zeros((x.shape[0], 3))
    out[:, 0] = -0.5 * x[:, 1]
    out[:, 1] = 0.5 * x[:, 0]
    return out


def conductivity_blocks(mesh, family, gamma):
    """In-plane conductivity matrix per cell, shape (nc, dim, dim).

    The vertex values of gamma (a NodalField) are range-checked, then
    the upper-left dim x dim block of A is evaluated at cell centroids
    (one-point quadrature) on the cell means: the family's coefficients
    and remainder are sliced to that block before they are summed, which
    rounds each entry as `eval_many` does.  The block is exact for the
    in-plane action of every builtin family because A couples the z-axis
    only diagonally.
    """
    family._check_range(gamma.values, "vertex")
    d, xs, t = mesh.dim, mesh.centroid_points, gamma.cell_means()
    B = power_series(family.poly_coeffs(xs)[:, :, :d, :d].swapaxes(0, 1), t)
    if family.has_remainder:
        B += family.rational(xs, t)[:, :d, :d]
    return B


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
    b = scatter_p1(mesh, -np.einsum("cid,cd->ci", vg, q))
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


class _BandCholesky:
    """Banded Cholesky factor of an SPD matrix, lower band in LAPACK's
    (bandwidth + 1, n) layout, in single precision."""

    def __init__(self, band):
        self.band = band
        self.shape = (band.shape[1],) * 2

    def solve(self, b):
        """A^-1 b through the factor, for a float64 b and as float64.  b
        is rounded to float32 first: a float64 b would make scipy solve
        with a float64 copy of the band."""
        x = sla.cho_solve_banded((self.band, True), b.astype(np.float32),
                                 overwrite_b=True, check_finite=False)
        return x.astype(float)


def _lower_band(A):
    """The lower band of the sparse matrix A, entries i >= j stored at
    [i - j, j] of a Fortran-ordered (bandwidth + 1, n) array (duplicate
    entries summed, on a copy: A is left as it is); the upper triangle
    is not read."""
    A = A.tocsr()
    if not A.has_canonical_format:
        A = A.copy()
        A.sum_duplicates()      # each (i, j) once: the band is assigned
    n = A.shape[0]
    i = np.repeat(np.arange(n), np.diff(A.indptr))
    j = A.indices
    lower = i >= j
    i, j = i[lower], j[lower]
    bw = int((i - j).max(initial=0))
    band = _mapped_zeros(bw + 1, n)
    band.T.reshape(-1)[j * (bw + 1) + (i - j)] = A.data[lower]
    return band


def _mapped_zeros(rows, n):
    """Fortran-ordered (rows, n) float32 zeros in an anonymous mapping of
    their own, unmapped when the last view is dropped.  Left to malloc, a
    band of tens of MB lands in the heap once the first one freed has
    raised malloc's dynamic mmap threshold, and small blocks allocated
    after it can keep its pages from ever being returned.  Raises
    SolverError, naming the band's size, when it cannot be mapped."""
    size = rows * n * 4
    try:
        buf = mmap.mmap(-1, max(size, 4))
    except (OSError, MemoryError) as exc:
        raise SolverError("cannot map the %d x %d single-precision band "
                          "(%d bytes): %s" % (rows, n, size, exc))
    return (np.frombuffer(buf, dtype=np.float32, count=rows * n)
            .reshape(n, rows).T)


def spd_factor(A):
    """Single-precision banded Cholesky factor (LAPACK spbtrf) of the
    symmetric positive definite sparse matrix A, in its own row order:
    with no reordering, the lexicographic vertex numbers of the structured
    meshes keep the half bandwidth at about n + 2 in 2D and
    (n + 1)^2 + n + 2 in 3D, twice that for the normal matrix.  Only the
    lower triangle is read, rounded to float32.  Returns an object with
    `.shape` and `.solve(b)` (float64 in and out, about 1e-6 relative: a
    preconditioner, not a solver).  Raises RuntimeError when A is not
    positive definite in float32 (an SPD A may not be, past a condition
    number of about 1e7), and SolverError when the band cannot be
    mapped."""
    band = _lower_band(A)        # its temporaries are freed by now
    # Factored as is, the fill-in that decays away from the diagonal can
    # reach float32's subnormal range, where spbtrf runs about three times
    # slower than dpbtrf (the 3D D1 block at n = 24).  A power of two,
    # exact, lifts the largest diagonal entry to about 2^100 for the
    # factorization, and its square root is taken out of the factor.
    k = (100 - np.frexp(band[0].max(initial=0.0))[1]) // 2
    np.ldexp(band, 2 * k, out=band)
    try:
        band = sla.cholesky_banded(band, lower=True, overwrite_ab=True,
                                   check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError("single-precision band factorization failed: %s"
                           % exc) from None
    return _BandCholesky(np.ldexp(band, -k, out=band))


def pcg(matvec, b, x0, rtol, maxiter, precondition, history=None):
    """CG for the SPD system matvec(x) = b, preconditioned by
    `precondition(r)`, from a copy of x0 (None: zero): the iteration and
    arithmetic of scipy.sparse.linalg.cg, bit for bit, without the
    LinearOperator wrappers cg builds on every call.  Stops once the
    recurrence residual r has ||r|| < rtol ||b||, tested before each
    iteration as cg does (so convergence on the last allowed iteration
    still reads as a miss), and appends ||r|| / ||b|| to `history` after
    every iteration.  Returns (x, info): info is 0 on convergence, else
    maxiter.
    """
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return b.copy(), 0
    atol = rtol * bnorm
    x = np.zeros(b.shape[0]) if x0 is None else np.array(x0, dtype=float)
    r = b - matvec(x) if x.any() else b.copy()
    rnorm = np.linalg.norm(r)
    for it in range(maxiter):
        if rnorm < atol:
            return x, 0
        z = precondition(r)
        rho = np.dot(r, z)
        if it > 0:
            p *= rho / rho_prev
            p += z
        else:
            p = z.copy()
        q = matvec(p)
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
        rnorm = np.linalg.norm(r)
        if history is not None:
            history.append(rnorm / bnorm)
    return x, maxiter


# CG iterations per attempt of a Neumann solve: a lagged factor that
# needs more is replaced by the solve's own (about what one factorization
# costs in iterations), and that one needs three or four.
_LAG_MAXITER = 20
# Relative residual a Neumann solve reaches, whatever looser tol the
# caller asked for.  With its own single-precision factor, CG reads about
# 1e-6 and 1e-11 after one and two iterations and gets there after three
# or four; stopping a lagged solve at tol (1e-10) instead would make
# results depend on which factor a holder kept, e.g. a field sweep's
# ratio on the order of its pairs (by 1e-9 relative).  The two extra
# iterations this takes cost far less than a factor.
_LAG_RTOL = 1e-13


class LaggedFactor:
    """Holder for the banded Cholesky factor of an SPD matrix
    (`spd_factor`), used as the CG preconditioner of later, nearby
    systems.

    A caller that solves several nearby systems (the perturbed parameters
    of a sweep, the inner steps of a least-squares update) creates one
    holder and passes it to every solve.  The factor lives as long as the
    holder does.
    """

    def __init__(self):
        self.factor = None

    def solve(self, matvec, matrix, rhs, x0, rtol, maxiter, history=None):
        """Solve the SPD system A x = rhs by CG (`pcg`) from x0 (None:
        zero) to a relative residual of rtol, preconditioned with the
        held factor.  `matvec` applies A (x -> A x), and `matrix()`
        returns A as a sparse matrix, called only when A is factored.

        When the holder is empty, holds a factor of another size, or CG
        has not converged within maxiter iterations, `matrix()` is
        factored, kept here, and CG runs again from x0.  `history`
        collects the relative residual of every CG iteration of either
        attempt (see `pcg`).  Raises SolverError when the factorization
        fails or CG misses even with the fresh factor.
        """
        n = rhs.shape[0]
        lagged = self.factor is not None and self.factor.shape == (n, n)
        for fresh in ((False, True) if lagged else (True,)):
            if fresh:
                self.factor = None          # release the old factor first
                try:
                    self.factor = spd_factor(matrix())
                except RuntimeError as exc:
                    raise SolverError("factorization failed: %s" % exc)
            # the preconditioner is passed inline: a name bound to it would
            # keep the lagged factor alive while the fresh one is built
            x, info = pcg(matvec, rhs, x0, rtol, maxiter, self.factor.solve,
                          history)
            if info == 0:
                return x
        self.factor = None  # the traceback of the error keeps this frame alive
        resid = np.linalg.norm(rhs - matvec(x)) / np.linalg.norm(rhs)
        # CG divides 0 by 0 after an exactly zero residual (rtol=0)
        detail = ("residual %.3g" % resid if np.isfinite(resid)
                  else "non-finite iterate")
        raise SolverError("CG did not reach rtol=%g in %d iterations with "
                          "a fresh factor (%s)" % (rtol, maxiter, detail))


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
    the pinned block after every CG iteration, as CG's recurrence
    carries it (not recomputed from the iterate).  Raises SolverError
    on non-convergence or a failed factorization.
    """
    K = system.matrix
    n = K.shape[0]
    b = system.rhs.astype(float)
    b = b - b.mean()
    if np.linalg.norm(b) == 0.0:
        return np.zeros(n), [0.0]

    history = [1.0]
    holder = factor if factor is not None else LaggedFactor()
    K1 = K[1:, 1:]
    try:
        x1 = holder.solve(K1.dot, lambda: K1, b[1:], None,
                          min(tol, _LAG_RTOL), _LAG_MAXITER, history=history)
    except SolverError as exc:
        raise SolverError("pinned Neumann system: %s" % exc)
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

