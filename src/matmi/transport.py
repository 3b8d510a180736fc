"""Stationary transport solvers for the conductivity update step.

The update equation is div(A(x, gamma) w) = F with w = E x B0.  The
reconstruction loop has one update, `solve_nonlinear_ls`: continuous P1
with a Picard (frozen-coefficient) outer loop whose every step solves
the frozen flux equation in regularized least squares for every vertex
value; the loop's projection then imposes the known boundary trace.

The flux is assembled in conservative form.  Each entry of A is split
as polynomial-in-t plus remainder; freezing all but one power of the
parameter makes the flux linear in the unknown while keeping the
previous iterate in the remaining slots, so a fixed point of the loop
satisfies the unfrozen discrete equation exactly.

`solve_linear_dg` (DG0 with upwinded face fluxes and the trace
prescribed on the inflow facets, for families linear in the parameter)
and the coefficient expansions serve as independent checks: an exact
transport oracle and the product-rule cross-check of the hand-expanded
divergence.
"""

import functools
from collections import deque

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fields import (CellField, NodalField, assemble_p1, cell_to_nodal,
                     l2_norm_nodal)
from .functional import (cross_b0, flux_field, upwind_cells,
                         weak_dg0_from_flux, weak_p1_from_flux, weak_p1_rows)
from .mesh import classify_inflow
from .neumann import LaggedFactor, SolverError

__all__ = [
    "TransportProblem",
    "TransportError",
    "solve_linear_dg",
    "solve_nonlinear_ls",
    "expand_coefficients",
    "ExpandedCoefficients",
    "closed_form_coefficients",
    "closed_form_divergence",
    "recover_field_gradients",
]


class TransportError(RuntimeError):
    """Transport solve failure; may carry a Picard change history."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = history or []


class TransportProblem:
    """One conductivity-update problem.

    Parameters
    ----------
    mesh : Mesh
    family : AnisotropyFamily
    E : CellField
        Electric field of the current outer iterate, shape (nc, 3).
    data : FunctionalData
        Weak source data F(gamma_star).
    inflow_values : callable
        Boundary trace of the true parameter; receives (N, dim) points.
        Only the DG0 oracle evaluates it, on its inflow facets.
    gamma_ref : NodalField or None
        Start of the least-squares update, and the iterate at which the
        DG0 oracle evaluates the velocity A(gamma) w that classifies its
        inflow facets (defaults to 1 everywhere).
    """

    def __init__(self, mesh, family, E, data, inflow_values, gamma_ref=None):
        self.mesh = mesh
        self.family = family
        self.E = E
        self.data = data
        self.inflow_values = inflow_values
        if gamma_ref is None:
            gamma_ref = NodalField(mesh, np.ones(mesh.num_vertices))
        self.gamma_ref = gamma_ref

    def inflow_facets(self):
        """Facets of the inflow boundary for velocity A(gamma_ref) w."""
        v = flux_field(self.mesh, self.family, self.gamma_ref.cell_means(),
                       self.E)
        return classify_inflow(self.mesh, CellField(self.mesh, v))

    @functools.cached_property
    def _flux_invariants(self):
        return _flux_invariants(self.mesh, self.family, self.E)

    def flux_split(self, gamma_c):
        """Frozen flux split A(gamma_c) w = gamma_c * g + h per cell.

        Returns the in-plane (g, h), each (nc, dim), with
        g = sum_{m>=1} gamma_c^(m-1) P_m w and h = P_0 w + R(gamma_c) w,
        R the family's non-polynomial remainder.
        """
        w3, Pw = self._flux_invariants
        g = np.zeros_like(Pw[0])
        tp = np.ones_like(gamma_c)
        for m in range(1, Pw.shape[0]):
            g += tp[:, None] * Pw[m]
            tp = tp * gamma_c
        if not self.family.has_remainder:
            return g, Pw[0]
        rat = self.family.rational(self.mesh.centroid_points,
                                   gamma_c)[:, :self.mesh.dim]
        return g, Pw[0] + np.einsum("cij,cj->ci", rat, w3)


def _flux_invariants(mesh, family, E):
    """The parts of the flux split that do not depend on the parameter:
    w = E x B0 (nc, 3) and the in-plane per-power flux vectors
    (P_m w)[:, :dim] at the centroid points, shape (M, nc, dim)."""
    w3 = cross_b0(E.values)
    P = family.poly_coeffs(mesh.centroid_points)[:, :, :mesh.dim]
    Pw = np.einsum("cmij,cj->mci", P, w3)           # P: (nc, M, dim, 3)
    Pw.flags.writeable = False      # flux_split hands out Pw[0] itself
    return w3, Pw


# -- DG0 upwind ---------------------------------------------------------

def solve_linear_dg(problem):
    """DG0 upwind solve of div(gamma * G w + H w) = F.

    The flux factors G, H come from the family itself, which must be
    linear in the parameter (polynomial degree <= 1 in t, no remainder).

    Cells whose advective throughput is below 0.05 times the median
    (e.g. at interior stagnation points of the rotational field, where
    the transport equation carries almost no information) are filled by
    averaging their face neighbors instead.
    """
    mesh, family = problem.mesh, problem.family
    w3, Pw = problem._flux_invariants
    if Pw.shape[0] > 2 or family.has_remainder:
        raise TransportError(
            "family %r is nonlinear in the parameter; use solve_nonlinear_ls"
            % family.name)
    w = w3[:, :mesh.dim]
    g, h = problem.flux_split(np.zeros(mesh.num_cells))

    zero_vel = np.where(np.linalg.norm(g, axis=1) < 1e-14)[0]
    if zero_vel.size == mesh.num_cells:
        raise TransportError(
            "advective velocity vanishes on all cells (first cells: %s)"
            % zero_vel[:10].tolist())

    nc = mesh.num_cells
    L, R = mesh.face_left, mesh.face_right
    up = upwind_cells(mesh, w)
    gn_up = np.einsum("fd,fd->f", g[up], mesh.face_normals) \
        * mesh.face_measures

    # boundary facets: the inflow trace goes to the right-hand side, the
    # outflow flux to the diagonal; the flux h is known everywhere
    inflow = problem.inflow_facets()
    fc = mesh.facet_cells
    gn = np.einsum("fd,fd->f", g[fc], mesh.facet_normals) * mesh.facet_measures
    rhs = problem.data.dg0_weak - weak_dg0_from_flux(mesh, h, w)
    if inflow.size:
        np.subtract.at(rhs, fc[inflow], gn[inflow] * np.asarray(
            problem.inflow_values(mesh.facet_midpoints[inflow]),
            dtype=float).ravel())
    rest = np.ones(fc.size, dtype=bool)
    rest[inflow] = False
    # flux leaves L, enters R
    A = sp.coo_matrix((np.concatenate([gn_up, -gn_up, gn[rest]]),
                       (np.concatenate([L, R, fc[rest]]),
                        np.concatenate([up, up, fc[rest]]))),
                      shape=(nc, nc)).tocsr()

    # Stagnation handling: sink cells (never upwind of any face) have an
    # empty diagonal and column, and low-throughput cells are dominated
    # by noise in the data; both get neighbor-averaging rows.
    diag = A.diagonal()
    scale = np.zeros(nc)
    np.add.at(scale, L, np.abs(gn_up))
    np.add.at(scale, R, np.abs(gn_up))
    dead = np.where(
        (np.abs(diag) <= 1e-12 * np.maximum(scale, 1e-30))
        | (scale <= 0.05 * np.median(scale)))[0]
    if dead.size == nc:
        raise TransportError(
            "advective flux vanishes through every cell (first cells: %s)"
            % dead[:10].tolist())
    if dead.size:
        nbrs = {int(c): [] for c in dead}
        for l, r in zip(L, R):
            if int(l) in nbrs:
                nbrs[int(l)].append(int(r))
            if int(r) in nbrs:
                nbrs[int(r)].append(int(l))
        A = A.tolil()
        for c, nb in nbrs.items():
            A.rows[c] = sorted([c] + nb)
            A.data[c] = [1.0 if j == c else -1.0 / len(nb)
                         for j in A.rows[c]]
            rhs[c] = 0.0
        A = A.tocsr()
    sol = spla.spsolve(A.tocsc(), rhs)
    return CellField(mesh, sol)


# -- gradient recovery and coefficient expansion ------------------------

def recover_field_gradients(mesh, E):
    """Per-cell derivatives of E1, E2 via lumped-L2 projection to P1.

    Returns (nc, dim, 2): entry [c, i, j] = d E_{j+1} / d x_i on cell c.
    """
    nodal = cell_to_nodal(CellField(mesh, E.values[:, :2]))   # (nv, 2)
    out = np.zeros((mesh.num_cells, mesh.dim, 2))
    for j in range(2):
        vals = nodal[:, j][mesh.cells]                        # (nc, nloc)
        out[:, :, j] = np.einsum("ci,cid->cd", vals, mesh.cell_grads)
    return out


def _grad_w(mesh, grad_E):
    """Derivatives of w = (E2, -E1, 0): (nc, dim, 3)."""
    gw = np.zeros((mesh.num_cells, mesh.dim, 3))
    gw[:, :, 0] = grad_E[:, :, 1]
    gw[:, :, 1] = -grad_E[:, :, 0]
    return gw


class ExpandedCoefficients:
    """Per-cell coefficient data for div(A(x, gamma) w).

    The divergence is organised as

        div(A(gamma) w) = beta(gamma) . grad(gamma) + D(x, gamma)

    with beta = dA/dt(gamma) w and D collecting all terms free of
    grad(gamma).  D splits into a polynomial-in-gamma part with
    coefficients ``d_poly`` (nc, M) and a remainder evaluated on demand.
    For the families with hand-expanded closed forms the attribute
    ``closed_form`` carries those coefficient fields.
    """

    def __init__(self, family, mesh, E):
        self.family = family
        self.mesh = mesh
        self.E = E
        self.w3 = cross_b0(E.values)                          # (nc, 3)
        self.grad_E = recover_field_gradients(mesh, E)
        self.grad_w = _grad_w(mesh, self.grad_E)              # (nc, dim, 3)
        xs = mesh.centroid_points
        P = family.poly_coeffs(xs)                            # (nc, M, 3, 3)
        Pg = family.poly_coeffs_grad(xs)                      # (nc, 3, M, 3, 3)
        d = mesh.dim
        # d_m = P_m : grad_w + (div_x P_m) . w
        self.d_poly = (
            np.einsum("cmij,cij->cm", P[:, :, :d, :], self.grad_w)
            + np.einsum("cimij,cj->cm", Pg, self.w3))
        self.closed_form = closed_form_coefficients(family.name, mesh, E,
                                        grad_E=self.grad_E)

    def velocity(self, gamma_c):
        """Advective velocity dA/dt(gamma) w per cell, in-plane."""
        dA = self.family.deriv_t_many(self.mesh.centroid_points, gamma_c,
                                      check_range=False)
        return np.einsum("cij,cj->ci", dA, self.w3)[:, :self.mesh.dim]

    def reaction_remainder(self, gamma_c):
        """Non-polynomial part of D at the frozen parameter."""
        rat = self.family.rational(self.mesh.centroid_points, gamma_c)
        d = self.mesh.dim
        return np.einsum("cij,cij->c", rat[:, :d, :], self.grad_w)

    def d_value(self, gamma_c):
        """D(x, gamma) per cell (all grad-gamma-free terms)."""
        tp = np.ones_like(gamma_c)
        out = np.zeros_like(gamma_c)
        for m in range(self.d_poly.shape[1]):
            out += self.d_poly[:, m] * tp
            tp = tp * gamma_c
        return out + self.reaction_remainder(gamma_c)

    def divergence(self, gamma_c, grad_gamma):
        """Generic product-rule value of div(A(gamma) w) per cell."""
        beta = self.velocity(gamma_c)
        adv = np.einsum("cd,cd->c", beta, grad_gamma[:, :self.mesh.dim])
        return adv + self.d_value(gamma_c)


def expand_coefficients(family, E, mesh=None):
    """Per-cell coefficient record for the transport equation."""
    if mesh is None:
        mesh = E.mesh
    return ExpandedCoefficients(family, mesh, E)


def closed_form_coefficients(name, mesh, E, grad_E=None):
    """Hand-expanded coefficient fields for the nonlinear families
    (D2, D3, D4); None for other names.

    Each formula is derived symbolically from the family's matrix and
    cross-checked against the generic product rule (see the
    closed-form consistency tests), so the two evaluation routes agree
    to machine precision per cell.
    """
    if name not in ("D2", "D3", "D4"):
        return None
    if grad_E is None:
        grad_E = recover_field_gradients(mesh, E)
    E1 = E.values[:, 0]
    E2 = E.values[:, 1]
    E1x = grad_E[:, 0, 0]
    E1y = grad_E[:, 1, 0]
    E2x = grad_E[:, 0, 1]
    E2y = grad_E[:, 1, 1]
    if name == "D2":
        # a1 g^2 + a2 g + a3 g g_x + a4 g_x - a5 g_y + c
        return {
            "a1": 0.4 * E2x,
            "a2": 0.8 * E2x - 3.0 * E1y,
            "a3": 0.8 * E2,
            "a4": 0.8 * E2,
            "a5": 3.0 * E1,
            "c": 0.4 * E2x - 0.01 * E1x + 0.01 * E2y,
        }
    if name == "D3":
        # a1 g^2 + a2 g g_y + a3 g_y + a4 g + a5 g_x + a6 g g_x + c
        return {
            "a1": 0.4 * E2x + 0.01 * E1x - 0.01 * E2y,
            "a2": -0.02 * E2,
            "a3": 0.01 * E2 - 3.0 * E1,
            "a4": 0.8 * E2x - 0.01 * E1x + 0.01 * E2y - 3.0 * E1y,
            "a5": 0.8 * E2 - 0.01 * E1,
            "a6": 0.8 * E2 + 0.02 * E1,
            "c": 0.4 * E2x,
        }
    # D4: a1 g^2 + a2 g + a3 g g_x + a4(g) g_x + a5(g) g_y + c(g),
    # where the "(g)" coefficients carry the rational 1/(g+20) entries.
    return {
        "a1": 0.4 * E2x,
        "a2": 0.8 * E2x - 3.0 * E1y,
        "a3": 0.8 * E2,
        "a4_poly": 0.8 * E2,          # + E1/(g+20)^2
        "a4_rat_num": E1,
        "a5_poly": -3.0 * E1,         # - E2/(g+20)^2
        "a5_rat_num": -E2,
        "c_poly": 0.4 * E2x,          # + (E2y - E1x)/(g+20)
        "c_rat_num": E2y - E1x,
    }


def closed_form_divergence(name, coeffs, gamma_c, grad_gamma):
    """Evaluate the hand-expanded divergence for D2/D3/D4 per cell."""
    g = gamma_c
    gx = grad_gamma[:, 0]
    gy = grad_gamma[:, 1]
    c = coeffs
    if name == "D2":
        return (c["a1"] * g ** 2 + c["a2"] * g + c["a3"] * g * gx
                + c["a4"] * gx - c["a5"] * gy + c["c"])
    if name == "D3":
        return (c["a1"] * g ** 2 + c["a2"] * g * gy + c["a3"] * gy
                + c["a4"] * g + c["a5"] * gx + c["a6"] * g * gx + c["c"])
    if name == "D4":
        s = 1.0 / (g + 20.0)
        return (c["a1"] * g ** 2 + c["a2"] * g + c["a3"] * g * gx
                + (c["a4_poly"] + c["a4_rat_num"] * s ** 2) * gx
                + (c["a5_poly"] + c["a5_rat_num"] * s ** 2) * gy
                + c["c_poly"] + c["c_rat_num"] * s)
    raise KeyError("no hand-expanded form for %r" % name)


# -- least-squares P1 Picard solver -------------------------------------

def _flux_operator(problem, gamma_bar_c):
    """Linear map gamma -> P1 weak divergence of the frozen flux.

    Freezing the split at gamma_bar_c, the flux on each cell is
    q = mean(gamma) * g + h with cellwise-constant g, h.  L spreads the
    local rows of g's weak divergence (`weak_p1_rows`) evenly over the
    cell's vertex values, and c is the weak divergence of h, so
    L gamma + c = weak_p1_from_flux(mean(gamma) g + h) -- the quadrature
    the flux-form data uses, and L gamma* + c reproduces same-mesh data
    to rounding.  Returns (L, c).
    """
    mesh = problem.mesh
    nloc = mesh.dim + 1
    g, h = problem.flux_split(gamma_bar_c)
    rows = weak_p1_rows(mesh, g) / nloc
    ke = np.broadcast_to(rows[:, :, None], rows.shape + (nloc,))
    return assemble_p1(mesh, ke), weak_p1_from_flux(mesh, h)


# CG controls for the inner Picard steps: the frozen coefficients move
# little from step to step, so an earlier step's factor is a near-exact
# preconditioner.  A step after the first stops at _PCG_FORCING times the
# last Picard change (a forcing term: Dembo, Eisenstat & Steihaug 1982),
# since solving it more accurately than the step moves gamma buys
# nothing; _PCG_RTOL is the floor.
_PCG_RTOL = 1e-10
_PCG_FORCING = 1e-2
_PCG_MAXITER = 50


def _ls_system(problem, gamma, anchor, alpha):
    """One step of the regularized normal equations
    (L^T L + scale R) x = L^T (b - c) + scale R anchor, frozen at the
    iterate gamma.  Returns (L, rhs, scale); the normal matrix itself is
    formed only to be factored (`_normal_matrix`).
    """
    mesh = problem.mesh
    lo, hi = problem.family.t_range
    gbar_c = np.clip(NodalField(mesh, gamma).cell_means(), lo, hi)
    L, c = _flux_operator(problem, gbar_c)
    R = mesh.h1
    # diag(L^T L) holds the squared norms of the columns of L
    diag_n = np.bincount(L.indices, L.data ** 2, minlength=mesh.num_vertices)
    scale = alpha * diag_n.mean() / R.diagonal().mean()
    rhs = L.T @ (problem.data.p1_weak - c) + scale * (R @ anchor)
    return L, rhs, scale


def _normal_matrix(L, R, scale):
    """L^T L + scale R as an explicit CSR matrix."""
    return (L.T @ L).tocsr() + scale * R


def _normal_operator(L, R, scale):
    """L^T L + scale R as a LinearOperator that applies L, L^T and R."""
    LT = L.T
    n = L.shape[1]
    return spla.LinearOperator(
        (n, n), matvec=lambda x: LT @ (L @ x) + scale * (R @ x), dtype=float)


# Anderson mixing of the inner Picard steps: the number of differences
# kept, and the largest condition number of the difference matrix used.
_AA_DEPTH = 3
_AA_COND = 1e10


def _anderson_step(fs, gs, t_range):
    """Next iterate of the inner loop from the stored pairs (f_j, G_j),
    oldest first, with G_j the plain step from x_j and f_j = G_j - x_j.

    Anderson mixing, type II (Walker & Ni, SIAM J. Numer. Anal. 2011):
    theta minimizes ||f_k - dF theta||_2 over the differences dF of
    consecutive f, and the iterate is G_k - dG theta.  The plain step
    G_k is returned instead when fewer than two pairs exist, when dF is
    rank-deficient or its condition number exceeds _AA_COND, or when
    the mixed values are non-finite or leave t_range.
    """
    plain = gs[-1]
    if len(fs) < 2:
        return plain
    dF = np.diff(np.column_stack(fs), axis=1)
    theta, _, rank, sv = np.linalg.lstsq(dF, fs[-1], rcond=None)
    if rank < dF.shape[1] or sv[0] > _AA_COND * sv[-1]:
        return plain
    mixed = plain - np.diff(np.column_stack(gs), axis=1) @ theta
    lo, hi = t_range
    if not np.all((mixed >= lo) & (mixed <= hi)):   # also rejects NaN
        return plain
    return mixed


def solve_nonlinear_ls(problem, max_outer, rel_tol, alpha, anchor=None):
    """Picard iteration solving the frozen flux equation in least squares.

    Each step G minimizes ||L(gamma_bar) gamma - b||^2 plus an H1 penalty
    alpha * ||gamma - anchor||_H1^2 (scaled to the normal matrix); the
    anchor defaults to the incoming iterate, and `reconstruct` passes
    the fixed background field, so the penalty stays stationary across
    the outer loop but pulls its limit toward that background.  It damps
    the near-null-space components that arise on closed streamlines of
    the rotational field.  Every vertex value is an unknown: the boundary
    trace is left to the caller's projection, and `problem.inflow_values`
    is never evaluated.

    The step G only updates the frozen coefficients, so plain Picard
    converges linearly.  The loop therefore mixes: after the step
    G(x_k) it stores (G(x_k) - x_k, G(x_k)) and continues from the
    Anderson-mixed iterate over the last _AA_DEPTH differences
    (`_anderson_step`), falling back to the plain step G(x_k) when the
    mixing problem is too ill-conditioned or the mixed iterate leaves
    the family's t_range.  The recorded history is the plain change
    ||G(x_k) - x_k||_M / ||x_k||_M, and the loop stops once it is at
    most rel_tol or after max_outer (>= 1) steps.  Either way the result is the
    last plain step G(x_k), carrying the history as `picard_history`; a
    caller that needs convergence reads it there.

    Every step runs CG warm-started from the current iterate, to a
    relative residual of _PCG_RTOL on the first step and of
    max(_PCG_RTOL, _PCG_FORCING * last recorded change) after it,
    applying the normal matrix through L and R without forming L^T L,
    through one neumann.LaggedFactor per call: the first step forms its
    normal matrix and factors it, and later steps are preconditioned
    with the latest factor and factor their own system only if CG has
    not converged within _PCG_MAXITER iterations.  A failed
    factorization, CG missing even with a fresh factor, or a non-finite
    step is a TransportError.
    """
    mesh = problem.mesh
    R = mesh.h1
    gamma = problem.gamma_ref.values     # never written to in place
    anchor = gamma if anchor is None else anchor.values
    history = []
    holder = LaggedFactor()
    fs, gs = deque(maxlen=_AA_DEPTH + 1), deque(maxlen=_AA_DEPTH + 1)
    rtol = _PCG_RTOL
    for _ in range(max_outer):
        L, rhs, scale = _ls_system(problem, gamma, anchor, alpha)
        try:
            new_vals = holder.solve(
                _normal_operator(L, R, scale), rhs, gamma, rtol,
                _PCG_MAXITER, matrix=lambda: _normal_matrix(L, R, scale))
        except SolverError as exc:
            raise TransportError("least-squares step: %s" % exc, history)
        if not np.all(np.isfinite(new_vals)):
            raise TransportError("least-squares Picard produced non-finite "
                                 "values", history)
        change = l2_norm_nodal(mesh, new_vals - gamma)
        scale_g = max(l2_norm_nodal(mesh, gamma), 1e-30)
        history.append(change / scale_g)
        if history[-1] <= rel_tol:
            break
        rtol = max(_PCG_RTOL, _PCG_FORCING * history[-1])
        fs.append(new_vals - gamma)
        gs.append(new_vals)
        gamma = _anderson_step(fs, gs, problem.family.t_range)
    out = NodalField(mesh, new_vals)
    out.picard_history = history
    return out
