"""The conductivity update step: the least-squares flux fit.

The update equation is div(A(x, gamma) w) = F with w = E x B0.  The
reconstruction loop's update, `solve_nonlinear_ls`, is continuous P1
with a Picard (frozen-coefficient) outer loop whose every step solves
the frozen flux equation in regularized least squares for every vertex
value; the loop's projection then imposes the known boundary trace.

The flux is assembled in conservative form from the data's own flux
split, `functional.FluxSplit`: A(gamma) w = gamma * g + h with g and h
evaluated at the previous iterate is linear in the unknown, and a fixed
point of the loop satisfies the unfrozen discrete equation exactly.

The independent checks of the update (the DG0 transport oracle and the
coefficient expansions) live in `matmi.oracles`; the names the
acceptance gates read are re-exported here.
"""

import functools
from collections import deque

import numpy as np

from .fields import NodalField, assemble_p1, l2_norm_nodal
from .functional import FluxSplit
from .neumann import LaggedFactor, SolverError
from .oracles import (TransportProblem, closed_form_divergence,
                      expand_coefficients, solve_linear_dg)

__all__ = [
    "FluxFit",
    "TransportError",
    "solve_nonlinear_ls",
    # the oracle names the acceptance gates read here
    "TransportProblem",
    "solve_linear_dg",
    "expand_coefficients",
    "closed_form_divergence",
]


class TransportError(RuntimeError):
    """A failed least-squares update; the message says why."""


class FluxFit:
    """One least-squares update problem.

    Parameters
    ----------
    mesh : Mesh
    family : AnisotropyFamily
    E : CellField
        Electric field of the current outer iterate, shape (nc, 3).
    data : FunctionalData
        Weak source data F(gamma_star).
    gamma_ref : NodalField
        The current outer iterate, where the update starts.
    """

    def __init__(self, mesh, family, E, data, gamma_ref):
        self.mesh = mesh
        self.family = family
        self.E = E
        self.data = data
        self.gamma_ref = gamma_ref

    @functools.cached_property
    def flux_split(self):
        """The flux split (functional.FluxSplit), built once per problem:
        the candidate weights of one adaptive update share it."""
        return FluxSplit(self.mesh, self.family, self.E)

    @functools.cached_property
    def first_system(self):
        """`_frozen_parts` and L^T L at gamma_ref, where every weight's
        inner loop starts: the weights of one update share them too."""
        L, Ltb, diag_mean = _frozen_parts(self, self.gamma_ref.values)
        return L, Ltb, diag_mean, (L.T @ L).tocsr()


# -- least-squares P1 Picard solver -------------------------------------

def _flux_operator(problem, gamma_bar_c):
    """Linear map gamma -> P1 weak divergence of the frozen flux.

    Freezing the split at gamma_bar_c, the flux on each cell is
    q = mean(gamma) * g + h with cellwise-constant g, h.  L spreads the
    local rows of g's weak divergence evenly over the cell's vertex
    values, and c is the weak divergence of h, so
    L gamma + c = weak_p1_from_flux(mean(gamma) g + h) up to rounding --
    the quadrature the flux-form data uses, and L gamma* + c reproduces
    same-mesh data to rounding.  Both come from the split's per-power
    weak rows (`FluxSplit.weak_divergence`), built once per problem.
    Returns (L, c).
    """
    mesh = problem.mesh
    nloc = mesh.dim + 1
    rows, c = problem.flux_split.weak_divergence(gamma_bar_c)
    rows /= nloc
    ke = np.repeat(rows, nloc, axis=1).reshape(rows.shape + (nloc,))
    return assemble_p1(mesh, ke), c


# The inner Picard loop stops once its plain change is at most
# PICARD_REL_TOL, or after PICARD_MAX_STEPS steps.  The outer loop accepts
# candidates by forward residual only, and a change below 1e-4 does not
# alter how a preset's run ends (an inexact solve, as CG's).
PICARD_REL_TOL = 1e-4
PICARD_MAX_STEPS = 50

# CG controls for the inner Picard steps: the frozen coefficients move
# little from step to step, so an earlier step's factor is a near-exact
# preconditioner.  A step after the first stops at _PCG_FORCING times the
# last Picard change (a forcing term: Dembo, Eisenstat & Steihaug 1982),
# since solving it more accurately than the step moves gamma buys
# nothing; _PCG_RTOL is the floor.
_PCG_RTOL = 1e-10
_PCG_FORCING = 1e-2
_PCG_MAXITER = 50


def _frozen_parts(problem, gamma):
    """(L, L^T (b - c), mean of diag(L^T L)) frozen at the iterate gamma."""
    mesh = problem.mesh
    lo, hi = problem.family.t_range
    gbar_c = np.clip(NodalField(mesh, gamma).cell_means(), lo, hi)
    L, c = _flux_operator(problem, gbar_c)
    # diag(L^T L) holds the squared norms of the columns of L
    diag_n = np.bincount(L.indices, L.data ** 2, minlength=mesh.num_vertices)
    return L, L.T @ (problem.data.p1_weak - c), diag_n.mean()


# Anderson mixing of the inner Picard steps: the number of differences
# kept, and the largest condition number of the difference matrix used.
_AA_DEPTH = 3
_AA_COND = 1e10


def _anderson_step(fs, gs):
    """Next iterate of the inner loop from the stored pairs (f_j, G_j),
    oldest first, with G_j the plain step from x_j and f_j = G_j - x_j.

    Anderson mixing, type II (Walker & Ni, SIAM J. Numer. Anal. 2011):
    theta minimizes ||f_k - dF theta||_2 over the differences dF of
    consecutive f, and the iterate is G_k - dG theta.  The plain step
    G_k is returned instead when fewer than two pairs exist, when dF is
    rank-deficient or its condition number exceeds _AA_COND, or when
    the mixed values are not finite (the next step's NodalField would
    reject them).  The mix may leave the family's t_range, as the plain
    step may: the next step clips its frozen coefficients into it, and
    the caller's projection clamps the result.
    """
    plain = gs[-1]
    if len(fs) < 2:
        return plain
    dF = np.diff(np.column_stack(fs), axis=1)
    theta, _, rank, sv = np.linalg.lstsq(dF, fs[-1], rcond=None)
    if rank < dF.shape[1] or sv[0] > _AA_COND * sv[-1]:
        return plain
    mixed = plain - np.diff(np.column_stack(gs), axis=1) @ theta
    if not np.all(np.isfinite(mixed)):
        return plain
    return mixed


def solve_nonlinear_ls(problem, alpha):
    """Picard iteration solving the frozen flux equation in least squares.

    Each step G minimizes ||L(gamma_bar) gamma - b||^2 plus an H1 penalty
    alpha * ||gamma - 1||_H1^2 (scaled to the normal matrix), anchored at
    the background value 1, so the penalty stays stationary across the
    outer loop but pulls its limit toward that background.  It damps the
    near-null-space components that arise on closed streamlines of
    the rotational field.  Every vertex value is an unknown: the boundary
    trace is left to the caller's projection.

    The step G only updates the frozen coefficients, so plain Picard
    converges linearly.  The loop therefore mixes: after the step
    G(x_k) it stores (G(x_k) - x_k, G(x_k)) and continues from the
    Anderson-mixed iterate over the last _AA_DEPTH differences
    (`_anderson_step`), falling back to the plain step G(x_k) when the
    mixing problem is too ill-conditioned or the mix is not finite.
    The recorded history is the plain change
    ||G(x_k) - x_k||_M / ||x_k||_M, and the loop stops once it is at
    most PICARD_REL_TOL or after PICARD_MAX_STEPS steps.  Either way the
    result is the last plain step G(x_k), carrying the history as
    `picard_history`; a caller that needs convergence reads it there.

    Every step solves (L^T L + scale R) x = L^T (b - c) + scale R 1,
    scale = alpha * mean diag(L^T L) / mean diag(R), frozen at the
    current iterate: from the problem's `first_system` on the first
    step, from `_frozen_parts` at the mixed iterate after it.  CG runs
    warm-started from the current iterate, to a relative residual of
    _PCG_RTOL on the first step and of max(_PCG_RTOL, _PCG_FORCING *
    last recorded change) after it, applying the normal matrix through
    L and R, through one neumann.LaggedFactor per call: the first step
    factors its normal matrix, and later steps are preconditioned with
    the latest factor and factor their own only if CG has not converged
    within _PCG_MAXITER iterations; a normal matrix is formed only to be
    factored.  A failed factorization, CG missing even with a fresh
    factor, or a non-finite step is a TransportError.
    """
    mesh = problem.mesh
    R = mesh.h1
    gamma = problem.gamma_ref.values     # never written to in place
    history = []
    holder = LaggedFactor()
    fs, gs = deque(maxlen=_AA_DEPTH + 1), deque(maxlen=_AA_DEPTH + 1)
    rtol = _PCG_RTOL
    R_anchor = R @ np.ones(mesh.num_vertices)
    R_diag_mean = R.diagonal().mean()
    # the system frozen at gamma; L^T L is held on the first step only
    L, Ltb, diag_mean, LtL = problem.first_system
    while True:
        LT = L.T
        scale = alpha * diag_mean / R_diag_mean
        try:
            new_vals = holder.solve(
                lambda x: LT @ (L @ x) + scale * (R @ x),
                lambda: ((LT @ L).tocsr() if LtL is None else LtL)
                + scale * R,
                Ltb + scale * R_anchor, gamma, rtol, _PCG_MAXITER)
        except SolverError as exc:
            raise TransportError("least-squares step: %s" % exc)
        if not np.all(np.isfinite(new_vals)):
            raise TransportError("least-squares Picard produced non-finite "
                                 "values")
        change = l2_norm_nodal(mesh, new_vals - gamma)
        scale_g = max(l2_norm_nodal(mesh, gamma), 1e-30)
        history.append(change / scale_g)
        if history[-1] <= PICARD_REL_TOL or len(history) >= PICARD_MAX_STEPS:
            break
        rtol = max(_PCG_RTOL, _PCG_FORCING * history[-1])
        fs.append(new_vals - gamma)
        gs.append(new_vals)
        gamma = _anderson_step(fs, gs)
        L, Ltb, diag_mean = _frozen_parts(problem, gamma)
        LtL = None
    out = NodalField(mesh, new_vals)
    out.picard_history = history
    return out
