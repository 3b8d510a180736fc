"""Independent checks of the conductivity update, which reconstruction
never runs: an exact transport oracle and the cross-check of the
hand-expanded coefficient divergence.

`solve_linear_dg` solves div(A(gamma) w) = F in DG0 with upwinded face
fluxes and the trace prescribed on the inflow facets, for families
linear in the parameter, so a transport problem with a known solution
checks it exactly.  `expand_coefficients` writes div(A(x, gamma) w) by
the product rule, and for D2, D3 and D4 `closed_form_divergence`
evaluates the same divergence from hand-expanded coefficient fields;
the two routes agree to machine precision per cell.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .anisotropy import power_series
from .fields import CellField, cell_to_nodal
from .functional import cross_b0, flux_field
from .mesh import classify_inflow

__all__ = [
    "TransportProblem",
    "solve_linear_dg",
    "upwind_cells",
    "weak_dg0_from_flux",
    "ExpandedCoefficients",
    "expand_coefficients",
    "closed_form_coefficients",
    "closed_form_divergence",
    "recover_field_gradients",
]


class TransportProblem:
    """One linear transport problem for the DG0 oracle.

    Parameters
    ----------
    mesh : Mesh
    family : AnisotropyFamily
        Linear in the parameter: polynomial degree <= 1 in t and no
        remainder.
    E : CellField
        Electric field, shape (nc, 3); the advective field is E x B0.
    data : object with a `dg0_weak` (nc,) array
        Source F tested against the cell indicators.
    inflow_values : callable
        Boundary trace of the solution; receives (N, dim) points, the
        midpoints of the inflow facets.
    gamma_ref : NodalField
        Iterate at which the velocity A(gamma) w that classifies the
        inflow facets is evaluated.
    """

    def __init__(self, mesh, family, E, data, inflow_values, gamma_ref):
        self.mesh = mesh
        self.family = family
        self.E = E
        self.data = data
        self.inflow_values = inflow_values
        self.gamma_ref = gamma_ref


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


def solve_linear_dg(problem):
    """DG0 upwind solve of div(gamma * G w + H w) = F.

    The flux factors G = P_1 and H = P_0 are the family's coefficients
    of t^1 and t^0; a family of higher degree in t or with a remainder
    is a ValueError.

    Cells whose advective throughput is below 0.05 times the median
    (e.g. at interior stagnation points of the rotational field, where
    the transport equation carries almost no information) are filled by
    averaging their face neighbors instead.
    """
    mesh, family = problem.mesh, problem.family
    P = family.poly_coeffs(mesh.centroid_points)[:, :mesh.dim]
    if P.shape[0] > 2 or family.has_remainder:
        raise ValueError("family %r is nonlinear in the parameter; the DG0 "
                         "oracle needs degree <= 1 in t" % family.name)
    w3 = cross_b0(problem.E.values)
    w = w3[:, :mesh.dim]
    h, g = np.einsum("mijc,cj->mci", P, w3)         # P_0 w, P_1 w

    zero_vel = np.where(np.linalg.norm(g, axis=1) < 1e-14)[0]
    if zero_vel.size == mesh.num_cells:
        raise ValueError(
            "advective velocity vanishes on all cells (first cells: %s)"
            % zero_vel[:10].tolist())

    nc = mesh.num_cells
    L, R = mesh.face_left, mesh.face_right
    up = upwind_cells(mesh, w)
    gn_up = np.einsum("fd,fd->f", g[up], mesh.face_normals) \
        * mesh.face_measures

    # boundary facets: the inflow trace goes to the right-hand side, the
    # outflow flux to the diagonal; the flux h is known everywhere
    v = flux_field(mesh, family, problem.gamma_ref.cell_means(), problem.E)
    inflow = classify_inflow(mesh, CellField(mesh, v))
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
        raise ValueError(
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
    coefficients ``d_poly`` (nc, M) and the family's remainder.  For
    the families with hand-expanded closed forms the attribute
    ``closed_form`` carries those coefficient fields.
    """

    def __init__(self, family, mesh, E):
        self.family = family
        self.mesh = mesh
        self.w3 = cross_b0(E.values)                          # (nc, 3)
        grad_E = recover_field_gradients(mesh, E)
        self.grad_w = _grad_w(mesh, grad_E)                   # (nc, dim, 3)
        xs = mesh.centroid_points
        P = family.poly_coeffs(xs)                            # (M, 3, 3, nc)
        Pg = family.poly_coeffs_grad(xs)                    # (3, M, 3, 3, nc)
        d = mesh.dim
        # d_m = P_m : grad_w + (div_x P_m) . w
        self.d_poly = (
            np.einsum("mijc,cij->cm", P[:, :d], self.grad_w)
            + np.einsum("imijc,cj->cm", Pg, self.w3))
        self.closed_form = closed_form_coefficients(family.name, E, grad_E)

    def divergence(self, gamma_c, grad_gamma):
        """Generic product-rule value of div(A(gamma) w) per cell."""
        xs, d = self.mesh.centroid_points, self.mesh.dim
        dA = self.family.deriv_t_many(xs, gamma_c, check_range=False)
        beta = np.einsum("cij,cj->ci", dA, self.w3)[:, :d]
        adv = np.einsum("cd,cd->c", beta, grad_gamma[:, :d])
        D = power_series(self.d_poly.T, gamma_c)
        rat = self.family.rational(xs, gamma_c)
        return adv + (D + np.einsum("ijc,cij->c", rat[:d], self.grad_w))


def expand_coefficients(family, E, mesh):
    """Per-cell coefficient record for the transport equation."""
    return ExpandedCoefficients(family, mesh, E)


def closed_form_coefficients(name, E, grad_E):
    """Hand-expanded coefficient fields for the nonlinear families
    (D2, D3, D4) from E and its per-cell derivatives grad_E
    (`recover_field_gradients`); None for other names.

    Each formula is derived symbolically from the family's matrix and
    cross-checked against the generic product rule (see the
    closed-form consistency tests), so the two evaluation routes agree
    to machine precision per cell.
    """
    if name not in ("D2", "D3", "D4"):
        return None
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
