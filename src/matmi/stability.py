"""Empirical stability and contraction diagnostics.

The reconstruction rests on three quantitative properties that hold
with constants out of numeric reach: Lipschitz stability of the
parameter with respect to the interior data, Lipschitz dependence of
the electric field on the parameter, and contraction of the outer
fixed-point iteration.  This module measures their empirical
counterparts on concrete meshes: a `StabilityReport` holds one sweep's
rows on one mesh, and `contraction_report` reads a reconstruction
trace.  The constants belong to the mesh they were measured on
(`matmi sweep` names each report's file by it); they are never
extrapolated to the continuum.

Both sweeps get E(gamma) through one memo of forward solves, keyed
weakly by mesh (`_solved_field`): a parameter is solved once per mesh
and family object, so the data sweep of `count` perturbations and the
field sweep of its pairs (base + delta, base) make count + 1 Neumann
solves between them.
"""

import hashlib
import weakref

import numpy as np

from .fields import NodalField, l2_norm_cell, l2_norm_nodal
from .functional import field_data
from .neumann import LaggedFactor, electric_field, solve_field

__all__ = [
    "StabilityReport",
    "stability_sweep",
    "field_difference_sweep",
    "contraction_report",
    "smooth_perturbations",
]


class StabilityReport:
    """Tabulated pairwise stability measurements.

    Each row holds, for one pair (gamma_1, gamma_2): a label, the norm
    of the parameter difference, the norm of the data (or field)
    difference, the empirical ratio (||d_gamma|| / ||d_data|| in the
    data sweep, ||d_E|| / ||d_gamma|| in the field sweep), and the
    measured gradient-condition value ||grad(d_gamma)|| / ||d_gamma||.
    Rows with a nan ratio are excluded from the ratio statistics.
    """

    columns = ("pair", "norm_dgamma", "norm_ddata", "C_emp",
               "grad_condition")

    def __init__(self, kind):
        self.kind = kind
        self.rows = []
        self.skipped = []             # (label, reason) for skipped pairs

    def add_row(self, label, norm_dgamma, norm_ddata, ratio, grad_condition):
        self.rows.append({"pair": label,
                          "norm_dgamma": float(norm_dgamma),
                          "norm_ddata": float(norm_ddata),
                          "C_emp": ratio,
                          "grad_condition": float(grad_condition)})

    def skip(self, label, reason):
        self.skipped.append((label, reason))

    def ratios(self):
        return [r["C_emp"] for r in self.rows
                if np.isfinite(r["C_emp"])]

    def common_rows(self, other):
        """(row here, row in `other`) for each pair label whose ratio is
        finite in both reports, in this report's order."""
        theirs = {r["pair"]: r for r in other.rows if np.isfinite(r["C_emp"])}
        return [(r, theirs[r["pair"]]) for r in self.rows
                if np.isfinite(r["C_emp"]) and r["pair"] in theirs]

    def max_ratio(self):
        vals = self.ratios()
        return max(vals) if vals else float("nan")

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            fh.write(",".join(self.columns) + "\n")
            for r in self.rows:
                fh.write("%s,%.17g,%.17g,%.17g,%.17g\n"
                         % (r["pair"], r["norm_dgamma"], r["norm_ddata"],
                            r["C_emp"], r["grad_condition"]))


def _in_range(values, family):
    lo, hi = family.t_range
    return values.min() >= lo and values.max() <= hi


def _grad_condition(mesh, delta, norm_delta):
    gnorm = l2_norm_cell(mesh, NodalField(mesh, delta).cell_gradients())
    return gnorm / norm_delta if norm_delta > 0 else 0.0


# mesh -> {(family, SHA-256 of gamma's vertex values): read-only u}; the
# values hold no reference to the mesh, so an entry goes with its mesh
_SOLVED = weakref.WeakKeyDictionary()


def _solved_field(mesh, family, gamma, factor):
    """E(gamma) on `mesh`, solved through the LaggedFactor `factor` only
    the first time this mesh meets this family object and these vertex
    values; later calls rebuild E from the stored potential, bitwise the
    E that the solve returned."""
    memo = _SOLVED.setdefault(mesh, {})
    key = (family, hashlib.sha256(gamma.values.tobytes()).digest())
    if key in memo:
        return electric_field(mesh, NodalField(mesh, memo[key]))
    u, E = solve_field(mesh, family, gamma, factor=factor)
    u.values.flags.writeable = False
    memo[key] = u.values
    return E


def stability_sweep(family, base_gamma, perturbations, mesh):
    """Empirical data-to-parameter stability ratios.

    For each boundary-vanishing perturbation delta, synthesizes the
    interior data for base_gamma and base_gamma + delta on the same
    mesh and tabulates ||delta|| / ||F_1 - F_2|| together with the
    gradient-condition value.  Perturbations that push the parameter
    outside the family's range are skipped with a log entry.  The field
    solves share one lagged Neumann factor, and a parameter already
    solved on this mesh for this family is not solved again.
    """
    bidx = mesh.boundary_vertex_indices()
    report = StabilityReport("data")
    factor = LaggedFactor()

    def projection(gamma):
        # only projections are kept: no field or flux outlives its use
        E = _solved_field(mesh, family, gamma, factor)
        return field_data(mesh, family, gamma, E).nodal_projection.values

    base_proj = projection(base_gamma)
    for i, delta in enumerate(perturbations):
        label = "pair%02d" % i
        dvals = delta.values
        if np.abs(dvals[bidx]).max() > 1e-12:
            raise ValueError("perturbation %s does not vanish on the "
                             "boundary" % label)
        pvals = base_gamma.values + dvals
        if not _in_range(pvals, family):
            report.skip(label, "perturbed parameter leaves the family "
                               "range [%g, %g]" % family.t_range)
            continue
        pert_proj = projection(NodalField(mesh, pvals))
        norm_dg = l2_norm_nodal(mesh, dvals)
        norm_df = l2_norm_nodal(mesh, pert_proj - base_proj)
        ratio = norm_dg / norm_df if norm_df > 0 else float("nan")
        report.add_row(label, norm_dg, norm_df, ratio,
                       _grad_condition(mesh, dvals, norm_dg))
    return report


def field_difference_sweep(family, pairs, mesh):
    """Empirical field-to-parameter Lipschitz ratios.

    For each pair (gamma_1, gamma_2), solves the Neumann problem for
    both parameters and tabulates ||E_1 - E_2|| / ||gamma_1 - gamma_2||,
    nan for equal parameters.  The report's max_ratio() is the sweep's
    headline constant.  The solves share one lagged Neumann factor, and
    a parameter already solved on this mesh for this family (by either
    sweep) is not solved again.
    """
    report = StabilityReport("field")
    factor = LaggedFactor()
    for i, (g1, g2) in enumerate(pairs):
        label = "pair%02d" % i
        if not (_in_range(g1.values, family)
                and _in_range(g2.values, family)):
            report.skip(label, "parameter leaves the family range "
                               "[%g, %g]" % family.t_range)
            continue
        # the second member first: in pairs (base + delta, base) the
        # later solves then lag the base's factor, which needs fewer CG
        # iterations per solve than that of base + delta_0
        E2 = _solved_field(mesh, family, g2, factor)
        E1 = _solved_field(mesh, family, g1, factor)
        dvals = g1.values - g2.values
        norm_dg = l2_norm_nodal(mesh, dvals)
        norm_de = l2_norm_cell(mesh, E1.values - E2.values)
        ratio = norm_de / norm_dg if norm_dg > 0 else float("nan")
        report.add_row(label, norm_dg, norm_de, ratio,
                       _grad_condition(mesh, dvals, norm_dg))
    return report


def contraction_report(trace):
    """Per-iteration contraction factors of a ReconTrace and a verdict.

    The factors are `trace.ratios()`, rho_k = e_k / e_{k-1} with e_0 the
    initial error, nan where e_{k-1} = 0.  The verdict is "contractive"
    iff the geometric mean of the finite factors is < 1.  Needs at least
    3 iterations.
    """
    if len(trace.error_l2) < 3:
        raise ValueError("contraction verdict needs at least 3 iterations")
    ratios = trace.ratios()
    active = [rho for rho in ratios if np.isfinite(rho)]
    if active:
        gmean = float(np.exp(np.mean(np.log(active))))
    else:
        gmean = float("nan")
    verdict = "contractive" if gmean < 1.0 else "not contractive"
    return {"ratios": ratios, "geometric_mean": gmean, "verdict": verdict}


def smooth_perturbations(count, seed=0, amplitude=0.05, dim=2):
    """Deterministic boundary-vanishing perturbation functions.

    Returns `count` callables p -> values, each a random product of
    sine modes sin(i pi x) sin(j pi y) [sin(k pi z)], i, j, k in 1..4,
    scaled to the given amplitude; all vanish identically on the
    unit-domain boundary.
    """
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        modes = rng.integers(1, 5, size=dim)
        amp = amplitude * rng.uniform(0.5, 1.0) * rng.choice([-1.0, 1.0])

        def pert(p, modes=modes, amp=amp):
            vals = np.full(p.shape[0], amp)
            for d in range(len(modes)):
                vals = vals * np.sin(modes[d] * np.pi * p[:, d])
            return vals

        out.append(pert)
    return out
