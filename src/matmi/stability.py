"""Empirical stability and contraction diagnostics.

The reconstruction rests on three quantitative properties that hold
with constants out of numeric reach: Lipschitz stability of the
parameter with respect to the interior data, Lipschitz dependence of
the electric field on the parameter, and contraction of the outer
fixed-point iteration.  This module measures their empirical
counterparts on concrete meshes.  Measured constants are always
reported together with the mesh resolution; they are never extrapolated
to the continuum.
"""

import numpy as np

from .fields import NodalField, l2_norm_cell, l2_norm_nodal
from .functional import synthesize
from .neumann import LaggedFactor, solve_field

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
    difference, the empirical stability ratio, and the measured
    gradient-condition value ||grad(d_gamma)|| / ||d_gamma||.  Pairs
    with vanishing data difference carry a nan ratio and are excluded
    from the ratio statistics.
    """

    columns = ("pair", "norm_dgamma", "norm_ddata", "C_emp",
               "grad_condition")

    def __init__(self, resolution, kind):
        self.resolution = int(resolution)
        self.kind = kind
        self.rows = []
        self.skipped = []             # (label, reason) for skipped pairs

    def add_row(self, label, norm_dgamma, norm_ddata, grad_condition):
        ratio = (norm_dgamma / norm_ddata if norm_ddata > 0
                 else float("nan"))
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
    grads = NodalField(mesh, delta).cell_gradients()
    gnorm = float(np.sqrt(np.dot(mesh.cell_volumes,
                                 (grads * grads).sum(axis=1))))
    return gnorm / norm_delta if norm_delta > 0 else 0.0


def stability_sweep(family, base_gamma, perturbations, mesh=None,
                    labels=None):
    """Empirical data-to-parameter stability ratios.

    For each boundary-vanishing perturbation delta, synthesizes the
    interior data for base_gamma and base_gamma + delta on the same
    mesh and tabulates ||delta|| / ||F_1 - F_2|| together with the
    gradient-condition value.  Perturbations that push the parameter
    outside the family's range are skipped with a log entry.  The field
    solves share one lagged Neumann factor.
    """
    mesh = mesh if mesh is not None else base_gamma.mesh
    bidx = mesh.boundary_vertex_indices()
    report = StabilityReport(mesh.n, "data")
    factor = LaggedFactor()
    # only projections are kept: no field or flux outlives its solve
    base_proj = synthesize(family, base_gamma, mesh,
                           factor=factor).nodal_projection.values
    for i, delta in enumerate(perturbations):
        label = labels[i] if labels is not None else "pair%02d" % i
        dvals = delta.values
        if np.abs(dvals[bidx]).max() > 1e-12:
            raise ValueError("perturbation %s does not vanish on the "
                             "boundary" % label)
        pvals = base_gamma.values + dvals
        if not _in_range(pvals, family):
            report.skip(label, "perturbed parameter leaves the family "
                               "range [%g, %g]" % family.t_range)
            continue
        pert_proj = synthesize(family, NodalField(mesh, pvals), mesh,
                               factor=factor).nodal_projection.values
        norm_dg = l2_norm_nodal(mesh, dvals)
        norm_df = l2_norm_nodal(mesh, pert_proj - base_proj)
        report.add_row(label, norm_dg, norm_df,
                       _grad_condition(mesh, dvals, norm_dg))
    return report


def field_difference_sweep(family, pairs, mesh, labels=None):
    """Empirical field-to-parameter Lipschitz ratios.

    For each pair (gamma_1, gamma_2), solves the Neumann problem for
    both parameters and tabulates ||E_1 - E_2|| / ||gamma_1 - gamma_2||.
    The report's max_ratio() is the sweep's headline constant.  The
    solves share one lagged Neumann factor, and a second member that is
    the same object as the previous pair's (pairs built as
    (base + delta, base)) is solved once.
    """
    report = StabilityReport(mesh.n, "field")
    factor = LaggedFactor()
    prev_g2 = prev_E2 = None          # only the last field is kept
    for i, (g1, g2) in enumerate(pairs):
        label = labels[i] if labels is not None else "pair%02d" % i
        if not (_in_range(g1.values, family)
                and _in_range(g2.values, family)):
            report.skip(label, "parameter leaves the family range "
                               "[%g, %g]" % family.t_range)
            continue
        _, E1 = solve_field(mesh, family, g1, factor=factor)
        if g2 is not prev_g2:
            _, prev_E2 = solve_field(mesh, family, g2, factor=factor)
            prev_g2 = g2
        E2 = prev_E2
        dvals = g1.values - g2.values
        norm_dg = l2_norm_nodal(mesh, dvals)
        norm_de = l2_norm_cell(mesh, E1.values - E2.values)
        ratio = norm_de / norm_dg if norm_dg > 0 else 0.0
        report.rows.append({"pair": label,
                            "norm_dgamma": float(norm_dg),
                            "norm_ddata": float(norm_de),
                            "C_emp": ratio,
                            "grad_condition": _grad_condition(
                                mesh, dvals, norm_dg)})
    return report


def contraction_report(trace, threshold=0.0):
    """Per-iteration contraction factors and a verdict.

    `trace` is either a ReconTrace or a plain error sequence (in which
    case the first entry is taken as the initial error).  The verdict
    is "contractive" iff the geometric mean of the factors
    rho_k = e_k / e_{k-1}, over iterations whose preceding error
    exceeds `threshold`, is < 1.  Needs at least 3 iterations.
    """
    if hasattr(trace, "error_l2"):
        errors = [trace.initial_error] + list(trace.error_l2)
    else:
        errors = list(trace)
    if len(errors) < 4:               # initial value plus 3 iterations
        raise ValueError("contraction verdict needs at least 3 iterations")
    ratios = []
    active = []
    for prev, cur in zip(errors[:-1], errors[1:]):
        rho = cur / prev if prev > 0 else float("nan")
        ratios.append(rho)
        if prev > threshold and np.isfinite(rho):
            active.append(rho)
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
