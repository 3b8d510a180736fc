"""The outer fixed-point reconstruction loop.

Each iteration alternates (i) a Neumann field solve for the current
iterate, (ii) a least-squares transport solve for the updated parameter
at every vertex, and (iii) a projection onto the admissible box with the
boundary trace reset to the known target values.
"""

import time

import numpy as np

from .anisotropy import builtin
from .fields import NodalField, interpolate_nodal, l2_norm_cell, l2_norm_nodal
from .functional import field_data, load_functional_data, synthesize
from .mesh import build_unit_cube, build_unit_square
from .neumann import (LaggedFactor, SolverError, conductivity_blocks, etilde,
                      solve_field)
from .transport import FluxFit, TransportError, solve_nonlinear_ls

__all__ = [
    "ReconTrace",
    "ReconConfig",
    "ConfigError",
    "ReconError",
    "project",
    "reconstruct",
]

class ConfigError(ValueError):
    """Invalid reconstruction configuration."""


class ReconError(RuntimeError):
    """Reconstruction failure; carries the partial trace."""

    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = trace


def project(gamma_half, box, boundary_values):
    """Clamp into the admissible box (lo, hi) and reset the boundary
    trace.

    boundary_values: array of the trace at the mesh's boundary vertices
    (`boundary_vertex_indices` order).  The gradient and norm
    constraints of the admissible set are not enforced here.
    """
    mesh = gamma_half.mesh
    lo, hi = box
    vals = np.clip(gamma_half.values, lo, hi)
    bidx = mesh.boundary_vertex_indices()
    bvals = np.asarray(boundary_values, dtype=float).ravel()
    if bvals.shape != bidx.shape:
        raise ValueError("expected %d boundary values, got %d"
                         % (bidx.size, bvals.size))
    vals[bidx] = np.clip(bvals, lo, hi)
    return NodalField(mesh, vals)


class ReconTrace:
    """Per-iteration record of a reconstruction run."""

    def __init__(self):
        self.iterates = []            # gamma_k after projection
        self.error_l2 = []            # relative L2 error vs interpolated
                                      # target (nan when unknown)
        self.data_residual = []       # ||F(gamma_k) - F(target)||_L2
        self.seconds = []
        self.picard_changes = []      # inner change history per iteration
        self.outer_change = []        # ||gamma_k - gamma_{k-1}||_M /
                                      # ||gamma_k||_M (0 on a row that
                                      # accepted no update)
        self.field_energy = []        # ||grad u||_L2 of gamma_k's field
        self.target_shares = None     # (not positive definite, outside
                                      # the box) cell shares of the
                                      # target; None without a target
        self.data = None              # the FunctionalData fitted
        self.initial_error = float("nan")
        self.initial_residual = float("nan")
        self.stalled_at = None        # first iteration (1-based) whose
                                      # adaptive update rejected every
                                      # candidate; later rows repeat it
        self.converged_at = None      # first iteration (1-based) whose
                                      # outer change fell within
                                      # CONVERGENCE_TOL x the residual
                                      # ratio; later rows repeat it

    def ratios(self):
        """Error contraction factors e_k / e_{k-1} (first vs initial)."""
        out = []
        prev = self.initial_error
        for e in self.error_l2:
            out.append(e / prev if prev > 0 else float("nan"))
            prev = e
        return out

    def final_error(self):
        return self.error_l2[-1] if self.error_l2 else float("nan")

    def to_csv(self, path):
        """Deterministic trace table (timing deliberately excluded so
        repeated runs produce byte-identical files)."""
        ratios = self.ratios()
        with open(path, "w", newline="") as fh:
            fh.write("iteration,error_L2,residual,ratio\n")
            for k in range(len(self.error_l2)):
                fh.write("%d,%.17g,%.17g,%.17g\n"
                         % (k + 1, self.error_l2[k], self.data_residual[k],
                            ratios[k]))

    def write_picard_log(self, path):
        with open(path, "w", newline="") as fh:
            fh.write("iteration,inner_iteration,rel_change\n")
            for k, hist in enumerate(self.picard_changes):
                for j, ch in enumerate(hist):
                    fh.write("%d,%d,%.17g\n" % (k + 1, j + 1, ch))


def _flag(text):
    """A true/false/0/1 config value."""
    if text.lower() not in ("true", "false", "0", "1"):
        raise ValueError(text)
    return text.lower() in ("true", "1")


# every config key: its default and the parser of its text
_DEFAULTS = {
    "preset": (None, str),
    "family": (None, str),
    "dim": (2, int),
    "n": (32, int),
    "iterations": (10, int),
    "refine": (1, int),
    "lambda": (4.0, float),
    "t_lo": (None, float),
    "t_hi": (None, float),
    "data": (None, str),
    "boundary_value": (1.0, float),
    "picard.alpha": (1e-2, float),
    "picard.adaptive": (True, _flag),
}


class ReconConfig:
    """Flat key=value reconstruction configuration.

    Recognized keys: preset, family, dim, n, iterations, refine, lambda,
    t_lo, t_hi, data, boundary_value, and the update's controls
    picard.alpha and picard.adaptive.  `values` holds the keys a caller
    set; preset values fill any key left unset.  A preset run refuses
    data and boundary_value, and a run on a data file refuses refine.
    """

    def __init__(self, **values):
        for key in values:
            if key not in _DEFAULTS:
                raise ConfigError("unknown config key %r" % key)
        self.values = values

    def __getitem__(self, key):
        return self.values.get(key, _DEFAULTS[key][0])

    @classmethod
    def from_text(cls, text):
        kwargs = {}
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError("line %d is not a key = value pair: %r"
                                  % (lineno, raw.strip()))
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in _DEFAULTS:
                raise ConfigError("unknown config key %r (line %d)"
                                  % (key, lineno))
            try:
                kwargs[key] = _DEFAULTS[key][1](val)
            except ValueError:
                raise ConfigError("invalid value %r for key %r (line %d)"
                                  % (val, key, lineno))
        return cls(**kwargs)

    def _unread(self):
        """The kind of run and the keys it does not read: a preset run
        synthesizes its data from the target, whose trace gives the
        boundary values; a run on a data file uses the data as loaded."""
        if self["preset"] is not None:
            return "a preset run", ("data", "boundary_value")
        return "a run on a data file", ("refine",)

    def to_text(self):
        """The resolved configuration as `key = value` lines, one per key
        the run reads that has a value, so a run of the text repeats this
        one."""
        cfg = self.resolve()
        unread = self._unread()[1]
        return "".join("%s = %s\n" % (key, cfg[key])
                       for key in sorted(_DEFAULTS)
                       if cfg[key] is not None and key not in unread)

    def resolve(self):
        """Layer the defaults, the preset's values and the keys set, then
        fill t_lo/t_hi from the family; returns a plain dict, with the
        admissible box as "box"."""
        out = {key: default for key, (default, _) in _DEFAULTS.items()}
        out["gamma_star"] = None
        if self["preset"] is not None:
            from .presets import get_preset
            p = get_preset(self["preset"])
            if self.values.get("dim", p.dim) != p.dim:
                raise ConfigError("preset %s is %dD; its target is not "
                                  "defined for dim = %d"
                                  % (p.name, p.dim, self["dim"]))
            out.update({"family": p.family_name, "dim": p.dim,
                        "n": p.resolution, "iterations": p.iterations,
                        "lambda": p.lam, "t_lo": p.t_range[0],
                        "t_hi": p.t_range[1], "gamma_star": p.gamma_star})
            out.update(p.config_defaults)
        elif self["family"] is None:
            raise ConfigError("config needs either a preset or a family")
        elif self["data"] is None:
            raise ConfigError("custom configs need a data file (the "
                              "target is otherwise unknown)")
        kind, unread = self._unread()
        for key in unread:
            if key in self.values:
                raise ConfigError("%s is not read by %s" % (key, kind))
        out.update(self.values)
        if out["dim"] not in (2, 3):
            raise ConfigError("dim must be 2 or 3, got %d" % out["dim"])
        for key, (_, parse) in sorted(_DEFAULTS.items()):
            if (parse is float and out[key] is not None
                    and not np.isfinite(out[key])):
                raise ConfigError("%s must be finite, got %g"
                                  % (key, out[key]))
        if out["n"] < 2:
            raise ConfigError("mesh resolution n must be >= 2")
        if out["iterations"] < 1:
            raise ConfigError("iterations must be >= 1")
        if out["refine"] < 1:
            raise ConfigError("refine must be >= 1")
        if not out["picard.alpha"] > 0.0:
            raise ConfigError("picard.alpha must be > 0, got %g"
                              % out["picard.alpha"])
        lam = out["lambda"]
        if lam < 1.0:
            raise ConfigError("lambda must be >= 1, got %g" % lam)
        out["t_lo"], out["t_hi"] = builtin(out["family"]).with_t_range(
            out["t_lo"], out["t_hi"]).t_range
        lo, hi = out["box"] = (max(1.0 / lam, out["t_lo"]),
                               min(lam, out["t_hi"]))
        if not (lo <= 1.0 <= hi and lo < hi):
            raise ConfigError("admissible box [%g, %g] of lambda, t_lo, t_hi "
                              "must be non-empty and hold the background 1"
                              % (lo, hi))
        return out


# the adaptive least-squares update tries these regularization
# multipliers in order and each one's full and then half step; it accepts
# the first candidate whose misfit is below this fraction of the last one
_ALPHA_MULTIPLIERS = (1.0, 0.4, 2.5)
_STEP_DAMPINGS = (1.0, 0.5)
_SUFFICIENT_DECREASE = 0.9
# the outer loop stops once an update moves gamma by at most this
# fraction of the data residual ratio r_k / r_0 it reached
CONVERGENCE_TOL = 1e-2


def _ls_update(problem, cfg, alpha, boundary_values, residual_fn, res_prev):
    """One outer update: least-squares transport solves, steps from the
    current iterate toward each solution, and their projections.

    The adaptive update (`picard.adaptive`) solves at the weights
    `_ALPHA_MULTIPLIERS` times `alpha` in order, and right after each
    solve evaluates its full and then its half step.  It accepts the
    first candidate whose forward data misfit is below
    `_SUFFICIENT_DECREASE` times `res_prev`, failing that the smallest
    if it is below `res_prev`, and otherwise none, so the outer loop is
    monotone in the recorded misfit even where the plain fixed-point map
    is locally expansive.  The plain update is the one-candidate case:
    weight `alpha`, a full step, always accepted.  A weight whose solve
    fails is skipped; if every one fails, the TransportError lists each
    weight with its failure.  Each solve (`solve_nonlinear_ls`) is
    anchored at the background value 1 and stops by the inner-loop
    constants of `matmi.transport` (a change of 1e-4); the weights share
    `problem` and what it caches.

    The candidates' misfits, `residual_fn(gamma, factor)`, share one
    neumann.LaggedFactor per update.  Returns (gamma or None, alpha,
    history, residual_fn result of the accepted candidate or None).
    """
    adaptive = cfg["picard.adaptive"]
    mults, omegas = ((_ALPHA_MULTIPLIERS, _STEP_DAMPINGS) if adaptive
                     else ((1.0,), (1.0,)))
    factor = LaggedFactor()
    best, failures = None, []
    for mult in mults:
        a = alpha * mult
        try:
            sol = solve_nonlinear_ls(problem, a)
        except TransportError as exc:
            failures.append("weight %g: %s" % (a, exc))
            continue
        for omega in omegas:
            mixed = NodalField(problem.mesh, omega * sol.values
                               + (1.0 - omega) * problem.gamma_ref.values)
            cand = project(mixed, cfg["box"], boundary_values)
            res = residual_fn(cand, factor)
            if res[0] < _SUFFICIENT_DECREASE * res_prev:
                return cand, a, sol.picard_history, res
            if best is None or res[0] < best[3][0]:
                best = cand, a, sol.picard_history, res
    if best is None:
        raise TransportError("every least-squares candidate failed: "
                             + "; ".join(failures))
    if adaptive and best[3][0] >= res_prev:
        return None, alpha, [], None
    return best


def _target_shares(mesh, family, target, box):
    """Shares of the cells on which the target gamma* leaves the class
    the paper's stability result covers: those where A(., gamma*), the
    in-plane block `conductivity_blocks` evaluates at the cell means, is
    not positive definite, and those where the cell mean of gamma* lies
    outside the admissible box."""
    blocks = conductivity_blocks(mesh, family, target)
    t = target.cell_means()
    return (float(np.mean(np.linalg.eigvalsh(blocks.T)[:, 0] <= 0.0)),
            float(np.mean((t < box[0]) | (t > box[1]))))


def reconstruct(config):
    """Run the fixed-point reconstruction described by `config`.

    Returns a ReconTrace; on sub-solver failure raises ReconError with
    the partial trace attached.  The target's shares outside the class
    are recorded before the data are synthesized, so a failed synthesis
    still reports them.
    """
    cfg = config.resolve()
    builder = build_unit_square if cfg["dim"] == 2 else build_unit_cube
    mesh = builder(cfg["n"])
    family = builtin(cfg["family"]).with_t_range(cfg["t_lo"], cfg["t_hi"])
    trace = ReconTrace()

    gamma_star_fn = cfg["gamma_star"]
    bpts = mesh.vertices[mesh.boundary_vertex_indices()]
    try:
        if gamma_star_fn is not None:
            target = interpolate_nodal(mesh, gamma_star_fn)
            trace.target_shares = _target_shares(mesh, family, target,
                                                 cfg["box"])
            data = synthesize(family, gamma_star_fn, mesh,
                              refine=cfg["refine"])
            boundary_values = gamma_star_fn(bpts)
        else:
            target = None
            data = load_functional_data(mesh, cfg["data"])
            boundary_values = np.full(len(bpts), cfg["boundary_value"])
    except SolverError as exc:
        raise ReconError("data synthesis failed: %s" % exc, trace)
    except (OSError, ValueError) as exc:
        raise ConfigError("cannot prepare the data: %s" % exc) from exc
    trace.data = data

    et = etilde(mesh.cell_centroids)
    target_norm = (l2_norm_nodal(mesh, target.values)
                   if target is not None else float("nan"))

    def rel_error(gamma):
        if target is None:
            return float("nan")
        return l2_norm_nodal(mesh, gamma.values - target.values) / target_norm

    def residual(gamma, factor=None):
        """The L2 norm of the forward data misfit, and the field E of
        gamma that the forward solve computed; `factor` is an optional
        neumann.LaggedFactor for that solve."""
        _, E = solve_field(mesh, family, gamma, factor=factor)
        forward = field_data(mesh, family, gamma, E)
        diff = forward.nodal_projection.values - data.nodal_projection.values
        return l2_norm_nodal(mesh, diff), E

    gamma = project(NodalField(mesh, np.ones(mesh.num_vertices)), cfg["box"],
                    boundary_values)
    trace.initial_error = rel_error(gamma)
    try:
        trace.initial_residual, E = residual(gamma)
    except (SolverError, ValueError) as exc:
        raise ReconError("forward solve for the initial residual failed: %s"
                         % exc, trace)

    alpha = cfg["picard.alpha"]
    res_l2 = trace.initial_residual
    for k in range(cfg["iterations"]):
        t0 = time.perf_counter()
        changes, change = [], 0.0
        # Once the adaptive update has rejected every candidate, or an
        # update has moved gamma by less than its residual can resolve,
        # each later iteration would repeat that one (exactly, or to
        # within the data's resolution): its row is recorded again.
        if trace.stalled_at is None and trace.converged_at is None:
            try:
                problem = FluxFit(mesh, family, E, data, gamma)
                cand, alpha, changes, res = _ls_update(
                    problem, cfg, alpha, boundary_values, residual, res_l2)
                if cand is None:
                    trace.stalled_at = k + 1
                else:
                    change = (l2_norm_nodal(mesh, cand.values - gamma.values)
                              / l2_norm_nodal(mesh, cand.values))
                    gamma = cand
                    res_l2, E = res
                    # d_k <= tol * r_k / r_0, multiplied out for r_0 = 0
                    if (change * trace.initial_residual
                            <= CONVERGENCE_TOL * res_l2):
                        trace.converged_at = k + 1
                error = rel_error(gamma)
            except (SolverError, TransportError, ValueError) as exc:
                raise ReconError("iteration %d failed: %s"
                                 % (len(trace.iterates) + 1, exc), trace)
        trace.picard_changes.append(changes)
        trace.outer_change.append(change)
        trace.iterates.append(gamma)
        trace.error_l2.append(error)
        trace.data_residual.append(res_l2)
        # E = Etilde + grad u is the field of this row's iterate
        trace.field_energy.append(l2_norm_cell(mesh, E.values - et))
        trace.seconds.append(time.perf_counter() - t0)
    return trace
