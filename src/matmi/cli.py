"""Command-line front end: run presets or custom configs, verify the
acceptance thresholds, and run stability sweeps.

Exit codes: 0 success, 1 solver failure (or failed verification),
2 configuration error.
"""

import argparse
import os
import sys
import time

import numpy as np

from .anisotropy import builtin, check_admissibility
from .fields import (NodalField, interpolate_nodal, l2_norm_cell,
                     level_set_centroid)
from .functional import (load_functional_data, save_functional_data,
                         synthesize, write_nodal_csv)
from .mesh import build_unit_cube, build_unit_square
from .neumann import LaggedFactor, SolverError, etilde, solve_field
from .presets import PRESET_NAMES, SLICE_LEVELS, get_preset
from .reconstruction import (ConfigError, ReconConfig, ReconError,
                             reconstruct)
from .stability import (contraction_report, field_difference_sweep,
                        smooth_perturbations, stability_sweep)
from .vtkio import write_slice_csv, write_vtk

__all__ = ["main"]

EXIT_OK = 0
EXIT_SOLVER = 1
EXIT_CONFIG = 2


def _out_root(args):
    if args.out:
        return args.out
    return os.environ.get("MATMI_OUT_DIR", "artifacts")


def _build_config(args, extra_overrides=None):
    """ReconConfig from --preset/--config plus key=value overrides."""
    overrides = {}
    for kv in getattr(args, "overrides", []) or []:
        if "=" not in kv:
            raise ConfigError("override %r is not a key=value pair" % kv)
        parsed = ReconConfig.from_text(kv)
        for key in parsed.explicit:
            overrides[key] = parsed.values[key]
    for key in ("n", "iterations", "refine"):
        val = getattr(args, key, None)
        if val is not None:
            overrides[key] = val
    if extra_overrides:
        overrides.update(extra_overrides)
    if args.config:
        return ReconConfig.from_file(args.config).with_overrides(**overrides)
    if args.preset:
        overrides["preset"] = args.preset
        return ReconConfig(**overrides)
    raise ConfigError("either --preset or --config is required")


def _run_name(args):
    if args.preset:
        return args.preset
    return os.path.splitext(os.path.basename(args.config))[0]


def _write_artifacts(outdir, config, trace, dump_fields=False):
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "config.txt"), "w") as fh:
        fh.write(config.to_text())
    trace.to_csv(os.path.join(outdir, "trace.csv"))
    trace.write_picard_log(os.path.join(outdir, "picard.csv"))
    if not trace.iterates:
        return
    final = trace.iterates[-1]
    write_vtk(os.path.join(outdir, "final.vtk"), final.mesh,
              point_data={"gamma": final.values})
    write_nodal_csv(final, os.path.join(outdir, "final.csv"))
    if dump_fields:
        for k, it in enumerate(trace.iterates):
            write_vtk(os.path.join(outdir, "iterate_%02d.vtk" % (k + 1)),
                      it.mesh, point_data={"gamma": it.values})
    if final.mesh.dim == 3:
        for z in SLICE_LEVELS:
            write_slice_csv(final, z,
                            os.path.join(outdir, "slice_z%.3f.csv" % z))


def cmd_run(args):
    config = _build_config(args)
    outdir = os.path.join(_out_root(args), _run_name(args))
    try:
        trace = reconstruct(config)
    except ReconError as exc:
        _write_artifacts(outdir, config, exc.trace, args.dump_fields)
        print("reconstruction failed: %s" % exc, file=sys.stderr)
        print("partial artifacts in %s" % outdir, file=sys.stderr)
        return EXIT_SOLVER
    _write_artifacts(outdir, config, trace, args.dump_fields)
    final = trace.final_error()
    print("wrote %s" % outdir)
    if np.isfinite(final):
        print("final relative L2 error: %.6g (initial %.6g)"
              % (final, trace.initial_error))
    print("final data residual: %.6g (initial %.6g)"
          % (trace.data_residual[-1], trace.initial_residual))
    if trace.stalled_at is not None:
        print("stalled: iteration %d of %d rejected every candidate step; "
              "later iterations repeat its iterate"
              % (trace.stalled_at, len(trace.iterates)))
    return EXIT_OK


class _Checks:
    def __init__(self):
        self.rows = []

    def add(self, label, passed, detail):
        self.rows.append((label, bool(passed), detail))

    def render(self, name):
        lines = ["== verify %s ==" % name]
        for label, passed, detail in self.rows:
            lines.append("  %-34s %s  %s"
                         % (label, "PASS" if passed else "FAIL", detail))
        return "\n".join(lines)

    @property
    def ok(self):
        return all(p for _, p, _ in self.rows)


def _verify_preset(name, outdir):
    preset = get_preset(name)
    config = ReconConfig(preset=name)
    checks = _Checks()
    t0 = time.perf_counter()
    try:
        trace = reconstruct(config)
    except ReconError as exc:
        checks.add("reconstruction", False, str(exc))
        return checks, None
    elapsed = time.perf_counter() - t0

    os.makedirs(outdir, exist_ok=True)
    trace.to_csv(os.path.join(outdir, "trace.csv"))

    final = trace.final_error()
    target = 0.1 * trace.initial_error
    checks.add("final error <= 0.1 x initial", final <= target,
               "%.4g <= %.4g" % (final, target))

    verdict = contraction_report(trace)["verdict"]
    checks.add("contraction verdict", verdict == "contractive", verdict)

    if preset.dim == 2:
        checks.add("runtime <= 300 s", elapsed <= 300.0, "%.1f s" % elapsed)
    else:
        checks.add("runtime (informational)", True, "%.1f s" % elapsed)

    cfg = config.resolve()
    family = builtin(cfg["family"]).with_t_range(cfg["t_lo"], cfg["t_hi"])
    lam = cfg["lambda"]
    box_lo, box_hi = cfg["box"]
    in_box = all(it.values.min() >= box_lo - 1e-12
                 and it.values.max() <= box_hi + 1e-12
                 for it in trace.iterates)
    checks.add("iterates inside box", in_box,
               "[%.3g, %.3g]" % (box_lo, box_hi))

    mesh = trace.iterates[-1].mesh
    bidx = mesh.boundary_vertex_indices()
    bstar = np.clip(preset.gamma_star(mesh.vertices[bidx]), box_lo, box_hi)
    bdev = max(np.abs(it.values[bidx] - bstar).max()
               for it in trace.iterates)
    checks.add("boundary trace fidelity", bdev <= 1e-12, "max dev %.2e" % bdev)

    checks.add("final residual <= initial",
               trace.data_residual[-1] <= trace.initial_residual,
               "%.4g <= %.4g" % (trace.data_residual[-1],
                                 trace.initial_residual))

    lam_est = check_admissibility(family, 8, lam).lambda_est
    et_norm = l2_norm_cell(mesh, etilde(mesh.cell_centroids))
    energy_ok = True
    worst = 0.0
    # a stalled run records the same iterate again: solve each one once,
    # all through one lagged factor
    factor = LaggedFactor()
    prev = None
    for it in trace.iterates:
        if it is prev:
            continue
        prev = it
        u, _ = solve_field(mesh, family, it, factor=factor)
        gn = l2_norm_cell(mesh, u.cell_gradients())
        worst = max(worst, gn / (lam_est * et_norm))
        energy_ok = energy_ok and gn <= lam_est * et_norm
    checks.add("energy bound on all solves", energy_ok,
               "max ratio %.3f" % worst)

    target_field = interpolate_nodal(mesh, preset.gamma_star)
    try:
        data = synthesize(family, target_field, mesh)
        path = os.path.join(outdir, "data.bin")
        save_functional_data(data, path)
        load_functional_data(mesh, path)
        with open(path, "r+b") as fh:
            fh.seek(150)   # inside the numeric payload
            byte = fh.read(1)
            fh.seek(150)
            fh.write(bytes([byte[0] ^ 0xFF]))
        try:
            load_functional_data(mesh, path)
            tamper_detected = False
        except ValueError:
            tamper_detected = True
        checks.add("data container integrity", tamper_detected,
                   "round trip ok, tampering rejected"
                   if tamper_detected else "tampered file accepted")
    except (SolverError, ValueError) as exc:
        checks.add("data container integrity", False, str(exc))

    if preset.dim == 3:
        c = level_set_centroid(trace.iterates[-1], 1.5)
        offset = float(np.abs(c - 0.5).max())
        checks.add("1.5-level-set centroid", offset <= 0.1,
                   "(%.3f, %.3f, %.3f)" % tuple(c))
        slices_ok = True
        for z in SLICE_LEVELS:
            path = os.path.join(outdir, "slice_z%.3f.csv" % z)
            write_slice_csv(trace.iterates[-1], z, path)
            slices_ok = slices_ok and os.path.getsize(path) > 0
        checks.add("slice exports", slices_ok,
                   "z in {%s}" % ", ".join("%g" % z for z in SLICE_LEVELS))
    return checks, trace


def cmd_verify(args):
    names = args.preset_names or ([args.preset] if args.preset
                                  else list(PRESET_NAMES))
    root = _out_root(args)
    all_ok = True
    for name in names:
        get_preset(name)              # fail early on unknown names
    for name in names:
        checks, _ = _verify_preset(name, os.path.join(root, name))
        print(checks.render(name))
        all_ok = all_ok and checks.ok
    print("verify: %s" % ("all checks passed" if all_ok
                          else "FAILURES detected"))
    return EXIT_OK if all_ok else EXIT_SOLVER


def cmd_sweep(args):
    family = builtin(args.family).with_t_range(args.t_lo, args.t_hi)
    root = _out_root(args)
    os.makedirs(root, exist_ok=True)
    results = {}
    for n in args.n or [32, 64]:
        mesh = build_unit_square(n) if args.dim == 2 else build_unit_cube(n)
        base = NodalField(mesh, np.ones(mesh.num_vertices))
        perts = [interpolate_nodal(mesh, f) for f in
                 smooth_perturbations(args.count, seed=args.seed,
                                      amplitude=args.amplitude,
                                      dim=args.dim)]
        rep = stability_sweep(family, base, perts, mesh)
        rep.to_csv(os.path.join(root, "stability_%s_n%d.csv"
                                % (args.family, n)))
        pairs = [(NodalField(mesh, base.values + p.values), base)
                 for p in perts]
        frep = field_difference_sweep(family, pairs, mesh)
        frep.to_csv(os.path.join(root, "field_%s_n%d.csv"
                                 % (args.family, n)))
        results[n] = rep
        print("n=%d: %d pairs, %d skipped, max C_emp %.6g, "
              "max field ratio %.6g"
              % (n, len(rep.rows), len(rep.skipped), rep.max_ratio(),
                 frep.max_ratio()))
        for label, reason in rep.skipped:
            print("  skipped %s: %s" % (label, reason))
    ns = sorted(results)
    for a, b in zip(ns[:-1], ns[1:]):
        common = results[a].common_rows(results[b])
        drift = max((abs(x["C_emp"] - y["C_emp"]) / x["C_emp"]
                     for x, y in common), default=float("nan"))
        print("ratio drift n=%d -> n=%d: %.2f%% over %d pairs"
              % (a, b, 100 * drift, len(common)))
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="matmi",
        description="Reconstruction of the scalar parameter of an "
                    "anisotropic conductivity from interior data.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a preset or a config file")
    run.add_argument("--preset", choices=PRESET_NAMES)
    run.add_argument("--config", help="path to a key=value config file")
    run.add_argument("--out", help="output root (default $MATMI_OUT_DIR "
                                   "or ./artifacts)")
    run.add_argument("--n", type=int, help="mesh resolution override")
    run.add_argument("--iterations", type=int,
                     help="outer iteration count override")
    run.add_argument("--refine", type=int,
                     help="data synthesis refinement override")
    run.add_argument("--dump-fields", action="store_true",
                     help="write per-iteration VTK files")
    run.add_argument("overrides", nargs="*", metavar="key=value",
                     help="additional config overrides")
    run.set_defaults(func=cmd_run)

    verify = sub.add_parser("verify",
                            help="run presets and check the acceptance "
                                 "thresholds")
    verify.add_argument("preset_names", nargs="*", metavar="preset",
                        help="preset names (default: all six)")
    verify.add_argument("--preset", choices=PRESET_NAMES)
    verify.add_argument("--out")
    verify.set_defaults(func=cmd_verify)

    sweep = sub.add_parser("sweep", help="stability and field-difference "
                                         "perturbation sweeps")
    sweep.add_argument("--family", default="D1")
    sweep.add_argument("--dim", type=int, default=2, choices=(2, 3))
    sweep.add_argument("--n", type=int, action="append",
                       help="mesh resolution(s); repeatable")
    sweep.add_argument("--count", type=int, default=20)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--amplitude", type=float, default=0.05)
    sweep.add_argument("--t-lo", type=float, dest="t_lo")
    sweep.add_argument("--t-hi", type=float, dest="t_hi")
    sweep.add_argument("--out")
    sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, KeyError) as exc:
        print("configuration error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except (ReconError, SolverError) as exc:
        print("solver error: %s" % exc, file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
