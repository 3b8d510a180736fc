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
from .functional import load_functional_data, save_functional_data
from .mesh import build_unit_cube, build_unit_square
from .neumann import SolverError, etilde
from .presets import PRESET_NAMES, SLICE_LEVELS, get_preset
from .reconstruction import (CONVERGENCE_TOL, ConfigError, ReconConfig,
                             ReconError, reconstruct)
from .stability import (contraction_report, field_difference_sweep,
                        smooth_perturbations, stability_sweep)
from .transport import PICARD_REL_TOL
from .vtkio import write_nodal_csv, write_slice_csv, write_vtk

__all__ = ["main"]

EXIT_OK = 0
EXIT_SOLVER = 1
EXIT_CONFIG = 2


def _out_root(args):
    if args.out:
        return args.out
    return os.environ.get("MATMI_OUT_DIR", "artifacts")


def _build_config(args):
    """One ReconConfig of the --config file's keys, then the key=value
    overrides, then --n/--iterations/--refine, then --preset."""
    keys = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError("cannot read config file %s: %s"
                              % (args.config, exc))
        keys.update(ReconConfig.from_text(text).values)
    for kv in args.overrides:
        if "=" not in kv:
            raise ConfigError("override %r is not a key=value pair" % kv)
        keys.update(ReconConfig.from_text(kv).values)
    for key in ("n", "iterations", "refine"):
        val = getattr(args, key)
        if val is not None:
            keys[key] = val
    if args.preset:
        keys["preset"] = args.preset
    return ReconConfig(**keys)


def _make_dir(path):
    """Create an output directory; one that cannot be made is a
    configuration error, found before anything is solved."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError("cannot create output directory %s: %s"
                          % (path, exc))


def _run_name(args):
    if args.preset:
        return args.preset
    return os.path.splitext(os.path.basename(args.config))[0]


def _write_artifacts(outdir, config, trace, dump_fields=False):
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
    cfg = config.resolve()
    outdir = os.path.join(_out_root(args), _run_name(args))
    _make_dir(outdir)
    try:
        trace, failure = reconstruct(config), None
    except ReconError as exc:
        trace, failure = exc.trace, exc
    shares = trace.target_shares
    if shares is not None and any(shares):
        print("target outside the paper's class: A(x, gamma*) is not "
              "positive definite on %.1f%% of the cells, and gamma* leaves "
              "the box [%g, %g] on %.1f%%"
              % (100 * shares[0], cfg["box"][0], cfg["box"][1],
                 100 * shares[1]))
    _write_artifacts(outdir, config, trace, args.dump_fields)
    if failure is not None:
        print("reconstruction failed: %s" % failure, file=sys.stderr)
        print("partial artifacts in %s" % outdir, file=sys.stderr)
        return EXIT_SOLVER
    final = trace.final_error()
    print("wrote %s" % outdir)
    if np.isfinite(final):
        print("final relative L2 error: %.6g (initial %.6g)"
              % (final, trace.initial_error))
    print("final data residual: %.6g (initial %.6g)"
          % (trace.data_residual[-1], trace.initial_residual))
    print(_outer_loop_end(trace))
    open_loops = [(k + 1, len(hist))
                  for k, hist in enumerate(trace.picard_changes)
                  if hist and hist[-1] > PICARD_REL_TOL]
    if open_loops:
        rows, steps = zip(*open_loops)
        print("inner loop not converged: iteration(s) %s of %d stopped "
              "after %s steps above the change tolerance %g"
              % (", ".join(map(str, rows)), len(trace.iterates),
                 ", ".join(map(str, steps)), PICARD_REL_TOL))
    return EXIT_OK


def _outer_loop_end(trace):
    """One line naming how the outer loop ended: the convergence stop
    (named a stop without lowering the residual when the stopping row's
    residual is not below the initial one), a stall, or the last
    iteration with the change still too large."""
    n = len(trace.iterates)
    if trace.stalled_at is not None:
        return ("stalled: iteration %d of %d rejected every candidate step; "
                "later iterations repeat its iterate" % (trace.stalled_at, n))
    k = trace.converged_at or n
    r0 = trace.initial_residual
    ratio = trace.data_residual[k - 1] / r0 if r0 > 0 else float("nan")
    if trace.converged_at is not None:
        # r0 = 0 (ratio nan): the data was matched from the start
        ending = ("stopped without lowering the residual" if ratio >= 1.0
                  else "converged")
        return ("%s: iteration %d of %d changed gamma by %.3g <= "
                "%g x residual ratio %.3g; later iterations repeat its "
                "iterate" % (ending, k, n, trace.outer_change[k - 1],
                             CONVERGENCE_TOL, ratio))
    return ("outer loop not converged: last change %.3g > %g x residual "
            "ratio %.3g" % (trace.outer_change[-1], CONVERGENCE_TOL, ratio))


def _render_checks(name, rows):
    """The verify report of one preset: a header, then one line per
    (label, passed, detail) row."""
    lines = ["== verify %s ==" % name]
    for label, passed, detail in rows:
        lines.append("  %-34s %s  %s"
                     % (label, "PASS" if passed else "FAIL", detail))
    return "\n".join(lines)


def _verify_preset(name, outdir):
    preset = get_preset(name)
    config = ReconConfig(preset=name)
    rows = []
    t0 = time.perf_counter()
    try:
        trace = reconstruct(config)
    except ReconError as exc:
        rows.append(("reconstruction", False, str(exc)))
        return rows, None
    elapsed = time.perf_counter() - t0
    _write_artifacts(outdir, config, trace)

    final = trace.final_error()
    target = 0.1 * trace.initial_error
    rows.append(("final error <= 0.1 x initial", final <= target,
                 "%.4g <= %.4g" % (final, target)))

    verdict = contraction_report(trace)["verdict"]
    rows.append(("contraction verdict", verdict == "contractive", verdict))

    if preset.dim == 2:
        rows.append(("runtime <= 300 s", elapsed <= 300.0, "%.1f s" % elapsed))
    else:
        rows.append(("runtime (informational)", True, "%.1f s" % elapsed))
    rows.append(("outer loop end (informational)", True,
                 _outer_loop_end(trace)))
    not_pd, outside = trace.target_shares
    rows.append(("target shares (informational)", True,
                 "A(x, gamma*) not positive definite on %.1f%% of the cells, "
                 "outside the box on %.1f%%" % (100 * not_pd, 100 * outside)))

    cfg = config.resolve()
    box_lo, box_hi = cfg["box"]
    in_box = all(it.values.min() >= box_lo - 1e-12
                 and it.values.max() <= box_hi + 1e-12
                 for it in trace.iterates)
    rows.append(("iterates inside box", in_box,
                 "[%.3g, %.3g]" % (box_lo, box_hi)))

    mesh = trace.iterates[-1].mesh
    bidx = mesh.boundary_vertex_indices()
    bstar = np.clip(preset.gamma_star(mesh.vertices[bidx]), box_lo, box_hi)
    bdev = max(np.abs(it.values[bidx] - bstar).max()
               for it in trace.iterates)
    rows.append(("boundary trace fidelity", bdev <= 1e-12,
                 "max dev %.2e" % bdev))

    rows.append(("final residual <= initial",
                 trace.data_residual[-1] <= trace.initial_residual,
                 "%.4g <= %.4g" % (trace.data_residual[-1],
                                   trace.initial_residual)))

    # the iterates lie in the box, so lambda is estimated there: a family
    # range that reaches t <= 0 makes it infinite and the check vacuous
    lam_est = check_admissibility(
        builtin(cfg["family"]).with_t_range(box_lo, box_hi), 8,
        cfg["lambda"]).lambda_est
    bound = lam_est * l2_norm_cell(mesh, etilde(mesh.cell_centroids))
    energy = max(trace.field_energy)
    rows.append(("energy bound on all solves", energy <= bound,
                 "max ratio %.3f" % (energy / bound)))

    path = os.path.join(outdir, "data.bin")
    save_functional_data(trace.data, path)
    try:
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
        rows.append(("data container integrity", tamper_detected,
                     "round trip ok, tampering rejected"
                     if tamper_detected else "tampered file accepted"))
    except ValueError as exc:
        rows.append(("data container integrity", False, str(exc)))

    if preset.dim == 3:
        c = level_set_centroid(trace.iterates[-1], 1.5)
        offset = float(np.abs(c - 0.5).max())
        rows.append(("1.5-level-set centroid", offset <= 0.1,
                     "(%.3f, %.3f, %.3f)" % tuple(c)))
        slices_ok = all(os.path.getsize(os.path.join(
            outdir, "slice_z%.3f.csv" % z)) > 0 for z in SLICE_LEVELS)
        rows.append(("slice exports", slices_ok,
                     "z in {%s}" % ", ".join("%g" % z for z in SLICE_LEVELS)))
    return rows, trace


def cmd_verify(args):
    names = args.preset_names or list(PRESET_NAMES)
    # fail early on unknown names, then on unusable output directories
    outdirs = [os.path.join(_out_root(args), get_preset(name).name)
               for name in names]
    for outdir in outdirs:
        _make_dir(outdir)
    all_ok = True
    for name, outdir in zip(names, outdirs):
        rows, _ = _verify_preset(name, outdir)
        print(_render_checks(name, rows))
        all_ok = all_ok and all(passed for _, passed, _ in rows)
    print("verify: %s" % ("all checks passed" if all_ok
                          else "FAILURES detected"))
    return EXIT_OK if all_ok else EXIT_SOLVER


def cmd_sweep(args):
    family = builtin(args.family).with_t_range(args.t_lo, args.t_hi)
    sizes = args.n or ([32, 64] if args.dim == 2 else [8, 16])
    if min(sizes) < 2:
        raise ConfigError("--n must be at least 2, got %d" % min(sizes))
    if args.count < 1:
        raise ConfigError("--count must be at least 1, got %d" % args.count)
    if args.seed < 0:
        raise ConfigError("--seed must be at least 0, got %d" % args.seed)
    if not args.amplitude > 0:
        raise ConfigError("--amplitude must be above 0, got %g"
                          % args.amplitude)
    if not np.isfinite(args.amplitude):
        raise ConfigError("--amplitude must be finite, got %g"
                          % args.amplitude)
    lo, hi = family.t_range
    if not lo <= 1.0 <= hi:
        raise ConfigError("the range [%g, %g] does not contain the base "
                          "parameter 1" % (lo, hi))
    root = _out_root(args)
    _make_dir(root)
    results = {}
    for n in sizes:
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
    source = run.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", choices=PRESET_NAMES)
    source.add_argument("--config", help="path to a key=value config file")
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
    verify.add_argument("--out")
    verify.set_defaults(func=cmd_verify)

    sweep = sub.add_parser("sweep", help="stability and field-difference "
                                         "perturbation sweeps")
    sweep.add_argument("--family", default="D1")
    sweep.add_argument("--dim", type=int, default=2, choices=(2, 3))
    sweep.add_argument("--n", type=int, action="append",
                       help="mesh resolution(s); repeatable (default: "
                            "32 and 64 in 2D, 8 and 16 in 3D)")
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
        # str() of a KeyError is the repr of its message
        message = exc.args[0] if isinstance(exc, KeyError) else exc
        print("configuration error: %s" % message, file=sys.stderr)
        return EXIT_CONFIG
    except (ReconError, SolverError) as exc:
        print("solver error: %s" % exc, file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
