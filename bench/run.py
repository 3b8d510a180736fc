"""Closed-loop benchmark of matmi's reconstruction pipeline.

One client in one process, BLAS and OpenMP pinned to one thread: each
operation starts after the previous one finished, for ``--seconds``
seconds.  With ``--trace 0`` the run reports the end-to-end metrics;
with ``--trace 1`` it also runs one traced unit (the set-up mesh build
plus one operation) and reports per-layer metrics from its spans.  The
last line of standard output is the result as one JSON object.

    python3 bench/run.py --workload recon-2d-d4 --seed 0 --seconds 34 --trace 0
    python3 bench/run.py --smoke     # harness check at toy sizes, a few seconds

Details, spans and the environment of each run are written under
``.bench_out/`` in the checkout.
"""

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import environment

environment.pin_threads()

import spans  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = os.path.join(environment.ROOT, ".bench_out")
SPEC_PATH = os.path.join(environment.ROOT, "BENCHMARK.json")
STATE_PATH = os.path.join(environment.ROOT, ".bench_state",
                          "determinism.json")

# Fresh interpreters timed for setup_s: two before the closed loop, one
# before each operation, and enough after it to make SETUP_SAMPLES (at
# least two); the median is reported.  Machine speed drifts over tens of
# seconds, so samples spread over the run vary more independently than
# a burst.
SETUP_SAMPLES = 9

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import matmi
matmi.%s(%d)
sys.stdout.write(repr(time.perf_counter() - t0))
"""


def declared_metrics():
    """Metric name -> unit, for --trace 0 and for --trace 1, as
    BENCHMARK.json declares them: the one place they are defined."""
    with open(SPEC_PATH) as fh:
        spec = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in spec[kind]}
                 for kind in ("end_to_end", "per_layer"))


def with_units(values, units):
    """Pair each measured value with its declared unit; a metric that is
    measured but not declared, or declared but not measured, is an
    error of the harness."""
    if set(values) != set(units):
        raise RuntimeError("measured metrics %s differ from BENCHMARK.json %s"
                           % (sorted(values), sorted(units)))
    return {k: (v, units[k]) for k, v in values.items()}


def failures(matmi):
    """Exceptions that make an operation count as failed."""
    return (matmi.ReconError, matmi.neumann.SolverError,
            matmi.transport.TransportError)


def measure_setup(wl, matmi, repeats):
    """Seconds to import matmi and build the workload's mesh, each in a
    fresh interpreter."""
    builder, n = wl.mesh_call(matmi)
    code = SETUP_CODE % (builder, n)
    out = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", code],
                              env=environment.child_env(),
                              cwd=environment.ROOT, capture_output=True,
                              text=True, timeout=120, check=True)
        out.append(float(proc.stdout))
    return out


def code_digest():
    """Hash of the library and benchmark sources: determinism records
    are only compared between runs of identical code."""
    h = hashlib.sha256()
    for base in (os.path.join(environment.SRC, "matmi"), workloads.HERE):
        for name in sorted(os.listdir(base)):
            if name.endswith((".py", ".json")):
                with open(os.path.join(base, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


class DeterminismGuard:
    """Signatures that must repeat exactly, within a run and across runs
    of the same code.  A difference is reported as nondeterminism, never
    averaged away."""

    def __init__(self, key):
        self.key = key
        try:
            with open(STATE_PATH) as fh:
                self.records = json.load(fh)
        except FileNotFoundError:
            self.records = {}

    def check(self, kind, signature):
        key = "%s|%s" % (self.key, kind)
        seen = self.records.setdefault(key, signature)
        if seen != signature:
            return ("NONDETERMINISM in %s: %s, earlier run gave %s"
                    % (kind, signature, seen))
        return None

    def save(self):
        os.makedirs(os.path.dirname(STATE_PATH), exist_ok=True)
        tmp = STATE_PATH + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self.records, fh, indent=1, sort_keys=True)
        os.replace(tmp, STATE_PATH)


class Runner:
    """Runs and checks the operations of one workload."""

    def __init__(self, wl, matmi, seed, guard):
        self.wl = wl
        self.matmi = matmi
        self.seed = seed
        self.guard = guard
        self.ops = []               # dicts: wall, traced, problems

    def setup(self):
        builder, n = self.wl.mesh_call(self.matmi)
        mesh = getattr(self.matmi, builder)(n)
        return self.wl.prepare(self.matmi, self.seed, mesh)

    def operation(self, state, traced=False):
        """One timed operation; the check runs after the clock stops."""
        t0 = time.perf_counter()
        try:
            result = self.wl.run(self.matmi, state)
        except failures(self.matmi) as exc:
            wall = time.perf_counter() - t0
            self.ops.append({"wall": wall, "traced": traced,
                             "problems": ["%s: %s" % (type(exc).__name__,
                                                      exc)]})
            return wall, None
        wall = time.perf_counter() - t0
        outcome = self.wl.check(self.matmi, state, result)
        problems = list(outcome.problems)
        drift = self.guard.check("outcome", outcome.signature)
        if drift:
            problems.append(drift)
        self.ops.append({"wall": wall, "traced": traced,
                         "problems": problems, "outcome": outcome})
        return wall, outcome

    def closed_loop(self, seconds, reserve=0.0, before_each=None):
        """Untraced operations back to back until the next one would end
        after `seconds` (counting `reserve` more operations); at least
        one operation runs.  Each operation gets fresh inputs, prepared
        outside its timed span, and `before_each` runs before it."""
        start = time.perf_counter()
        walls, rounds = [], []
        while True:
            t0 = time.perf_counter()
            state = self.wl.prepare(self.matmi, self.seed)
            if before_each is not None:
                before_each()
            wall, _ = self.operation(state)
            walls.append(wall)
            rounds.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - start
            if elapsed + (1.0 + reserve) * statistics.median(rounds) > seconds:
                return walls

    def traced_unit(self, untraced_walls):
        """Set-up plus one operation under the tracer."""
        with spans.Tracer() as tracer:
            t0 = time.perf_counter()
            state = self.setup()
            wall, outcome = self.operation(state, traced=True)
            t1 = time.perf_counter()
        overhead = wall / statistics.median(untraced_walls) - 1.0
        layers = spans.layer_metrics(tracer.spans, t1 - t0, overhead)
        if outcome is not None:
            drift = self.guard.check(
                "counters", [layers[k] for k in spans.EXACT_COUNTERS])
            if drift:
                self.ops[-1]["problems"].append(drift)
        return layers, tracer

    def end_to_end(self, setup_samples):
        good = [op for op in self.ops if not op["problems"]]
        walls = [op["wall"] for op in (good or self.ops) if not op["traced"]]
        outcomes = [op["outcome"] for op in self.ops if "outcome" in op]
        failed = len(self.ops) - len(good)
        # With no finished operation there is no accuracy to report; the
        # run is then marked incorrect and 1 (no improvement) stands in.
        return {
            "solve_s": statistics.median(walls),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "error_ratio": statistics.median(
                [o.error_ratio for o in outcomes] or [1.0]),
            "residual_ratio": statistics.median(
                [o.residual_ratio for o in outcomes] or [1.0]),
            "success_ratio": 1.0 - failed / len(self.ops),
        }


def run_workload(wl, matmi, seed, seconds, trace):
    key = json.dumps({"code": code_digest(), "workload": vars(wl),
                      "seed": seed if wl.seeded else None}, sort_keys=True)
    guard = DeterminismGuard(key)
    runner = Runner(wl, matmi, seed, guard)
    record = {"workload": wl.name, "seed": seed, "seconds": seconds,
              "trace": trace, "environment": environment.describe()}
    e2e_units, layer_units = declared_metrics()
    if trace:
        walls = runner.closed_loop(seconds, reserve=1.0)
        layers, tracer = runner.traced_unit(walls)
        metrics = with_units(layers, layer_units)
    else:
        tracer = None
        samples = measure_setup(wl, matmi, 2)
        runner.closed_loop(seconds, before_each=lambda: samples.extend(
            measure_setup(wl, matmi, 1)))
        samples += measure_setup(wl, matmi, max(2, SETUP_SAMPLES
                                                - len(samples)))
        record["setup_samples"] = samples
        metrics = with_units(runner.end_to_end(samples), e2e_units)
    guard.save()
    record["operations"] = [{"wall": op["wall"], "traced": op["traced"],
                             "problems": op["problems"]}
                            for op in runner.ops]
    return runner, metrics, record, tracer


def report(wl, runner, metrics, record, tracer, trace):
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, "%s-seed%d-trace%d"
                        % (wl.name, record["seed"], trace))
    record["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in metrics.items()}
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        tracer.write(stem + "-spans.jsonl")

    attempted = len(runner.ops)
    failed = sum(1 for op in runner.ops if op["problems"])
    print("environment %s" % json.dumps(record["environment"]))
    print("%s seed %d trace %d: %d operations (%d untraced), %d failed"
          % (wl.name, record["seed"], trace, attempted,
             sum(1 for op in runner.ops if not op["traced"]), failed))
    for op in runner.ops:
        for problem in op["problems"]:
            print("  FAILED: %s" % problem)
    for name, (value, unit) in metrics.items():
        print("  %-32s %-14.6g %s" % (name, value, unit))
    if not trace:
        print("  %-32s %-14.6g %s" % ("fail_ratio", failed / attempted,
                                       "ratio"))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))


def smoke(matmi):
    """Run every workload at a toy size, untraced and traced, and check
    that the harness itself works: every metric present and finite, the
    spans nested inside the traced wall, and the layer counts each
    workload implies.  Accuracy is not judged at these sizes."""
    problems = []
    e2e_units, layer_units = declared_metrics()
    for name, full in workloads.WORKLOADS.items():
        wl = full.toy()
        runner = Runner(wl, matmi, 0, DeterminismGuard("smoke " + name))
        walls = runner.closed_loop(0.0)
        e2e = runner.end_to_end(measure_setup(wl, matmi, 1))
        layers, tracer = runner.traced_unit(walls)
        print("%s: %d spans, %s" % (name, len(tracer.spans), json.dumps(
            {k: layers[k] for k in ("transport.lsq_calls",
                                    "reconstruction.candidate_yield",
                                    "stability.forward_solves", "other_s")})))

        def expect(cond, what):
            if not cond:
                problems.append("%s: %s" % (name, what))

        expect(set(e2e) == set(e2e_units),
               "end-to-end metrics differ from BENCHMARK.json")
        expect(set(layers) == set(layer_units),
               "per-layer metrics differ from BENCHMARK.json")
        expect(all(math.isfinite(v) for v in list(e2e.values())
                   + list(layers.values())), "a metric is not finite")
        expect(layers["other_s"] >= 0.0, "spans exceed the traced wall")
        expect(all(s.end is not None for s in tracer.spans),
               "a span never ended")
        expect(not any(op["problems"] and "outcome" not in op
                       for op in runner.ops), "an operation raised")
        if isinstance(wl, workloads.ForwardSweep):
            expect(layers["transport.lsq_calls"] == 0, "transport ran")
            expect(layers["stability.forward_solves"] == 3 * wl.count + 1,
                   "forward solves miscounted")
        else:
            expect(layers["transport.lsq_calls"] > 0, "transport not seen")
            expect(layers["neumann.cg_iterations"] > 0, "CG not seen")
            expect(layers["mesh.build_calls"] == 2, "mesh builds missed")
        if name == "recon-3d-d6":
            expect(layers["reconstruction.candidate_yield"] == 1.0,
                   "non-adaptive yield is not 1")
    for problem in problems:
        print("SMOKE FAILED: %s" % problem)
    print("smoke: %s" % ("ok" if not problems else "FAILED"))
    return 0 if not problems else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="check the harness at toy sizes and exit")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    try:
        matmi = environment.import_matmi()
    except (environment.MissingLibrary, ImportError) as exc:
        print("cannot benchmark: %s" % exc, file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(matmi)
    wl = workloads.WORKLOADS[args.workload]
    runner, metrics, record, tracer = run_workload(
        wl, matmi, args.seed, args.seconds, args.trace)
    report(wl, runner, metrics, record, tracer, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
