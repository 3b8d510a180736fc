"""The benchmark's workloads, driven only through matmi's public API.

Each workload has a set-up step (the mesh a user builds before any
solve), one operation that the closed loop repeats, and a correctness
check that runs outside the timed span.  Library calls go through
module attributes (``matmi.reconstruct``, ``stability.stability_sweep``)
so that the tracer's wrappers see them.
"""

import json
import os

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SWEEP_REFERENCE = os.path.join(HERE, "sweep_reference.json")

# Perturbation sets with stored seed-commit ratios.  The sweep workload
# draws its perturbations from seed % REFERENCE_SEEDS so that every run
# can be checked against a stored value.
REFERENCE_SEEDS = 100
# Relative tolerance on the sweep's max ratios against the seed commit.
# CG stops at a relative residual of 1e-10, so a solver change of the
# same accuracy moves the ratios far less than this.
SWEEP_RTOL = 1e-6


class Outcome:
    """What one operation produced: failures of its correctness check,
    the accuracy ratios, and a signature that must repeat exactly."""

    def __init__(self, problems, error_ratio, residual_ratio, signature):
        self.problems = problems
        self.error_ratio = error_ratio
        self.residual_ratio = residual_ratio
        self.signature = signature


class Reconstruction:
    """One ``reconstruct`` call on a preset; the preset has no random
    inputs, so the workload does not depend on the seed."""

    seeded = False

    def __init__(self, name, preset, n=None, iterations=None,
                 check_centroid=False):
        self.name = name
        self.preset = preset
        self.n = n
        self.iterations = iterations
        self.check_centroid = check_centroid

    def toy(self):
        """The same workload at a toy size, for the harness smoke test."""
        return Reconstruction(self.name, self.preset, n=4, iterations=3,
                              check_centroid=self.check_centroid)

    def config(self, matmi):
        overrides = {}
        if self.n is not None:
            overrides["n"] = self.n
        if self.iterations is not None:
            overrides["iterations"] = self.iterations
        return matmi.ReconConfig(preset=self.preset, **overrides)

    def mesh_call(self, matmi):
        cfg = self.config(matmi).resolve()
        builder = "build_unit_square" if cfg["dim"] == 2 else "build_unit_cube"
        return builder, cfg["n"]

    def prepare(self, matmi, seed, mesh=None):
        # reconstruct() builds its own mesh; the set-up one only shows
        # what a user pays before the first solve
        return {"config": self.config(matmi)}

    def run(self, matmi, state):
        return matmi.reconstruct(state["config"])

    def check(self, matmi, state, trace):
        from matmi.fields import level_set_centroid
        from matmi.stability import contraction_report

        cfg = state["config"].resolve()
        family = matmi.builtin(cfg["family"]).with_t_range(cfg["t_lo"],
                                                           cfg["t_hi"])
        lam = cfg["lambda"]
        lo = max(1.0 / lam, family.t_range[0])
        hi = min(lam, family.t_range[1])
        final = trace.iterates[-1]
        mesh = final.mesh
        bidx = mesh.boundary_vertex_indices()
        bstar = np.clip(matmi.get_preset(self.preset).gamma_star(
            mesh.vertices[bidx]), lo, hi)

        error_ratio = trace.final_error() / trace.initial_error
        residual_ratio = trace.data_residual[-1] / trace.initial_residual
        problems = []
        if not error_ratio <= 0.1:
            problems.append("final error %.4g > 0.1 x initial" % error_ratio)
        verdict = contraction_report(trace)["verdict"]
        if verdict != "contractive":
            problems.append("contraction verdict: %s" % verdict)
        if not all(it.values.min() >= lo - 1e-12
                   and it.values.max() <= hi + 1e-12
                   for it in trace.iterates):
            problems.append("an iterate leaves the box [%g, %g]" % (lo, hi))
        bdev = max(np.abs(it.values[bidx] - bstar).max()
                   for it in trace.iterates)
        if not bdev <= 1e-12:
            problems.append("boundary trace deviates by %.3g" % bdev)
        if not residual_ratio <= 1.0:
            problems.append("final residual above initial (ratio %.4g)"
                            % residual_ratio)
        if self.check_centroid:
            c = level_set_centroid(final, 1.5)
            if not np.abs(c - 0.5).max() <= 0.1:
                problems.append("1.5-level-set centroid %s is more than 0.1 "
                                "from the centre" % np.array2string(c))
        return Outcome(problems, error_ratio, residual_ratio,
                       [repr(error_ratio), repr(residual_ratio)])


class ForwardSweep:
    """The data-stability and field-difference sweeps of ``matmi sweep``
    on smooth perturbations drawn from the seed.  Forward-only: the
    transport layer does no work."""

    seeded = True

    def __init__(self, name, family="D1", n=128, count=10, amplitude=0.05):
        self.name = name
        self.family = family
        self.n = n
        self.count = count
        self.amplitude = amplitude

    def toy(self):
        return ForwardSweep(self.name, self.family, n=8, count=3,
                            amplitude=self.amplitude)

    def mesh_call(self, matmi):
        return "build_unit_square", self.n

    def prepare(self, matmi, seed, mesh=None):
        # Without a set-up mesh, a fresh one is built, as `matmi sweep`
        # does on every run: nothing cached on a mesh outlives one
        # operation.
        from matmi.stability import smooth_perturbations

        if mesh is None:
            builder, n = self.mesh_call(matmi)
            mesh = getattr(matmi, builder)(n)
        pert_seed = seed % REFERENCE_SEEDS
        return {"mesh": mesh,
                "family": matmi.builtin(self.family),
                "pert_seed": pert_seed,
                "perturbations": smooth_perturbations(
                    self.count, seed=pert_seed, amplitude=self.amplitude,
                    dim=2)}

    def run(self, matmi, state):
        from matmi import stability

        mesh, family = state["mesh"], state["family"]
        base = matmi.NodalField(mesh, np.ones(mesh.num_vertices))
        perts = [matmi.interpolate_nodal(mesh, f)
                 for f in state["perturbations"]]
        data = stability.stability_sweep(family, base, perts, mesh)
        pairs = [(matmi.NodalField(mesh, base.values + p.values), base)
                 for p in perts]
        field = stability.field_difference_sweep(family, pairs, mesh)
        return data, field

    def check(self, matmi, state, result):
        data, field = result
        problems = []
        for rep in (data, field):
            ratios = [r["C_emp"] for r in rep.rows]
            if len(ratios) != self.count or rep.skipped:
                problems.append("%s sweep has %d rows for %d perturbations"
                                % (rep.kind, len(ratios), self.count))
            if not all(np.isfinite(r) and r > 0 for r in ratios):
                problems.append("%s sweep has a ratio that is not finite "
                                "and positive" % rep.kind)
        maxima = [data.max_ratio(), field.max_ratio()]
        ref = load_sweep_reference()["seeds"][str(state["pert_seed"])]
        for kind, got, want in zip(("data", "field"), maxima,
                                   (ref["data_max_ratio"],
                                    ref["field_max_ratio"])):
            if not abs(got - want) <= SWEEP_RTOL * abs(want):
                problems.append("%s max ratio %r differs from the seed "
                                "commit's %r" % (kind, got, want))
        # Nothing is reconstructed: the final state is the initial one.
        return Outcome(problems, 1.0, 1.0, [repr(m) for m in maxima])


def load_sweep_reference():
    with open(SWEEP_REFERENCE) as fh:
        return json.load(fh)


WORKLOADS = {
    w.name: w for w in (
        Reconstruction("recon-2d-d4", "example4"),
        Reconstruction("recon-3d-d6", "example6", n=10, check_centroid=True),
        ForwardSweep("forward-sweep-d1"),
    )
}
