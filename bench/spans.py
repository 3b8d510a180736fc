"""In-memory span tracer around matmi's public callables, and the
per-layer metrics derived from its spans.

``from .x import f`` binds ``f`` in the importing module at import time,
so patching only the defining module misses most calls.  The tracer
therefore replaces every binding of each target function in every
loaded ``matmi`` module (and ``scipy.sparse.linalg.spsolve``, which
matmi calls through the ``spla`` module alias), and restores them all
on exit.
"""

import functools
import json
import sys
import time

# span name -> (defining module, attribute)
TARGETS = {
    "mesh.build_unit_square": ("matmi.mesh", "build_unit_square"),
    "mesh.build_unit_cube": ("matmi.mesh", "build_unit_cube"),
    "mesh.classify_inflow": ("matmi.mesh", "classify_inflow"),
    "fields.mass_matrix": ("matmi.fields", "mass_matrix"),
    "neumann.solve_field": ("matmi.neumann", "solve_field"),
    "neumann.assemble": ("matmi.neumann", "assemble"),
    "neumann.solve_mean_zero": ("matmi.neumann", "solve_mean_zero"),
    "functional.synthesize": ("matmi.functional", "synthesize"),
    "transport.solve_nonlinear_ls": ("matmi.transport", "solve_nonlinear_ls"),
    "reconstruction.reconstruct": ("matmi.reconstruction", "reconstruct"),
    "reconstruction.project": ("matmi.reconstruction", "project"),
    "stability.stability_sweep": ("matmi.stability", "stability_sweep"),
    "stability.field_difference_sweep": ("matmi.stability",
                                         "field_difference_sweep"),
    "spsolve": ("scipy.sparse.linalg", "spsolve"),
}

# Spans a sparse solve is attributed to: the nearest enclosing one wins.
SPSOLVE_OWNERS = {"transport.solve_nonlinear_ls": "transport",
                  "functional.synthesize": "functional"}


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "count", "extra")

    def __init__(self, id, parent, name, start):
        self.id = id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = None
        # set by a hook after a successful return; a call that raised
        # keeps these defaults
        self.count = 0
        self.extra = {}

    @property
    def seconds(self):
        return self.end - self.start

    def to_dict(self):
        return dict(self.extra, id=self.id, parent=self.parent,
                    name=self.name, start=self.start, end=self.end,
                    count=self.count)


class Tracer:
    """Context manager that records a span for each call of a target."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []
        self._initial = {}          # reconstruct span id -> initial iterate

    def __enter__(self):
        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == "matmi"
                                      or name.startswith("matmi.")
                                      or name == "scipy.sparse.linalg")]
        for name, (modname, attr) in TARGETS.items():
            original = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(name, original)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))
        return self

    def __exit__(self, *exc):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched = []
        return False

    def _wrap(self, name, fn):
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(len(self.spans),
                        self._stack[-1] if self._stack else None,
                        name, time.perf_counter())
            self.spans.append(span)
            self._stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(self, span, result)
            return result
        return wrapper

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")


def _cg_hook(tracer, span, result):
    span.count = len(result[1]) - 1


def _lsq_hook(tracer, span, result):
    span.count = len(result.picard_history)


def _project_hook(tracer, span, result):
    parent = span.parent
    if (parent is not None
            and tracer.spans[parent].name == "reconstruction.reconstruct"):
        tracer._initial.setdefault(parent, result)


def _reconstruct_hook(tracer, span, trace):
    # An iteration is accepted when its iterate is a new object; the
    # adaptive update re-records the previous one when it rejects all
    # candidates.  The first `project` call made the initial iterate.
    prev = tracer._initial.pop(span.id, None)
    accepted = 0
    for it in trace.iterates:
        accepted += it is not prev
        prev = it
    span.count = accepted
    span.extra = {"outer_s": float(sum(trace.seconds))}


_HOOKS = {
    "neumann.solve_mean_zero": _cg_hook,
    "transport.solve_nonlinear_ls": _lsq_hook,
    "reconstruction.project": _project_hook,
    "reconstruction.reconstruct": _reconstruct_hook,
}


# Counters that must repeat exactly across runs of one commit.
EXACT_COUNTERS = ("neumann.cg_iterations", "transport.inner_steps",
                  "functional.spsolve_calls", "transport.spsolve_calls",
                  "reconstruction.accepted_steps")


def layer_metrics(spans, wall, overhead_ratio):
    """Per-layer totals from the spans of one traced run lasting `wall`
    seconds.  Self time is a span's duration less its children's; the
    wall time no top-level span covers is `other_s`, so the self times
    of all spans plus `other_s` add up to `wall`."""
    children = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            children[s.parent] += s.seconds

    def select(*names):
        return [s for s in spans if s.name in names]

    def total(*names):
        return float(sum(s.seconds for s in select(*names)))

    def self_time(*names):
        return float(sum(s.seconds - children[s.id] for s in select(*names)))

    def owner(s, names):
        while s.parent is not None:
            s = spans[s.parent]
            if s.name in names:
                return s.name
        return None

    spsolve = {"transport": [], "functional": []}
    for s in select("spsolve"):
        name = owner(s, SPSOLVE_OWNERS)
        if name is not None:
            spsolve[SPSOLVE_OWNERS[name]].append(s.seconds)
    builds = ("mesh.build_unit_square", "mesh.build_unit_cube")
    sweeps = ("stability.stability_sweep", "stability.field_difference_sweep")
    recons = select("reconstruction.reconstruct")
    outer = float(sum(s.extra.get("outer_s", 0.0) for s in recons))
    candidates = len(select("reconstruction.project")) - len(recons)
    accepted = sum(s.count for s in recons)

    return {
        "mesh.build_s": total(*builds),
        "mesh.build_calls": len(select(*builds)),
        "mesh.classify_inflow_s": total("mesh.classify_inflow"),
        "mesh.classify_inflow_calls": len(select("mesh.classify_inflow")),
        "neumann.solve_field_s": total("neumann.solve_field"),
        "neumann.solve_field_calls": len(select("neumann.solve_field")),
        "neumann.assemble_s": total("neumann.assemble"),
        "neumann.cg_s": total("neumann.solve_mean_zero"),
        "neumann.cg_iterations": sum(
            s.count for s in select("neumann.solve_mean_zero")),
        "functional.synthesize_s": total("functional.synthesize"),
        "functional.synthesize_calls": len(select("functional.synthesize")),
        "functional.synthesize_self_s": self_time("functional.synthesize"),
        "functional.spsolve_calls": len(spsolve["functional"]),
        "functional.spsolve_s": float(sum(spsolve["functional"])),
        "transport.lsq_s": total("transport.solve_nonlinear_ls"),
        "transport.lsq_calls": len(select("transport.solve_nonlinear_ls")),
        "transport.lsq_self_s": self_time("transport.solve_nonlinear_ls"),
        "transport.inner_steps": sum(
            s.count for s in select("transport.solve_nonlinear_ls")),
        "transport.spsolve_calls": len(spsolve["transport"]),
        "transport.spsolve_s": float(sum(spsolve["transport"])),
        "fields.mass_matrix_calls": len(select("fields.mass_matrix")),
        "fields.mass_matrix_s": total("fields.mass_matrix"),
        "reconstruction.project_calls": len(select("reconstruction.project")),
        "reconstruction.project_s": total("reconstruction.project"),
        "reconstruction.candidates": candidates,
        "reconstruction.accepted_steps": accepted,
        # no candidates (a forward-only workload) reads as a yield of 0
        "reconstruction.candidate_yield": (accepted / candidates
                                           if candidates else 0.0),
        "reconstruction.outer_s": outer,
        "reconstruction.pre_loop_s": total("reconstruction.reconstruct")
        - outer,
        "stability.data_sweep_s": total("stability.stability_sweep"),
        "stability.field_sweep_s": total("stability.field_difference_sweep"),
        "stability.forward_solves": sum(
            1 for s in select("neumann.solve_field")
            if owner(s, sweeps) is not None),
        "trace.overhead_ratio": overhead_ratio,
        "other_s": wall - sum(s.seconds for s in spans if s.parent is None),
    }

