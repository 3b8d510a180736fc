import re
from pathlib import Path

import numpy as np
import pytest

from matmi.anisotropy import builtin
from matmi.fields import NodalField, interpolate_nodal, l2_norm_cell
from matmi.mesh import build_unit_square
from matmi.functional import save_functional_data, synthesize
from matmi.neumann import SolverError, solve_field
from matmi.presets import get_preset
from matmi.reconstruction import (_DEFAULTS, ConfigError, ReconConfig,
                                  ReconError, project, reconstruct)
from matmi.transport import TransportError


def _ones(mesh):
    return NodalField(mesh, np.ones(mesh.num_vertices))


def test_resolve_box_defaults_to_lambda():
    # a family range wider than [1/lambda, lambda] leaves the box to lambda
    r = ReconConfig(family="D1", data="data.bin", t_lo=0.25, t_hi=4.0,
                    **{"lambda": 2.0}).resolve()
    assert r["box"] == (0.5, 2.0)


def test_resolve_rejects_a_box_without_the_background():
    base = {"family": "D1", "data": "data.bin"}
    with pytest.raises(ConfigError, match="lambda must be >= 1"):
        ReconConfig(**base, **{"lambda": 0.5}).resolve()
    with pytest.raises(ConfigError, match="non-empty"):
        ReconConfig(**base, t_lo=3.0, t_hi=1.0).resolve()
    with pytest.raises(ConfigError, match="background 1"):   # 1 outside
        ReconConfig(**base, t_lo=1.5, t_hi=2.0).resolve()


def test_resolve_validates_picard_controls():
    for val in (-1.0, 0.0):
        with pytest.raises(ConfigError, match="picard.alpha must be > 0"):
            ReconConfig(preset="example1", **{"picard.alpha": val}).resolve()


def test_project_clamps_and_resets_boundary():
    mesh = build_unit_square(6)
    wild = interpolate_nodal(mesh, lambda p: 10.0 * p[:, 0] - 3.0)
    bidx = mesh.boundary_vertex_indices()
    trace = np.full(bidx.size, 1.25)
    out = project(wild, (0.5, 2.0), trace)
    assert out.values.min() >= 0.5 and out.values.max() <= 2.0
    assert np.allclose(out.values[bidx], 1.25)
    # projection is idempotent
    again = project(out, (0.5, 2.0), trace)
    assert np.array_equal(again.values, out.values)


def test_project_checks_boundary_array_length():
    mesh = build_unit_square(4)
    with pytest.raises(ValueError):
        project(_ones(mesh), (0.5, 2.0), np.ones(3))


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown config key"):
        ReconConfig(bogus=1)


def test_config_rejects_unknown_solver():
    # the transport update is always least squares, eliminates no inflow
    # vertices, is not damped and stops its inner loop by constants; the
    # keys that once chose between discretizations or set those are
    # gone, also in the config.txt lines that an earlier `matmi run`
    # wrote
    with pytest.raises(ConfigError, match="unknown config key 'solver'"):
        ReconConfig(solver="lsq")
    with pytest.raises(ConfigError, match="unknown config key 'picard.supg'"):
        ReconConfig(**{"picard.supg": 1.0})
    for line in ("picard.supg = 1.0", "tol_inflow = 1e-12",
                 "picard.damping = 1.0", "picard.max_outer = 50",
                 "picard.rel_tol = 1e-06"):
        with pytest.raises(ConfigError, match="unknown config key"):
            ReconConfig.from_text("preset = example1\n%s\n" % line)


def test_config_from_text_types_and_errors():
    cfg = ReconConfig.from_text(
        "preset = example1\nn = 12\npicard.alpha = 5e-3\n"
        "picard.adaptive = false\n# a comment\n")
    assert cfg["n"] == 12 and isinstance(cfg["n"], int)
    assert cfg["picard.alpha"] == 5e-3
    assert cfg["picard.adaptive"] is False
    with pytest.raises(ConfigError, match="key = value"):
        ReconConfig.from_text("just some words\n")
    with pytest.raises(ConfigError, match="invalid value"):
        ReconConfig.from_text("n = many\n")
    with pytest.raises(ConfigError, match="unknown config key"):
        ReconConfig.from_text("mystery = 3\n")


def test_config_text_round_trip():
    cfg = ReconConfig(preset="example3", n=24, iterations=4)
    back = ReconConfig.from_text(cfg.to_text())
    assert back.resolve()["n"] == 24
    assert back.resolve()["iterations"] == 4


def test_config_text_round_trip_keeps_every_keys_value_and_type():
    # every key set to a value other than its default, so the text holds
    # a line for each key of the table and each is parsed back
    cfg = ReconConfig(**{
        "preset": "example1", "family": "D1", "dim": 2, "n": 12,
        "iterations": 3, "refine": 2, "lambda": 3.0, "t_lo": 0.75,
        "t_hi": 2.25, "data": "data.bin", "boundary_value": 1.5,
        "picard.alpha": 5e-3, "picard.adaptive": False})
    assert set(cfg.values) == set(_DEFAULTS)
    back = ReconConfig.from_text(cfg.to_text())
    assert set(back.values) == set(_DEFAULTS)
    for key in _DEFAULTS:
        assert back[key] == cfg[key], key
        assert type(back[key]) is type(cfg[key]), key


def test_resolve_requires_family_or_preset():
    with pytest.raises(ConfigError, match="preset or a family"):
        ReconConfig(n=8).resolve()


def test_resolve_requires_data_for_custom_family():
    with pytest.raises(ConfigError, match="data file"):
        ReconConfig(family="D1", t_lo=0.5, t_hi=2.0).resolve()


def test_resolve_validates_ranges():
    with pytest.raises(ConfigError, match="n must be"):
        ReconConfig(preset="example1", n=1).resolve()
    with pytest.raises(ConfigError, match="iterations"):
        ReconConfig(preset="example1", iterations=0).resolve()
    with pytest.raises(ConfigError, match="refine"):
        ReconConfig(preset="example1", refine=0).resolve()


@pytest.mark.parametrize("key", ["lambda", "t_lo", "t_hi", "boundary_value",
                                 "picard.alpha"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   -float("inf")])
def test_resolve_rejects_non_finite_values(key, value):
    with pytest.raises(ConfigError, match="%s must be finite, got %g"
                       % (re.escape(key), value)):
        ReconConfig(family="D1", data="data.bin", **{key: value}).resolve()


def test_resolve_checks_the_admissible_box():
    with pytest.raises(ConfigError, match="lambda must be >= 1"):
        ReconConfig(preset="example1", **{"lambda": 0.5}).resolve()
    for bounds in ({"t_lo": 1.5}, {"t_hi": 0.9}, {"lambda": 1.0}):
        with pytest.raises(ConfigError, match="background 1"):
            ReconConfig(preset="example1", **bounds).resolve()
    assert ReconConfig(preset="example1").resolve()["box"] == (0.5, 2.5)


def test_resolve_keeps_the_family_bound_a_lone_bound_leaves():
    r = ReconConfig(family="D2", data="data.bin", t_hi=3.0).resolve()
    assert (r["t_lo"], r["t_hi"]) == (builtin("D2").t_range[0], 3.0)
    assert r["box"] == (0.5, 3.0)
    r = ReconConfig(family="D2", data="data.bin", t_lo=0.3).resolve()
    assert (r["t_lo"], r["t_hi"]) == (0.3, builtin("D2").t_range[1])


def test_preset_fills_only_unset_keys():
    r = ReconConfig(preset="example1").resolve()
    assert r["family"] == "D1"
    assert r["lambda"] == 4.0
    over = ReconConfig(preset="example1", **{"lambda": 2.0}).resolve()
    assert over["lambda"] == 2.0
    assert callable(r["gamma_star"])


def test_target_is_a_fixed_point():
    # with gamma1 = gamma* the first iterate must stay at the target
    # (up to solver tolerance): the data pairing is exact on the mesh
    cfg = ReconConfig(preset="example1", n=12, iterations=2)
    trace = reconstruct(cfg)
    assert trace.initial_error > 0.0
    assert trace.final_error() <= 0.1 * trace.initial_error


def test_trace_csv_is_deterministic(tmp_path):
    cfg = ReconConfig(preset="example1", n=10, iterations=2)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    reconstruct(cfg).to_csv(str(a))
    reconstruct(cfg).to_csv(str(b))
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0]
    assert header == "iteration,error_L2,residual,ratio"


def test_per_call_invariants_are_built_once(monkeypatch, count_calls):
    # the mass and H1 matrices are built once per reconstruct, whichever
    # module uses them; the flux split once per outer iteration (not
    # once per candidate weight); and no inflow facet is classified.
    # No candidate is accepted early, so every update tries every weight
    from matmi import fields, mesh, neumann
    from matmi import reconstruction as rc
    from matmi import transport as tr
    monkeypatch.setattr(rc, "_SUFFICIENT_DECREASE", 0.0)
    calls = {name: count_calls(getattr(fields, name))
             for name in ("mass_matrix", "h1_matrix")}
    calls["classify_inflow"] = count_calls(mesh.classify_inflow)
    calls["FluxSplit"] = _counting(monkeypatch, tr, "FluxSplit")
    shapes = []
    real_factor = neumann.spd_factor

    def recording(A):
        shapes.append(A.shape)
        return real_factor(A)
    monkeypatch.setattr(neumann, "spd_factor", recording)
    trace = reconstruct(ReconConfig(preset="example4", n=8, iterations=2))
    assert len(trace.iterates) == 2
    counts = {name: len(c) for name, c in calls.items()}
    # the LSQ normal matrix has a row per vertex, the pinned Neumann
    # block one fewer
    nv = trace.iterates[-1].mesh.num_vertices
    factored = shapes.count((nv, nv))
    assert factored + shapes.count((nv - 1, nv - 1)) == len(shapes)
    assert factored >= 6
    assert counts == {"mass_matrix": 1, "h1_matrix": 1, "classify_inflow": 0,
                      "FluxSplit": 2}


def test_each_update_builds_its_first_frozen_system_once(monkeypatch):
    # the three weights of an adaptive update all start at gamma_ref:
    # the flux operator there is built once per update, not per weight
    # (no candidate is accepted early, so every update tries all three)
    from matmi import reconstruction as rc
    from matmi import transport as tr
    monkeypatch.setattr(rc, "_SUFFICIENT_DECREASE", 0.0)
    at_ref, real = [], tr._flux_operator

    def recording(problem, gamma_bar_c):
        ref = np.clip(problem.gamma_ref.cell_means(), *problem.family.t_range)
        if np.array_equal(gamma_bar_c, ref):
            at_ref.append(problem)
        return real(problem, gamma_bar_c)
    monkeypatch.setattr(tr, "_flux_operator", recording)
    lsq = _counting(monkeypatch, rc, "solve_nonlinear_ls")
    trace = reconstruct(ReconConfig(preset="example4", n=8, iterations=2))
    assert len(trace.iterates) == 2
    assert len(lsq) == 2 * len(rc._ALPHA_MULTIPLIERS)
    assert len(at_ref) == 2 and at_ref[0] is not at_ref[1]


def _counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)
    monkeypatch.setattr(module, name, wrapper)
    return calls


def _record_neumann(monkeypatch):
    """Record the shape of every SPD factorization and the `factor`
    argument of every synthesize call the reconstruction loop makes."""
    from matmi import neumann
    from matmi import reconstruction as rc
    shapes, holders = [], []
    real_factor, real_synthesize = neumann.spd_factor, rc.synthesize

    def factoring(A):
        shapes.append(A.shape)
        return real_factor(A)

    def synthesizing(*args, factor=None, **kwargs):
        holders.append(factor)
        return real_synthesize(*args, factor=factor, **kwargs)
    monkeypatch.setattr(neumann, "spd_factor", factoring)
    monkeypatch.setattr(rc, "synthesize", synthesizing)
    return shapes, holders


def test_adaptive_update_shares_one_neumann_factor(monkeypatch):
    # the data and the initial residual factor their own pinned Neumann
    # block; the six candidate residuals of an update share one holder,
    # so an update factors once (more only when lagged CG misses).  No
    # candidate is accepted early, so every update evaluates all six
    from matmi import reconstruction as rc
    monkeypatch.setattr(rc, "_SUFFICIENT_DECREASE", 0.0)
    shapes, holders = _record_neumann(monkeypatch)
    trace = reconstruct(ReconConfig(preset="example4", n=8, iterations=2))
    assert trace.stalled_at is None and trace.converged_at is None
    nv = trace.iterates[-1].mesh.num_vertices
    assert shapes.count((nv - 1, nv - 1)) <= 1 + 1 + 2
    assert holders[:2] == [None, None] and len(holders) == 2 + 2 * 6
    first, second = holders[2:8], holders[8:]
    assert first[0] is not None and second[0] is not None
    assert first[0] is not second[0]
    assert all(h is first[0] for h in first)
    assert all(h is second[0] for h in second)


def test_plain_update_residual_gets_one_holder(monkeypatch):
    # one candidate per update, whose residual gets the update's own
    # holder: each update factors once, as the adaptive one does
    shapes, holders = _record_neumann(monkeypatch)
    trace = reconstruct(ReconConfig(preset="example4", n=8, iterations=2,
                                    **{"picard.adaptive": False}))
    assert trace.stalled_at is None and trace.converged_at is None
    nv = trace.iterates[-1].mesh.num_vertices
    assert holders[:2] == [None, None] and len(holders) == 2 + 2
    assert None not in holders[2:] and holders[2] is not holders[3]
    assert shapes.count((nv - 1, nv - 1)) == 2 + 2


def test_stalled_run_repeats_the_rejected_row(monkeypatch):
    # example1 at n=4 rejects every candidate at iteration 2; the state is
    # then unchanged, so later iterations record that row without solving
    from matmi import reconstruction as rc
    lsq = _counting(monkeypatch, rc, "solve_nonlinear_ls")
    short = reconstruct(ReconConfig(preset="example1", n=4, iterations=2))
    short_calls = len(lsq)
    assert short.stalled_at == 2
    assert short.picard_changes[1] == []
    assert short.iterates[1] is short.iterates[0]
    lsq.clear()
    long = reconstruct(ReconConfig(preset="example1", n=4, iterations=5))
    assert len(lsq) == short_calls
    assert long.stalled_at == 2
    assert long.error_l2[:2] == short.error_l2
    assert long.data_residual[:2] == short.data_residual
    for k in range(2, 5):
        assert long.iterates[k] is long.iterates[1]
        assert long.error_l2[k] == long.error_l2[1]
        assert long.data_residual[k] == long.data_residual[1]
        assert long.picard_changes[k] == []


def test_converged_run_repeats_the_stopping_row(monkeypatch):
    # example6 at n=4 moves gamma by less than CONVERGENCE_TOL x its
    # residual ratio at iteration 3; later iterations record that row
    # without solving, and with no inner history of their own
    from matmi import reconstruction as rc
    lsq = _counting(monkeypatch, rc, "solve_nonlinear_ls")
    short = reconstruct(ReconConfig(preset="example6", n=4, iterations=3))
    short_calls = len(lsq)
    assert short.converged_at == 3 and short.stalled_at is None
    change = short.outer_change[2]
    assert 0.0 < change <= rc.CONVERGENCE_TOL * (
        short.data_residual[2] / short.initial_residual)
    lsq.clear()
    long = reconstruct(ReconConfig(preset="example6", n=4, iterations=6))
    assert len(lsq) == short_calls
    assert long.converged_at == 3
    assert long.error_l2[:3] == short.error_l2
    assert long.outer_change[:3] == short.outer_change
    assert long.picard_changes[2]
    for k in range(3, 6):
        assert long.iterates[k] is long.iterates[2]
        assert long.error_l2[k] == long.error_l2[2]
        assert long.data_residual[k] == long.data_residual[2]
        assert long.picard_changes[k] == []
        assert long.outer_change[k] == 0.0


def test_contracting_run_does_not_stop():
    # example1 at n=16 improves at every one of its 10 iterations, and
    # each update still moves gamma by more than the stop allows
    trace = reconstruct(ReconConfig(preset="example1", n=16))
    assert len(trace.iterates) == 10
    assert trace.converged_at is None and trace.stalled_at is None
    assert all(b < a for a, b in zip(trace.error_l2, trace.error_l2[1:]))
    assert len({id(it) for it in trace.iterates}) == 10


@pytest.mark.parametrize("n", [6, 8])
@pytest.mark.parametrize("refine", [1, 2])
@pytest.mark.parametrize("preset",
                         ["example1", "example3", "example4", "example5"])
def test_adaptive_runs_never_raise_the_recorded_residual(preset, refine, n):
    # the adaptive update accepts a candidate by the L2 misfit that the
    # trace records, so no row's residual exceeds the one before it
    trace = reconstruct(ReconConfig(preset=preset, n=n, iterations=6,
                                    refine=refine))
    residuals = [trace.initial_residual] + trace.data_residual
    assert all(b <= a for a, b in zip(residuals, residuals[1:]))


def test_a_sufficient_first_candidate_ends_the_update(monkeypatch):
    # example4's first full step at the current weight lowers the misfit
    # below _SUFFICIENT_DECREASE x the initial one: the update makes one
    # transport solve and one candidate forward solve, after the data
    # and the initial residual
    from matmi import reconstruction as rc
    lsq = _counting(monkeypatch, rc, "solve_nonlinear_ls")
    synthesized = _counting(monkeypatch, rc, "synthesize")
    trace = reconstruct(ReconConfig(preset="example4", n=8, iterations=1))
    assert trace.data_residual[0] < (rc._SUFFICIENT_DECREASE
                                     * trace.initial_residual)
    assert (len(lsq), len(synthesized)) == (1, 2 + 1)


def test_plain_update_is_one_candidate_per_iteration(monkeypatch):
    # picard.adaptive = false: one transport solve and one projection per
    # iteration, plus the projection that makes the initial iterate, and
    # every update is accepted
    from matmi import reconstruction as rc
    lsq = _counting(monkeypatch, rc, "solve_nonlinear_ls")
    proj = _counting(monkeypatch, rc, "project")
    trace = reconstruct(ReconConfig(preset="example1", n=8, iterations=3,
                                    **{"picard.adaptive": False}))
    assert (len(lsq), len(proj)) == (3, 1 + 3)
    assert trace.stalled_at is None
    assert len({id(it) for it in trace.iterates}) == 3


def test_accepted_iterate_field_is_not_solved_again(monkeypatch):
    # one Neumann solve for the data, one per residual evaluation, and
    # none for the field of an iterate whose residual was evaluated
    from matmi import neumann
    solves = _counting(monkeypatch, neumann, "solve_mean_zero")
    trace = reconstruct(ReconConfig(preset="example2", n=8, iterations=3))
    assert len(solves) == 1 + 1 + 3
    assert trace.stalled_at is None


@pytest.mark.parametrize("refine", [1, 2])
def test_data_are_synthesized_from_the_target_itself(monkeypatch, refine):
    # refined data carry the target's sub-cell variation, which its P1
    # interpolant on the inversion mesh has lost, so they are made from
    # the callable only; at refine=1 the target is interpolated on that
    # mesh either way
    from matmi import reconstruction
    made = []

    def recording(*args, **kwargs):
        made.append(synthesize(*args, **kwargs))
        return made[-1]
    monkeypatch.setattr(reconstruction, "synthesize", recording)
    config = ReconConfig(preset="example1", n=8, iterations=1, refine=refine)
    reconstruct(config)
    cfg = config.resolve()
    mesh = build_unit_square(8)
    family = builtin(cfg["family"]).with_t_range(cfg["t_lo"], cfg["t_hi"])
    exact = synthesize(family, cfg["gamma_star"], mesh, refine=refine)
    assert made[0].p1_weak.tobytes() == exact.p1_weak.tobytes()
    assert (made[0].nodal_projection.values.tobytes()
            == exact.nodal_projection.values.tobytes())
    interpolant = interpolate_nodal(mesh, cfg["gamma_star"])
    if refine == 1:
        assert np.array_equal(
            exact.p1_weak, synthesize(family, interpolant, mesh).p1_weak)
    else:
        with pytest.raises(ValueError, match="callable"):
            synthesize(family, interpolant, mesh, refine=refine)


def _failing_lsq(monkeypatch, fails):
    """Make the update's least-squares solve raise TransportError on
    each call (counted from 0) for which `fails(call)` holds; returns
    the indices of the calls that raised."""
    from matmi import reconstruction as rc
    real, calls, raised = rc.solve_nonlinear_ls, [], []

    def solve(*args, **kwargs):
        calls.append(1)
        if fails(len(calls) - 1):
            raised.append(len(calls) - 1)
            raise TransportError("injected failure")
        return real(*args, **kwargs)
    monkeypatch.setattr(rc, "solve_nonlinear_ls", solve)
    return raised


def test_a_failing_candidate_is_skipped(monkeypatch):
    # an update whose first weight's solve fails keeps the candidates of
    # the others: the run is the one without that weight.  No candidate
    # is accepted early, so every update tries every weight
    from matmi import reconstruction as rc
    monkeypatch.setattr(rc, "_SUFFICIENT_DECREASE", 0.0)
    config = ReconConfig(preset="example4", n=8, iterations=2)
    mults = rc._ALPHA_MULTIPLIERS
    with monkeypatch.context() as m:
        m.setattr(rc, "_ALPHA_MULTIPLIERS", mults[1:])
        want = reconstruct(config)
    raised = _failing_lsq(monkeypatch, lambda call: call % len(mults) == 0)
    got = reconstruct(config)
    assert raised == [0, len(mults)]
    assert want.stalled_at is None and got.stalled_at is None
    assert got.error_l2 == want.error_l2
    assert got.data_residual == want.data_residual
    for a, b in zip(got.iterates, want.iterates):
        assert a.values.tobytes() == b.values.tobytes()


@pytest.mark.parametrize("adaptive", [True, False])
def test_an_update_with_every_candidate_failing_ends_the_run(monkeypatch,
                                                             adaptive):
    # the second update fails: ReconError names iteration 2 and carries
    # the first iteration's row; the failing update tries every weight
    from matmi import reconstruction as rc
    first = _counting(monkeypatch, rc, "solve_nonlinear_ls")
    reconstruct(ReconConfig(preset="example4", n=8, iterations=1,
                            **{"picard.adaptive": adaptive}))
    first_update = len(first)
    raised = _failing_lsq(monkeypatch, lambda call: call >= first_update)
    config = ReconConfig(preset="example4", n=8, iterations=3,
                         **{"picard.adaptive": adaptive})
    with pytest.raises(ReconError, match="iteration 2 failed: every "
                       "least-squares candidate failed") as err:
        reconstruct(config)
    assert len(raised) == (len(rc._ALPHA_MULTIPLIERS) if adaptive else 1)
    trace = err.value.trace
    assert len(trace.iterates) == len(trace.error_l2) == 1
    assert len(trace.data_residual) == len(trace.picard_changes) == 1


def test_a_failed_initial_forward_solve_ends_the_run(monkeypatch):
    # the first synthesize call makes the data; the second, the initial
    # residual's forward solve, fails before any iteration
    from matmi import reconstruction as rc
    real, calls = rc.synthesize, []

    def synthesizing(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise SolverError("injected failure", [1.0])
        return real(*args, **kwargs)
    monkeypatch.setattr(rc, "synthesize", synthesizing)
    with pytest.raises(ReconError, match="forward solve for the initial "
                       "residual failed: injected failure") as err:
        reconstruct(ReconConfig(preset="example4", n=8, iterations=2))
    assert len(calls) == 2
    trace = err.value.trace
    assert trace.iterates == [] and trace.error_l2 == []
    assert np.isfinite(trace.initial_error)


def test_target_admissibility_names_the_cells_outside_the_class(tmp_path):
    # example2's two-Gaussian target has background 0: A(., gamma*) of
    # D2 is indefinite where gamma* < 8.3e-5, and gamma* lies below the
    # box floor 1/lambda = 0.01 on a third of the domain
    def shares(**config):
        return reconstruct(ReconConfig(iterations=1, **config)).target_shares
    not_pd, outside = shares(preset="example2")
    assert not_pd == pytest.approx(0.071, abs=0.002)
    assert outside == pytest.approx(0.339, abs=0.004)
    for name in ("example1", "example4", "example6"):
        assert shares(preset=name) == (0.0, 0.0)
    # data loaded from a file come without a target
    mesh = build_unit_square(6)
    save_functional_data(synthesize(builtin("D1"), _ones(mesh), mesh),
                         str(tmp_path / "data.bin"))
    assert shares(family="D1", data=str(tmp_path / "data.bin"), n=6) is None


def test_a_failed_data_synthesis_ends_the_run_with_the_target_report():
    # at n=80 the pinned Neumann block of example2's data is indefinite;
    # the target's shares were recorded before the solve
    with pytest.raises(ReconError, match="data synthesis failed: pinned "
                       "Neumann system: factorization failed") as err:
        reconstruct(ReconConfig(preset="example2", n=80, iterations=1))
    trace = err.value.trace
    assert trace.target_shares[0] > 0.0 and trace.target_shares[1] > 0.0
    assert trace.data is None and trace.iterates == []


def test_trace_records_the_fitted_data_and_each_rows_field_energy():
    # example1 at n=4 stalls at iteration 2 of 6: each row's energy is
    # ||grad u|| of its iterate's own field, repeated with the iterate
    trace = reconstruct(ReconConfig(preset="example1", n=4, iterations=6))
    assert trace.stalled_at == 2
    mesh = trace.iterates[0].mesh
    preset = get_preset("example1")
    family = preset.family()
    target = interpolate_nodal(mesh, preset.gamma_star)
    np.testing.assert_allclose(trace.data.p1_weak,
                               synthesize(family, target, mesh).p1_weak,
                               rtol=1e-9, atol=1e-12)
    assert len(trace.field_energy) == len(trace.iterates) == 6
    for k, it in enumerate(trace.iterates):
        u, _ = solve_field(mesh, family, it)
        assert trace.field_energy[k] == pytest.approx(
            l2_norm_cell(mesh, u.cell_gradients()), rel=1e-9)
        if k and it is trace.iterates[k - 1]:
            assert trace.field_energy[k] == trace.field_energy[k - 1]


def test_readme_lists_exactly_the_config_keys():
    # the "Recognized keys" sentence of the README's configuration
    # section names every key of _DEFAULTS and nothing else
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("## Configuration files", 1)[1].split("\n## ", 1)[0]
    sentence = re.search(r"Recognized keys:(.*?)\.\s", section, re.S).group(1)
    keys = re.findall(r"`([^`]+)`", sentence)
    assert len(keys) == len(set(keys))
    assert set(keys) == set(_DEFAULTS)
