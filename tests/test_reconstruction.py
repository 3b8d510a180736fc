import re
from pathlib import Path

import numpy as np
import pytest

from matmi.anisotropy import builtin
from matmi.fields import NodalField, interpolate_nodal
from matmi.mesh import build_unit_square
from matmi.reconstruction import (_DEFAULTS, AdmissibleSet, ConfigError,
                                  ReconConfig, project, reconstruct)


def _ones(mesh):
    return NodalField(mesh, np.ones(mesh.num_vertices))


def test_admissible_set_box_defaults_to_lambda():
    mesh = build_unit_square(4)
    adm = AdmissibleSet(_ones(mesh), 2.0)
    assert adm.box == (0.5, 2.0)


def test_admissible_set_validation():
    mesh = build_unit_square(4)
    with pytest.raises(ValueError):
        AdmissibleSet(_ones(mesh), 0.5)
    with pytest.raises(ValueError):
        AdmissibleSet(_ones(mesh), 2.0, box=(3.0, 1.0))
    with pytest.raises(ValueError):
        AdmissibleSet(_ones(mesh), 2.0, box=(1.5, 2.0))   # gamma0 outside


def test_project_clamps_and_resets_boundary():
    mesh = build_unit_square(6)
    adm = AdmissibleSet(_ones(mesh), 2.0)
    wild = interpolate_nodal(mesh, lambda p: 10.0 * p[:, 0] - 3.0)
    out = project(wild, adm, lambda pts: 1.25 * np.ones(pts.shape[0]))
    assert out.values.min() >= 0.5 and out.values.max() <= 2.0
    bidx = mesh.boundary_vertex_indices()
    assert np.allclose(out.values[bidx], 1.25)
    # projection is idempotent
    again = project(out, adm, lambda pts: 1.25 * np.ones(pts.shape[0]))
    assert np.array_equal(again.values, out.values)


def test_project_checks_boundary_array_length():
    mesh = build_unit_square(4)
    adm = AdmissibleSet(_ones(mesh), 2.0)
    with pytest.raises(ValueError):
        project(_ones(mesh), adm, np.ones(3))


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown config key"):
        ReconConfig(bogus=1)


def test_config_rejects_unknown_solver():
    # the transport update is always least squares, eliminates no inflow
    # vertices and is not damped; the keys that once chose between
    # discretizations or set those are gone, also in the config.txt
    # lines that an earlier `matmi run` wrote
    with pytest.raises(ConfigError, match="unknown config key 'solver'"):
        ReconConfig(solver="lsq")
    with pytest.raises(ConfigError, match="unknown config key 'picard.supg'"):
        ReconConfig(**{"picard.supg": 1.0})
    for line in ("picard.supg = 1.0", "tol_inflow = 1e-12",
                 "picard.damping = 1.0"):
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


def test_with_overrides_keeps_explicit_values():
    cfg = ReconConfig(preset="example1", n=20)
    out = cfg.with_overrides(iterations=3)
    r = out.resolve()
    assert r["n"] == 20 and r["iterations"] == 3


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
    # module uses them; the flux invariants once per outer iteration (not
    # once per candidate weight); no inflow facet is classified; and the
    # normal matrix is formed only on the steps that factor it
    from matmi import fields, neumann
    from matmi import transport as tr
    calls = {name: count_calls(getattr(fields, name))
             for name in ("mass_matrix", "h1_matrix")}
    for name in ("classify_inflow", "_flux_invariants", "_normal_matrix"):
        calls[name] = _counting(monkeypatch, tr, name)
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
                      "_flux_invariants": 2, "_normal_matrix": factored}


def _counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)
    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_stalled_run_repeats_the_rejected_row(monkeypatch):
    # example1 at n=6 rejects every candidate at iteration 3; the state is
    # then unchanged, so later iterations record that row without solving
    from matmi import reconstruction as rc
    lsq = _counting(monkeypatch, rc, "solve_nonlinear_ls")
    short = reconstruct(ReconConfig(preset="example1", n=6, iterations=3))
    short_calls = len(lsq)
    assert short.stalled_at == 3
    assert short.picard_changes[2] == []
    assert short.iterates[2] is short.iterates[1]
    lsq.clear()
    long = reconstruct(ReconConfig(preset="example1", n=6, iterations=6))
    assert len(lsq) == short_calls
    assert long.stalled_at == 3
    assert long.error_l2[:3] == short.error_l2
    assert long.data_residual[:3] == short.data_residual
    for k in range(3, 6):
        assert long.iterates[k] is long.iterates[2]
        assert long.error_l2[k] == long.error_l2[2]
        assert long.data_residual[k] == long.data_residual[2]
        assert long.picard_changes[k] == []


def test_accepted_iterate_field_is_not_solved_again(monkeypatch):
    # one Neumann solve for the data, one per residual evaluation, and
    # none for the field of an iterate whose residual was evaluated
    from matmi import neumann
    solves = _counting(monkeypatch, neumann, "solve_mean_zero")
    trace = reconstruct(ReconConfig(preset="example2", n=8, iterations=3))
    assert len(solves) == 1 + 1 + 3
    assert trace.stalled_at is None


def test_readme_lists_exactly_the_config_keys():
    # the "Recognized keys" sentence of the README's configuration
    # section names every key of _DEFAULTS and nothing else
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("## Configuration files", 1)[1].split("\n## ", 1)[0]
    sentence = re.search(r"Recognized keys:(.*?)\.\s", section, re.S).group(1)
    keys = re.findall(r"`([^`]+)`", sentence)
    assert len(keys) == len(set(keys))
    assert set(keys) == set(_DEFAULTS)
