import numpy as np
import pytest

from matmi import neumann, stability
from matmi.anisotropy import builtin
from matmi.fields import NodalField, interpolate_nodal
from matmi.mesh import build_unit_square
from matmi.reconstruction import ReconTrace
from matmi.stability import (contraction_report, field_difference_sweep,
                             smooth_perturbations, stability_sweep)

D1 = builtin("D1").with_t_range(0.25, 4.0)


def _base(mesh):
    return interpolate_nodal(
        mesh, lambda p: 1.0 + 0.3 * np.sin(np.pi * p[:, 0])
        * np.sin(np.pi * p[:, 1]))


def test_smooth_perturbations_deterministic_and_boundary_free():
    mesh = build_unit_square(12)
    a = smooth_perturbations(5, seed=3)
    b = smooth_perturbations(5, seed=3)
    bidx = mesh.boundary_vertex_indices()
    for fa, fb in zip(a, b):
        va = fa(mesh.vertices)
        assert np.array_equal(va, fb(mesh.vertices))
        assert np.abs(va[bidx]).max() <= 1e-14
        assert np.abs(va).max() <= 0.05 + 1e-15


def test_stability_sweep_rows_and_ratios():
    mesh = build_unit_square(12)
    base = _base(mesh)
    perts = [NodalField(mesh, f(mesh.vertices))
             for f in smooth_perturbations(4, seed=1)]
    rep = stability_sweep(D1, base, perts, mesh=mesh)
    assert len(rep.rows) == 4
    assert all(np.isfinite(r) and r > 0 for r in rep.ratios())
    assert rep.max_ratio() == max(rep.ratios())


def test_sweeps_on_one_mesh_build_the_mass_matrix_once(count_calls):
    from matmi import fields
    built = count_calls(fields.mass_matrix)
    mesh = build_unit_square(8)
    base = NodalField(mesh, np.ones(mesh.num_vertices))
    perts = [interpolate_nodal(mesh, f)
             for f in smooth_perturbations(3, seed=1)]
    stability_sweep(D1, base, perts, mesh=mesh)
    field_difference_sweep(D1, [(NodalField(mesh, base.values + p.values),
                                 base) for p in perts], mesh)
    assert len(built) == 1


def test_stability_sweep_rejects_boundary_supported_perturbation():
    mesh = build_unit_square(8)
    bad = interpolate_nodal(mesh, lambda p: 0.01 * np.ones(p.shape[0]))
    with pytest.raises(ValueError, match="vanish on the boundary"):
        stability_sweep(D1, _base(mesh), [bad], mesh=mesh)


def test_stability_sweep_skips_out_of_range_perturbation():
    mesh = build_unit_square(8)
    fam = builtin("D1").with_t_range(0.9, 1.1)
    base = NodalField(mesh, np.ones(mesh.num_vertices))
    huge = NodalField(mesh, 10.0 * smooth_perturbations(
        1, seed=2)[0](mesh.vertices))
    rep = stability_sweep(fam, base, [huge], mesh=mesh)
    assert len(rep.rows) == 0
    assert len(rep.skipped) == 1


def test_zero_perturbation_excluded_from_ratio_stats():
    mesh = build_unit_square(8)
    base = _base(mesh)
    zero = NodalField(mesh, np.zeros(mesh.num_vertices))
    rep = stability_sweep(D1, base, [zero], mesh=mesh)
    assert len(rep.rows) == 1
    assert rep.ratios() == []
    assert np.isnan(rep.max_ratio())


def test_field_difference_sweep_symmetry():
    mesh = build_unit_square(10)
    g1 = _base(mesh)
    g2 = NodalField(mesh, 2.0 - 0.5 * g1.values)
    a = field_difference_sweep(D1, [(g1, g2)], mesh).rows[0]
    b = field_difference_sweep(D1, [(g2, g1)], mesh).rows[0]
    assert a["C_emp"] == pytest.approx(b["C_emp"], abs=1e-14)


def _sweep_pair(monkeypatch, sweep):
    """A sweep with its shared lagged factor, the same sweep with a fresh
    factor per solve, and the number of factorizations of the first."""
    calls = []
    real = neumann.spd_factor

    def counting(A):
        calls.append(1)
        return real(A)
    monkeypatch.setattr(neumann, "spd_factor", counting)
    shared = sweep()
    count = len(calls)
    monkeypatch.setattr(stability, "LaggedFactor", lambda: None)
    return shared, sweep(), count


def _assert_rows_match(a, b):
    assert len(a.rows) == len(b.rows) > 0
    for ra, rb in zip(a.rows, b.rows):
        for key in ("norm_dgamma", "norm_ddata", "C_emp"):
            assert ra[key] == pytest.approx(rb[key], rel=1e-8)


@pytest.mark.parametrize("kind", ["data", "field"])
def test_sweep_shares_one_factor(kind, monkeypatch):
    mesh = build_unit_square(12)
    base = _base(mesh)
    perts = [NodalField(mesh, f(mesh.vertices))
             for f in smooth_perturbations(4, seed=1)]
    pairs = [(NodalField(mesh, base.values + p.values), base)
             for p in perts]
    if kind == "data":
        sweep = lambda: stability_sweep(D1, base, perts, mesh=mesh)
    else:
        sweep = lambda: field_difference_sweep(D1, pairs, mesh)
    shared, fresh, factorizations = _sweep_pair(monkeypatch, sweep)
    _assert_rows_match(shared, fresh)
    assert factorizations == 1


def test_field_sweep_solves_a_shared_pair_member_once(monkeypatch):
    mesh = build_unit_square(8)
    base = _base(mesh)
    perts = [NodalField(mesh, f(mesh.vertices))
             for f in smooth_perturbations(3, seed=4)]
    solved = []
    real = stability.solve_field

    def recording(mesh, family, gamma, **kwargs):
        solved.append(gamma)
        return real(mesh, family, gamma, **kwargs)
    monkeypatch.setattr(stability, "solve_field", recording)
    shared = [(NodalField(mesh, base.values + p.values), base)
              for p in perts]
    field_difference_sweep(D1, shared, mesh)
    assert sum(g is base for g in solved) == 1
    assert len(solved) == len(perts) + 1
    # equal values in distinct objects are solved for each pair
    solved.clear()
    field_difference_sweep(D1, [(g1, NodalField(mesh, base.values.copy()))
                                for g1, _ in shared], mesh)
    assert len(solved) == 2 * len(perts)


def test_report_csv_layout(tmp_path):
    mesh = build_unit_square(8)
    perts = [NodalField(mesh, f(mesh.vertices))
             for f in smooth_perturbations(2, seed=5)]
    rep = stability_sweep(D1, _base(mesh), perts, mesh=mesh)
    path = tmp_path / "rep.csv"
    rep.to_csv(str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "pair,norm_dgamma,norm_ddata,C_emp,grad_condition"
    assert len(lines) == 3


def _trace(errors):
    """A ReconTrace with initial error errors[0], then one row per
    later entry."""
    trace = ReconTrace()
    trace.initial_error, trace.error_l2 = errors[0], list(errors[1:])
    return trace


def test_contraction_report_geometric_decay():
    rep = contraction_report(_trace([1.0, 0.5, 0.25, 0.125]))
    assert rep["verdict"] == "contractive"
    assert rep["geometric_mean"] == pytest.approx(0.5, abs=1e-12)
    assert rep["ratios"] == pytest.approx([0.5, 0.5, 0.5])


def test_contraction_report_stagnation_is_not_contractive():
    rep = contraction_report(_trace([1.0, 1.0, 1.0, 1.0]))
    assert rep["verdict"] == "not contractive"


def test_contraction_report_needs_three_iterations():
    with pytest.raises(ValueError, match="at least 3"):
        contraction_report(_trace([1.0, 0.5, 0.25]))
