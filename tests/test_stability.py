import gc
import weakref

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
    same = NodalField(mesh, base.values.copy())
    for rep in (stability_sweep(D1, base, [zero], mesh=mesh),
                field_difference_sweep(D1, [(same, base)], mesh)):
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
    """`sweep(mesh)` on a new mesh with its shared lagged factor, the
    same sweep with a fresh factor per solve on another new mesh (on the
    first one the memo of forward solves would serve it), and the number
    of factorizations of the first."""
    calls = []
    real = neumann.spd_factor

    def counting(A):
        calls.append(1)
        return real(A)
    monkeypatch.setattr(neumann, "spd_factor", counting)
    shared = sweep(build_unit_square(12))
    count = len(calls)
    monkeypatch.setattr(stability, "LaggedFactor", lambda: None)
    return shared, sweep(build_unit_square(12)), count


def _assert_rows_match(a, b):
    assert len(a.rows) == len(b.rows) > 0
    for ra, rb in zip(a.rows, b.rows):
        for key in ("norm_dgamma", "norm_ddata", "C_emp"):
            assert ra[key] == pytest.approx(rb[key], rel=1e-8)


def _sweep_inputs(mesh, count=4, seed=1):
    """The base, its perturbations and the field sweep's pairs
    (base + delta, base), as `matmi sweep` builds them."""
    base = _base(mesh)
    perts = [NodalField(mesh, f(mesh.vertices))
             for f in smooth_perturbations(count, seed=seed)]
    return base, perts, [(NodalField(mesh, base.values + p.values), base)
                         for p in perts]


@pytest.mark.parametrize("kind", ["data", "field"])
def test_sweep_shares_one_factor(kind, monkeypatch):
    def sweep(mesh):
        base, perts, pairs = _sweep_inputs(mesh)
        if kind == "data":
            return stability_sweep(D1, base, perts, mesh=mesh)
        return field_difference_sweep(D1, pairs, mesh)
    shared, fresh, factorizations = _sweep_pair(monkeypatch, sweep)
    _assert_rows_match(shared, fresh)
    assert factorizations == 1


def test_field_sweep_factors_at_the_shared_base(monkeypatch):
    # alone, the field sweep solves (base + delta_0, base) base first, so
    # the factor the later solves lag is the base's
    mesh = build_unit_square(8)
    base, _, pairs = _sweep_inputs(mesh, count=3, seed=4)
    factored = []
    real = neumann.spd_factor

    def recording(A):
        factored.append(A)
        return real(A)
    monkeypatch.setattr(neumann, "spd_factor", recording)
    field_difference_sweep(D1, pairs, mesh)
    pinned = neumann.assemble(mesh, D1, base).matrix[1:, 1:]
    assert len(factored) == 1
    assert abs(factored[0] - pinned).max() == 0.0


def test_the_sweeps_solve_each_parameter_once_per_mesh(count_calls):
    solved = count_calls(neumann.solve_field)
    mesh = build_unit_square(8)
    base, perts, _ = _sweep_inputs(mesh, count=3, seed=4)
    stability_sweep(D1, base, perts, mesh=mesh)
    assert len(solved) == len(perts) + 1
    # equal values in distinct objects are solved once per mesh and
    # family, whichever sweep meets them first
    copies = [(NodalField(mesh, base.values + p.values),
               NodalField(mesh, base.values.copy())) for p in perts]
    field_difference_sweep(D1, copies, mesh)
    field_difference_sweep(D1, copies, mesh)
    assert len(solved) == len(perts) + 1
    # another family object, even one built alike, or another mesh
    # solves again
    field_difference_sweep(builtin("D1").with_t_range(0.25, 4.0), copies,
                           mesh)
    assert len(solved) == 2 * (len(perts) + 1)
    other = build_unit_square(8)
    field_difference_sweep(D1, _sweep_inputs(other, count=3, seed=4)[2],
                           other)
    assert len(solved) == 3 * (len(perts) + 1)


def test_the_memo_goes_with_its_mesh():
    gc.collect()
    held = len(stability._SOLVED)
    mesh = build_unit_square(6)
    base, perts, pairs = _sweep_inputs(mesh, count=2)
    stability_sweep(D1, base, perts, mesh=mesh)
    field_difference_sweep(D1, pairs, mesh)
    assert len(stability._SOLVED) == held + 1
    gone = weakref.ref(mesh)
    del mesh, base, perts, pairs
    gc.collect()
    assert gone() is None
    assert len(stability._SOLVED) == held


def test_memo_rows_match_a_fresh_mesh_sweep():
    mesh = build_unit_square(12)
    base, perts, pairs = _sweep_inputs(mesh)
    stability_sweep(D1, base, perts, mesh=mesh)
    served = field_difference_sweep(D1, pairs, mesh)   # every E memoized
    fresh = build_unit_square(12)
    _assert_rows_match(served, field_difference_sweep(
        D1, _sweep_inputs(fresh)[2], fresh))
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
