import numpy as np
import pytest

from matmi import transport as tr
from matmi.anisotropy import builtin
from matmi.fields import (CellField, NodalField, interpolate_nodal,
                          l2_norm_nodal)
from matmi.functional import synthesize
from matmi.mesh import build_unit_square
from matmi.neumann import solve_field


def _uniform_advection_problem(n):
    """w = (1, 0), F = 1, inflow value x at x = 0: exact solution is x."""
    mesh = build_unit_square(n)
    fam = builtin("D1").with_t_range(-1.0, 3.0)
    E = CellField(mesh, np.tile([0.0, 1.0, 0.0], (mesh.num_cells, 1)))

    class Data:
        dg0_weak = mesh.cell_volumes.copy()

    ones = NodalField(mesh, np.ones(mesh.num_vertices))
    return mesh, tr.TransportProblem(mesh, fam, E, Data(), lambda p: p[:, 0],
                                     gamma_ref=ones)


@pytest.mark.parametrize("n", [16, 32])
def test_dg0_linear_advection_oracle(n):
    mesh, prob = _uniform_advection_problem(n)
    sol = tr.solve_linear_dg(prob)
    err = np.abs(sol.values - mesh.cell_centroids[:, 0]).max()
    assert err <= 2.0 / n


def test_dg0_inflow_tolerance_insensitive():
    mesh, prob = _uniform_advection_problem(16)
    a = tr.solve_linear_dg(prob).values
    prob.tol_inflow = 1e-6
    b = tr.solve_linear_dg(prob).values
    assert np.allclose(a, b, atol=1e-12)


def test_dg0_rejects_nonlinear_family():
    mesh, prob = _uniform_advection_problem(8)
    prob.family = builtin("D2").with_t_range(-1.0, 3.0)
    with pytest.raises(tr.TransportError, match="nonlinear"):
        tr.solve_linear_dg(prob)


@pytest.mark.parametrize("name", ["D2", "D3", "D4"])
def test_expanded_coefficients_match_product_rule(name):
    # the hand-expanded divergence must agree with the generic
    # polynomial-plus-remainder product rule to machine precision
    mesh = build_unit_square(24)
    fam = builtin(name).with_t_range(-5.0, 5.0)
    gs = interpolate_nodal(
        mesh, lambda p: 1.0 + 0.3 * np.sin(3 * p[:, 0]) * np.cos(2 * p[:, 1]))
    _, E = solve_field(mesh, fam, gs)
    co = tr.expand_coefficients(fam, E, mesh)
    gc = gs.cell_means()
    gg = gs.cell_gradients()
    generic = co.divergence(gc, gg)
    hand = tr.closed_form_divergence(name, co.closed_form, gc, gg)
    assert np.abs(generic - hand).max() <= 1e-12


def test_closed_form_coefficients_only_for_expanded_families():
    mesh = build_unit_square(4)
    gs = interpolate_nodal(mesh, lambda p: np.ones(p.shape[0]))
    fam = builtin("D1").with_t_range(0.5, 2.0)
    _, E = solve_field(mesh, fam, gs)
    assert tr.expand_coefficients(fam, E, mesh).closed_form is None
    with pytest.raises(KeyError):
        tr.closed_form_divergence("D1", {}, gs.cell_means(), gs.cell_gradients())


def _gaussian_case(n=32):
    mesh = build_unit_square(n)
    fam = builtin("D1").with_t_range(0.4, 2.6)
    fn = lambda p: np.exp(-(p[:, 0] - 0.5) ** 2 / 0.02
                          - (p[:, 1] - 0.5) ** 2 / 0.02) + 1.0
    gstar = interpolate_nodal(mesh, fn)
    data = synthesize(fam, gstar, mesh)
    _, E = solve_field(mesh, fam, gstar)
    return mesh, fam, fn, gstar, data, E


def test_dg0_same_mesh_data_pairing():
    # flux-form data generated on the inversion mesh pairs exactly with
    # the upwinded DG0 operator; the only error left is the O(h^2) gap
    # between the midpoint inflow trace and the cell-mean solution
    mesh, fam, fn, gstar, data, E = _gaussian_case()
    prob = tr.TransportProblem(mesh, fam, E, data, fn, gamma_ref=gstar)
    sol = tr.solve_linear_dg(prob)
    assert np.abs(sol.values - gstar.cell_means()).max() <= 2.0 / mesh.n


def test_ls_picard_recovers_truth_with_true_field():
    mesh, fam, fn, gstar, data, E = _gaussian_case()
    ones = NodalField(mesh, np.ones(mesh.num_vertices))
    prob = tr.TransportProblem(mesh, fam, E, data, fn, gamma_ref=ones)
    sol = tr.solve_nonlinear_ls(
        prob, tr.PicardOptions(max_outer=40, rel_tol=1e-9), alpha=1e-2,
        anchor=ones)
    err = l2_norm_nodal(mesh, sol.values - gstar.values)
    err /= l2_norm_nodal(mesh, gstar.values)
    assert err <= 0.05 * l2_norm_nodal(mesh, 1.0 - gstar.values) \
        / l2_norm_nodal(mesh, gstar.values) + 0.05


def test_nonconvergence_raises_with_history():
    mesh, fam, fn, gstar, data, E = _gaussian_case(n=16)
    ones = NodalField(mesh, np.ones(mesh.num_vertices))
    prob = tr.TransportProblem(mesh, fam, E, data, fn, gamma_ref=ones)
    with pytest.raises(tr.TransportError) as err:
        tr.solve_nonlinear_ls(prob,
                              tr.PicardOptions(max_outer=1, rel_tol=1e-14))
    assert len(err.value.history) == 1


def test_accept_last_suppresses_nonconvergence_error():
    mesh, fam, fn, gstar, data, E = _gaussian_case(n=16)
    ones = NodalField(mesh, np.ones(mesh.num_vertices))
    prob = tr.TransportProblem(mesh, fam, E, data, fn, gamma_ref=ones)
    sol = tr.solve_nonlinear_ls(
        prob, tr.PicardOptions(max_outer=1, rel_tol=1e-14, accept_last=True))
    assert np.all(np.isfinite(sol.values))


def test_picard_options_validation():
    with pytest.raises(ValueError):
        tr.PicardOptions(max_outer=0)
    with pytest.raises(ValueError):
        tr.PicardOptions(rel_tol=2.0)
    with pytest.raises(ValueError):
        tr.PicardOptions(damping=0.0)
