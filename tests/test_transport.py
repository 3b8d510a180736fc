import numpy as np
import pytest
import scipy.sparse.linalg as spla

from matmi import transport as tr
from matmi.anisotropy import BUILTIN_NAMES, builtin
from matmi.fields import (CellField, NodalField, interpolate_nodal,
                          l2_norm_nodal)
from matmi.functional import synthesize
from matmi.mesh import build_unit_cube, build_unit_square
from matmi.neumann import solve_field
from matmi.presets import get_preset


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


def test_dg0_inflow_tolerance_insensitive(monkeypatch):
    mesh, prob = _uniform_advection_problem(16)
    a = tr.solve_linear_dg(prob).values
    real = tr.classify_inflow
    monkeypatch.setattr(tr, "classify_inflow",
                        lambda mesh, v: real(mesh, v, tol=1e-6))
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


def _flux_operator_loop(problem, gamma_bar_c):
    """_flux_operator with the boundary terms folded into copies of the
    local volume rows facet by facet and vertex by vertex."""
    mesh = problem.mesh
    nloc = mesh.dim + 1
    vol = mesh.cell_volumes
    g, h = problem.flux_split(gamma_bar_c)
    rg = -vol[:, None] * np.einsum("cid,cd->ci", mesh.cell_grads, g)
    rh = -vol[:, None] * np.einsum("cid,cd->ci", mesh.cell_grads, h)
    for cell, verts, nrm, meas in zip(mesh.facet_cells, mesh.facet_vertices,
                                      mesh.facet_normals,
                                      mesh.facet_measures):
        gn = float(np.dot(g[cell], nrm)) * meas * (1.0 / mesh.dim)
        hn = float(np.dot(h[cell], nrm)) * meas * (1.0 / mesh.dim)
        for v in verts:
            i = mesh.cells[cell].tolist().index(int(v))
            rg[cell, i] += gn
            rh[cell, i] += hn
    c = np.zeros(mesh.num_vertices)
    np.add.at(c, mesh.cells.ravel(), rh.ravel())
    ke = np.repeat((rg / nloc)[:, :, None], nloc, axis=2)
    return tr.assemble_p1(mesh, ke), c


@pytest.mark.parametrize("builder, n, preset",
                         [(build_unit_square, 9, "example4"),
                          (build_unit_cube, 4, "example6")])
def test_flux_operator_matches_facet_loop(builder, n, preset):
    # the vectorised boundary term keeps the loop's facet order and
    # arithmetic, so the operator and its gamma-free part are bit-identical
    p = get_preset(preset)
    mesh = builder(n)
    fam = p.family()
    gs = interpolate_nodal(mesh, p.gamma_star)
    _, E = solve_field(mesh, fam, gs)
    prob = tr.TransportProblem(mesh, fam, E, None, p.gamma_star)
    gbar = np.clip(gs.cell_means(), *fam.t_range)
    L, c = tr._flux_operator(prob, gbar)
    L_ref, c_ref = _flux_operator_loop(prob, gbar)
    assert np.array_equal(L.indptr, L_ref.indptr)
    assert np.array_equal(L.indices, L_ref.indices)
    assert np.array_equal(L.data, L_ref.data)
    assert np.array_equal(c, c_ref)


@pytest.mark.parametrize("builder, n", [(build_unit_square, 8),
                                        (build_unit_cube, 4)])
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_flux_operator_reproduces_same_mesh_data(name, builder, n):
    # L and the data share one weak divergence: frozen at gamma*, the
    # operator applied to gamma* gives back the synthesized P1 data
    fam = builtin(name)
    mesh = builder(n)
    gstar = interpolate_nodal(
        mesh, lambda p: 1.0 + 0.4 * np.prod(np.sin(np.pi * p), axis=1))
    data = synthesize(fam, gstar, mesh)
    prob = tr.TransportProblem(mesh, fam, data.field, data, None)
    L, c = tr._flux_operator(prob, gstar.cell_means())
    err = np.abs(L @ gstar.values + c - data.p1_weak).max()
    assert err <= 1e-13 * np.abs(data.p1_weak).max()


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_flux_split_reproduces_the_flux(name):
    fam = builtin(name)
    mesh = build_unit_square(6)
    rng = np.random.default_rng(3)
    E = CellField(mesh, rng.standard_normal((mesh.num_cells, 3)))
    prob = tr.TransportProblem(mesh, fam, E, None, None)
    gc = rng.uniform(*fam.t_range, mesh.num_cells)
    g, h = prob.flux_split(gc)
    xs = np.column_stack([mesh.cell_centroids, np.zeros(mesh.num_cells)])
    want = np.einsum("cij,cj->ci", fam.eval_many(xs, gc),
                     tr.cross_b0(E.values))[:, :2]
    got = gc[:, None] * g + h
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    # without a remainder h is P_0 w itself, bit-identical to adding the
    # einsum of the zero remainder
    assert fam.has_remainder == (name == "D4")
    w3, Pw = prob._flux_invariants
    rat = fam.rational(xs, gc)[:, :2]
    assert np.array_equal(h, Pw[0] + np.einsum("cij,cj->ci", rat, w3))


def _d4_case(n=16):
    """First LSQ update of example4 on a coarse mesh: a nonlinear family
    whose inner Picard loop takes several steps."""
    p = get_preset("example4")
    mesh = build_unit_square(n)
    fam = p.family()
    ones = NodalField(mesh, np.ones(mesh.num_vertices))
    data = synthesize(fam, p.gamma_star, mesh)
    _, E = solve_field(mesh, fam, ones)
    prob = tr.TransportProblem(mesh, fam, E, data, p.gamma_star,
                               gamma_ref=ones)
    opts = tr.PicardOptions(max_outer=40, rel_tol=1e-9, accept_last=True)
    return prob, opts, ones


def _reference_ls(prob, opts, alpha, anchor):
    """The least-squares Picard loop with the normal matrix formed
    explicitly and a direct spsolve per step."""
    mesh = prob.mesh
    gamma = prob.gamma_ref.values.copy()
    R = mesh.h1
    steps = 0
    for _ in range(opts.max_outer):
        gbar = np.clip(NodalField(mesh, gamma).cell_means(),
                       *prob.family.t_range)
        L, c = tr._flux_operator(prob, gbar)
        N = (L.T @ L).tocsr()
        scale = alpha * N.diagonal().mean() / R.diagonal().mean()
        A = N + scale * R
        rhs = L.T @ (prob.data.p1_weak - c) + scale * (R @ anchor.values)
        new = spla.spsolve(A.tocsc(), rhs)
        change = (l2_norm_nodal(mesh, new - gamma)
                  / l2_norm_nodal(mesh, gamma))
        gamma = new
        steps += 1
        if change <= opts.rel_tol:
            break
    return gamma, steps


def _count_splu(monkeypatch):
    calls = []
    real = spla.splu

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)
    monkeypatch.setattr(tr.spla, "splu", counting)
    return calls


def _assert_matches_reference(sol, ref, steps):
    assert len(sol.picard_history) == steps
    assert np.abs(sol.values - ref).max() <= 1e-8 * np.abs(ref).max()


# The tests that compare step counts with the plain Picard reference
# switch the Anderson mixing off: they test the lagged factor and its
# refactor fallback, which mixing leaves unchanged but makes converge in
# fewer steps than the reference.

def test_lagged_factor_matches_direct_picard(monkeypatch):
    monkeypatch.setattr(tr, "_AA_DEPTH", 0)
    prob, opts, ones = _d4_case()
    ref, steps = _reference_ls(prob, opts, 1e-2, ones)
    assert steps >= 4
    splu_calls = _count_splu(monkeypatch)
    sol = tr.solve_nonlinear_ls(prob, opts, alpha=1e-2, anchor=ones)
    _assert_matches_reference(sol, ref, steps)
    # later steps reuse an earlier factor instead of factoring their own
    assert len(splu_calls) < steps


def test_normal_operator_matches_explicit_matrix():
    prob, opts, ones = _d4_case()
    gbar = np.clip(ones.cell_means(), *prob.family.t_range)
    L, _ = tr._flux_operator(prob, gbar)
    A = tr._normal_matrix(L, prob.mesh.h1, 0.3)
    op = tr._normal_operator(L, prob.mesh.h1, 0.3)
    x = np.random.default_rng(2).standard_normal(prob.mesh.num_vertices)
    want = A @ x
    assert A.shape == op.shape == (x.size, x.size)
    assert np.abs(op @ x - want).max() <= 1e-12 * np.abs(want).max()


def test_ls_update_never_evaluates_the_boundary_trace():
    # every vertex is an unknown of the update; the trace is imposed
    # only by the reconstruction loop's projection
    prob, opts, ones = _d4_case(n=8)

    def unused(*args):
        raise AssertionError("the update used the inflow boundary")
    prob.inflow_values = prob.inflow_facets = unused
    sol = tr.solve_nonlinear_ls(prob, opts, alpha=1e-2, anchor=ones)
    assert np.all(np.isfinite(sol.values))


def test_refactors_when_pcg_gives_up(monkeypatch):
    monkeypatch.setattr(tr, "_AA_DEPTH", 0)
    prob, opts, ones = _d4_case()
    ref, steps = _reference_ls(prob, opts, 1e-2, ones)
    splu_calls = _count_splu(monkeypatch)
    real_cg, factors_seen = spla.cg, [0]

    def lagged_gives_up(*args, **kwargs):
        # CG with a factor that an earlier step made reports a miss
        if len(splu_calls) == factors_seen[0]:
            return kwargs["x0"], kwargs["maxiter"]
        factors_seen[0] = len(splu_calls)
        return real_cg(*args, **kwargs)
    monkeypatch.setattr(tr.spla, "cg", lagged_gives_up)
    sol = tr.solve_nonlinear_ls(prob, opts, alpha=1e-2, anchor=ones)
    _assert_matches_reference(sol, ref, steps)
    assert len(splu_calls) == steps


def test_cg_missing_with_a_fresh_factor_is_a_transport_error(monkeypatch):
    # scipy's cg tests convergence at the top of the next iteration, so
    # with maxiter=1 even the exact fresh factor reports a miss: the step
    # must fail loudly rather than return an unconverged solve
    prob, opts, ones = _d4_case(n=8)
    splu_calls = _count_splu(monkeypatch)
    monkeypatch.setattr(tr, "_PCG_MAXITER", 1)
    with pytest.raises(tr.TransportError, match="fresh factor") as err:
        tr.solve_nonlinear_ls(prob, opts, alpha=1e-2, anchor=ones)
    assert len(splu_calls) == 1
    assert err.value.history == []


def test_anderson_mixing_reaches_the_same_fixed_point_in_fewer_steps():
    prob, opts, ones = _d4_case()
    ref, steps = _reference_ls(prob, opts, 1e-2, ones)
    sol = tr.solve_nonlinear_ls(prob, opts, alpha=1e-2, anchor=ones)
    assert len(sol.picard_history) < steps
    assert np.abs(sol.values - ref).max() <= 1e-8 * np.abs(ref).max()


def _mixing_history(pairs, n=50):
    """Pairs (f_j, G_j) of plain steps of the linear contraction
    G(x) = diag(b) x from x = 1, whose fixed point is 0: every plain
    step stays positive."""
    b = np.random.default_rng(5).uniform(0.5, 0.9, n)
    x = np.ones(n)
    fs, gs = [], []
    for _ in range(pairs):
        g = b * x
        fs.append(g - x)
        gs.append(g)
        x = g
    return fs, gs


def test_anderson_step_mixes_toward_the_fixed_point():
    fs, gs = _mixing_history(4)
    mixed = tr._anderson_step(fs, gs, (-10.0, 10.0))
    assert np.linalg.norm(mixed) < 0.25 * np.linalg.norm(gs[-1])


def test_anderson_step_is_plain_with_one_pair():
    fs, gs = _mixing_history(1)
    assert tr._anderson_step(fs, gs, (-10.0, 10.0)) is gs[-1]


def test_anderson_step_is_plain_on_a_rank_deficient_history():
    fs, gs = _mixing_history(3)
    assert tr._anderson_step(fs, gs, (-10.0, 10.0)) is not gs[-1]
    fs[1], gs[1] = fs[2], gs[2]          # the last pair twice
    assert tr._anderson_step(fs, gs, (-10.0, 10.0)) is gs[-1]


def test_anderson_step_is_plain_outside_the_t_range():
    fs, gs = _mixing_history(4)
    # the mixed iterate lands near the fixed point 0, below the smallest
    # plain value: a range that holds the plain step but not the mixed one
    lo, hi = gs[-1].min(), gs[-1].max()
    assert tr._anderson_step(fs, gs, (-10.0, 10.0)).min() < lo
    assert tr._anderson_step(fs, gs, (lo, hi)) is gs[-1]


def test_factorization_failure_is_a_transport_error(monkeypatch):
    prob, opts, ones = _d4_case(n=8)

    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")
    monkeypatch.setattr(tr.spla, "splu", singular)
    with pytest.raises(tr.TransportError, match="factorization failed"):
        tr.solve_nonlinear_ls(prob, opts, alpha=1e-2, anchor=ones)
