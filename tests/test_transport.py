import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from matmi import neumann, oracles
from matmi import transport as tr
from matmi.anisotropy import BUILTIN_NAMES, builtin, power_series
from matmi.fields import (CellField, NodalField, interpolate_nodal,
                          l2_norm_nodal)
from matmi.functional import cross_b0, flux_field, synthesize
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
    return mesh, oracles.TransportProblem(mesh, fam, E, Data(),
                                          lambda p: p[:, 0], gamma_ref=ones)


@pytest.mark.parametrize("n", [16, 32])
def test_dg0_linear_advection_oracle(n):
    mesh, prob = _uniform_advection_problem(n)
    sol = oracles.solve_linear_dg(prob)
    err = np.abs(sol.values - mesh.cell_centroids[:, 0]).max()
    assert err <= 2.0 / n


def test_dg0_inflow_tolerance_insensitive(monkeypatch):
    mesh, prob = _uniform_advection_problem(16)
    a = oracles.solve_linear_dg(prob).values

    def wider(mesh, v):
        # classify_inflow with 1e-6 in place of its 1e-12
        vec = v.values[mesh.facet_cells, :mesh.dim]
        vn = np.einsum("fd,fd->f", vec, mesh.facet_normals)
        return np.flatnonzero(vn < -1e-6)
    monkeypatch.setattr(oracles, "classify_inflow", wider)
    b = oracles.solve_linear_dg(prob).values
    assert np.allclose(a, b, atol=1e-12)


def test_dg0_rejects_nonlinear_family():
    mesh, prob = _uniform_advection_problem(8)
    prob.family = builtin("D2").with_t_range(-1.0, 3.0)
    with pytest.raises(ValueError, match="nonlinear"):
        oracles.solve_linear_dg(prob)


@pytest.mark.parametrize("name", ["D2", "D3", "D4"])
def test_expanded_coefficients_match_product_rule(name):
    # the hand-expanded divergence must agree with the generic
    # polynomial-plus-remainder product rule to machine precision
    mesh = build_unit_square(24)
    fam = builtin(name).with_t_range(-5.0, 5.0)
    gs = interpolate_nodal(
        mesh, lambda p: 1.0 + 0.3 * np.sin(3 * p[:, 0]) * np.cos(2 * p[:, 1]))
    _, E = solve_field(mesh, fam, gs)
    co = oracles.expand_coefficients(fam, E, mesh)
    gc = gs.cell_means()
    gg = gs.cell_gradients()
    generic = co.divergence(gc, gg)
    hand = oracles.closed_form_divergence(name, co.closed_form, gc, gg)
    assert np.abs(generic - hand).max() <= 1e-12


def test_closed_form_coefficients_only_for_expanded_families():
    mesh = build_unit_square(4)
    gs = interpolate_nodal(mesh, lambda p: np.ones(p.shape[0]))
    fam = builtin("D1").with_t_range(0.5, 2.0)
    _, E = solve_field(mesh, fam, gs)
    assert oracles.expand_coefficients(fam, E, mesh).closed_form is None
    with pytest.raises(KeyError):
        oracles.closed_form_divergence("D1", {}, gs.cell_means(),
                                       gs.cell_gradients())


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
    mesh, fam, fn, gstar, _, E = _gaussian_case()

    class Data:
        dg0_weak = oracles.weak_dg0_from_flux(
            mesh, flux_field(mesh, fam, gstar.cell_means(), E),
            cross_b0(E.values)[:, :2])

    prob = oracles.TransportProblem(mesh, fam, E, Data(), fn, gamma_ref=gstar)
    sol = oracles.solve_linear_dg(prob)
    assert np.abs(sol.values - gstar.cell_means()).max() <= 2.0 / mesh.n


def test_ls_picard_recovers_truth_with_true_field(monkeypatch):
    _tight_inner_loop(monkeypatch)
    mesh, fam, fn, gstar, data, E = _gaussian_case()
    ones = NodalField(mesh, np.ones(mesh.num_vertices))
    prob = tr.FluxFit(mesh, fam, E, data, ones)
    sol = tr.solve_nonlinear_ls(prob, alpha=1e-2)
    err = l2_norm_nodal(mesh, sol.values - gstar.values)
    err /= l2_norm_nodal(mesh, gstar.values)
    assert err <= 0.05 * l2_norm_nodal(mesh, 1.0 - gstar.values) \
        / l2_norm_nodal(mesh, gstar.values) + 0.05


def test_max_outer_returns_the_last_step_with_its_history(monkeypatch):
    # an inner loop cut off before its tolerance is not an error: the
    # caller reads the history to see that it stopped early
    monkeypatch.setattr(tr, "PICARD_MAX_STEPS", 1)
    monkeypatch.setattr(tr, "PICARD_REL_TOL", 1e-14)
    mesh, fam, fn, gstar, data, E = _gaussian_case(n=16)
    ones = NodalField(mesh, np.ones(mesh.num_vertices))
    prob = tr.FluxFit(mesh, fam, E, data, ones)
    sol = tr.solve_nonlinear_ls(prob, alpha=1e-2)
    assert np.all(np.isfinite(sol.values))
    assert len(sol.picard_history) == 1
    assert sol.picard_history[0] > 1e-14


def _weak_rows_loop(mesh, q):
    """weak_p1_rows of the (dim, nc) flux q, (nloc, nc) rows, with the
    boundary terms folded into a copy of the local volume rows facet by
    facet and vertex by vertex."""
    rows = -mesh.cell_volumes * np.einsum("idc,dc->ic", mesh.local_grads, q)
    for cell, verts, nrm, meas in zip(mesh.facet_cells, mesh.facet_vertices,
                                      mesh.facet_normals,
                                      mesh.facet_measures):
        qn = float(np.dot(q[:, cell], nrm)) * meas * (1.0 / mesh.dim)
        for v in verts:
            rows[mesh.cells[cell].tolist().index(int(v)), cell] += qn
    return rows


def _flux_operator_loop(problem, gamma_bar_c):
    """_flux_operator from the facet-loop rows of each power's flux
    P_m w, summed over the powers m >= 1 as a power series in
    gamma_bar_c; c adds the remainder's rows to those of P_0 w."""
    mesh = problem.mesh
    nloc = mesh.dim + 1
    split = problem.flux_split
    W = np.array([_weak_rows_loop(mesh, pw) for pw in split.Pw[1:]])
    rg = power_series(W, gamma_bar_c)

    def scatter(rows):
        out = np.zeros(mesh.num_vertices)
        np.add.at(out, mesh.cells.T.ravel(), rows.ravel())
        return out
    c = scatter(_weak_rows_loop(mesh, split.Pw[0]))
    if problem.family.has_remainder:
        rat = problem.family.rational(mesh.centroid_points,
                                      gamma_bar_c)[:mesh.dim]
        c = c + scatter(_weak_rows_loop(
            mesh, np.einsum("ijc,jc->ic", rat, split.w)))
    ke = np.repeat((rg / nloc)[:, None, :], nloc, axis=1)
    return tr.assemble_p1(mesh, ke), c


@pytest.mark.parametrize("builder, n, preset",
                         [(build_unit_square, 9, "example4"),
                          (build_unit_cube, 4, "example6")])
def test_flux_operator_matches_facet_loop(builder, n, preset):
    # the cached per-power rows keep the loop's facet order and
    # arithmetic, and are summed over the powers in the loop's order, so
    # the operator and its gamma-free part are bit-identical (example4's
    # D4 has a remainder, example6's D6 none)
    p = get_preset(preset)
    mesh = builder(n)
    fam = p.family()
    gs = interpolate_nodal(mesh, p.gamma_star)
    _, E = solve_field(mesh, fam, gs)
    prob = tr.FluxFit(mesh, fam, E, None, gs)
    gbar = np.clip(gs.cell_means(), *fam.t_range)
    L, c = tr._flux_operator(prob, gbar)
    L_ref, c_ref = _flux_operator_loop(prob, gbar)
    assert np.array_equal(L.indptr, L_ref.indptr)
    assert np.array_equal(L.indices, L_ref.indices)
    assert np.array_equal(L.data, L_ref.data)
    assert np.array_equal(c, c_ref)


@pytest.mark.parametrize("builder, n, preset",
                         [(build_unit_square, 9, "example4"),
                          (build_unit_cube, 4, "example6")])
def test_flux_operator_sums_the_rows_broadcast_over_the_columns(
        builder, n, preset):
    # L's local matrices repeat each local row over the columns in a
    # contiguous array: the same values in the same order as the
    # broadcast view of the rows, so the same sums
    p = get_preset(preset)
    mesh = builder(n)
    fam = p.family()
    gs = interpolate_nodal(mesh, p.gamma_star)
    _, E = solve_field(mesh, fam, gs)
    prob = tr.FluxFit(mesh, fam, E, None, gs)
    gbar = np.clip(gs.cell_means(), *fam.t_range)
    L, _ = tr._flux_operator(prob, gbar)
    rows = prob.flux_split.weak_divergence(gbar)[0] / (mesh.dim + 1)
    ke = np.broadcast_to(rows[:, None, :], (mesh.dim + 1,) + rows.shape)
    assert np.array_equal(L.data, tr.assemble_p1(mesh, ke).data)


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
    _, E = solve_field(mesh, fam, gstar)
    prob = tr.FluxFit(mesh, fam, E, data, gstar)
    L, c = tr._flux_operator(prob, gstar.cell_means())
    err = np.abs(L @ gstar.values + c - data.p1_weak).max()
    assert err <= 1e-13 * np.abs(data.p1_weak).max()


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("name", BUILTIN_NAMES)
@settings(derandomize=True, database=None, max_examples=5, deadline=None)
@given(n=st.integers(1, 6),
       modes=st.lists(st.tuples(st.floats(-0.3, 0.3),
                                st.lists(st.floats(-4.0, 4.0), min_size=3,
                                         max_size=3),
                                st.floats(0.0, 6.3)), min_size=1,
                      max_size=2))
def test_operator_identity_holds_for_any_smooth_gamma(name, dim, n, modes):
    # gamma = 1.2 + sum a sin(k . x + phi) stays inside [0.6, 1.8]
    fam = builtin(name)
    mesh = (build_unit_square if dim == 2 else build_unit_cube)(n)

    def gamma_fn(p):
        return 1.2 + sum(a * np.sin(p @ np.array(k[:dim]) + phi)
                         for a, k, phi in modes)
    gstar = interpolate_nodal(mesh, gamma_fn)
    data = synthesize(fam, gstar, mesh)
    _, E = solve_field(mesh, fam, gstar)
    prob = tr.FluxFit(mesh, fam, E, data, gstar)
    L, c = tr._flux_operator(prob, gstar.cell_means())
    err = np.abs(L @ gstar.values + c - data.p1_weak).max()
    assert err <= 1e-13 * np.abs(data.p1_weak).max()


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_flux_split_reproduces_the_flux(name):
    fam = builtin(name)
    mesh = build_unit_square(6)
    rng = np.random.default_rng(3)
    E = CellField(mesh, rng.standard_normal((mesh.num_cells, 3)))
    prob = tr.FluxFit(mesh, fam, E, None, None)
    gc = rng.uniform(*fam.t_range, mesh.num_cells)
    g, h = prob.flux_split(gc)
    xs = np.column_stack([mesh.cell_centroids, np.zeros(mesh.num_cells)])
    want = np.einsum("cij,cj->ci", fam.eval_many(xs, gc),
                     cross_b0(E.values))[:, :2]
    got = (gc * g + h).T                    # g, h: (dim, nc), cell-last
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    # without a remainder h is P_0 w itself, bit-identical to adding the
    # einsum of the zero remainder
    assert fam.has_remainder == (name == "D4")
    split = prob.flux_split
    rat = fam.rational(xs, gc)[:2]
    assert np.array_equal(h, split.Pw[0]
                          + np.einsum("ijc,jc->ic", rat, split.w))


def _d4_case(n=16):
    """First LSQ update of example4 on a coarse mesh: a nonlinear family
    whose inner Picard loop takes several steps."""
    p = get_preset("example4")
    mesh = build_unit_square(n)
    fam = p.family()
    ones = NodalField(mesh, np.ones(mesh.num_vertices))
    data = synthesize(fam, p.gamma_star, mesh)
    _, E = solve_field(mesh, fam, ones)
    return tr.FluxFit(mesh, fam, E, data, ones)


def test_weights_sharing_the_first_system_match_fresh_problems():
    # the weights of one adaptive update solve one problem, whose first
    # frozen system is built once; each solve is bit-identical to the
    # same weight's solve of a problem of its own
    prob = _d4_case()
    for alpha in (4e-3, 1e-2, 2.5e-2):
        fresh = tr.FluxFit(prob.mesh, prob.family, prob.E, prob.data,
                           prob.gamma_ref)
        shared = tr.solve_nonlinear_ls(prob, alpha)
        alone = tr.solve_nonlinear_ls(fresh, alpha)
        assert np.array_equal(shared.values, alone.values)
        assert shared.picard_history == alone.picard_history


def _tight_inner_loop(monkeypatch):
    """Up to 40 inner steps to a change of 1e-9, tighter than the
    constants, for the tests that compare a solve with a reference
    solution to 1e-8 or with the truth."""
    monkeypatch.setattr(tr, "PICARD_MAX_STEPS", 40)
    monkeypatch.setattr(tr, "PICARD_REL_TOL", 1e-9)


def _reference_ls(prob, alpha):
    """The least-squares Picard loop with the normal matrix formed
    explicitly and a direct spsolve per step, under the inner-loop
    constants of `matmi.transport`."""
    mesh = prob.mesh
    gamma = prob.gamma_ref.values.copy()
    R = mesh.h1
    steps = 0
    for _ in range(tr.PICARD_MAX_STEPS):
        gbar = np.clip(NodalField(mesh, gamma).cell_means(),
                       *prob.family.t_range)
        L, c = tr._flux_operator(prob, gbar)
        N = (L.T @ L).tocsr()
        scale = alpha * N.diagonal().mean() / R.diagonal().mean()
        A = N + scale * R
        rhs = L.T @ (prob.data.p1_weak - c) + scale * (R @ np.ones(gamma.size))
        new = spla.spsolve(A.tocsc(), rhs)
        change = (l2_norm_nodal(mesh, new - gamma)
                  / l2_norm_nodal(mesh, gamma))
        gamma = new
        steps += 1
        if change <= tr.PICARD_REL_TOL:
            break
    return gamma, steps


def _count_factors(monkeypatch):
    calls = []
    real = neumann.spd_factor

    def counting(A):
        calls.append(1)
        return real(A)
    monkeypatch.setattr(neumann, "spd_factor", counting)
    return calls


def _assert_matches_reference(sol, ref, steps):
    assert len(sol.picard_history) == steps
    assert np.abs(sol.values - ref).max() <= 1e-8 * np.abs(ref).max()


# The tests that compare step counts with the plain Picard reference
# switch the Anderson mixing and the CG forcing term off: they test the
# lagged factor and its refactor fallback, which neither changes, but
# mixing converges in fewer steps than the reference and the looser
# inner solves can take one more.

def _exact_picard(monkeypatch):
    monkeypatch.setattr(tr, "_AA_DEPTH", 0)
    monkeypatch.setattr(tr, "_PCG_FORCING", 0.0)


def test_lagged_factor_matches_direct_picard(monkeypatch):
    _exact_picard(monkeypatch)
    _tight_inner_loop(monkeypatch)
    prob = _d4_case()
    ref, steps = _reference_ls(prob, 1e-2)
    assert steps >= 4
    factor_calls = _count_factors(monkeypatch)
    sol = tr.solve_nonlinear_ls(prob, alpha=1e-2)
    _assert_matches_reference(sol, ref, steps)
    # later steps reuse an earlier factor instead of factoring their own
    assert len(factor_calls) < steps


def test_refactors_when_pcg_gives_up(monkeypatch):
    _exact_picard(monkeypatch)
    _tight_inner_loop(monkeypatch)
    prob = _d4_case()
    ref, steps = _reference_ls(prob, 1e-2)
    factor_calls = _count_factors(monkeypatch)
    real_pcg, factors_seen = neumann.pcg, [0]

    def lagged_gives_up(matvec, b, x0, rtol, maxiter, *args):
        # CG with a factor that an earlier step made reports a miss
        if len(factor_calls) == factors_seen[0]:
            return x0, maxiter
        factors_seen[0] = len(factor_calls)
        return real_pcg(matvec, b, x0, rtol, maxiter, *args)
    monkeypatch.setattr(neumann, "pcg", lagged_gives_up)
    sol = tr.solve_nonlinear_ls(prob, alpha=1e-2)
    _assert_matches_reference(sol, ref, steps)
    assert len(factor_calls) == steps


def test_cg_missing_with_a_fresh_factor_is_a_transport_error(monkeypatch):
    # the CG loop tests convergence at the top of the next iteration, so
    # with maxiter=1 even the exact fresh factor reports a miss: the step
    # must fail loudly rather than return an unconverged solve
    prob = _d4_case(n=8)
    factor_calls = _count_factors(monkeypatch)
    monkeypatch.setattr(tr, "_PCG_MAXITER", 1)
    with pytest.raises(tr.TransportError, match="fresh factor") as err:
        tr.solve_nonlinear_ls(prob, alpha=1e-2)
    assert len(factor_calls) == 1


def test_anderson_mixing_reaches_the_same_fixed_point_in_fewer_steps(
        monkeypatch):
    _tight_inner_loop(monkeypatch)
    prob = _d4_case()
    ref, steps = _reference_ls(prob, 1e-2)
    sol = tr.solve_nonlinear_ls(prob, alpha=1e-2)
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
    mixed = tr._anderson_step(fs, gs)
    assert np.linalg.norm(mixed) < 0.25 * np.linalg.norm(gs[-1])


def test_anderson_step_is_plain_with_one_pair():
    fs, gs = _mixing_history(1)
    assert tr._anderson_step(fs, gs) is gs[-1]


def test_anderson_step_is_plain_on_a_rank_deficient_history():
    fs, gs = _mixing_history(3)
    assert tr._anderson_step(fs, gs) is not gs[-1]
    fs[1], gs[1] = fs[2], gs[2]          # the last pair twice
    assert tr._anderson_step(fs, gs) is gs[-1]


def test_anderson_step_is_plain_when_the_mix_is_not_finite():
    fs, gs = _mixing_history(4)
    assert tr._anderson_step(fs, gs) is not gs[-1]
    gs[0] = gs[0].copy()
    gs[0][0] = np.nan                    # an older plain step, not f or G_k
    assert np.all(np.isfinite(gs[-1]))
    assert tr._anderson_step(fs, gs) is gs[-1]


def test_factorization_failure_is_a_transport_error(monkeypatch):
    prob = _d4_case(n=8)

    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")
    monkeypatch.setattr(neumann, "spd_factor", singular)
    with pytest.raises(tr.TransportError, match="factorization failed"):
        tr.solve_nonlinear_ls(prob, alpha=1e-2)
