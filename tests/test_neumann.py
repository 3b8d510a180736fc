import weakref

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from matmi import neumann
from matmi.anisotropy import builtin
from matmi.fields import interpolate_nodal, l2_norm_cell, l2_norm_nodal
from matmi.functional import cross_b0
from matmi.mesh import build_unit_cube, build_unit_square
from matmi.neumann import (SolverError, assemble, etilde, electric_field,
                           export_matrix_market, load_vector,
                           solve_mean_zero, solve_field)
from matmi.presets import get_preset

D1 = builtin("D1").with_t_range(0.25, 4.0)


def _ones(mesh):
    return interpolate_nodal(mesh, lambda p: np.ones(p.shape[0]))


def test_etilde_formula():
    assert np.allclose(etilde([0.2, 0.6]), [-0.3, 0.1, 0.0], atol=1e-15)


def test_stiffness_symmetric_with_constant_null_space():
    mesh = build_unit_square(6)
    system = assemble(mesh, D1, _ones(mesh))
    K = system.matrix
    assert abs(K - K.T).max() < 1e-12
    assert np.abs(K @ np.ones(mesh.num_vertices)).max() < 1e-12


def test_solution_has_zero_mean():
    mesh = build_unit_square(8)
    u, _ = solve_field(mesh, D1, _ones(mesh))
    assert abs(u.values.mean()) < 1e-10


def _manufactured_error(n):
    """L2 error against u = cos(pi x) cos(pi y) with gamma = 1 (D1).

    With A = I the problem is -Laplace u = f, f = 2 pi^2 u, and the
    manufactured solution satisfies the homogeneous Neumann condition.
    """
    mesh = build_unit_square(n)
    exact = lambda p: np.cos(np.pi * p[:, 0]) * np.cos(np.pi * p[:, 1])
    f = lambda p: 2 * np.pi ** 2 * exact(p)
    system = assemble(mesh, D1, _ones(mesh))
    system.rhs = load_vector(mesh, f)
    vals, _ = solve_mean_zero(system, tol=1e-12)
    diff = vals - exact(mesh.vertices)   # both have zero mean
    return l2_norm_nodal(mesh, diff)


def test_manufactured_solution_second_order():
    e16, e32 = _manufactured_error(16), _manufactured_error(32)
    order = np.log2(e16 / e32)
    assert order >= 1.9


def _pinned_reference(system):
    """Mean-zero solution by a direct solve with vertex 0 pinned."""
    K, b = system.matrix, system.rhs - system.rhs.mean()
    x = np.zeros(K.shape[0])
    x[1:] = spla.spsolve(K[1:, 1:].tocsc(), b[1:])
    return x - x.mean()


@pytest.mark.parametrize("builder, n, preset",
                         [(build_unit_square, 12, "example4"),
                          (build_unit_cube, 5, "example6")])
def test_solve_matches_pinned_direct_solve(builder, n, preset):
    p = get_preset(preset)
    mesh = builder(n)
    system = assemble(mesh, p.family(), interpolate_nodal(mesh, p.gamma_star))
    vals, history = solve_mean_zero(system, tol=1e-10)
    ref = _pinned_reference(system)
    assert np.linalg.norm(vals - ref) <= 1e-10 * np.linalg.norm(ref)
    # the pinned factor is an exact preconditioner: a weak one would
    # need tens to hundreds of iterations here
    assert len(history) - 1 <= 3


def test_failed_factorization_is_solver_error(monkeypatch):
    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(neumann.spla, "splu", singular)
    mesh = build_unit_square(4)
    with pytest.raises(SolverError, match="exactly singular"):
        solve_field(mesh, D1, _ones(mesh))


def _count_splu(monkeypatch):
    calls = []
    real = spla.splu

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)
    monkeypatch.setattr(neumann.spla, "splu", counting)
    return calls


def _perturbed_systems(n=12, count=4):
    """Neumann systems of D1 at gamma = 1 + delta_k for smooth bumps of
    amplitude up to 0.2, nearby matrices as in a stability sweep."""
    mesh = build_unit_square(n)
    out = []
    for k in range(count):
        amp = 0.05 * (k + 1)
        gamma = interpolate_nodal(
            mesh, lambda p, a=amp: 1.0 + a * np.sin(np.pi * p[:, 0])
            * np.sin(2 * np.pi * p[:, 1]))
        out.append(assemble(mesh, D1, gamma))
    return out


def _assert_close(vals, ref):
    assert np.linalg.norm(vals - ref) <= 1e-10 * np.linalg.norm(ref)


def test_shared_factor_matches_fresh_solves(monkeypatch):
    systems = _perturbed_systems()
    fresh = [solve_mean_zero(s)[0] for s in systems]
    splu_calls = _count_splu(monkeypatch)
    holder = neumann.LaggedFactor()
    for s, ref in zip(systems, fresh):
        vals, _ = solve_mean_zero(s, factor=holder)
        _assert_close(vals, ref)
    # the first solve factors; the others use its factor as preconditioner
    assert len(splu_calls) == 1
    assert holder.lu is not None


def test_shared_factor_refactors_when_lagged_cg_gives_up(monkeypatch):
    systems = _perturbed_systems()
    fresh = [solve_mean_zero(s)[0] for s in systems]
    splu_calls = _count_splu(monkeypatch)
    # two lagged iterations do not reach 1e-13 here; the fresh factor does
    # in one (a cap of 1 would fail it too: scipy's cg tests convergence
    # at the top of the next iteration, so maxiter=1 always reports a miss)
    monkeypatch.setattr(neumann, "_LAG_MAXITER", 2)
    holder = neumann.LaggedFactor()
    for s, ref in zip(systems, fresh):
        vals, _ = solve_mean_zero(s, factor=holder)
        _assert_close(vals, ref)
    assert len(splu_calls) == len(systems)


def test_shared_holder_refactors_on_a_size_change(monkeypatch):
    # a factor of another size is no preconditioner: each change of mesh
    # factors once, and the next solve on that mesh reuses the factor
    runs = [_perturbed_systems(n, count=2) for n in (8, 12, 8)]
    fresh = [[solve_mean_zero(s)[0] for s in run] for run in runs]
    splu_calls = _count_splu(monkeypatch)
    holder = neumann.LaggedFactor()
    for run, refs in zip(runs, fresh):
        for s, ref in zip(run, refs):
            vals, _ = solve_mean_zero(s, factor=holder)
            _assert_close(vals, ref)
    assert len(splu_calls) == len(runs)
    nv = runs[-1][0].matrix.shape[0]
    assert holder.lu.shape == (nv - 1, nv - 1)


def test_lagged_factor_is_released_before_refactoring(monkeypatch):
    # the two factors of a refactoring solve never coexist
    first, second = _perturbed_systems(count=2)
    ref = solve_mean_zero(second)[0]
    holder = neumann.LaggedFactor()
    solve_mean_zero(first, factor=holder)

    class Held:
        """Weakly referenceable stand-in for the held factor."""

        def __init__(self, lu):
            self.lu, self.shape = lu, lu.shape

        def solve(self, r):
            return self.lu.solve(r)

    holder.lu = Held(holder.lu)
    held = weakref.ref(holder.lu)
    released = []
    real = neumann.spd_factor

    def factoring(A):
        released.append(held() is None)
        return real(A)
    monkeypatch.setattr(neumann, "spd_factor", factoring)
    monkeypatch.setattr(neumann, "_LAG_MAXITER", 2)
    vals, _ = solve_mean_zero(second, factor=holder)
    _assert_close(vals, ref)
    assert released == [True]


def test_failed_refactorization_is_solver_error(monkeypatch):
    first, second = _perturbed_systems(count=2)
    holder = neumann.LaggedFactor()
    solve_mean_zero(first, factor=holder)
    monkeypatch.setattr(neumann, "_LAG_MAXITER", 1)

    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")
    monkeypatch.setattr(neumann.spla, "splu", singular)
    with pytest.raises(SolverError, match="exactly singular"):
        solve_mean_zero(second, factor=holder)


def test_electric_field_composition():
    mesh = build_unit_square(6)
    u, E = solve_field(mesh, D1, _ones(mesh))
    manual = etilde(mesh.cell_centroids)
    manual[:, :2] += u.cell_gradients()
    assert np.allclose(E.values, manual, atol=1e-12)
    assert np.allclose(electric_field(mesh, u).values, E.values, atol=1e-15)


def test_energy_bound():
    # ||grad u|| <= Lambda ||Etilde|| for the ellipticity band of the family
    mesh = build_unit_square(12)
    gamma = interpolate_nodal(mesh, lambda p: 1 + 0.8 * p[:, 0] * p[:, 1])
    u, _ = solve_field(mesh, D1, gamma)
    gn = l2_norm_cell(mesh, u.cell_gradients())
    en = l2_norm_cell(mesh, etilde(mesh.cell_centroids))
    assert gn <= 4.0 * en


def test_weak_curl_identity():
    # div(E x B0) = 1 holds exactly in the weak sense: testing the flux
    # E x B0 against P1 hat functions reproduces the load of constant 1
    for n in (8, 16):
        mesh = build_unit_square(n)
        from matmi.functional import weak_p1_from_flux
        u, E = solve_field(mesh, D1, _ones(mesh), tol=1e-12)
        q = cross_b0(E.values)[:, :mesh.dim]
        weak = weak_p1_from_flux(mesh, q)
        from matmi.fields import mass_matrix
        import scipy.sparse.linalg as spla
        proj = spla.spsolve(mass_matrix(mesh).tocsc(), weak)
        dev = l2_norm_nodal(mesh, proj - 1.0)
        assert dev <= 5.0 / n


# at tol=0 CG reaches an exactly zero residual and its next step divides
# 0 by 0; the solve must still end in SolverError
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_solver_error_carries_history():
    mesh = build_unit_square(8)
    system = assemble(mesh, D1, _ones(mesh))
    system.rhs = load_vector(mesh, lambda p: p[:, 0])
    # the pinned-factor preconditioner meets any reachable tolerance
    # within two iterations, so only tol=0 still fails
    with pytest.raises(SolverError) as err:
        solve_mean_zero(system, tol=0.0)
    assert len(err.value.residuals) > 0


def test_matrix_market_round_trip(tmp_path):
    from scipy.io import mmread
    mesh = build_unit_square(4)
    system = assemble(mesh, D1, _ones(mesh))
    system.rhs = load_vector(mesh, lambda p: p[:, 1])
    prefix = str(tmp_path / "sys")
    export_matrix_market(system, prefix)
    K = mmread(prefix + "_K.mtx").tocsr()
    b = np.asarray(mmread(prefix + "_b.mtx")).ravel()
    assert abs(K - system.matrix).max() < 1e-15
    assert np.allclose(b, system.rhs, atol=1e-15)
