import io
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from matmi import neumann
from matmi import transport as tr
from matmi.anisotropy import BUILTIN_NAMES, builtin
from matmi.fields import (NodalField, interpolate_nodal, l2_norm_cell,
                          l2_norm_nodal)
from matmi.functional import cross_b0, synthesize
from matmi.mesh import build_unit_cube, build_unit_square
from matmi.neumann import (SolverError, assemble, etilde, electric_field,
                           load_vector, solve_mean_zero, solve_field,
                           spd_factor)
from matmi.presets import get_preset

D1 = builtin("D1").with_t_range(0.25, 4.0)


def _ones(mesh):
    return interpolate_nodal(mesh, lambda p: np.ones(p.shape[0]))


def test_etilde_formula():
    assert np.allclose(etilde(np.array([[0.2, 0.6]])), [[-0.3, 0.1, 0.0]],
                       atol=1e-15)


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
    # the pinned factor is a near-exact preconditioner: a weak one would
    # need tens to hundreds of iterations here
    assert len(history) - 1 <= 3


def test_failed_factorization_is_solver_error(monkeypatch):
    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(neumann, "spd_factor", singular)
    mesh = build_unit_square(4)
    with pytest.raises(SolverError, match="exactly singular"):
        solve_field(mesh, D1, _ones(mesh))


def _count_factors(monkeypatch):
    calls = []
    real = neumann.spd_factor

    def counting(A):
        calls.append(1)
        return real(A)
    monkeypatch.setattr(neumann, "spd_factor", counting)
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


# A CG cap that a fresh factor meets and a lagged one misses.  On the
# perturbed systems (n = 8 and 12) CG at rtol = 1e-13 with the system's
# own single-precision factor reads about 2e-6, then 5e-13 to 6e-11, then
# below 1e-15; with the factor of a neighbouring system it needs 8 to 12
# iterations and still reads 4e-7 or more after four.  pcg tests
# convergence at the top of the next iteration, so the fresh factor's
# three iterations need a cap of 4.
_FRESH_MAXITER = 4


def test_shared_factor_matches_fresh_solves(monkeypatch):
    systems = _perturbed_systems()
    fresh = [solve_mean_zero(s)[0] for s in systems]
    factor_calls = _count_factors(monkeypatch)
    holder = neumann.LaggedFactor()
    for s, ref in zip(systems, fresh):
        vals, _ = solve_mean_zero(s, factor=holder)
        _assert_close(vals, ref)
    # the first solve factors; the others use its factor as preconditioner
    assert len(factor_calls) == 1
    assert holder.factor is not None


def test_shared_factor_refactors_when_lagged_cg_gives_up(monkeypatch):
    systems = _perturbed_systems()
    fresh = [solve_mean_zero(s)[0] for s in systems]
    factor_calls = _count_factors(monkeypatch)
    # four lagged iterations do not reach 1e-13 here; the fresh factor's
    # three do (see _FRESH_MAXITER)
    monkeypatch.setattr(neumann, "_LAG_MAXITER", _FRESH_MAXITER)
    holder = neumann.LaggedFactor()
    for s, ref in zip(systems, fresh):
        vals, _ = solve_mean_zero(s, factor=holder)
        _assert_close(vals, ref)
    assert len(factor_calls) == len(systems)


def test_shared_holder_refactors_on_a_size_change(monkeypatch):
    # a factor of another size is no preconditioner: each change of mesh
    # factors once, and the next solve on that mesh reuses the factor
    runs = [_perturbed_systems(n, count=2) for n in (8, 12, 8)]
    fresh = [[solve_mean_zero(s)[0] for s in run] for run in runs]
    factor_calls = _count_factors(monkeypatch)
    holder = neumann.LaggedFactor()
    for run, refs in zip(runs, fresh):
        for s, ref in zip(run, refs):
            vals, _ = solve_mean_zero(s, factor=holder)
            _assert_close(vals, ref)
    assert len(factor_calls) == len(runs)
    nv = runs[-1][0].matrix.shape[0]
    assert holder.factor.shape == (nv - 1, nv - 1)


def _sliced_solve(system, holder):
    """solve_mean_zero's values and history with the pinned block sliced
    out of the matrix and multiplied as a matrix of its own."""
    K1 = system.matrix[1:, 1:]
    b = system.rhs - system.rhs.mean()
    history = [1.0]
    x1 = holder.solve(K1.dot, lambda: K1, b[1:], None, neumann._LAG_RTOL,
                      neumann._LAG_MAXITER, history=history)
    x = np.r_[0.0, x1]
    return x - x.mean(), history


@pytest.mark.parametrize("builder, n, preset",
                         [(build_unit_square, 12, "example4"),
                          (build_unit_cube, 4, "example6")])
def test_pinned_products_match_the_sliced_block_bitwise(builder, n, preset):
    # K x with x_0 = 0 adds K[i, 0] * 0.0 first in each sorted CSR row,
    # so every CG iterate, fresh or lagged, is the sliced block's
    p = get_preset(preset)
    mesh = builder(n)
    systems = [assemble(mesh, p.family(), interpolate_nodal(
        mesh, lambda x, a=amp: p.gamma_star(x) + a * np.sin(np.pi * x[:, 0])))
        for amp in (0.0, 0.1, 0.2)]
    holder, ref_holder = neumann.LaggedFactor(), neumann.LaggedFactor()
    for s in systems:
        fresh = solve_mean_zero(s)
        ref = _sliced_solve(s, neumann.LaggedFactor())
        assert np.array_equal(fresh[0], ref[0]) and fresh[1] == ref[1]
        # the first solve factors; the later ones lag
        lagged = solve_mean_zero(s, factor=holder)
        ref = _sliced_solve(s, ref_holder)
        assert np.array_equal(lagged[0], ref[0]) and lagged[1] == ref[1]


def test_lagged_factor_forms_the_matrix_only_to_factor_it(monkeypatch):
    # matrix() is called once per factorization -- on an empty holder, a
    # size change and a CG miss -- and never when the lagged factor
    # suffices
    small = _perturbed_systems(8, count=2)
    large = _perturbed_systems(12, count=2)
    factor_calls = _count_factors(monkeypatch)
    holder = neumann.LaggedFactor()
    formed = []
    # four lagged iterations miss 1e-13 on the second large system
    for system, maxiter, factored in ((small[0], 20, 1), (small[1], 20, 1),
                                      (large[0], 20, 2),
                                      (large[1], _FRESH_MAXITER, 3)):
        K = system.matrix[1:, 1:]
        b = (system.rhs - system.rhs.mean())[1:]

        def matrix():
            formed.append(K.shape)
            return K
        x = holder.solve(K.dot, matrix, b, None, 1e-13, maxiter)
        _assert_close(x, spla.spsolve(K.tocsc(), b))
        assert len(formed) == len(factor_calls) == factored
        assert formed[-1] == K.shape


def test_lagged_factor_is_released_before_refactoring(monkeypatch):
    # the two factors of a refactoring solve never coexist
    first, second = _perturbed_systems(count=2)
    ref = solve_mean_zero(second)[0]
    holder = neumann.LaggedFactor()
    solve_mean_zero(first, factor=holder)

    class Held:
        """Weakly referenceable stand-in for the held factor."""

        def __init__(self, factor):
            self.factor, self.shape = factor, factor.shape

        def solve(self, r):
            return self.factor.solve(r)

    holder.factor = Held(holder.factor)
    held = weakref.ref(holder.factor)
    released = []
    real = neumann.spd_factor

    def factoring(A):
        released.append(held() is None)
        return real(A)
    monkeypatch.setattr(neumann, "spd_factor", factoring)
    monkeypatch.setattr(neumann, "_LAG_MAXITER", _FRESH_MAXITER)
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
    monkeypatch.setattr(neumann, "spd_factor", singular)
    with pytest.raises(SolverError, match="exactly singular"):
        solve_mean_zero(second, factor=holder)


def _normal_system(prob, gamma, alpha=1e-2):
    """The normal matrix L^T L + scale R of a least-squares step frozen
    at gamma, its operator and its right-hand side, built from the
    step's frozen parts and the H1 matrix R as `solve_nonlinear_ls`
    builds them."""
    R = prob.mesh.h1
    L, Ltb, diag_mean = tr._frozen_parts(prob, gamma)
    scale = alpha * diag_mean / R.diagonal().mean()
    return ((L.T @ L).tocsr() + scale * R,
            lambda x: L.T @ (L @ x) + scale * (R @ x),
            Ltb + scale * (R @ np.ones(gamma.size)))


def _spd_matrices(builder, n, preset):
    """The pinned Neumann block at the preset's true gamma and the normal
    matrix of the first least-squares update from gamma = 1."""
    p = get_preset(preset)
    mesh, fam = builder(n), p.family()
    gamma = interpolate_nodal(mesh, p.gamma_star)
    ones = NodalField(mesh, np.ones(mesh.num_vertices))
    _, E = solve_field(mesh, fam, ones)
    prob = tr.FluxFit(mesh, fam, E, synthesize(fam, gamma, mesh), ones)
    return (assemble(mesh, fam, gamma).matrix[1:, 1:],
            _normal_system(prob, ones.values)[0])


def _cg_case(kind):
    """(A, b, x0, rtol, maxiter, precondition) of a solve the package
    makes, A a sparse matrix or a callable: a pinned Neumann block preconditioned with the factor of a
    nearby one, a least-squares step's normal operator with the factor
    of the step before, and a Jacobi-preconditioned mass solve."""
    if kind == "lagged neumann":
        first, second = _perturbed_systems(count=2)
        b = second.rhs - second.rhs.mean()
        return (second.matrix[1:, 1:], b[1:], None, 1e-13, 20,
                spd_factor(first.matrix[1:, 1:]).solve)
    mesh = build_unit_square(9)
    if kind == "mass":
        rhs = mesh.mass @ np.cos(3.0 * mesh.vertices[:, 0])
        dinv = 1.0 / mesh.mass.diagonal()
        return mesh.mass, rhs, None, 1e-13, 200, lambda r: dinv * r
    p = get_preset("example4")
    fam = p.family()
    ones = NodalField(mesh, np.ones(mesh.num_vertices))
    gstar = interpolate_nodal(mesh, p.gamma_star)
    _, E = solve_field(mesh, fam, ones)
    prob = tr.FluxFit(mesh, fam, E, synthesize(fam, gstar, mesh), ones)
    first = _normal_system(prob, ones.values)[0]
    gamma = 0.5 * (ones.values + gstar.values)
    _, operator, rhs = _normal_system(prob, gamma)
    return operator, rhs, gamma, 1e-10, 50, spd_factor(first).solve


@pytest.mark.parametrize("kind, maxiter", [("lagged neumann", None),
                                           ("normal operator", None),
                                           ("mass", None), ("mass", 3)])
def test_pcg_repeats_scipy_cg_bit_for_bit(kind, maxiter):
    # the one CG loop keeps scipy's iteration and arithmetic: the same
    # iterate, exit code and iteration count, a miss included
    A, b, x0, rtol, case_maxiter, precondition = _cg_case(kind)
    maxiter = maxiter or case_maxiter
    n = b.shape[0]
    steps = []
    want, want_info = spla.cg(
        spla.LinearOperator((n, n), matvec=A, dtype=float) if callable(A)
        else A, b, x0=x0, rtol=rtol, maxiter=maxiter,
        M=spla.LinearOperator((n, n), matvec=precondition, dtype=float),
        callback=lambda x: steps.append(1))
    history = []
    x, info = neumann.pcg(A if callable(A) else A.dot, b, x0, rtol, maxiter,
                          precondition, history)
    assert np.array_equal(x, want)
    assert info == want_info
    assert len(history) == len(steps) >= 2
    assert (info == 0) == (maxiter == case_maxiter)


@pytest.mark.parametrize("builder, n, preset",
                         [(build_unit_square, 9, "example4"),
                          (build_unit_cube, 4, "example6")])
def test_band_cholesky_solves_the_neumann_and_normal_matrices(builder, n,
                                                              preset):
    # one solve with the single-precision factor is a preconditioner's,
    # accurate to 5e-6 to 8e-6 here; CG with a fresh factor reaches 1e-13
    # within the cap a lagged factor misses
    for A in _spd_matrices(builder, n, preset):
        b = np.random.default_rng(3).standard_normal(A.shape[0])
        factor = spd_factor(A)
        x = factor.solve(b)
        assert factor.shape == A.shape
        assert np.linalg.norm(A @ x - b) <= 1e-4 * np.linalg.norm(b)
        x = neumann.LaggedFactor().solve(A.dot, lambda: A, b, None, 1e-13,
                                         _FRESH_MAXITER)
        assert np.linalg.norm(A @ x - b) <= 1e-13 * np.linalg.norm(b)


def test_band_is_a_single_precision_array_and_solves_in_float64(
        monkeypatch):
    mesh = build_unit_square(6)
    K = assemble(mesh, D1, _ones(mesh)).matrix[1:, 1:]
    n, bw = K.shape[0], 8               # half bandwidth n + 2 at n = 6
    factor = spd_factor(K)
    band = factor.band
    assert band.dtype == np.float32 and band.flags.f_contiguous
    assert band.shape == (bw + 1, n) and band.nbytes == (bw + 1) * n * 4
    # a float64 right-hand side would make scipy solve with a float64
    # copy of the band
    handed = []
    real = neumann.sla.cho_solve_banded

    def recording(cb_and_lower, b, **kwargs):
        handed.append((cb_and_lower[0].dtype, b.dtype))
        return real(cb_and_lower, b, **kwargs)
    monkeypatch.setattr(neumann.sla, "cho_solve_banded", recording)
    x = factor.solve(np.ones(n))
    assert handed == [(np.float32, np.float32)]
    assert x.dtype == np.float64


@pytest.mark.parametrize("power", [-200, -120, -100, 60, 200])
def test_band_is_factored_at_a_fixed_scale(power):
    # A is scaled by a power of two before it is rounded to float32, so
    # 2^p A has the same factor as A, entry for entry, and the same solves
    # bit for bit: factored as is, 2^-100 A would put the decaying fill-in
    # into the subnormal range and round it there, 2^-200 A would round
    # to zero and 2^200 A to infinity.  The right-hand side has a scale
    # of its own, so 2^(p + d) b solves to 2^d times the solve of b: a b
    # far above or below A's entries neither overflows nor loses bits
    mesh = build_unit_square(16)
    K = assemble(mesh, D1, _ones(mesh)).matrix[1:, 1:]
    b = np.random.default_rng(6).standard_normal(K.shape[0])
    ref, got = spd_factor(K), spd_factor(K * 2.0 ** power)
    assert np.array_equal(got.band, ref.band)
    for d in (-180, -60, 0, 30, 60):
        assert np.array_equal(got.solve(b * 2.0 ** (power + d)),
                              2.0 ** d * ref.solve(b))


def test_single_precision_breakdown_is_named_and_not_retried(monkeypatch):
    # SPD in float64 (condition number 2e9), singular once rounded to
    # float32: the factorization fails with LAPACK's message, and no
    # second factorization in float64 follows
    A = sp.csr_matrix(np.array([[1.0, 1.0 - 1e-9], [1.0 - 1e-9, 1.0]]))
    factored = []
    real = neumann.sla.cholesky_banded

    def recording(ab, **kwargs):
        factored.append(ab.dtype)
        return real(ab, **kwargs)
    monkeypatch.setattr(neumann.sla, "cholesky_banded", recording)
    message = ("single-precision band factorization failed: 2-th leading "
               "minor not positive definite")
    with pytest.raises(RuntimeError, match=message):
        spd_factor(A)
    with pytest.raises(SolverError, match="factorization failed: " + message):
        neumann.LaggedFactor().solve(A.dot, lambda: A, np.ones(2), None,
                                     1e-10, 20)
    assert factored == [np.float32, np.float32]


def _float32_zeros(monkeypatch, allocate):
    """Route every float32 np.zeros call through allocate(shape); the
    band is the one float32 array spd_factor allocates."""
    real = np.zeros

    def zeros(shape, dtype=float, *args, **kwargs):
        if dtype is np.float32:
            allocate(shape)
        return real(shape, dtype, *args, **kwargs)
    monkeypatch.setattr(neumann.np, "zeros", zeros)


def test_a_band_that_cannot_be_allocated_is_a_solver_error(monkeypatch):
    def refusing(shape):
        raise MemoryError("Unable to allocate")
    _float32_zeros(monkeypatch, refusing)
    mesh = build_unit_square(6)
    system = assemble(mesh, D1, _ones(mesh))
    K = system.matrix[1:, 1:]
    n, bw = K.shape[0], 8
    size = r"the %d x %d single-precision band \(%d bytes\)" % (
        bw + 1, n, (bw + 1) * n * 4)
    with pytest.raises(SolverError, match="cannot allocate " + size
                       + ": Unable to allocate"):
        spd_factor(K)
    with pytest.raises(SolverError, match="pinned Neumann system: "
                       "factorization failed: cannot allocate " + size):
        solve_mean_zero(system)


def test_a_band_larger_than_the_available_memory_is_refused_unmapped(
        monkeypatch):
    # the probe reports less memory than the small band needs; nothing
    # is allocated, and an unreadable probe (None) leaves the check out
    allocated = []
    _float32_zeros(monkeypatch, allocated.append)
    mesh = build_unit_square(6)
    system = assemble(mesh, D1, _ones(mesh))
    K = system.matrix[1:, 1:]
    n, bw = K.shape[0], 8
    need = (bw + 1) * n * 4
    monkeypatch.setattr(neumann, "_available_bytes", lambda: need - 1)
    message = (r"the %d x %d single-precision band needs %d bytes, more "
               r"than the %d bytes of memory and swap available"
               % (bw + 1, n, need, need - 1))
    with pytest.raises(SolverError, match=message):
        spd_factor(K)
    with pytest.raises(SolverError, match="pinned Neumann system: "
                       "factorization failed: " + message):
        solve_mean_zero(system)
    assert allocated == []
    for probe in (lambda: need, lambda: None):
        monkeypatch.setattr(neumann, "_available_bytes", probe)
        assert spd_factor(K).shape == K.shape
    assert allocated == [(n, bw + 1)] * 2


def test_the_memory_probe_reads_a_size_or_nothing(monkeypatch):
    available = neumann._available_bytes()
    assert available is None or (isinstance(available, int)
                                 and available > 0)

    def reading(text):
        def fake_open(*args, **kwargs):
            if text is None:
                raise PermissionError("unreadable")
            return io.StringIO(text)
        monkeypatch.setattr(neumann, "open", fake_open, raising=False)
        return neumann._available_bytes()
    assert reading("MemTotal: 9 kB\nMemAvailable:  2 kB\nSwapFree: 3 kB\n"
                   ) == 5 * 1024
    assert reading("MemTotal: 9 kB\nSwapFree: 3 kB\n") is None
    assert reading("MemAvailable: many\nSwapFree: 3 kB\n") is None
    assert reading(None) is None


def test_band_cholesky_reads_only_the_lower_triangle():
    mesh = build_unit_square(7)
    K = assemble(mesh, D1, _ones(mesh)).matrix[1:, 1:]
    noise = sp.random(*K.shape, density=0.2, random_state=4, format="csr")
    skewed = (sp.tril(K) + sp.triu(noise, k=1)).tocsr()
    b = np.random.default_rng(5).standard_normal(K.shape[0])
    assert np.array_equal(spd_factor(skewed).solve(b), spd_factor(K).solve(b))


def test_band_sums_duplicates():
    mesh = build_unit_square(5)
    K = sp.tril(assemble(mesh, D1, _ones(mesh)).matrix).tocoo()
    doubled = sp.coo_matrix((np.r_[K.data, K.data], (np.r_[K.row, K.row],
                                                     np.r_[K.col, K.col])),
                            shape=K.shape)
    band = neumann._lower_band(doubled, 0)
    assert band.flags.f_contiguous and band.flags.writeable
    assert np.array_equal(band, 2 * neumann._lower_band(K, 0))


def test_band_of_a_csr_with_duplicates_leaves_it_as_it_is():
    # a CSR matrix holding an entry twice is summed on a copy: the
    # caller's matrix keeps its own data and index arrays
    mesh = build_unit_square(5)
    K = sp.tril(assemble(mesh, D1, _ones(mesh)).matrix).tocsr()
    n = K.shape[0]
    rows = np.repeat(np.arange(n), np.diff(K.indptr))
    order = np.argsort(np.r_[rows, rows], kind="stable")
    doubled = sp.csr_matrix((np.r_[K.data, K.data][order],
                             np.r_[K.indices, K.indices][order],
                             2 * K.indptr), shape=K.shape)
    assert not doubled.has_canonical_format
    before = [a.copy() for a in (doubled.data, doubled.indices,
                                 doubled.indptr)]
    band = neumann._lower_band(doubled, 0)
    assert np.array_equal(band, 2 * neumann._lower_band(K, 0))
    for a, b in zip((doubled.data, doubled.indices, doubled.indptr), before):
        assert np.array_equal(a, b)


def test_indefinite_matrix_fails_the_factorization():
    mesh = build_unit_square(6)
    K = assemble(mesh, D1, _ones(mesh)).matrix[1:, 1:]
    # shifted by its mean diagonal, K has eigenvalues of both signs
    A = (K - K.diagonal().mean() * sp.identity(K.shape[0])).tocsr()
    with pytest.raises(SolverError, match="factorization failed"):
        neumann.LaggedFactor().solve(A.dot, lambda: A, np.ones(A.shape[0]),
                                     None, 1e-10, 20)


@pytest.mark.parametrize("builder", [build_unit_square, build_unit_cube])
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_conductivity_blocks_are_the_in_plane_block(builder, name):
    mesh = builder(3)
    fam = builtin(name)
    lo, hi = fam.t_range
    gamma = interpolate_nodal(
        mesh, lambda p: lo + (hi - lo) * (0.2 + 0.6 * p[:, 0] * p[:, 1]))
    full = fam.eval_many(mesh.centroid_points, gamma.cell_means())
    assert np.array_equal(neumann.conductivity_blocks(mesh, fam, gamma),
                          full[:, :mesh.dim, :mesh.dim].transpose(1, 2, 0))


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
# 0 by 0; the solve must still end in SolverError, with a readable message
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_an_unreachable_tolerance_ends_in_a_readable_solver_error():
    mesh = build_unit_square(8)
    system = assemble(mesh, D1, _ones(mesh))
    system.rhs = load_vector(mesh, lambda p: p[:, 0])
    # the pinned-factor preconditioner meets any reachable tolerance
    # within three iterations, so only tol=0 still fails
    with pytest.raises(SolverError) as err:
        solve_mean_zero(system, tol=0.0)
    # the message names a finite residual or the non-finite iterate
    assert "nan" not in str(err.value).lower()

