import numpy as np
import pytest

from matmi.anisotropy import BUILTIN_NAMES, builtin, check_admissibility

ORIGIN = np.zeros(3)


def test_d1_is_in_plane_isotropic():
    A = builtin("D1").eval_many(ORIGIN[None], [1.7])[0]
    assert np.allclose(A, np.diag([1.7, 1.7, 1.0]), atol=1e-14)


def test_d2_matches_closed_form():
    t = 0.9
    A = builtin("D2").eval_many(ORIGIN[None], [t])[0]
    want = np.array([[0.4 * (t + 1) ** 2, 0.01, 0],
                     [0.01, 3 * t, 0],
                     [0, 0, t]])
    assert np.allclose(A, want, atol=1e-14)


def test_d3_off_diagonal_is_quadratic():
    t = 1.3
    A = builtin("D3").eval_many(ORIGIN[None], [t])[0]
    assert A[0, 1] == pytest.approx(0.01 * t * (1 - t), abs=1e-14)
    assert A[0, 1] == A[1, 0]


def test_d4_off_diagonal_is_rational():
    t = 1.1
    A = builtin("D4").eval_many(ORIGIN[None], [t])[0]
    assert A[0, 1] == pytest.approx(1.0 / (t + 20.0), abs=1e-14)
    dA = builtin("D4").deriv_t_many(ORIGIN[None], [t])[0]
    assert dA[0, 1] == pytest.approx(-1.0 / (t + 20.0) ** 2, abs=1e-14)


def test_d5_d6_spatial_off_diagonal():
    t = 1.2
    x = np.array([0.3, 0.7, 0.0])
    A5 = builtin("D5").eval_many(x[None], [t])[0]
    assert A5[0, 1] == pytest.approx(0.25 * (0.3 ** 2 + 0.7 ** 2) * t,
                                     abs=1e-14)
    A6 = builtin("D6").eval_many(x[None], [t])[0]
    assert A6[0, 1] == pytest.approx(
        0.25 * ((0.3 - 0.5) ** 2 + (0.7 - 0.5) ** 2) * t, abs=1e-14)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_many_evaluations_match_the_per_power_expression(name):
    # the in-place accumulation rounds exactly as one temporary per power
    fam = builtin(name)
    rng = np.random.default_rng(7)
    xs = np.column_stack([rng.random((200, 2)), np.zeros(200)])
    ts = rng.uniform(*fam.t_range, 200)
    P = fam.poly_coeffs(xs)
    A = np.zeros((200, 3, 3))
    dA = np.zeros((200, 3, 3))
    tp = np.ones_like(ts)
    for m in range(P.shape[1]):
        A += P[:, m] * tp[:, None, None]
        tp = tp * ts
    tp = np.ones_like(ts)
    for m in range(1, P.shape[1]):
        dA += m * P[:, m] * tp[:, None, None]
        tp = tp * ts
    A += fam.rational(xs, ts)
    if fam._rational_dt_fn is not None:
        dA += fam._rational_dt_fn(xs, ts)
    assert np.array_equal(fam.eval_many(xs, ts), A)
    assert np.array_equal(fam.deriv_t_many(xs, ts), dA)


def test_derivative_matches_difference_quotient():
    fam = builtin("D3")
    t, h = 1.0, 1e-6
    dA = fam.deriv_t_many(ORIGIN[None], [t])[0]
    fd = (fam.eval_many(ORIGIN[None], [t + h])[0]
          - fam.eval_many(ORIGIN[None], [t - h])[0]) / (2 * h)
    assert np.allclose(dA, fd, atol=1e-8)


def test_spatial_gradient_matches_difference_quotient():
    x = np.array([[0.3, 0.6, 0.2]])
    h = 1e-6
    for name in ("D5", "D6"):
        fam = builtin(name)
        G = fam.poly_coeffs_grad(x)[0]          # (3, M, 3, 3)
        for i in range(3):
            xp, xm = x.copy(), x.copy()
            xp[0, i] += h
            xm[0, i] -= h
            fd = (fam.poly_coeffs(xp) - fam.poly_coeffs(xm))[0] / (2 * h)
            assert np.allclose(G[i], fd, atol=1e-8)


def test_symmetry_everywhere():
    rng = np.random.default_rng(3)
    xs = rng.uniform(0, 1, size=(20, 3))
    for name in ("D1", "D2", "D3", "D4", "D5", "D6"):
        fam = builtin(name)
        ts = rng.uniform(*fam.t_range, size=20)
        A = fam.eval_many(xs, ts)
        assert np.allclose(A, np.transpose(A, (0, 2, 1)), atol=1e-14)


def test_with_t_range_enforced():
    fam = builtin("D1").with_t_range(0.5, 2.0)
    with pytest.raises(ValueError):
        fam.eval_many(np.zeros((1, 3)), [3.0])
    # the relaxed call is still available for diagnostics
    fam.eval_many(np.zeros((1, 3)), [3.0], check_range=False)


def test_admissibility_report_d1():
    fam = builtin("D1").with_t_range(0.5, 2.0)
    rep = check_admissibility(fam, 6, lambda_declared=2.0)
    assert rep.ellipticity_pass
    assert rep.lambda_min == pytest.approx(0.5, abs=1e-12)
    assert rep.lambda_max == pytest.approx(2.0, abs=1e-12)
    assert rep.lambda_est >= 2.0


def test_admissibility_detects_violated_bounds():
    fam = builtin("D2").with_t_range(0.1, 2.0)
    # at t = 0.1 the (2,2) entry is 0.3 < 1/1.5, violating the declared
    # ellipticity band... and the (3,3) entry is 0.1
    rep = check_admissibility(fam, 6, lambda_declared=1.5)
    assert not rep.ellipticity_pass


def test_unknown_builtin_rejected():
    with pytest.raises(KeyError):
        builtin("D9")
