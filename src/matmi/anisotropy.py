"""One-parameter anisotropy families A(x, t) and their admissibility checks.

A family maps a point x and a scalar parameter t to a symmetric 3x3
conductivity matrix.  Every entry is a polynomial in t (with possibly
x-dependent coefficients) plus an optional non-polynomial remainder; the
flux split of the data and the update (`functional.FluxSplit`) uses it.
"""

import numpy as np

__all__ = [
    "AnisotropyFamily",
    "AdmissibilityReport",
    "builtin",
    "BUILTIN_NAMES",
    "check_admissibility",
    "power_series",
]

BUILTIN_NAMES = ("D1", "D2", "D3", "D4", "D5", "D6")


class AnisotropyFamily:
    """Symmetric-matrix family A(x, t) with an explicit polynomial split.

    Parameters
    ----------
    name : str
    poly_fn : callable
        xs (N, d>=2) -> (N, M, 3, 3): coefficients of t^0 .. t^(M-1).
    poly_grad_fn : callable or None
        xs -> (N, 3, M, 3, 3): spatial gradient of the coefficients
        (z-component included, zero where absent).  None means zero.
    rational_fn, rational_dt_fn : callable or None
        (xs, ts) -> (N, 3, 3): non-polynomial remainder and its
        t-derivative.  None means zero.
    t_range : (float, float)
        Admissible parameter interval.
    """

    def __init__(self, name, poly_fn, poly_grad_fn=None, rational_fn=None,
                 rational_dt_fn=None, t_range=(0.5, 2.0)):
        self.name = name
        self._poly_fn = poly_fn
        self._poly_grad_fn = poly_grad_fn
        self._rational_fn = rational_fn
        self._rational_dt_fn = rational_dt_fn
        self.t_range = (float(t_range[0]), float(t_range[1]))

    def with_t_range(self, lo=None, hi=None):
        """Copy of the family with a different admissible interval; a
        bound left None keeps its current value."""
        lo = self.t_range[0] if lo is None else lo
        hi = self.t_range[1] if hi is None else hi
        return AnisotropyFamily(self.name, self._poly_fn, self._poly_grad_fn,
                                self._rational_fn, self._rational_dt_fn,
                                (lo, hi))

    @property
    def has_remainder(self):
        """True if A has a non-polynomial remainder (`rational` is not
        identically zero)."""
        return self._rational_fn is not None

    # -- vectorized evaluation ------------------------------------------

    def _check_range(self, ts, where="sample"):
        """Raise ValueError naming the first entry of ts (a `where`,
        e.g. a vertex or cell) outside the admissible interval."""
        lo, hi = self.t_range
        eps = 1e-12 * max(1.0, abs(lo), abs(hi))
        bad = np.where((ts < lo - eps) | (ts > hi + eps))[0]
        if bad.size:
            i = int(bad[0])
            raise ValueError(
                "parameter value t=%g at %s %d outside admissible "
                "range [%g, %g]" % (ts[i], where, i, lo, hi))

    def poly_coeffs(self, xs):
        """(N, M, 3, 3) polynomial coefficients at xs; may be read-only."""
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        return self._poly_fn(xs)

    def poly_coeffs_grad(self, xs):
        """(N, 3, M, 3, 3) spatial gradients of the coefficients."""
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        if self._poly_grad_fn is None:
            P = self._poly_fn(xs)
            return np.zeros((xs.shape[0], 3) + P.shape[1:])
        return self._poly_grad_fn(xs)

    def rational(self, xs, ts):
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        if self._rational_fn is None:
            return np.zeros((len(ts), 3, 3))
        return self._rational_fn(xs, ts)

    def eval_many(self, xs, ts, check_range=True):
        """A(x_i, t_i) for paired samples, shape (N, 3, 3)."""
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        if check_range:
            self._check_range(ts)
        out = power_series(self.poly_coeffs(xs).swapaxes(0, 1), ts)
        if self._rational_fn is not None:
            out += self._rational_fn(xs, ts)
        return out

    def deriv_t_many(self, xs, ts, check_range=True):
        """dA/dt(x_i, t_i), shape (N, 3, 3)."""
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        if check_range:
            self._check_range(ts)
        P = self.poly_coeffs(xs).swapaxes(0, 1)
        m = np.arange(1, len(P)).reshape(-1, 1, 1, 1)
        out = power_series(m * P[1:], ts)
        if self._rational_dt_fn is not None:
            out += self._rational_dt_fn(xs, ts)
        return out


def power_series(coeffs, t):
    """sum_m coeffs[m] t^m per sample, for coeffs (M, N, ...) indexed by
    power first and t of shape (N,).  The terms are added from t^0 upward
    through one scratch buffer, rounding as one temporary per power."""
    out = np.zeros(coeffs.shape[1:])
    buf = np.empty_like(out)
    tcol = t.reshape(t.shape + (1,) * (out.ndim - 1))
    tp = np.ones_like(tcol)
    for c in coeffs:
        np.multiply(c, tp, out=buf)
        out += buf
        tp = tp * tcol
    return out


class AdmissibilityReport:
    """Sampled ellipticity estimates for a family."""

    def __init__(self, family_name, lambda_min, lambda_max, lambda_est,
                 ellipticity_pass):
        self.family_name = family_name
        self.lambda_min = lambda_min
        self.lambda_max = lambda_max
        self.lambda_est = lambda_est
        self.ellipticity_pass = ellipticity_pass

    def __repr__(self):
        return ("AdmissibilityReport(%s: lambda_est=%.4g, pass=%s)"
                % (self.family_name, self.lambda_est, self.ellipticity_pass))


def check_admissibility(family, grid_density, lambda_declared):
    """Sample the family on a tensor grid of parameters and in-plane
    points (z = 0) and report ellipticity bounds: the extreme eigenvalues
    of A over the samples, the ellipticity constant they imply (inf when
    the smallest is not positive), and whether they lie within
    [1 / lambda_declared, lambda_declared]."""
    if grid_density < 2:
        raise ValueError("grid_density must be >= 2")
    lo, hi = family.t_range
    ts = np.linspace(lo, hi, grid_density)
    g = np.linspace(0.0, 1.0, grid_density)
    X, Y = np.meshgrid(g, g, indexing="ij")
    xs = np.column_stack([X.ravel(), Y.ravel(), np.zeros(X.size)])

    lam_min, lam_max = np.inf, -np.inf
    for t in ts:
        A = family.eval_many(xs, np.full(xs.shape[0], t), check_range=False)
        w = np.linalg.eigvalsh(A)
        lam_min = min(lam_min, float(w.min()))
        lam_max = max(lam_max, float(w.max()))

    if lam_min > 0.0:
        lam_est = max(lam_max, 1.0 / lam_min, 1.0)
    else:
        lam_est = np.inf
    ok = (lam_min >= 1.0 / lambda_declared - 1e-12
          and lam_max <= lambda_declared + 1e-12)
    return AdmissibilityReport(family.name, lam_min, lam_max, lam_est,
                               bool(ok))


# -- builtin families ---------------------------------------------------

def _const_poly(mats):
    mats = np.asarray(mats, dtype=float)

    def fn(xs):
        return np.broadcast_to(mats, (xs.shape[0],) + mats.shape)
    return fn


def _d4_rational(xs, ts):
    out = np.zeros((len(ts), 3, 3))
    v = 1.0 / (ts + 20.0)
    out[:, 0, 1] = v
    out[:, 1, 0] = v
    return out


def _d4_rational_dt(xs, ts):
    out = np.zeros((len(ts), 3, 3))
    v = -1.0 / (ts + 20.0) ** 2
    out[:, 0, 1] = v
    out[:, 1, 0] = v
    return out


def _radial_poly(cx, cy):
    """Coefficients for the spatially varying families: the t-linear
    off-diagonal entry 0.25*((x-cx)^2 + (y-cy)^2)."""
    base1 = np.array([[0.4, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])

    def fn(xs):
        N = xs.shape[0]
        P = np.zeros((N, 3, 3, 3))
        P[:, 0] = base1          # t^0: 0.4 in the (1,1) slot
        r2 = 0.25 * ((xs[:, 0] - cx) ** 2 + (xs[:, 1] - cy) ** 2)
        P[:, 1, 0, 0] = 0.8
        P[:, 1, 1, 1] = 3.0
        P[:, 1, 2, 2] = 1.0
        P[:, 1, 0, 1] = r2
        P[:, 1, 1, 0] = r2
        P[:, 2, 0, 0] = 0.4
        return P

    def grad(xs):
        N = xs.shape[0]
        G = np.zeros((N, 3, 3, 3, 3))
        gx = 0.5 * (xs[:, 0] - cx)
        gy = 0.5 * (xs[:, 1] - cy)
        G[:, 0, 1, 0, 1] = gx
        G[:, 0, 1, 1, 0] = gx
        G[:, 1, 1, 0, 1] = gy
        G[:, 1, 1, 1, 0] = gy
        return G
    return fn, grad


def _make_builtins():
    fams = {}
    # diag(t, t, 1)
    fams["D1"] = AnisotropyFamily("D1", _const_poly([
        [[0, 0, 0], [0, 0, 0], [0, 0, 1]],
        [[1, 0, 0], [0, 1, 0], [0, 0, 0]],
    ]))
    # [[0.4(t+1)^2, 0.01, 0], [0.01, 3t, 0], [0, 0, t]]
    fams["D2"] = AnisotropyFamily("D2", _const_poly([
        [[0.4, 0.01, 0], [0.01, 0, 0], [0, 0, 0]],
        [[0.8, 0, 0], [0, 3, 0], [0, 0, 1]],
        [[0.4, 0, 0], [0, 0, 0], [0, 0, 0]],
    ]))
    # off-diagonal 0.01 t (1 - t)
    fams["D3"] = AnisotropyFamily("D3", _const_poly([
        [[0.4, 0, 0], [0, 0, 0], [0, 0, 0]],
        [[0.8, 0.01, 0], [0.01, 3, 0], [0, 0, 1]],
        [[0.4, -0.01, 0], [-0.01, 0, 0], [0, 0, 0]],
    ]))
    # diagonal as D2, off-diagonal 1/(t+20)
    fams["D4"] = AnisotropyFamily("D4", _const_poly([
        [[0.4, 0, 0], [0, 0, 0], [0, 0, 0]],
        [[0.8, 0, 0], [0, 3, 0], [0, 0, 1]],
        [[0.4, 0, 0], [0, 0, 0], [0, 0, 0]],
    ]), rational_fn=_d4_rational, rational_dt_fn=_d4_rational_dt)
    # spatially varying off-diagonal 0.25(x^2+y^2) t
    fn5, g5 = _radial_poly(0.0, 0.0)
    fams["D5"] = AnisotropyFamily("D5", fn5, g5)
    # centered variant 0.25((x-0.5)^2+(y-0.5)^2) t
    fn6, g6 = _radial_poly(0.5, 0.5)
    fams["D6"] = AnisotropyFamily("D6", fn6, g6)
    return fams


_BUILTINS = _make_builtins()


def builtin(name):
    """One of the six builtin families, by name (D1 .. D6)."""
    if name not in _BUILTINS:
        raise KeyError("unknown builtin family %r (expected one of %s)"
                       % (name, ", ".join(BUILTIN_NAMES)))
    return _BUILTINS[name]
