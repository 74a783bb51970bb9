"""Shared helpers: synthetic fits and independent oracles.

The solvers here are deliberately written from scratch (no numpy.linalg)
so tests can cross-check the library's linear algebra against an
unrelated code path.
"""

import math

import numpy as np
import pytest
from hypothesis import settings
from scipy import optimize

from aoarima import ArimaFit, ArimaOrder, TimeSeries, difference, yule_walker
from aoarima.errors import DegenerateError, SingularError
from aoarima.estimation import _css_residuals, min_ar_root_modulus

# keep property tests reproducible run to run
settings.register_profile("repo", derandomize=True)
settings.load_profile("repo")


def make_fit(phi=(), theta=(), d=0, intercept=0.0, sigma2=1.0):
    """An ArimaFit carrying given coefficients, for weight and filter tests."""
    return ArimaFit(
        order=ArimaOrder(len(phi), d, len(theta)),
        phi=tuple(phi),
        theta=tuple(theta),
        intercept=intercept,
        sigma2=sigma2,
        residuals=TimeSeries([0.0]),
        coefficient_std_errors=(),
        sse=0.0,
        mse=sigma2,
    )


def gauss_solve(A, b):
    """Gaussian elimination with partial pivoting, written independently."""
    A = [list(map(float, row)) for row in A]
    b = list(map(float, b))
    n = len(A)
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(A[r][col]))
        if abs(A[piv][col]) == 0.0:
            raise ZeroDivisionError("singular system")
        A[col], A[piv] = A[piv], A[col]
        b[col], b[piv] = b[piv], b[col]
        for r in range(col + 1, n):
            f = A[r][col] / A[col][col]
            for c in range(col, n):
                A[r][c] -= f * A[col][c]
            b[r] -= f * b[col]
    x = [0.0] * n
    for r in range(n - 1, -1, -1):
        s = b[r] - sum(A[r][c] * x[c] for c in range(r + 1, n))
        x[r] = s / A[r][r]
    return np.asarray(x)


def normal_equations_ols(X, y):
    """Brute-force least squares through the normal equations and gauss_solve."""
    X = np.asarray(X, float)
    y = np.asarray(y, float)
    return gauss_solve(X.T @ X, X.T @ y)


def css_nelder_mead(series, order, with_intercept=True):
    """Reference CSS fit: four Nelder-Mead searches over (mean, phi, theta).

    The estimator the library used before its least-squares solve: a
    Yule-Walker start (zeros for the MA part) plus three deterministic
    +/-10% restarts, unconstrained, so its optimum may be non-invertible.
    Returns (sse, mean, phi, theta) of the best end point or start.
    """
    p, q = order.p, order.q
    k = 1 if with_intercept else 0
    wv = difference(series, order.d).values

    def objective(x):
        a = _css_residuals(wv, x[0] if with_intercept else 0.0, x[k:k + p], x[k + p:])
        sse = float(a @ a)
        return sse if math.isfinite(sse) else math.inf

    phi0 = np.zeros(p)
    if p > 0:
        try:
            phi0 = yule_walker(TimeSeries(wv), p)
        except (SingularError, DegenerateError):
            pass
        if min_ar_root_modulus(phi0) <= 1.0 + 1e-6:
            phi0 = phi0 * 0.95 / np.max(np.abs(phi0))
    start = np.concatenate([[wv.mean()] if with_intercept else [], phi0, np.zeros(q)])
    f_start = objective(start)
    f_scale = f_start if math.isfinite(f_start) else 1.0
    candidates = [(f_start, start)]
    for r in range(4):
        x0 = start.copy()
        if r > 0:
            for i in range(x0.size):
                sign = 1.0 if (i + r) % 2 == 0 else -1.0
                x0[i] = sign * 0.05 if x0[i] == 0.0 else x0[i] * (1.0 + sign * 0.10)
        res = optimize.minimize(objective, x0, method="Nelder-Mead", options={
            "maxfev": 500 * (p + q), "xatol": 1e-9, "fatol": 1e-10 * max(1.0, f_scale)})
        candidates.append((float(res.fun), np.asarray(res.x, dtype=float)))
    sse, x = min(candidates, key=lambda c: c[0])
    return sse, (float(x[0]) if with_intercept else 0.0), x[k:k + p], x[k + p:]


@pytest.fixture
def rng():
    return np.random.default_rng(20180967)
