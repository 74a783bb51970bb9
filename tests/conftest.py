"""Shared helpers: synthetic fits and independent oracles.

The solvers here are deliberately written from scratch (no numpy.linalg)
so tests can cross-check the library's linear algebra against an
unrelated code path. The other oracles are the slower algorithms the
library replaced (the mean-centred CSS residuals on ``scipy.signal``,
Nelder-Mead CSS, the weight loop, the n-tap residual filter, dense
Yule-Walker solves, the dense indicator regression, the per-position
outlier statistics, the n-length pi-weight sums and the square-root scan),
kept as references.
"""

import math

import numpy as np
import pytest
from hypothesis import settings
from scipy import optimize, signal

from aoarima import ArimaFit, ArimaOrder, PiWeights, TimeSeries, acf, difference, ols, yule_walker
from aoarima.errors import ConvergenceError, DegenerateError, DomainError, SingularError
from aoarima.estimation import _css_jacobian, _lag_poly, _lag_residuals, _lfilter, min_root_modulus
from aoarima.outliers import _stats_all_positions
from aoarima.series import _levinson, _step_up

# keep property tests reproducible run to run
settings.register_profile("repo", derandomize=True)
settings.load_profile("repo")

# (phi, theta, d) of the models the recursive filters are checked on
FILTER_MODELS = {
    "ar2": ((0.5, 0.3), (), 0),
    "ma2": ((), (0.4, -0.3), 0),
    "arma11": ((0.6,), (0.3,), 0),
    "arima111": ((0.5,), (0.3,), 1),
    "arima111_slow_ma": ((0.5,), (0.95,), 1),
    "arima120": ((0.4,), (), 2),
}


def make_fit(phi=(), theta=(), d=0, intercept=0.0, sigma2=1.0, with_intercept=False):
    """An ArimaFit carrying given coefficients, for weight and filter tests."""
    return ArimaFit(
        order=ArimaOrder(len(phi), d, len(theta)),
        phi=tuple(phi),
        theta=tuple(theta),
        intercept=intercept,
        with_intercept=with_intercept,
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


def jacobian_std_errors(J, mse):
    """Reference standard errors sqrt(mse diag((J^T J)^-1)) from the SVD J = U S V^T.

    (J^T J)^-1 = V S^-2 V^T, so no normal equations are formed and
    nothing is inverted but the singular values.
    """
    _, s, vt = np.linalg.svd(np.asarray(J, dtype=float), full_matrices=False)
    return np.sqrt(mse * np.sum((vt / s[:, None]) ** 2, axis=0))


def css_residuals(w, mean, phi, theta):
    """Reference CSS residuals: theta(B)^-1 phi(B) (w_t - mean) for t >= p, by ``scipy.signal.lfilter``.

    Centred at the process mean, conditioned on the first p observations,
    with zero pre-sample shocks: the form the library computed before it
    took every residual from its lag filter in intercept coordinates.
    """
    u = signal.lfilter(_lag_poly(phi), [1.0], np.asarray(w, dtype=float) - mean)[len(phi):]
    return signal.lfilter([1.0], _lag_poly(theta), u)


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
        a = css_residuals(wv, x[0] if with_intercept else 0.0, x[k:k + p], x[k + p:])
        sse = float(a @ a)
        return sse if math.isfinite(sse) else math.inf

    phi0 = np.zeros(p)
    if p > 0:
        try:
            phi0 = yule_walker(TimeSeries(wv), p)
        except (SingularError, DegenerateError):
            pass
        if min_root_modulus(phi0) <= 1.0 + 1e-6:
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


def from_pacf_with_jacobian(z):
    """Lag coefficients whose partial autocorrelations are tanh(z), and d coef / d z.

    The coefficients are those of the library's ``_from_pacf`` (tanh of
    each z by ``math.tanh``, the same step-up), bit for bit. The step-up is
    linear in the previous coefficients, so their derivative columns step
    up with a zero last entry.
    """
    r = np.array([math.tanh(zk) for zk in z])
    coef = np.zeros(0)
    jac = np.zeros((r.size, r.size))
    for k, rk in enumerate(r):
        jac[:k, :k] -= rk * jac[:k, :k][::-1]
        jac[:k, k] = -coef[::-1]
        jac[k, k] = 1.0
        coef = _step_up(coef, rk)
    return coef, jac * (1.0 - r * r)


def css_lm_reference(w: TimeSeries, p: int, q: int, with_intercept: bool):
    """Reference CSS fit: (beta = (c, phi), theta) by Levenberg-Marquardt in tanh-PACF coordinates.

    The search the library ran for q >= 2, and for q = 1 fits whose
    profiled phi was not stationary, before it profiled (c, phi) out for
    every q.

    The search runs over the process mean and the arctanh of the partial
    autocorrelations of phi and of theta, so every iterate is stationary
    and invertible; a fit that would leave that region stops on its
    boundary. Each point maps to the intercept c = mean (1 - sum phi) for
    :func:`_lag_residuals`, and the analytic Jacobian of
    :func:`_css_jacobian` is chained back through that map. The solve
    starts from the sample mean, the Yule-Walker estimate for phi (zeros
    if it breaks down) and zeros for theta; models with both an AR and an
    MA part also start from MA partial autocorrelations of +/-0.5 and keep
    the lowest sum of squares.
    """
    from scipy import optimize

    wv = w.values
    k = 1 if with_intercept else 0
    pacf0 = np.zeros(p)
    if p > 0:
        try:
            pacf0 = np.clip(_levinson(w, p)[1], -0.99, 0.99)  # off the flat ends of tanh
        except (SingularError, DegenerateError):
            pass
    head = np.concatenate([[wv.mean()] if with_intercept else [], np.arctanh(pacf0)])

    def unpack(x):
        phi, dphi = from_pacf_with_jacobian(x[k:k + p])
        theta, dtheta = from_pacf_with_jacobian(x[k + p:])
        beta = np.concatenate([[x[0] * (1.0 - phi.sum())] if with_intercept else [], phi])
        return beta, dphi, theta, dtheta

    last = [None, None, None]  # x, unpack(x) and residuals of the latest resid call

    def resid(x):
        u = unpack(x)
        last[:] = x.copy(), u, _lag_residuals(wv, u[0], with_intercept, u[2])
        return last[2]

    def jac(x):
        if not np.array_equal(x, last[0]):  # the solver mostly asks at its latest residual point
            resid(x)
        (beta, dphi, theta, dtheta), a = last[1:]
        J = _css_jacobian(wv, a, beta, theta, with_intercept)
        if with_intercept:  # from d/d(c, phi) to d/d(mean, phi), through c = mean (1 - sum phi)
            J[:, 1:1 + p] -= J[:, :1] * x[0]
            J[:, 0] *= 1.0 - beta[1:].sum()
        J[:, k:k + p] = J[:, k:k + p] @ dphi
        J[:, k + p:] = J[:, k + p:] @ dtheta
        return J

    # a mixed model's CSS surface can have a second basin across the phi = theta
    # cancellation ridge, so the MA partial autocorrelations start at 0 and +/-0.5
    ma_starts = (0.0, 0.5, -0.5) if p and q else (0.0,)
    res = min((optimize.least_squares(resid, np.append(head, np.full(q, np.arctanh(r0))), jac=jac,
                                      method="lm", x_scale="jac", ftol=1e-10, xtol=1e-10)
               for r0 in ma_starts), key=lambda r: r.cost)
    if res.status <= 0:
        raise ConvergenceError(f"conditional sum of squares did not converge: {res.message}")
    beta, _, theta, _ = unpack(res.x)
    return beta, theta


def pi_weights_loop(fit, m):
    """Reference pi weights by the convolution recursion, one weight at a time.

    pi_k = phistar_k - theta_k + sum_{i<k} theta_i pi_{k-i}, where phistar
    collects the coefficients of phi(B) (1-B)^d: the loop the library ran
    before it took the weights as an impulse response.
    """
    p, d, q = fit.order.p, fit.order.d, fit.order.q
    poly = np.array([1.0] + [-c for c in fit.phi])
    for _ in range(d):
        poly = np.convolve(poly, [1.0, -1.0])
    phistar = np.zeros(m + 1)
    upto = min(p + d, m)
    phistar[1:upto + 1] = -poly[1:upto + 1]
    theta = np.zeros(m + 1)
    theta[1:min(q, m) + 1] = fit.theta[:min(q, m)]
    w = np.zeros(m + 1)
    for k in range(1, m + 1):
        acc = phistar[k] - theta[k]
        for i in range(1, min(k - 1, q) + 1):
            acc += theta[i] * w[k - i]
        w[k] = acc
    return PiWeights(_lag_poly(w[1:]), [1.0], m)  # an FIR filter: its impulse response is w


def pi_weights_reference(ar, ma, m):
    """Reference (weights, tau2, support) of :class:`aoarima.PiWeights`, over all m positions.

    The n-length form the library ran before it built tau2 over the
    support: the full cumulative sum of the squared weights, and the
    support from the last non-zero weight.
    """
    impulse = np.concatenate([[1.0], np.zeros(m)])
    w = -_lfilter(ar, ma, impulse)[1:]
    tau2 = np.ones(m + 1)
    tau2[:-1] += np.cumsum(w * w)[::-1]
    return w, tau2, int(np.flatnonzero(w)[-1]) + 1 if w.any() else 0


def scan_reference(e, pi, sigma, margin=0):
    """Reference :func:`aoarima.scan`: the position of the largest |lambda| over every position."""
    num, tau2 = _stats_all_positions(e.values, pi)
    lam = num / (np.sqrt(tau2) * sigma)
    s = margin + int(np.argmax(np.abs(lam[margin:])))
    return s + 1, float(num[s] / tau2[s]), float(lam[s])


def filter_residuals_fir(series, fit):
    """Reference residual filter: an FIR filter with one tap per pi weight of the ARMA part.

    The differenced, centred series passes through 1 - pi_1 B - ... -
    pi_{n-1} B^{n-1}, which is the recursive filter phi(B) / theta(B)
    written out in full for an n-long input: the O(n^2) form the library
    ran before.
    """
    w = difference(series, fit.order.d)
    wt = w.values - fit.process_mean
    if w.n == 1:
        return TimeSeries(wt, start_index=w.start_index)
    arma_only = make_fit(phi=fit.phi, theta=fit.theta)
    taps = np.concatenate([[1.0], -pi_weights_loop(arma_only, w.n - 1).weights])
    return TimeSeries(signal.lfilter(taps, [1.0], wt), start_index=w.start_index)


def pacf_yule_walker_dense(series, max_lag):
    """Partial autocorrelations by solving each Yule-Walker system densely.

    O(max_lag^4); a slow cross-check of :func:`aoarima.pacf`.
    """
    rho = acf(series, max_lag)
    out = np.empty(max_lag + 1)
    out[0] = 1.0
    for k in range(1, max_lag + 1):
        R = np.empty((k, k))
        for i in range(k):
            for j in range(k):
                R[i, j] = rho[abs(i - j)]
        try:
            phi = np.linalg.solve(R, rho[1:k + 1])
        except np.linalg.LinAlgError as exc:
            raise SingularError(f"Yule-Walker system singular at order {k}") from exc
        out[k] = phi[-1]
    return out


def joint_refit_dense(series, outlier_times, p, with_intercept=True):
    """Reference joint regression: lags plus every indicator as a dense column.

    A label outside the regression rows leaves a zero column, which
    :func:`aoarima.ols` rejects as rank deficient.
    """
    x = series.values
    n = series.n
    k = 1 if with_intercept else 0
    X = np.zeros((n - p, k + p + len(outlier_times)))
    X[:, :k] = 1.0
    for i in range(1, p + 1):
        X[:, k + i - 1] = x[p - i:n - i]
    for j, t in enumerate(outlier_times):
        row = t - series.start_index - p
        if 0 <= row < n - p:
            X[row, k + p + j] = 1.0
    return ols(X, x[p:])


def tau_squared(pi, n, T):
    """Reference squared norm of the outlier signature at position T of an n-long series."""
    if T < 1 or T > n:
        raise IndexError(f"position {T} outside [1, {n}]")
    upto = min(n - T, pi.m)
    w = pi.weights[:upto]
    return 1.0 + float(w @ w)


def omega_hat(e, pi, T):
    """Reference least-squares magnitude of an additive outlier at position T.

    The coefficient of regressing the residuals on the signature column
    (+1 at T, -pi_j at T+j): the signature-weighted sum of the residuals
    divided by the squared signature norm, one position at a time.
    """
    n = e.n
    if T < 1 or T > n:
        raise IndexError(f"position {T} outside [1, {n}]")
    v = e.values
    upto = min(n - T, pi.m)
    w = pi.weights[:upto]
    num = float(v[T - 1]) - float(w @ v[T:T + upto])
    return num / (1.0 + float(w @ w))


def lambda_stat(omega, tau2, sigma):
    """Reference standardized statistic tau * omega / sigma; ~N(0,1) under no outlier."""
    if sigma <= 0.0:
        raise DomainError("sigma must be positive")
    if tau2 < 1.0:
        raise DomainError("tau2 cannot be below 1 (the signature includes a unit spike)")
    return math.sqrt(tau2) * omega / sigma


def scan_omega(e, pi, T):
    """The library's magnitude estimate at position T: num / tau2 off its all-positions kernel."""
    num, tau2 = _stats_all_positions(e.values, pi)
    return float(num[T - 1] / tau2[T - 1])


def scan_tau2(pi, n, T):
    """The library's squared signature norm at position T of an n-long series."""
    return float(_stats_all_positions(np.zeros(n), pi)[1][T - 1])


@pytest.fixture
def rng():
    return np.random.default_rng(20180967)
