"""ARIMA parameter estimation and the filtering machinery built on it.

AR models are estimated by ordinary least squares on lagged regressors;
models with an MA part by minimizing the conditional sum of squares with
a Levenberg-Marquardt least-squares solve over the partial
autocorrelations of phi and theta, with standard errors from the
analytic Jacobian of the residuals. Both report two variance estimates
that must not be conflated:

* ``sigma2`` -- mean squared residual with denominator equal to the
  residual count (the innovation-variance convention used by the outlier
  test statistic), and
* ``mse`` -- the usual degree-of-freedom adjusted regression mean square.

The AR path (OLS, the residual filter, the pi weights and the backward
scan filter, all without feedback when q = 0) runs on numpy alone: its
filters are truncated convolutions and its QR is numpy's bundled LAPACK.
scipy is imported where it is first needed: ``scipy.signal`` for a
recursive filter (an MA part, or the AR recursion of a simulation) and
``scipy.optimize`` for the CSS solve.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from numpy.linalg import lapack_lite

from .errors import (
    ConvergenceError,
    DegenerateError,
    DomainError,
    LengthError,
    NonInvertibleWarning,
    NonStationaryWarning,
    RankError,
    SingularError,
)
from .series import TimeSeries, acf, difference

__all__ = [
    "ArimaOrder",
    "ArimaFit",
    "PiWeights",
    "OlsResult",
    "ols",
    "fit_ar_ols",
    "yule_walker",
    "fit_arma_css",
    "fit_arima",
    "pi_weights",
    "filter_residuals",
    "sigma_hat",
    "min_ar_root_modulus",
    "min_ma_root_modulus",
]

_ROOT_TOL = 1e-8
_RANK_TOL = 1e-10


@dataclass(frozen=True)
class ArimaOrder:
    """(p, d, q) orders. Differencing beyond d = 2 is rejected."""

    p: int
    d: int = 0
    q: int = 0

    def __post_init__(self):
        if self.p < 0 or self.d < 0 or self.q < 0:
            raise ValueError("orders must be non-negative")
        if self.d > 2:
            raise ValueError("differencing order d > 2 is not supported")


@dataclass(frozen=True)
class OlsResult:
    """Least-squares solution with the usual accounting."""

    coefficients: tuple
    sse: float
    mse: float
    std_errors: tuple
    fitted: np.ndarray
    residuals: np.ndarray
    df_residual: int


@dataclass(frozen=True)
class ArimaFit:
    """A fitted ARIMA model.

    ``phi`` and ``theta`` use the sign convention of the lag polynomials
    1 - phi_1 B - ... and 1 - theta_1 B - ...; ``intercept`` is the
    regression constant (0 when suppressed) and ``with_intercept`` says
    whether the model has one, which a fitted constant of 0.0 cannot tell.
    ``residuals`` are aligned so their start index names the first
    observation they correspond to.
    """

    order: ArimaOrder
    phi: tuple
    theta: tuple
    intercept: float
    with_intercept: bool
    sigma2: float
    residuals: TimeSeries
    coefficient_std_errors: tuple
    sse: float
    mse: float

    @property
    def process_mean(self) -> float:
        """Implied stationary mean intercept / (1 - sum(phi))."""
        denom = 1.0 - sum(self.phi)
        if self.intercept == 0.0:
            return 0.0
        if abs(denom) < 1e-10:
            raise DomainError("process mean undefined: AR coefficients sum to 1")
        return self.intercept / denom


@dataclass(frozen=True)
class PiWeights:
    """Truncated weights of the autoregressive (infinite-order) representation.

    ``weights[j-1]`` is pi_j in pi(B) = 1 - pi_1 B - pi_2 B^2 - ...; the
    implicit pi_0 is 1. Weights from :func:`pi_weights` also carry the
    recursive filter they are the impulse response of, the one
    :func:`filter_residuals` runs; the outlier scan runs it backwards.
    """

    weights: np.ndarray
    m: int

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.size != self.m:
            raise ValueError("weight count must equal the truncation length m")
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)
        # built once for all scans: the weights up to the last non-zero one, and
        # 1 + pi_1^2 + ... + pi_{m-s}^2 at position s of an (m + 1)-long series
        object.__setattr__(self, "_support", int(np.flatnonzero(w)[-1]) + 1 if w.any() else 0)
        tau2 = np.ones(self.m + 1)
        tau2[:-1] += np.cumsum(w * w)[::-1]
        tau2.flags.writeable = False
        object.__setattr__(self, "_tau2", tau2)


def _lag_poly(coeffs) -> np.ndarray:
    """1, -c_1, ..., -c_k: the coefficients of the lag polynomial 1 - c_1 B - ... - c_k B^k."""
    return np.concatenate([[1.0], -np.asarray(coeffs, dtype=float)])


def _poly_min_root_modulus(coeffs) -> float:
    """Smallest root modulus of 1 - c_1 z - ... - c_k z^k (inf if degree 0).

    Solved as the reciprocal of the largest root of the monic reversed
    polynomial z^k - c_1 z^(k-1) - ... - c_k, whose companion matrix stays
    well scaled however small c_k is.
    """
    c = np.asarray(coeffs, dtype=float)
    top = float(np.max(np.abs(np.roots(_lag_poly(c))))) if c.size else 0.0
    return math.inf if top == 0.0 else 1.0 / top


def min_ar_root_modulus(phi) -> float:
    return _poly_min_root_modulus(phi)


def min_ma_root_modulus(theta) -> float:
    return _poly_min_root_modulus(theta)


def _warn_on_roots(phi, theta) -> None:
    if min_ar_root_modulus(phi) <= 1.0 + _ROOT_TOL:
        warnings.warn(
            "AR polynomial has a root on or inside the unit circle; "
            "estimates are at the stationarity boundary",
            NonStationaryWarning,
            stacklevel=3,
        )
    if min_ma_root_modulus(theta) <= 1.0 + _ROOT_TOL:
        warnings.warn(
            "MA polynomial has a root on or inside the unit circle; "
            "estimates are at the invertibility boundary",
            NonInvertibleWarning,
            stacklevel=3,
        )


def _warn_if_not_invertible(theta) -> None:
    if min_ma_root_modulus(theta) <= 1.0 + _ROOT_TOL:
        warnings.warn("MA polynomial is not invertible; the weight expansion may diverge",
                      NonInvertibleWarning, stacklevel=3)


def _lfilter(b, a, x: np.ndarray) -> np.ndarray:
    """``scipy.signal.lfilter(b, a, x)`` with zero initial state, on numpy alone when a = [1].

    Without feedback the filter is the truncated convolution, the very
    ``np.convolve(b, x)`` scipy runs for it, so the result is bit for bit
    scipy's; ``scipy.signal`` is imported only for a recursive filter.
    """
    if len(a) == 1 and a[0] == 1.0:
        return np.convolve(b, x)[:x.size] if x.size else np.zeros(0)
    from scipy import signal
    return signal.lfilter(b, a, x)


def ols(X: np.ndarray, y) -> OlsResult:
    """Least squares fit of y on the columns of X.

    One Householder QR of [X | y] (dgeqrf from the LAPACK bundled with
    numpy, in place, no explicit Q) that keeps only R, whose last column
    is Q^T y: beta solves R beta = (Q^T y)[:cols] and the residual sum of
    squares is the squared bottom corner. The factor rides on the result
    for :func:`~aoarima.outliers.joint_refit`.
    Raises :class:`RankError` when the system is underdetermined or the
    design is rank deficient (pivot ratio below 1e-10).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be a 2-d matrix")
    rows, cols = X.shape
    if y.shape != (rows,):
        raise ValueError("y length must match the row count of X")
    if rows <= cols:
        raise RankError(f"underdetermined system: {rows} rows for {cols} coefficients")
    k = cols + 1
    xy = np.empty((k, rows))  # C-ordered (k, rows) is LAPACK's column-major (rows, k)
    xy[:cols], xy[cols] = X.T, y
    lwork = 3 * k  # scipy's default workspace, so the blocking choice matches it
    info = lapack_lite.dgeqrf(rows, k, xy, rows, np.empty(k), np.empty(lwork), lwork, 0)["info"]
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK dgeqrf failed with info = {info}")
    r = np.triu(xy[:, :k].T)
    pivots = np.abs(np.diag(r)[:cols])
    if pivots.size == 0 or pivots.min() < _RANK_TOL * pivots.max() or pivots.max() == 0.0:
        raise RankError("design matrix is rank deficient")
    beta = np.linalg.solve(r[:cols, :cols], r[:cols, cols])
    fitted = X @ beta
    sse = float(r[cols, cols] ** 2)
    df = rows - cols
    mse = sse / df
    rinv = np.linalg.solve(r[:cols, :cols], np.eye(cols))
    xtx_inv_diag = np.sum(rinv * rinv, axis=1)
    std = np.sqrt(mse * xtx_inv_diag)
    res = OlsResult(
        coefficients=tuple(float(b) for b in beta),
        sse=sse,
        mse=mse,
        std_errors=tuple(float(s) for s in std),
        fitted=fitted,
        residuals=y - fitted,
        df_residual=df,
    )
    object.__setattr__(res, "_r", r)  # not a field: equality and repr ignore it
    return res


def _lagged_design(x: np.ndarray, p: int, with_intercept: bool, rows=slice(None)) -> tuple:
    """X with columns 1, x_{t-1}, ..., x_{t-p} and y = x_t, for t >= p; ``rows`` of them only."""
    y = x[p:][rows]
    k = 1 if with_intercept else 0
    X = np.empty((y.size, k + p), order="F")
    X[:, :k] = 1.0
    for i in range(1, p + 1):
        X[:, k + i - 1] = x[p - i:x.size - i][rows]
    return X, y


def fit_ar_ols(series: TimeSeries, p: int, with_intercept: bool = True) -> ArimaFit:
    """Fit an AR(p) by regressing each value on its p predecessors."""
    if p < 1:
        raise ValueError("p must be at least 1")
    if series.n <= 2 * p + 2:
        raise LengthError(f"need more than {2 * p + 2} observations to fit AR({p})")
    X, y = _lagged_design(series.values, p, with_intercept)
    res = ols(X, y)
    k = 1 if with_intercept else 0
    intercept = res.coefficients[0] if with_intercept else 0.0
    phi = tuple(res.coefficients[k:])
    residuals = TimeSeries(res.residuals, start_index=series.start_index + p)
    sigma2 = res.sse / residuals.n
    _warn_on_roots(phi, ())
    return ArimaFit(
        order=ArimaOrder(p, 0, 0),
        phi=phi,
        theta=(),
        intercept=float(intercept),
        with_intercept=with_intercept,
        sigma2=float(sigma2),
        residuals=residuals,
        coefficient_std_errors=res.std_errors,
        sse=res.sse,
        mse=res.mse,
    )


def _step_up(phi: np.ndarray, r: float) -> np.ndarray:
    """One Levinson step: order-(k+1) lag coefficients from order k and the next PACF r."""
    return np.append(phi - r * phi[::-1], r)


def _levinson(series: TimeSeries, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Yule-Walker coefficients and partial autocorrelations up to order p."""
    if p < 1:
        raise ValueError("p must be at least 1")
    if p >= series.n:
        raise ValueError("p must be smaller than the series length")
    rho = acf(series, p)
    phi = np.zeros(0)
    pacf = np.empty(p)
    v = 1.0
    for k in range(1, p + 1):
        if not np.isfinite(v) or abs(v) < 1e-300:
            raise SingularError(f"Yule-Walker recursion broke down at order {k}")
        pacf[k - 1] = (rho[k] - float(np.dot(phi, rho[k - 1:0:-1]))) / v
        phi = _step_up(phi, pacf[k - 1])
        v *= 1.0 - pacf[k - 1] ** 2
    if not np.all(np.isfinite(phi)):
        raise SingularError("Yule-Walker solution is not finite")
    return phi, pacf


def yule_walker(series: TimeSeries, p: int) -> np.ndarray:
    """Order-p Yule-Walker AR coefficients from sample autocorrelations.

    Solved by the Levinson recursion; raises :class:`SingularError` when
    the recursion breaks down.
    """
    return _levinson(series, p)[0]


def _from_pacf(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lag coefficients whose partial autocorrelations are tanh(z), and d coef / d z.

    Every |tanh(z_k)| < 1, so 1 - c_1 B - ... has all its roots outside the
    unit circle (Monahan 1984). The step-up is linear in the previous
    coefficients, so their derivative columns step up with a zero last entry.
    """
    r = np.tanh(z)
    coef = np.zeros(0)
    jac = np.zeros((r.size, r.size))
    for k, rk in enumerate(r):
        jac[:k, :k] -= rk * jac[:k, :k][::-1]
        jac[:k, k] = -coef[::-1]
        jac[k, k] = 1.0
        coef = _step_up(coef, rk)
    return coef, jac * (1.0 - r * r)


def _css_residuals(w: np.ndarray, mean: float, phi: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Conditional residuals of an ARMA recursion.

    Conditions on the first p observations and sets pre-sample shocks to
    zero, so the output has length len(w) - p.
    """
    p = phi.size
    q = theta.size
    wt = w - mean
    u = wt[p:].copy()
    for i in range(1, p + 1):
        u -= phi[i - 1] * wt[p - i:wt.size - i]
    if q == 0:
        return u
    # a_t = u_t + theta_1 a_{t-1} + ... + theta_q a_{t-q}, zero initial state
    return _lfilter([1.0], _lag_poly(theta), u)


def _css_jacobian(w: np.ndarray, a: np.ndarray, mean: float, phi: np.ndarray,
                  theta: np.ndarray, with_intercept: bool) -> np.ndarray:
    """d a / d (mean, phi, theta) by the derivative filters of BJR ch. 7.

    The mean and phi_i columns are the constant -(1 - sum phi) and the
    lagged, centred series -w_{t-i}, the theta_j columns the residuals
    shifted by j; each passed through 1 / theta(B) with zero initial state.
    """
    p, n = phi.size, a.size
    wt = w - mean
    cols = [np.full(n, phi.sum() - 1.0)] if with_intercept else []
    cols += [-wt[p - i:wt.size - i] for i in range(1, p + 1)]
    cols += [np.concatenate([np.zeros(j), a[:n - j]]) for j in range(1, theta.size + 1)]
    from scipy import signal
    return signal.lfilter([1.0], _lag_poly(theta), np.column_stack(cols), axis=0)


def fit_arma_css(series: TimeSeries, order: ArimaOrder, with_intercept: bool = True) -> ArimaFit:
    """Fit an ARIMA(p, d, q) by conditional sum of squares.

    The d-fold difference is taken first. The objective sums squared
    shocks reconstructed recursively with zero pre-sample shocks,
    conditioning on the first p differenced observations. It is minimized
    by Levenberg-Marquardt least squares with the analytic Jacobian of
    the residual vector. phi and theta are each parametrized by the
    arctanh of their partial autocorrelations, so every iterate is
    stationary and invertible; a fit that would leave that region stops
    on its boundary (and warns). The solve starts from the Yule-Walker
    estimate for phi (zeros if it breaks down) and zeros for theta; models
    with both an AR and an MA part also start from MA partial
    autocorrelations of +/-0.5 and keep the lowest sum of squares.
    Standard errors come from the same Jacobian at the optimum, taken in
    the reported (intercept, phi, theta) coordinates.
    """
    from scipy import optimize

    p, d, q = order.p, order.d, order.q
    if p + q < 1:
        raise ValueError("need p + q >= 1 to fit a model")
    if series.n <= 3 * (p + q) + 5 + d:
        raise LengthError(f"need more than {3 * (p + q) + 5 + d} observations for this order")
    w = difference(series, d)
    wv = w.values
    k = 1 if with_intercept else 0
    pacf0 = np.zeros(p)
    if p > 0:
        try:
            pacf0 = np.clip(_levinson(w, p)[1], -0.99, 0.99)  # off the flat ends of tanh
        except (SingularError, DegenerateError):
            pass
    head = np.concatenate([[wv.mean()] if with_intercept else [], np.arctanh(pacf0)])
    n_par = head.size + q

    def unpack(x):
        phi, dphi = _from_pacf(x[k:k + p])
        theta, dtheta = _from_pacf(x[k + p:])
        return (x[0] if with_intercept else 0.0), phi, dphi, theta, dtheta

    last = [None, None, None]  # x, unpack(x) and residuals of the latest resid call

    def resid(x):
        u = unpack(x)
        last[:] = x.copy(), u, _css_residuals(wv, u[0], u[1], u[3])
        return last[2]

    def jac(x):
        if not np.array_equal(x, last[0]):  # the solver mostly asks at its latest residual point
            resid(x)
        (mean, phi, dphi, theta, dtheta), a = last[1:]
        J = _css_jacobian(wv, a, mean, phi, theta, with_intercept)
        J[:, k:k + p] = J[:, k:k + p] @ dphi
        J[:, k + p:] = J[:, k + p:] @ dtheta
        return J

    # a mixed model's CSS surface can have a second basin across the phi = theta
    # cancellation ridge, so the MA partial autocorrelations start at 0 and +/-0.5
    ma_starts = (0.0, 0.5, -0.5) if p and q else (0.0,)
    res = min((optimize.least_squares(resid, np.append(head, np.full(q, np.arctanh(r0))), jac=jac,
                                      method="lm", x_scale="jac", ftol=1e-10, xtol=1e-10)
               for r0 in ma_starts), key=lambda r: r.cost)
    a = res.fun
    sse = float(a @ a)
    if res.status <= 0 or not math.isfinite(sse):
        raise ConvergenceError(f"conditional sum of squares did not converge: {res.message}")
    mse = sse / (a.size - n_par)  # the length check leaves more than n_par residuals
    mean, phi_v, _, theta_v, _ = unpack(res.x)
    phi = tuple(float(v) for v in phi_v)
    theta = tuple(float(v) for v in theta_v)
    intercept = mean * (1.0 - sum(phi)) if with_intercept else 0.0

    # report in intercept form: mean = c / (1 - sum phi), and 1 - sum phi > 0 when stationary
    J = _css_jacobian(wv, a, mean, phi_v, theta_v, with_intercept)
    if with_intercept:
        J[:, 0] /= 1.0 - phi_v.sum()
        J[:, 1:1 + p] += J[:, :1] * mean
    try:
        cov = mse * np.linalg.inv(J.T @ J)
        std = tuple(float(s) for s in np.sqrt(np.clip(np.diag(cov), 0.0, None)))
    except np.linalg.LinAlgError:
        std = tuple(float("nan") for _ in range(n_par))
    _warn_on_roots(phi, theta)
    return ArimaFit(
        order=order,
        phi=phi,
        theta=theta,
        intercept=float(intercept),
        with_intercept=with_intercept,
        sigma2=sse / a.size,
        residuals=TimeSeries(a, start_index=w.start_index + p),
        coefficient_std_errors=std,
        sse=sse,
        mse=float(mse),
    )


def fit_arima(series: TimeSeries, order: ArimaOrder, with_intercept: bool = True) -> ArimaFit:
    """Dispatch to the OLS fitter for pure AR orders, otherwise to CSS."""
    if order.q == 0:
        if order.p < 1:
            raise ValueError("need p >= 1 when q = 0")
        w = difference(series, order.d)
        fit = fit_ar_ols(w, order.p, with_intercept)
        return replace(fit, order=order)
    return fit_arma_css(series, order, with_intercept)


def pi_weights(fit: ArimaFit, m: int) -> PiWeights:
    """First m weights of the autoregressive representation of the model.

    Includes the differencing operator: the weights expand
    phi(B) (1-B)^d / theta(B). They are the impulse response of that
    recursive filter, the one :func:`filter_residuals` runs, and the
    filter rides on the result for the outlier scan, which runs it
    backwards. For q = 0 the filter has no feedback, so the weights beyond
    p + d are exact zeros.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    _warn_if_not_invertible(fit.theta)
    poly = _lag_poly(fit.phi)
    for _ in range(fit.order.d):
        poly = np.convolve(poly, [1.0, -1.0])
    filt = (poly, _lag_poly(fit.theta))
    impulse = np.concatenate([[1.0], np.zeros(m)])
    pi = PiWeights(weights=-_lfilter(*filt, impulse)[1:], m=m)
    object.__setattr__(pi, "_filter", filt)  # not a field: equality and repr ignore it
    return pi


def filter_residuals(series: TimeSeries, fit: ArimaFit) -> TimeSeries:
    """Filter a series into one residual per (differenced) observation.

    The series is differenced per the fitted order, centered at the
    implied process mean, and passed through the recursive filter
    phi(B) / theta(B) with zero initial state: the autoregressive
    representation of the ARMA part, untruncated, in O(n (p + q)). Early
    positions t <= p are warm-up values computed from the lags available
    so far; downstream consumers should treat them as conditioning values
    rather than genuine one-step errors.
    """
    _warn_if_not_invertible(fit.theta)
    w = difference(series, fit.order.d)
    e = _lfilter(_lag_poly(fit.phi), _lag_poly(fit.theta), w.values - fit.process_mean)
    return TimeSeries(e, start_index=w.start_index)


def _filter_backward(e: np.ndarray, pi: PiWeights) -> np.ndarray:
    """e[s] - pi_1 e[s+1] - ... - pi_{n-1-s} e[n-1]: pi(F) applied to e, F the forward shift.

    That is the filter of :func:`pi_weights` run over the reversed series,
    whose zero initial state cuts each sum at the end of the series.
    Weights built by hand have no filter and run as their own taps.
    """
    filt = getattr(pi, "_filter", None) or (_lag_poly(pi.weights[:pi._support]), [1.0])
    return _lfilter(*filt, e[::-1])[::-1]


def sigma_hat(residuals: TimeSeries) -> float:
    """Innovation-variance estimate: mean of squared residuals (denominator n)."""
    v = residuals.values
    return float(v @ v) / v.size
