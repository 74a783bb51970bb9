"""Time-series container, stationarity transforms and identification statistics.

All functions here are pure: they accept immutable inputs and return new
objects, so they are safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ArityError, DegenerateError, DomainError, LengthError, SingularError

__all__ = [
    "TimeSeries",
    "BoxCoxParam",
    "difference",
    "integrate",
    "box_cox",
    "select_box_cox",
    "acf",
    "pacf",
]


@dataclass(frozen=True)
class TimeSeries:
    """Ordered, finite, real-valued observations.

    Observation ``i`` (0-based) carries the integer index label
    ``start_index + i``; labels default to 1..n, matching the usual
    time-series convention of calling the first observation t = 1.
    """

    values: np.ndarray
    start_index: int = 1

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1:
            raise ValueError("values must be one-dimensional")
        if arr.size < 1:
            raise ValueError("a TimeSeries needs at least one observation")
        if not np.all(np.isfinite(arr)):
            raise ValueError("values must all be finite (no NaN or infinity)")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.size

    def __len__(self) -> int:
        return self.values.size

    def labels(self) -> np.ndarray:
        """Index labels of the observations, ``start_index .. start_index+n-1``."""
        return np.arange(self.start_index, self.start_index + self.n)

    def position_of(self, label: int) -> int:
        """0-based position of an index label; raises IndexError if out of range."""
        pos = int(label) - self.start_index
        if pos < 0 or pos >= self.n:
            raise IndexError(f"index label {label} outside [{self.start_index}, {self.start_index + self.n - 1}]")
        return pos


@dataclass(frozen=True)
class BoxCoxParam:
    """Exponent of the variance-stabilizing power transform."""

    lam: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.lam):
            raise ValueError("lambda must be finite")


def difference(series: TimeSeries, d: int) -> TimeSeries:
    """Apply d-fold first differencing.

    d = 1 gives x_t - x_{t-1}; d = 2 gives x_t - 2 x_{t-1} + x_{t-2}.
    The start index shifts by d so that each output value keeps the label
    of the latest observation entering it. d = 0 returns ``series`` itself
    (a TimeSeries is immutable, so no copy is needed).
    """
    if d < 0:
        raise ValueError("d must be non-negative")
    if series.n <= d:
        raise LengthError(f"cannot difference {series.n} observations {d} times")
    if d == 0:
        return series
    out = series.values
    for _ in range(d):
        out = out[1:] - out[:-1]
    return TimeSeries(out, start_index=series.start_index + d)


def integrate(diffed: TimeSeries, initial, d: int) -> TimeSeries:
    """Invert :func:`difference`.

    ``initial`` must hold the d original leading observations that
    differencing consumed; the round trip
    ``difference(integrate(x, init, d), d)`` reproduces ``x``.
    """
    if d < 0:
        raise ValueError("d must be non-negative")
    init = np.asarray(initial, dtype=float)
    if init.size != d:
        raise ArityError(f"expected {d} initial values, got {init.size}")
    if d == 0:
        return diffed
    out = np.concatenate([init, diffed.values])
    # reconstruct via the binomial recurrence x_t = w_{t} + sum_k (-1)^{k+1} C(d,k) x_{t-k}
    coeffs = [(-1) ** (k + 1) * math.comb(d, k) for k in range(1, d + 1)]
    for t in range(d, out.size):
        acc = out[t]  # holds the d-th difference value
        for k, c in enumerate(coeffs, start=1):
            acc += c * out[t - k]
        out[t] = acc
    return TimeSeries(out, start_index=diffed.start_index - d)


def box_cox(series: TimeSeries, p: BoxCoxParam) -> TimeSeries:
    """Power transform (x^lam - 1)/lam, with the natural log as the lam = 0 limit.

    Only defined for strictly positive series.
    """
    x = series.values
    if np.any(x <= 0.0):
        raise DomainError("power transform requires strictly positive values")
    if p.lam == 0.0:
        out = np.log(x)
    else:
        out = (np.power(x, p.lam) - 1.0) / p.lam
    return TimeSeries(out, start_index=series.start_index)


def select_box_cox(series: TimeSeries, lambdas=(-1.0, -0.5, 0.0, 0.5, 1.0)) -> BoxCoxParam:
    """Grid-search the transform exponent.

    Picks the candidate whose transformed series has the smallest sum of
    squared deviations about its own mean. This is a pragmatic stand-in for
    a full profile-likelihood selection and is only meaningful when the
    candidate list is small and the series is strictly positive.
    """
    best_lam = None
    best_sse = math.inf
    for lam in lambdas:
        t = box_cox(series, BoxCoxParam(lam)).values
        sse = float(np.sum((t - t.mean()) ** 2))
        if sse < best_sse:
            best_sse = sse
            best_lam = lam
    return BoxCoxParam(best_lam)


def acf(series: TimeSeries, max_lag: int) -> np.ndarray:
    """Sample autocorrelations for lags 0..max_lag.

    Uses the biased estimator with a single denominator
    sum (x - xbar)^2, which keeps every value in [-1, 1] and is the form
    the portmanteau test assumes.
    """
    if max_lag < 0:
        raise ValueError("max_lag must be non-negative")
    if max_lag >= series.n:
        raise ValueError("max_lag must be smaller than the series length")
    x = series.values - series.values.mean()
    c0 = float(np.dot(x, x))
    if c0 == 0.0:
        raise DegenerateError("series has zero variance; autocorrelation undefined")
    out = np.empty(max_lag + 1)
    out[0] = 1.0
    for k in range(1, max_lag + 1):
        out[k] = float(np.dot(x[:-k], x[k:])) / c0
    return out


def pacf(series: TimeSeries, max_lag: int) -> np.ndarray:
    """Partial autocorrelations for lags 0..max_lag via the Levinson recursion.

    Entry k is the last coefficient of the order-k Yule-Walker solution;
    entry 0 is fixed at 1 by convention.
    """
    if max_lag < 1:
        raise ValueError("max_lag must be at least 1")
    rho = acf(series, max_lag)
    out = np.empty(max_lag + 1)
    out[0] = 1.0
    phi_prev = np.array([rho[1]])
    out[1] = rho[1]
    v = 1.0 - rho[1] ** 2
    for k in range(2, max_lag + 1):
        if not np.isfinite(v) or abs(v) < 1e-300:
            raise SingularError(f"Levinson recursion broke down at lag {k}")
        num = rho[k] - float(np.dot(phi_prev, rho[k - 1:0:-1]))
        phi_kk = num / v
        phi = np.empty(k)
        phi[:-1] = phi_prev - phi_kk * phi_prev[::-1]
        phi[-1] = phi_kk
        v *= 1.0 - phi_kk ** 2
        out[k] = phi_kk
        phi_prev = phi
    return out

