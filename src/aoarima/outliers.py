"""Additive-outlier magnitude estimation, testing, and iterative correction.

An additive outlier perturbs a single observation: the observed value at
time T is the clean value plus an unknown magnitude. After filtering the
series through the model's autoregressive representation, that single
bump leaves a known signature in the residuals: +1 at T followed by
-pi_1, -pi_2, ... at the later positions. Every operation in this module
is least-squares algebra against that signature column, at every position
at once: the regression numerator is the residual filter run backwards,
and the squared signature norm is read off the weights.

* ``scan``        -- position with the largest absolute standardized
                     statistic tau * omega / sigma, and its magnitude
                     estimate omega,
* ``adjust_residuals`` -- removes a detected signature from the residuals,
* ``detect_iterative`` -- the scan/test/adjust loop with audit trail,
* ``correct_series``   -- subtracts detected magnitudes from the data,
* ``joint_refit``      -- re-estimates AR coefficients and magnitudes in
                          one regression with indicator columns.

Positions handed to the low-level operations (``T`` in
``adjust_residuals``, the scan result) are 1-based positions within the
residual series. ``detect_iterative`` converts scan positions to index
labels of the input series, so the records it returns use the same labels
as the data (with the default start index of 1 and no differencing the two
coincide).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import CriticalValueWarning, DomainError, EmptyScanError, RankError
from .estimation import (
    ArimaFit,
    OlsResult,
    PiWeights,
    _filter_backward,
    _lagged_design,
    fit_arima,
    filter_residuals,
    ols,
    pi_weights,
    sigma_hat,
)
from .series import TimeSeries

__all__ = [
    "DetectionConfig",
    "OutlierRecord",
    "DetectionResult",
    "scan",
    "adjust_residuals",
    "detect_iterative",
    "correct_series",
    "joint_refit",
]


@dataclass(frozen=True)
class DetectionConfig:
    """Knobs of the iterative detection loop.

    ``critical_value`` is the threshold on the absolute standardized
    statistic; values outside the customary [2, 6] band are accepted but
    draw a warning. ``scan_margin`` positions are excluded at the start
    of the scan window (defaults to the AR order when left as None); the
    window always extends to the final observation, where detections are
    reported as low-confidence edge hits rather than suppressed.
    """

    critical_value: float = 3.0
    max_outliers: int = 10
    max_iterations: int = 20
    refit_each_iteration: bool = False
    scan_margin: int | None = None

    def __post_init__(self):
        if not (self.critical_value > 0.0) or not math.isfinite(self.critical_value):
            raise ValueError("critical_value must be a positive finite number")
        if not 2.0 <= self.critical_value <= 6.0:
            warnings.warn(
                f"critical value {self.critical_value} is outside the customary [2, 6] range",
                CriticalValueWarning,
                stacklevel=2,
            )
        if self.max_outliers < 1 or self.max_iterations < 1:
            raise ValueError("max_outliers and max_iterations must be positive")
        if self.scan_margin is not None and self.scan_margin < 0:
            raise ValueError("scan_margin must be non-negative")


@dataclass(frozen=True)
class OutlierRecord:
    """One detected additive outlier.

    ``T`` is the index label in the input series; ``omega_hat`` the
    estimated magnitude in series units; ``lambda_hat`` the standardized
    statistic at acceptance; ``iteration`` the loop pass that first found
    this position; ``tau2`` the squared signature norm there. When a
    position is re-detected on later passes the magnitudes are summed
    into the existing record (the adjustment is linear) and the other
    fields keep their first-detection values.
    """

    T: int
    omega_hat: float
    lambda_hat: float
    iteration: int
    tau2: float


@dataclass(frozen=True)
class DetectionResult:
    """Audit trail of one detection run."""

    outliers: tuple
    sigma_trail: tuple
    mse_trail: tuple
    corrected_series: TimeSeries
    final_fit: ArimaFit | OlsResult
    iterations_run: int
    terminated_by: str  # no_candidate | max_outliers | max_iterations


def _stats_all_positions(e: np.ndarray, pi: PiWeights) -> tuple[np.ndarray, np.ndarray]:
    """Numerators and squared norms of the signature regression at every position.

    Returns (num, tau2) arrays of length n where, for 0-based position s,
    num[s] = e[s] - sum_j pi_j e[s+j] and tau2[s] = 1 + sum_j pi_j^2, both
    over the n - s - 1 later positions: num is the residual filter run
    backwards, tau2 the tail of the array the weights keep. The weights
    must reach the end of the series (n <= m + 1).
    """
    n = e.size
    if n > pi.m + 1:
        raise ValueError(f"{pi.m} weights cannot scan a series of {n} values; need m >= n - 1")
    return _filter_backward(e, pi), pi._tau2[pi.m + 1 - n:]


def scan(e: TimeSeries, pi: PiWeights, sigma: float, margin: int = 0,
         end_margin: int | None = None) -> tuple[int, float, float]:
    """Position with the largest absolute standardized statistic.

    Scans positions ``1 + margin .. n - end_margin`` (``end_margin``
    defaults to ``margin``); ties break toward the smallest position.
    ``pi`` needs at least n - 1 weights. Returns ``(T, omega, lambda)``.
    """
    if sigma <= 0.0:
        raise DomainError("sigma must be positive")
    if end_margin is None:
        end_margin = margin
    if margin < 0 or end_margin < 0:
        raise ValueError("margins must be non-negative")
    n = e.n
    lo = margin  # 0-based first scannable
    hi = n - end_margin  # 0-based exclusive end
    if hi - lo < 3:
        raise EmptyScanError(
            f"scan window [{lo + 1}, {hi}] has {max(hi - lo, 0)} positions; need at least 3"
        )
    num, tau2 = _stats_all_positions(e.values, pi)
    lam = num / (np.sqrt(tau2) * sigma)
    window = np.abs(lam[lo:hi])
    s = lo + int(np.argmax(window))
    return s + 1, float(num[s] / tau2[s]), float(lam[s])


def adjust_residuals(e: TimeSeries, omega: float, pi: PiWeights, T: int) -> TimeSeries:
    """Remove an outlier signature of the given magnitude from the residuals.

    Subtracts omega at T and adds omega * pi_j at T + j; positions before
    T are untouched. Afterwards the magnitude estimate at T is exactly
    zero (the residual of its own projection).
    """
    n = e.n
    if T < 1 or T > n:
        raise IndexError(f"position {T} outside [1, {n}]")
    k = min(pi._support, n - T)
    out = e.values.copy()
    out[T - 1] -= omega
    out[T:T + k] += omega * pi.weights[:k]
    return TimeSeries(out, start_index=e.start_index)


def correct_series(series: TimeSeries, outliers) -> TimeSeries:
    """Subtract each detected magnitude at its index label."""
    out = series.values.copy()
    for rec in outliers:
        out[series.position_of(rec.T)] -= rec.omega_hat
    return TimeSeries(out, start_index=series.start_index)


def joint_refit(series: TimeSeries, outlier_times, p: int, with_intercept: bool = True) -> OlsResult:
    """One regression of the series on its own lags plus outlier indicators.

    Indicator j is 1 only at index label ``outlier_times[j]``, so the
    final ``len(outlier_times)`` coefficients are refined magnitude
    estimates. Coincident indicator times are rejected. An indicator fits
    its row exactly, so the columns are never formed: the lag coefficients
    are the fit on the other rows, magnitude j is the prediction error at
    its row, with variance factor 1 + a_j (A'A)^-1 a_j' over the other rows
    (the partitioned inverse). Adding those rows back to the triangular
    factor of [A | y] one at a time, last first, gives the SSEs of the fits
    with the first k, ..., 0 indicators, which ride on the result for
    :func:`detect_iterative`.
    """
    times = list(outlier_times)
    if len(set(times)) != len(times):
        raise RankError(f"indicator times must be distinct, got {sorted(times)}")
    x = series.values
    rows = np.array(times, dtype=int) - (series.start_index + p)
    if np.any((rows < 0) | (rows >= series.n - p)):  # an indicator column of zeros
        raise RankError("design matrix is rank deficient")
    keep = np.ones(series.n - p, dtype=bool)
    keep[rows] = False
    base = ols(*_lagged_design(x, p, with_intercept, keep))
    r = base._r
    c = r.shape[1] - 1
    a, y = _lagged_design(x, p, with_intercept, rows)
    omega = y - a @ np.asarray(base.coefficients)
    z = np.linalg.solve(r[:c, :c].T, a.T)
    std = np.sqrt(base.mse * (1.0 + np.sum(z * z, axis=0)))
    residuals = np.zeros(keep.size)
    residuals[keep] = base.residuals
    res = replace(base, coefficients=base.coefficients + tuple(float(w) for w in omega),
                  std_errors=base.std_errors + tuple(float(s) for s in std),
                  fitted=x[p:] - residuals, residuals=residuals)
    sse = [base.sse]
    for j in range(len(times) - 1, -1, -1):
        r = np.linalg.qr(np.vstack([r, np.append(a[j], y[j])]), mode="r")
        sse.append(float(r[c, c] ** 2))
    object.__setattr__(res, "_nested_sse", sse[::-1])  # not a field: equality and repr ignore it
    return res


def detect_iterative(series: TimeSeries, fit: ArimaFit, config: DetectionConfig | None = None) -> DetectionResult:
    """Iteratively detect, test, and remove additive outliers.

    Each pass estimates the innovation scale from the current residuals,
    scans for the position with the largest absolute statistic, and, if
    it clears the critical value, records it and strips its signature
    from the residuals. The filter weights stay fixed at the initial
    fit's values unless ``refit_each_iteration`` asks for a re-estimated
    model after every hit (a departure from the fixed-weight scheme,
    provided for convenience). The loop stops when no candidate clears
    the threshold or a configured limit is reached.

    Afterwards the corrected series is produced and a final model is
    estimated: for pure AR models without differencing, a joint
    lags-plus-indicators regression; otherwise a fresh fit on the
    corrected series (``mse_trail`` then holds the before/after pair).
    The mean squared errors of the joint fits with the first 0..k
    indicators in detection order form ``mse_trail``; they come from the
    final regression's one QR decomposition, updated a row at a time.

    Every model fitted here has an intercept exactly when ``fit`` has one
    (``fit.with_intercept``).
    """
    if config is None:
        config = DetectionConfig()
    n = series.n
    cap = max(1, n // 5)
    if config.max_outliers > cap:
        raise DomainError(
            f"max_outliers {config.max_outliers} exceeds n/5 = {cap}; lower it to avoid overfitting"
        )
    current_fit = fit
    d = fit.order.d
    n_e = n - d
    if n_e < 4:
        raise EmptyScanError("series too short to scan after differencing")
    margin = config.scan_margin if config.scan_margin is not None else fit.order.p
    label_offset = series.start_index - 1 + d  # scan position -> index label

    pi = pi_weights(current_fit, n_e - 1)
    e = filter_residuals(series, current_fit)

    records: list[OutlierRecord] = []
    by_label: dict[int, int] = {}
    sigma_trail: list[float] = []
    terminated = None
    iterations = 0

    while iterations < config.max_iterations:
        sig2 = sigma_hat(e)
        if sig2 <= 0.0:
            terminated = "no_candidate"
            break
        iterations += 1
        sigma = math.sqrt(sig2)
        sigma_trail.append(sigma)
        pos, omega, lam = scan(e, pi, sigma, margin=margin, end_margin=0)
        if abs(lam) <= config.critical_value:
            terminated = "no_candidate"
            break
        label = pos + label_offset
        if label in by_label:
            idx = by_label[label]
            records[idx] = replace(records[idx], omega_hat=records[idx].omega_hat + omega)
        else:
            by_label[label] = len(records)
            records.append(
                OutlierRecord(
                    T=label,
                    omega_hat=omega,
                    lambda_hat=lam,
                    iteration=iterations,
                    tau2=float(pi._tau2[pi.m + pos - e.n]),
                )
            )
        if config.refit_each_iteration:
            corrected_now = correct_series(series, records)
            current_fit = fit_arima(corrected_now, fit.order, fit.with_intercept)
            pi = pi_weights(current_fit, n_e - 1)
            e = filter_residuals(series, current_fit)
            for rec in records:
                e = adjust_residuals(e, rec.omega_hat, pi, rec.T - label_offset)
        else:
            e = adjust_residuals(e, omega, pi, pos)
        if len(records) >= config.max_outliers:
            terminated = "max_outliers"
            break
    if terminated is None:
        terminated = "max_iterations"

    corrected = correct_series(series, records)
    if fit.order.q == 0 and fit.order.d == 0:
        final_fit = joint_refit(series, [rec.T for rec in records], fit.order.p, fit.with_intercept)
        k = len(records)
        mse_trail = tuple(v / (final_fit.df_residual + k - j) for j, v in enumerate(final_fit._nested_sse))
    else:
        final_fit = fit_arima(corrected, fit.order, fit.with_intercept)
        mse_trail = (fit.mse, final_fit.mse)

    return DetectionResult(
        outliers=tuple(records),
        sigma_trail=tuple(sigma_trail),
        mse_trail=mse_trail,
        corrected_series=corrected,
        final_fit=final_fit,
        iterations_run=iterations,
        terminated_by=terminated,
    )
