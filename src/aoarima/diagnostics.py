"""Residual adequacy checks: portmanteau test, normality test, MSE ladder.

The chi-square survival function is exposed because the portmanteau test
needs it and callers may want it for their own tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateError, DomainError, LengthError
from .series import TimeSeries, acf

__all__ = [
    "TestResult",
    "ComparisonTable",
    "ljung_box",
    "ks_normal",
    "chi_square_sf",
    "comparison_table",
]


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float
    df_or_n: int
    name: str  # "ljung_box" | "ks_normal"


@dataclass(frozen=True)
class ComparisonTable:
    """Mean-squared-error ladder across nested outlier models.

    ``improvement_pct`` compares the first and last rows:
    100 * (first - last) / first.
    """

    rows: tuple  # of (label, mse, omega_values)
    improvement_pct: float


def chi_square_sf(x: float, df: int) -> float:
    """Upper-tail probability of the chi-square distribution with integer df.

    The closed form of Abramowitz & Stegun 26.4.4-5: with h = x / 2,
    exp(-h) (1 + h + h^2 / 2! + ...) over df / 2 terms for even df, and
    erfc(sqrt(h)) + 2 sqrt(h / pi) exp(-h) (1 + h / 1.5 + h^2 / (1.5 2.5) + ...)
    over (df - 1) / 2 terms for odd df. Every term is positive, so the sum
    is accurate to rounding (1e-12 relative to the incomplete gamma
    function for df <= 100, x <= 400) until exp(-h) underflows, beyond
    x of about 1 400, where it reads 0.
    """
    if x < 0.0:
        raise DomainError("chi-square statistic cannot be negative")
    if df < 1 or df != int(df):
        raise ValueError("degrees of freedom must be a positive integer")
    h = x / 2.0
    odd = df % 2
    total = math.erfc(math.sqrt(h)) if odd else 0.0
    term = math.exp(-h) * (2.0 * math.sqrt(h / math.pi) if odd else 1.0)
    for j in range(1, int(df) // 2 + 1):
        total += term
        term *= h / (j + 0.5 * odd)
    return total


def _ndtr(z: np.ndarray) -> np.ndarray:
    """Standard normal distribution function, 0.5 erfc(-z / sqrt(2)), elementwise."""
    return 0.5 * np.frompyfunc(math.erfc, 1, 1)(z * -math.sqrt(0.5)).astype(float)


def ljung_box(residuals: TimeSeries, lags, fitted_params: int = 0) -> list[TestResult]:
    """Portmanteau test that residual autocorrelations are jointly zero.

    For each requested lag h computes
    Q = n (n + 2) sum_{k=1..h} rho_k^2 / (n - k)
    and refers it to chi-square with h - fitted_params degrees of freedom.
    Raises :class:`LengthError` for a lag not below the series length.
    """
    lags = [int(h) for h in lags]
    if not lags:
        raise ValueError("need at least one lag")
    n = residuals.n
    for h in lags:
        if h <= fitted_params:
            raise DomainError(f"lag {h} must exceed the {fitted_params} fitted parameters")
        if h >= n:
            raise LengthError(f"lag {h} must be smaller than the series length {n}")
    rho = acf(residuals, max(lags))
    k = np.arange(1, max(lags) + 1)
    terms = rho[1:] ** 2 / (n - k)
    out = []
    for h in lags:
        q = float(n * (n + 2) * np.sum(terms[:h]))
        df = h - fitted_params
        out.append(TestResult(statistic=q, p_value=chi_square_sf(q, df), df_or_n=df, name="ljung_box"))
    return out


def _kolmogorov_sf(lam: float) -> float:
    """P(K > lam) for the Kolmogorov statistic, asymptotic distribution."""
    if lam <= 0.0:
        return 1.0
    if lam < 1.18:
        # Jacobi theta form converges fast for small arguments
        t = math.exp(-math.pi ** 2 / (8.0 * lam ** 2))
        cdf = math.sqrt(2.0 * math.pi) / lam * (t + t ** 9 + t ** 25 + t ** 49)
        return min(max(1.0 - cdf, 0.0), 1.0)
    total = 0.0
    for k in range(1, 101):
        term = math.exp(-2.0 * k * k * lam * lam)
        total += -term if k % 2 == 0 else term
        if term < 1e-16:
            break
    return min(max(2.0 * total, 0.0), 1.0)


def ks_normal(residuals: TimeSeries) -> TestResult:
    """Kolmogorov-Smirnov distance of the residuals from a fitted normal.

    The reference normal uses the sample mean and standard deviation, so
    the p-value (asymptotic distribution with the Stephens small-sample
    factor) is approximate: estimating the parameters makes it
    conservative. Reports should label it as such.
    """
    n = residuals.n
    if n < 8:
        raise DegenerateError("need at least 8 observations for the normality test")
    x = np.sort(residuals.values)
    mu = float(x.mean())
    sd = float(x.std(ddof=1))
    if sd == 0.0:
        raise DegenerateError("zero standard deviation; normality test undefined")
    z = (x - mu) / sd
    cdf = _ndtr(z)
    i = np.arange(1, n + 1)
    d_plus = np.max(i / n - cdf)
    d_minus = np.max(cdf - (i - 1) / n)
    d = float(max(d_plus, d_minus))
    lam = d * (math.sqrt(n) + 0.12 + 0.11 / math.sqrt(n))
    return TestResult(statistic=d, p_value=_kolmogorov_sf(lam), df_or_n=n, name="ks_normal")


def comparison_table(fits, omegas=None) -> ComparisonTable:
    """Assemble the mean-squared-error ladder from labelled fits.

    ``fits`` is an ordered list of (label, fit) pairs where each fit
    exposes an ``mse`` attribute; ``omegas`` optionally supplies the
    magnitude estimates belonging to each row.
    """
    fits = list(fits)
    if not fits:
        raise ValueError("need at least one row")
    if omegas is None:
        omegas = [() for _ in fits]
    if len(omegas) != len(fits):
        raise ValueError("omegas must have one entry per row")
    rows = tuple(
        (str(label), float(fit.mse), tuple(float(w) for w in om))
        for (label, fit), om in zip(fits, omegas)
    )
    first = rows[0][1]
    last = rows[-1][1]
    improvement = 100.0 * (first - last) / first if first != 0.0 else 0.0
    return ComparisonTable(rows=rows, improvement_pct=improvement)
