"""Residual adequacy checks: portmanteau test, normality test, fence flagging.

The chi-square survival function is exposed because the portmanteau test
needs it and callers may want it for their own tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateError, DomainError
from .series import TimeSeries, acf

__all__ = [
    "TestResult",
    "ComparisonTable",
    "ljung_box",
    "ks_normal",
    "boxplot_fences",
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
    """Upper-tail probability of the chi-square distribution.

    Evaluated through the regularized upper incomplete gamma function;
    accurate to well below 1e-8 over the df <= 100, x <= 200 range used
    by the portmanteau test.
    """
    if x < 0.0:
        raise DomainError("chi-square statistic cannot be negative")
    if df < 1:
        raise ValueError("degrees of freedom must be positive")
    from scipy import special  # here, so that only the fit diagnostics load it

    return float(special.gammaincc(df / 2.0, x / 2.0))


def ljung_box(residuals: TimeSeries, lags, fitted_params: int = 0) -> list[TestResult]:
    """Portmanteau test that residual autocorrelations are jointly zero.

    For each requested lag h computes
    Q = n (n + 2) sum_{k=1..h} rho_k^2 / (n - k)
    and refers it to chi-square with h - fitted_params degrees of freedom.
    """
    lags = [int(h) for h in lags]
    if not lags:
        raise ValueError("need at least one lag")
    n = residuals.n
    for h in lags:
        if h <= fitted_params:
            raise DomainError(f"lag {h} must exceed the {fitted_params} fitted parameters")
        if h >= n:
            raise ValueError(f"lag {h} must be smaller than the series length {n}")
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
    from scipy import special

    cdf = special.ndtr(z)
    i = np.arange(1, n + 1)
    d_plus = np.max(i / n - cdf)
    d_minus = np.max(cdf - (i - 1) / n)
    d = float(max(d_plus, d_minus))
    lam = d * (math.sqrt(n) + 0.12 + 0.11 / math.sqrt(n))
    return TestResult(statistic=d, p_value=_kolmogorov_sf(lam), df_or_n=n, name="ks_normal")


def boxplot_fences(values: TimeSeries) -> list[int]:
    """Index labels of values outside the 1.5-IQR boxplot fences.

    Quartiles use linear interpolation between order statistics.
    """
    if values.n < 4:
        raise ValueError("need at least 4 observations for boxplot fences")
    v = values.values
    q1, q3 = np.percentile(v, [25.0, 75.0])
    iqr = q3 - q1
    lo = q1 - 1.5 * iqr
    hi = q3 + 1.5 * iqr
    flagged = np.flatnonzero((v < lo) | (v > hi))
    return [int(i) + values.start_index for i in flagged]


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
