import math

import numpy as np
import pytest
from scipy import special
from scipy.special import ndtri

from aoarima import (
    ArimaOrder,
    DegenerateError,
    DomainError,
    LengthError,
    SimSpec,
    TimeSeries,
    chi_square_sf,
    comparison_table,
    ks_normal,
    ljung_box,
    simulate,
)
from aoarima.diagnostics import _ndtr


def chi_square_sf_quadrature(x, df, steps=200000):
    """Survival probability by composite-trapezoid integration of the density."""
    if x == 0.0:
        return 1.0
    upper = max(x + 60.0 * math.sqrt(2.0 * df) + 100.0, 400.0)
    t = np.linspace(x, upper, steps)
    halfdf = df / 2.0
    log_norm = halfdf * math.log(2.0) + math.lgamma(halfdf)
    dens = np.exp((halfdf - 1.0) * np.log(t) - t / 2.0 - log_norm)
    return float(np.trapezoid(dens, t))


class TestChiSquareSf:
    def test_at_zero(self):
        assert chi_square_sf(0.0, 5) == 1.0

    def test_df2_closed_form(self):
        assert chi_square_sf(2.0 * math.log(2.0), 2) == pytest.approx(0.5, abs=1e-12)

    def test_df10_tail(self):
        assert chi_square_sf(18.307, 10) == pytest.approx(0.05, abs=1e-3)

    @pytest.mark.parametrize("df", [1, 2, 5, 10, 50, 100])
    def test_matches_quadrature(self, df):
        for x in (0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 60.0, 120.0, 200.0):
            assert chi_square_sf(x, df) == pytest.approx(
                chi_square_sf_quadrature(x, df), abs=1e-6
            )

    def test_strictly_decreasing(self):
        xs = np.linspace(0.0, 60.0, 200)
        vals = [chi_square_sf(float(x), 7) for x in xs]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            chi_square_sf(-0.1, 3)


class TestAgainstScipySpecial:
    """The closed forms against the scipy.special functions they replaced, 1e-12 relative."""

    def test_chi_square_sf_matches_gammaincc(self):
        xs = np.concatenate([[1e-9, 1e-3], np.linspace(0.0, 400.0, 801)])
        for df in range(1, 101):
            got = np.array([chi_square_sf(float(x), df) for x in xs])
            np.testing.assert_allclose(got, special.gammaincc(df / 2.0, xs / 2.0), rtol=1e-12, atol=0.0)

    def test_ndtr_matches_scipy(self):
        z = np.linspace(-38.0, 38.0, 7601)
        # scipy flushes the tail below the smallest normal number (z < -37.6) to 0
        np.testing.assert_allclose(_ndtr(z), special.ndtr(z), rtol=1e-12, atol=np.finfo(float).tiny)

    def test_rejects_fractional_df(self):
        with pytest.raises(ValueError):
            chi_square_sf(1.0, 2.5)


class TestLjungBox:
    def test_orthogonal_sequence_gives_zero(self):
        # +1 and -1 at the two ends: mean exactly 0 and every lagged
        # product below the full span is exactly 0
        x = np.zeros(40)
        x[0], x[-1] = 1.0, -1.0
        res = ljung_box(TimeSeries(x), [1, 6, 12], fitted_params=0)
        assert all(r.statistic == 0.0 for r in res)
        assert all(r.p_value == 1.0 for r in res)

    def test_monotone_in_lag(self):
        y = simulate(SimSpec(order=ArimaOrder(0, 0, 0), n=300, seed=40))
        stats = [r.statistic for r in ljung_box(y, [4, 8, 16, 24], 0)]
        assert all(b >= a for a, b in zip(stats, stats[1:]))
        assert all(s >= 0.0 for s in stats)

    def test_null_calibration(self):
        rejections = 0
        seeds = 500
        for s in range(seeds):
            y = simulate(SimSpec(order=ArimaOrder(0, 0, 0), n=500, seed=50000 + s))
            (res,) = ljung_box(y, [12], fitted_params=0)
            rejections += res.p_value < 0.05
        assert 0.02 <= rejections / seeds <= 0.08

    def test_power_against_autocorrelation(self):
        rejections = 0
        for s in range(50):
            y = simulate(SimSpec(order=ArimaOrder(1, 0, 0), n=500, seed=60000 + s, phi=(0.9,)))
            (res,) = ljung_box(y, [12], fitted_params=0)
            rejections += res.p_value < 0.01
        assert rejections == 50

    def test_lag_must_exceed_fitted_params(self):
        y = simulate(SimSpec(order=ArimaOrder(0, 0, 0), n=100, seed=1))
        with pytest.raises(DomainError):
            ljung_box(y, [2], fitted_params=2)

    def test_lag_must_be_below_the_series_length(self):
        y = simulate(SimSpec(order=ArimaOrder(0, 0, 0), n=29, seed=1))
        assert len(ljung_box(y, [28])) == 1
        with pytest.raises(LengthError):
            ljung_box(y, [12, 29])

    def test_df_accounting(self):
        y = simulate(SimSpec(order=ArimaOrder(0, 0, 0), n=200, seed=2))
        res = ljung_box(y, [12, 24], fitted_params=2)
        assert [r.df_or_n for r in res] == [10, 22]
        assert all(r.name == "ljung_box" for r in res)


class TestKsNormal:
    def test_exact_normal_quantiles(self):
        n = 100
        x = ndtri((np.arange(1, n + 1) - 0.5) / n)
        res = ks_normal(TimeSeries(x))
        assert res.statistic < 0.01
        assert res.p_value > 0.99
        assert res.name == "ks_normal"

    def test_matches_bruteforce_sup(self):
        y = simulate(SimSpec(order=ArimaOrder(0, 0, 0), n=60, seed=88))
        res = ks_normal(y)
        # independent recomputation: evaluate the empirical-vs-normal gap
        # on both sides of every jump of the empirical CDF
        x = np.sort(y.values)
        mu, sd = x.mean(), x.std(ddof=1)
        sup = 0.0
        for i, xi in enumerate(x, start=1):
            z = (xi - mu) / sd
            phi = 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
            sup = max(sup, abs(i / len(x) - phi), abs((i - 1) / len(x) - phi))
        assert res.statistic == pytest.approx(sup, abs=1e-12)

    def test_affine_invariance(self):
        y = simulate(SimSpec(order=ArimaOrder(0, 0, 0), n=120, seed=90))
        base = ks_normal(y).statistic
        moved = ks_normal(TimeSeries(3.5 * y.values + 11.0)).statistic
        assert moved == pytest.approx(base, abs=1e-10)

    def test_outlier_magnitude_monotonicity(self):
        y = simulate(SimSpec(order=ArimaOrder(0, 0, 0), n=150, seed=91))
        stats = []
        for mag in (4.0, 6.0, 8.0, 10.0):
            x = np.concatenate([y.values, [mag]])
            stats.append(ks_normal(TimeSeries(x)).statistic)
        assert all(b > a for a, b in zip(stats, stats[1:]))

    def test_tiny_sample_rejected(self):
        with pytest.raises(DegenerateError):
            ks_normal(TimeSeries([1.0]))

    def test_zero_spread_rejected(self):
        with pytest.raises(DegenerateError):
            ks_normal(TimeSeries(np.ones(20)))


class _Row:
    def __init__(self, mse):
        self.mse = mse


class TestComparisonTable:
    def test_single_row(self):
        table = comparison_table([("baseline", _Row(4.0))])
        assert table.improvement_pct == 0.0

    def test_reference_ladder(self):
        ladder = [36.780, 28.194, 22.808, 19.365]
        table = comparison_table(
            [(f"{i} indicators", _Row(m)) for i, m in enumerate(ladder)],
            omegas=[(), (0.010215,), (-0.0227,), (-0.06622,)],
        )
        assert table.improvement_pct == pytest.approx(47.349, abs=0.01)
        assert round(table.improvement_pct, 2) == 47.35
        assert abs(table.improvement_pct - 47.34) < 0.02
        assert table.rows[-1][1] == 19.365

    def test_decreasing_trail_improves(self):
        for trail in ([5.0, 4.0, 3.0], [2.0, 1.5], [10.0, 9.9, 9.0, 1.0]):
            table = comparison_table([(str(i), _Row(m)) for i, m in enumerate(trail)])
            assert table.improvement_pct > 0.0

    def test_row_count_validation(self):
        with pytest.raises(ValueError):
            comparison_table([])
        with pytest.raises(ValueError):
            comparison_table([("a", _Row(1.0))], omegas=[(), ()])
