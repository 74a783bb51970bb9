import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoarima import (
    ArityError,
    BoxCoxParam,
    DegenerateError,
    DomainError,
    LengthError,
    TimeSeries,
    acf,
    box_cox,
    difference,
    integrate,
    pacf,
    select_box_cox,
)
from aoarima.simulate import ArimaOrder, SimSpec, simulate

from conftest import pacf_yule_walker_dense


class TestTimeSeries:
    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError):
            TimeSeries([1.0, float("nan")])
        with pytest.raises(ValueError):
            TimeSeries([1.0, float("inf")])
        with pytest.raises(ValueError):
            TimeSeries([])

    def test_labels_follow_start_index(self):
        ts = TimeSeries([1.0, 2.0, 3.0], start_index=5)
        assert list(ts.labels()) == [5, 6, 7]
        assert ts.position_of(6) == 1
        with pytest.raises(IndexError):
            ts.position_of(8)

    def test_values_are_read_only(self):
        ts = TimeSeries([1.0, 2.0])
        with pytest.raises(ValueError):
            ts.values[0] = 9.0


class TestDifference:
    def test_first_difference(self):
        out = difference(TimeSeries([1.0, 3.0, 6.0]), 1)
        assert out.values.tolist() == [2.0, 3.0]
        assert out.start_index == 2

    def test_second_difference(self):
        out = difference(TimeSeries([1.0, 3.0, 6.0]), 2)
        assert out.values.tolist() == [1.0]

    def test_constant_series(self):
        out = difference(TimeSeries([5.0, 5.0, 5.0, 5.0]), 1)
        assert out.values.tolist() == [0.0, 0.0, 0.0]

    def test_zero_is_identity(self):
        ts = TimeSeries([1.0, 2.0])
        assert difference(ts, 0).values.tolist() == [1.0, 2.0]
        assert difference(ts, 0) is ts  # no copy of an immutable series

    def test_too_short(self):
        with pytest.raises(LengthError):
            difference(TimeSeries([1.0, 2.0]), 2)


class TestIntegrate:
    def test_inverts_first_difference(self):
        out = integrate(TimeSeries([2.0, 3.0], start_index=2), [1.0], 1)
        assert out.values.tolist() == [1.0, 3.0, 6.0]
        assert out.start_index == 1

    def test_d_zero_identity(self):
        ts = TimeSeries([4.0, 5.0])
        assert integrate(ts, [], 0) is ts

    def test_wrong_arity(self):
        with pytest.raises(ArityError):
            integrate(TimeSeries([1.0]), [1.0, 2.0], 1)

    @given(
        values=st.lists(st.integers(min_value=-1000, max_value=1000), min_size=3, max_size=60),
        d=st.integers(min_value=1, max_value=2),
    )
    @settings(max_examples=100)
    def test_round_trip_exact(self, values, d):
        # exactness needs exactly representable increments, hence integers
        ts = TimeSeries([float(v) for v in values])
        diffed = difference(ts, d)
        back = integrate(diffed, ts.values[:d], d)
        assert back.values.tolist() == ts.values.tolist()
        assert back.start_index == ts.start_index
        again = difference(back, d)
        assert again.values.tolist() == diffed.values.tolist()


class TestBoxCox:
    def test_identity_like_lambda(self):
        out = box_cox(TimeSeries([1.0, 2.0, 4.0]), BoxCoxParam(1.0))
        assert out.values.tolist() == [0.0, 1.0, 3.0]

    def test_log_limit(self):
        out = box_cox(TimeSeries([1.0, math.e, math.e ** 2]), BoxCoxParam(0.0))
        assert np.allclose(out.values, [0.0, 1.0, 2.0], atol=1e-12)

    def test_sqrt_case(self):
        out = box_cox(TimeSeries([4.0, 9.0]), BoxCoxParam(0.5))
        assert np.allclose(out.values, [2.0, 4.0])

    def test_requires_positive_values(self):
        with pytest.raises(DomainError):
            box_cox(TimeSeries([1.0, 0.0]), BoxCoxParam(0.5))
        with pytest.raises(DomainError):
            box_cox(TimeSeries([-1.0, 2.0]), BoxCoxParam(1.0))

    def test_continuous_at_zero(self):
        vals = np.linspace(0.5, 10.0, 40)
        near = box_cox(TimeSeries(vals), BoxCoxParam(1e-8)).values
        at = box_cox(TimeSeries(vals), BoxCoxParam(0.0)).values
        assert np.max(np.abs(near - at)) < 1e-6

    def test_grid_selection_returns_candidate(self):
        ts = TimeSeries(np.linspace(1.0, 50.0, 30) ** 2)
        lam = select_box_cox(ts)
        assert lam.lam in (-1.0, -0.5, 0.0, 0.5, 1.0)


class TestAcf:
    def test_lag_zero_is_one(self):
        assert acf(TimeSeries([1.0, 5.0, 2.0, 8.0]), 2)[0] == 1.0

    def test_alternating_series_matches_hand_sum(self):
        vals = [1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0]
        got = acf(TimeSeries(vals), 1)[1]
        # hand-evaluated: mean 0, numerator sum of 7 products each -1, denominator 8
        x = np.asarray(vals) - np.mean(vals)
        oracle = sum(x[t] * x[t + 1] for t in range(7)) / sum(v * v for v in x)
        assert got == pytest.approx(oracle, abs=1e-15)
        assert got < -0.8

    def test_ar1_matches_theory(self):
        y = simulate(SimSpec(order=ArimaOrder(1, 0, 0), n=5000, seed=101, phi=(0.8,)))
        rho1 = acf(y, 1)[1]
        assert abs(rho1 - 0.8) < 0.05

    def test_zero_variance_rejected(self):
        with pytest.raises(DegenerateError):
            acf(TimeSeries([3.0, 3.0, 3.0]), 1)

    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=5, max_size=80))
    @settings(max_examples=100)
    def test_bounded_by_one(self, values):
        x = np.asarray(values)
        try:
            rho = acf(TimeSeries(x), min(10, len(values) - 1))
        except DegenerateError:
            return  # zero (or underflowing) variance is a documented rejection
        assert np.all(np.abs(rho) <= 1.0 + 1e-12)


class TestPacf:
    def test_lag_one_equals_rho_one(self):
        y = simulate(SimSpec(order=ArimaOrder(1, 0, 0), n=400, seed=3, phi=(0.5,)))
        assert pacf(y, 4)[1] == acf(y, 1)[1]

    def test_ar2_cuts_off(self):
        y = simulate(
            SimSpec(order=ArimaOrder(2, 0, 0), n=5000, seed=13, phi=(0.2237, 0.4282))
        )
        p = pacf(y, 6)
        bound = 2.0 / math.sqrt(y.n)
        assert abs(p[1]) > bound and abs(p[2]) > bound
        assert all(abs(v) < bound for v in p[3:])

    def test_ma1_decays(self):
        y = simulate(SimSpec(order=ArimaOrder(0, 0, 1), n=20000, seed=29, theta=(0.8,)))
        p = pacf(y, 6)
        assert abs(p[1]) > abs(p[3]) > abs(p[5])

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_dense_yule_walker_solves(self, seed):
        y = simulate(
            SimSpec(order=ArimaOrder(2, 0, 0), n=300, seed=seed, phi=(0.4, 0.2))
        )
        fast = pacf(y, 20)
        dense = pacf_yule_walker_dense(y, 20)
        assert np.max(np.abs(fast - dense)) < 1e-8
