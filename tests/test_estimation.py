import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg, optimize, signal

from aoarima import (
    ArimaOrder,
    ConvergenceError,
    LengthError,
    NonInvertibleWarning,
    RankError,
    SingularError,
    TimeSeries,
    filter_residuals,
    fit_ar_ols,
    fit_arima,
    fit_arma_css,
    ols,
    pi_weights,
    sigma_hat,
    yule_walker,
)
from aoarima import acf, demo_dataset, difference
from aoarima.estimation import (
    PiWeights,
    _css_residuals,
    _filter_backward,
    _from_pacf,
    _lag_poly,
    _lagged_design,
    _lfilter,
    min_ar_root_modulus,
    min_ma_root_modulus,
)
from aoarima.simulate import SimSpec, simulate

from conftest import (
    FILTER_MODELS,
    css_nelder_mead,
    filter_residuals_fir,
    make_fit,
    normal_equations_ols,
    pi_weights_loop,
)

class TestOls:
    def test_mean_regression(self):
        res = ols(np.ones((3, 1)), [2.0, 4.0, 6.0])
        assert res.coefficients == (4.0,)
        assert res.sse == pytest.approx(8.0)
        assert res.df_residual == 2
        assert res.mse == pytest.approx(4.0)

    def test_exact_fit_has_zero_residuals(self):
        X = np.column_stack([np.ones(5), np.arange(5.0)])
        y = 2.0 + 3.0 * np.arange(5.0)
        res = ols(X, y)
        assert np.max(np.abs(res.residuals)) < 1e-12
        assert res.sse < 1e-20

    def test_matches_independent_elimination(self, rng):
        X = rng.normal(size=(50, 3))
        y = rng.normal(size=50)
        res = ols(X, y)
        oracle = normal_equations_ols(X, y)
        assert np.max(np.abs(np.asarray(res.coefficients) - oracle)) < 1e-8

    def test_row_permutation_invariance(self, rng):
        X = rng.normal(size=(40, 2))
        y = rng.normal(size=40)
        perm = rng.permutation(40)
        a = ols(X, y).coefficients
        b = ols(X[perm], y[perm]).coefficients
        assert np.allclose(a, b, atol=1e-12)

    def test_rank_deficient(self):
        X = np.column_stack([np.ones(10), np.ones(10)])
        with pytest.raises(RankError):
            ols(X, np.arange(10.0))

    def test_underdetermined(self):
        with pytest.raises(RankError):
            ols(np.ones((2, 3)), [1.0, 2.0])


class TestFitArOls:
    def test_noiseless_recursion(self):
        x = [1.0]
        for _ in range(60):
            x.append(0.5 * x[-1])
        fit = fit_ar_ols(TimeSeries(x), 1, with_intercept=False)
        assert fit.phi[0] == pytest.approx(0.5, abs=1e-12)
        assert fit.sse < 1e-20

    def test_recovers_ar2_coefficients(self):
        y = simulate(SimSpec(order=ArimaOrder(2, 0, 0), n=2000, seed=42, phi=(0.2237, 0.4282)))
        fit = fit_ar_ols(y, 2, with_intercept=True)
        assert abs(fit.phi[0] - 0.2237) < 0.05
        assert abs(fit.phi[1] - 0.4282) < 0.05
        assert len(fit.coefficient_std_errors) == 3
        assert fit.residuals.n == y.n - 2
        assert fit.residuals.start_index == 3

    def test_white_noise_coefficient_is_small(self):
        n = 400
        hits = 0
        for s in range(100):
            y = simulate(SimSpec(order=ArimaOrder(0, 0, 0), n=n, seed=1500 + s))
            fit = fit_ar_ols(y, 1, with_intercept=True)
            if abs(fit.phi[0]) < 2.0 / math.sqrt(n):
                hits += 1
        assert hits >= 90

    def test_scaling_exactness(self):
        y = simulate(SimSpec(order=ArimaOrder(1, 0, 0), n=300, seed=5, phi=(0.6,)))
        k = 7.5
        a = fit_ar_ols(y, 1, with_intercept=True)
        b = fit_ar_ols(TimeSeries(k * y.values), 1, with_intercept=True)
        assert np.allclose(a.phi, b.phi, atol=1e-10)
        assert b.intercept == pytest.approx(k * a.intercept, rel=1e-10)
        assert np.allclose(b.residuals.values, k * a.residuals.values, atol=1e-8)
        assert b.mse == pytest.approx(k * k * a.mse, rel=1e-10)

    def test_too_short(self):
        with pytest.raises(LengthError):
            fit_ar_ols(TimeSeries(np.arange(6.0)), 2)

    def test_constant_series_raises_rank_error(self):
        with pytest.raises(RankError):
            fit_ar_ols(TimeSeries(np.ones(30)), 1, with_intercept=True)


class TestYuleWalker:
    def test_order_one_is_rho_one(self):
        y = simulate(SimSpec(order=ArimaOrder(1, 0, 0), n=500, seed=8, phi=(0.4,)))
        assert yule_walker(y, 1)[0] == acf(y, 1)[1]

    def test_agrees_with_ols(self):
        y = simulate(SimSpec(order=ArimaOrder(2, 0, 0), n=5000, seed=21, phi=(0.2237, 0.4282)))
        yw = yule_walker(y, 2)
        f = fit_ar_ols(y, 2, with_intercept=True)
        assert abs(yw[0] - f.phi[0]) < 0.05
        assert abs(yw[1] - f.phi[1]) < 0.05

    def test_constant_plus_noise_is_finite(self):
        noise = simulate(SimSpec(order=ArimaOrder(0, 0, 0), n=200, seed=9, sigma=0.01))
        y = TimeSeries(10.0 + noise.values)
        out = yule_walker(y, 3)
        assert np.all(np.isfinite(out))


class TestFitArmaCss:
    def test_pure_ar_matches_ols(self):
        y = simulate(SimSpec(order=ArimaOrder(2, 0, 0), n=1000, seed=11, phi=(0.2237, 0.4282)))
        a = fit_ar_ols(y, 2, with_intercept=True)
        b = fit_arma_css(y, ArimaOrder(2, 0, 0), with_intercept=True)
        assert abs(a.phi[0] - b.phi[0]) < 1e-4
        assert abs(a.phi[1] - b.phi[1]) < 1e-4
        assert abs(a.intercept - b.intercept) < 1e-4

    def test_ma1_recovery(self):
        hits = 0
        for s in range(50):
            y = simulate(SimSpec(order=ArimaOrder(0, 0, 1), n=4000, seed=300 + s, theta=(0.5,)))
            fit = fit_arma_css(y, ArimaOrder(0, 0, 1), with_intercept=False)
            if 0.4 <= fit.theta[0] <= 0.6:
                hits += 1
        assert hits >= 45

    def test_white_noise_ma_coefficient_small(self):
        n = 1000
        hits = 0
        for s in range(30):
            y = simulate(SimSpec(order=ArimaOrder(0, 0, 0), n=n, seed=900 + s))
            fit = fit_arma_css(y, ArimaOrder(0, 0, 1), with_intercept=False)
            if abs(fit.theta[0]) < 2.0 / math.sqrt(n):
                hits += 1
        assert hits >= 24

    def test_arma11_joint_recovery(self):
        # well-separated pole and zero keep the joint standard errors small
        hits = 0
        for s in range(20):
            y = simulate(
                SimSpec(order=ArimaOrder(1, 0, 1), n=3000, seed=3300 + s, phi=(0.8,), theta=(-0.4,))
            )
            fit = fit_arma_css(y, ArimaOrder(1, 0, 1), with_intercept=False)
            hits += abs(fit.phi[0] - 0.8) < 0.05 and abs(fit.theta[0] + 0.4) < 0.05
        assert hits >= 18

    def test_objective_not_worse_than_start(self):
        y = simulate(
            SimSpec(order=ArimaOrder(1, 0, 1), n=800, seed=17, phi=(0.5,), theta=(0.3,))
        )
        fit = fit_arma_css(y, ArimaOrder(1, 0, 1), with_intercept=True)
        start_phi = yule_walker(y, 1)
        a_start = _css_residuals(y.values, float(y.values.mean()), start_phi, np.zeros(1))
        a_fit = _css_residuals(
            y.values, fit.process_mean, np.asarray(fit.phi), np.asarray(fit.theta)
        )
        assert float(a_fit @ a_fit) <= float(a_start @ a_start) + 1e-9

    def test_differencing_handled_internally(self):
        y = simulate(
            SimSpec(order=ArimaOrder(1, 1, 0), n=600, seed=23, phi=(0.5,))
        )
        fit = fit_arma_css(y, ArimaOrder(1, 1, 0), with_intercept=False)
        assert abs(fit.phi[0] - 0.5) < 0.1
        assert fit.order.d == 1

    # seeds 1093 and 1044 hold a lower basin that a single Yule-Walker start misses
    @pytest.mark.parametrize("p, d, q, phi, theta, extra_seed", [
        (1, 0, 1, (0.5,), (0.3,), 1093),
        (1, 1, 1, (0.5,), (-0.4,), 1005),
        (0, 0, 1, (), (0.6,), 1005),
        (2, 0, 1, (0.5, -0.3), (0.4,), 1044),
    ])
    def test_sse_not_above_nelder_mead_oracle(self, p, d, q, phi, theta, extra_seed):
        order = ArimaOrder(p, d, q)
        compared = 0
        for s in (1000, 1001, 1002, 1003, 1004, extra_seed):
            y = simulate(SimSpec(order=order, n=200, seed=s, phi=phi, theta=theta))
            fit = fit_arma_css(y, order, with_intercept=True)
            sse, _, phi_o, theta_o = css_nelder_mead(y, order, with_intercept=True)
            if min_ar_root_modulus(phi_o) > 1 + 1e-6 and min_ma_root_modulus(theta_o) > 1 + 1e-6:
                compared += 1
                assert fit.sse <= sse * (1 + 1e-8)
        assert compared >= 4

    def test_solver_failure_raises_convergence_error(self, monkeypatch):
        real = optimize.least_squares  # fit_arma_css imports scipy.optimize when it runs
        monkeypatch.setattr(optimize, "least_squares",
                            lambda *args, **kw: real(*args, **{**kw, "max_nfev": 1}))
        y = simulate(SimSpec(order=ArimaOrder(1, 0, 1), n=200, seed=3, phi=(0.5,), theta=(0.3,)))
        with pytest.raises(ConvergenceError):
            fit_arma_css(y, ArimaOrder(1, 0, 1), with_intercept=True)

    def test_non_invertible_optimum_stops_on_boundary(self):
        # the unconstrained optimum has theta = 1.0603 (MA root modulus 0.943)
        y = simulate(SimSpec(order=ArimaOrder(1, 0, 1), n=200, seed=2, phi=(0.5,), theta=(0.6,)))
        with pytest.warns(NonInvertibleWarning):
            fit = fit_arma_css(y, ArimaOrder(1, 0, 1), with_intercept=True)
        assert min_ma_root_modulus(fit.theta) >= 1.0
        assert fit.theta[0] > 1.0 - 1e-6

    def test_std_errors_match_finite_difference_jacobian(self):
        y, _, _ = demo_dataset()
        fit = fit_arma_css(y, ArimaOrder(1, 0, 1), with_intercept=True)
        coef = np.array([fit.intercept, *fit.phi, *fit.theta])

        def resid(c):
            return _css_residuals(y.values, c[0] / (1.0 - c[1]), c[1:2], c[2:])

        h = 1e-6
        J = np.column_stack([(resid(coef + h * e) - resid(coef - h * e)) / (2 * h) for e in np.eye(3)])
        std = np.sqrt(np.diag(fit.mse * np.linalg.inv(J.T @ J)))
        assert np.allclose(fit.coefficient_std_errors, std, rtol=1e-4, atol=0.0)
        assert np.allclose(fit.coefficient_std_errors, (0.05104, 0.14402, 0.17939), rtol=1e-3)

    @given(z=st.lists(st.floats(min_value=-5.0, max_value=5.0), min_size=1, max_size=4))
    @settings(max_examples=100)
    def test_pacf_map_is_stationary_with_exact_jacobian(self, z):
        z = np.asarray(z)
        coef, jac = _from_pacf(z)
        assert min_ar_root_modulus(coef) > 1.0
        h = 1e-6
        fd = np.column_stack([(_from_pacf(z + h * e)[0] - _from_pacf(z - h * e)[0]) / (2 * h)
                              for e in np.eye(z.size)])
        assert np.max(np.abs(jac - fd)) < 1e-6

    def test_dispatcher_routes_orders(self):
        y = simulate(SimSpec(order=ArimaOrder(1, 0, 0), n=400, seed=31, phi=(0.5,)))
        assert fit_arima(y, ArimaOrder(1, 0, 0)).theta == ()
        mixed = fit_arima(y, ArimaOrder(1, 0, 1))
        assert len(mixed.theta) == 1


class TestRootModulus:
    def test_negligible_top_coefficient_keeps_the_other_roots(self):
        # 1 - 0.3 z - 0.5 z^2 has its smallest root at (sqrt(2.09) - 0.3) / 1.0
        expected = math.sqrt(2.09) - 0.3
        assert min_ar_root_modulus([0.3, 0.5, 1e-100]) == pytest.approx(expected, rel=1e-12)
        assert min_ma_root_modulus([0.3, 0.5, 5e-320]) == pytest.approx(expected, rel=1e-12)

    def test_degree_zero_and_zero_coefficients(self):
        assert min_ar_root_modulus([]) == math.inf
        assert min_ar_root_modulus([0.0, 0.0]) == math.inf
        assert min_ma_root_modulus([2.0]) == 0.5


class TestPiWeights:
    def test_pure_ar_weights_equal_phi(self):
        fit = make_fit(phi=(0.7,))
        w = pi_weights(fit, 5).weights
        assert w.tolist() == [0.7, 0.0, 0.0, 0.0, 0.0]

    def test_ma1_matches_long_division(self):
        fit = make_fit(theta=(0.5,))
        got = pi_weights(fit, 6).weights
        # long division of 1 by (1 - 0.5 B), independent implementation:
        # remainder r starts at 1; each step emits r * 0.5
        oracle = []
        r = 1.0
        for _ in range(6):
            r = r * 0.5
            oracle.append(-r)
        assert np.allclose(got, oracle, atol=1e-12)

    def test_pure_integration(self):
        fit = make_fit(d=1)
        assert pi_weights(fit, 4).weights.tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_binomial_expansion_for_d2(self):
        fit = make_fit(d=2)
        assert pi_weights(fit, 4).weights.tolist() == [2.0, -1.0, 0.0, 0.0]

    @given(
        phi=st.lists(st.floats(min_value=-0.9, max_value=0.9), min_size=0, max_size=3),
        theta=st.lists(st.floats(min_value=-0.9, max_value=0.9), min_size=0, max_size=3),
        d=st.integers(min_value=0, max_value=2),
    )
    @settings(max_examples=100)
    def test_polynomial_identity(self, phi, theta, d):
        # pi(B) theta(B) must reproduce phi(B) (1-B)^d term by term;
        # holds as polynomial algebra even for non-invertible theta draws
        m = 12
        fit = make_fit(phi=phi, theta=theta, d=d)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            w = pi_weights(fit, m).weights
        pi_poly = np.concatenate([[1.0], -w])
        th_poly = np.concatenate([[1.0], -np.asarray(theta, float)])
        product = np.convolve(pi_poly, th_poly)[: m + 1]
        target = np.concatenate([[1.0], -np.asarray(phi, float)])
        for _ in range(d):
            target = np.convolve(target, [1.0, -1.0])
        target = np.concatenate([target, np.zeros(m + 1 - target.size)])[: m + 1]
        assert np.max(np.abs(product - target)) < 1e-10


class TestFilterResiduals:
    def test_zero_model_returns_centered_input(self):
        y = simulate(SimSpec(order=ArimaOrder(0, 0, 0), n=50, seed=2))
        fit = make_fit()
        e = filter_residuals(y, fit)
        assert np.array_equal(e.values, y.values)

    def test_noiseless_ar1_residuals_vanish(self):
        x = [1.0]
        for _ in range(40):
            x.append(0.8 * x[-1])
        fit = make_fit(phi=(0.8,))
        e = filter_residuals(TimeSeries(x), fit)
        assert np.max(np.abs(e.values[1:])) < 1e-10

    def test_matches_regression_residuals(self):
        y = simulate(SimSpec(order=ArimaOrder(2, 0, 0), n=500, seed=6, phi=(0.2237, 0.4282)))
        fit = fit_ar_ols(y, 2, with_intercept=True)
        e = filter_residuals(y, fit)
        assert e.n == y.n
        assert np.max(np.abs(e.values[2:] - fit.residuals.values)) < 1e-8


class TestRecursiveFilterAgainstFir:
    """The impulse-response weights and the recursive filter against the loop and FIR oracles."""

    @staticmethod
    def _case(name, n):
        phi, theta, d = FILTER_MODELS[name]
        y = simulate(SimSpec(order=ArimaOrder(len(phi), d, len(theta)), n=n, seed=n + d,
                             phi=phi, theta=theta, intercept=0.4))
        return y, make_fit(phi=phi, theta=theta, d=d, intercept=0.4, with_intercept=True)

    @pytest.mark.parametrize("n", [50, 500])
    @pytest.mark.parametrize("name", sorted(FILTER_MODELS))
    def test_pi_weights_match_loop(self, name, n):
        _, fit = self._case(name, n)
        got = pi_weights(fit, n - 1).weights
        want = pi_weights_loop(fit, n - 1).weights
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("n", [50, 500])
    @pytest.mark.parametrize("name", sorted(FILTER_MODELS))
    def test_filter_residuals_match_fir(self, name, n):
        y, fit = self._case(name, n)
        got = filter_residuals(y, fit)
        want = filter_residuals_fir(y, fit)
        assert got.start_index == want.start_index
        assert np.max(np.abs(got.values - want.values)) <= 1e-12 * np.max(np.abs(want.values))

    @pytest.mark.parametrize("name", ["ar2", "arima120"])
    def test_pure_ar_weights_are_exact_and_short(self, name):
        phi, _, d = FILTER_MODELS[name]
        fit = make_fit(phi=phi, d=d)
        pi = pi_weights(fit, 499)
        assert np.array_equal(pi.weights, pi_weights_loop(fit, 499).weights)
        assert pi._support == len(phi) + d  # non-zero weights, the taps adjust_residuals touches

    def test_single_observation_passes_through(self):
        fit = make_fit(phi=(0.5,), theta=(0.3,), intercept=0.5, with_intercept=True)
        assert filter_residuals(TimeSeries([3.0]), fit).values.tolist() == [2.0]


class TestNumpyPathAgainstScipy:
    """The numpy-only AR path against the scipy calls it replaced, bit for bit."""

    AR_MODELS = sorted(name for name, (_, theta, _) in FILTER_MODELS.items() if not theta)

    @pytest.mark.parametrize("n", [3, 4, 5, 50, 2000])  # shorter than, as long as, longer than the filter
    @pytest.mark.parametrize("name", AR_MODELS)
    def test_fir_filters_equal_lfilter(self, name, n):
        phi, _, d = FILTER_MODELS[name]
        fit = make_fit(phi=phi, d=d, intercept=0.4, with_intercept=True)
        x = simulate(SimSpec(order=ArimaOrder(len(phi), 0, 0), n=n, seed=n, phi=phi, intercept=0.4))
        pi = pi_weights(fit, n - 1)
        impulse = np.concatenate([[1.0], np.zeros(n - 1)])
        assert np.array_equal(pi.weights, -signal.lfilter(*pi._filter, impulse)[1:])
        w = difference(x, d).values - fit.process_mean
        assert np.array_equal(filter_residuals(x, fit).values, signal.lfilter(_lag_poly(phi), [1.0], w))
        e = x.values
        assert np.array_equal(_filter_backward(e, pi), signal.lfilter(*pi._filter, e[::-1])[::-1])

    @pytest.mark.parametrize("weights", [(0.7,), (0.5, 0.3), (0.4, 0.0, -0.2, 0.0, 0.0), (0.0, 0.0)])
    def test_backward_filter_of_hand_built_weights(self, weights):
        pi = PiWeights(weights=weights, m=len(weights))
        for n in range(1, len(weights) + 2):
            e = np.random.default_rng(n).normal(size=n)
            want = signal.lfilter(_lag_poly(pi.weights[:pi._support]), [1.0], e[::-1])[::-1]
            assert np.array_equal(_filter_backward(e, pi), want)

    def test_one_value_and_empty_series(self):
        fit = make_fit(phi=(0.5, 0.3), intercept=0.5, with_intercept=True)
        got = filter_residuals(TimeSeries([3.0]), fit).values
        assert np.array_equal(got, signal.lfilter([1.0, -0.5, -0.3], [1.0], [3.0 - fit.process_mean]))
        assert _lfilter([1.0, -0.5], [1.0], np.zeros(0)).size == 0

    @staticmethod
    def _scipy_r(X, y):
        xy = np.asfortranarray(np.column_stack([X, y]))
        return np.triu(linalg.lapack.dgeqrf(xy, overwrite_a=True)[0][:X.shape[1] + 1])

    @pytest.mark.parametrize("source", ["demo", "ar2_n20000"])
    @pytest.mark.parametrize("with_intercept", [True, False])
    def test_ols_factor_equals_scipy_dgeqrf(self, source, with_intercept):
        if source == "demo":
            x = demo_dataset()[0]
        else:
            x = simulate(SimSpec(order=ArimaOrder(2, 0, 0), n=20_000, seed=20_000, phi=(0.5, 0.3)))
        X, y = _lagged_design(x.values, 2, with_intercept)
        res = ols(X, y)
        assert np.array_equal(res._r, self._scipy_r(X, y))
        assert np.array_equal(ols(np.ascontiguousarray(X), y)._r, res._r)

    def test_ols_still_raises_on_rank_deficient_design(self):
        x = simulate(SimSpec(order=ArimaOrder(2, 0, 0), n=20_000, seed=20_000, phi=(0.5, 0.3)))
        X, y = _lagged_design(x.values, 2, True)
        with pytest.raises(RankError):
            ols(np.column_stack([X, 2.0 * X[:, 1]]), y)


class TestSigmaHat:
    def test_zeros(self):
        assert sigma_hat(TimeSeries([0.0, 0.0, 0.0])) == 0.0

    def test_direct_arithmetic(self):
        assert sigma_hat(TimeSeries([3.0, -4.0])) == pytest.approx(12.5)

    def test_law_of_large_numbers(self):
        y = simulate(SimSpec(order=ArimaOrder(0, 0, 0), n=10000, seed=71, sigma=2.0))
        assert 3.8 < sigma_hat(y) < 4.2
