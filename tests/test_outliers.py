import math
from importlib import resources

import numpy as np
import pytest

from aoarima import (
    ArimaFit,
    ArimaOrder,
    DetectionConfig,
    DomainError,
    EmptyScanError,
    InjectionPlan,
    RankError,
    SimSpec,
    TimeSeries,
    adjust_residuals,
    correct_series,
    detect_iterative,
    fit_ar_ols,
    fit_arima,
    fit_arma_css,
    inject,
    joint_refit,
    ols,
    pi_weights,
    scan,
    simulate,
)
from aoarima.cli import read_series_csv
from aoarima.outliers import OutlierRecord, _stats_all_positions
from aoarima.rng import normals

from conftest import (
    FILTER_MODELS,
    joint_refit_dense,
    lambda_stat,
    make_fit,
    omega_hat,
    pi_weights_loop,
    scan_omega,
    scan_reference,
    scan_tau2,
    tau_squared,
)


def signature_series(pi, n, T, omega):
    """Noise-free residual vector carrying one outlier signature."""
    e = np.zeros(n)
    e[T - 1] = omega
    upto = min(n - T, pi.m)
    e[T:T + upto] = -omega * pi.weights[:upto]
    return TimeSeries(e)


DEMO_PHI = (0.2237, 0.4282)


class TestTauSquared:
    def test_last_position_is_one(self):
        pi = pi_weights(make_fit(phi=(0.7,)), 19)
        assert scan_tau2(pi, 20, 20) == 1.0

    def test_next_to_last(self):
        pi = pi_weights(make_fit(phi=(0.7,)), 19)
        assert scan_tau2(pi, 20, 19) == pytest.approx(1.49)

    def test_matches_bruteforce_sum(self):
        pi = pi_weights(make_fit(phi=DEMO_PHI), 199)
        got = scan_tau2(pi, 200, 1)
        oracle = 1.0
        for j in range(1, 200):
            oracle += float(pi.weights[j - 1]) ** 2
        assert got == pytest.approx(oracle, abs=1e-12)

    def test_out_of_range(self):
        pi = pi_weights(make_fit(phi=(0.5,)), 9)
        with pytest.raises(IndexError):
            tau_squared(pi, 10, 0)
        with pytest.raises(IndexError):
            tau_squared(pi, 10, 11)


class TestOmegaHat:
    def test_last_position_returns_residual(self):
        pi = pi_weights(make_fit(phi=(0.5,)), 9)
        e = TimeSeries(np.arange(1.0, 11.0))
        assert scan_omega(e, pi, 10) == 10.0

    @pytest.mark.parametrize(
        "phi,theta,T",
        [((0.6,), (), 8), ((), (0.5,), 5), ((0.4,), (0.3,), 12), (DEMO_PHI, (), 3)],
    )
    def test_noiseless_signature_recovered_exactly(self, phi, theta, T):
        fit = make_fit(phi=phi, theta=theta)
        pi = pi_weights(fit, 19)
        e = signature_series(pi, 20, T, 5.0)
        assert scan_omega(e, pi, T) == pytest.approx(5.0, abs=1e-12)

    def test_equals_design_column_regression(self, rng):
        fit = make_fit(phi=DEMO_PHI)
        n = 60
        pi = pi_weights(fit, n - 1)
        for _ in range(25):
            e = rng.normal(size=n)
            T = int(rng.integers(1, n + 1))
            column = signature_series(pi, n, T, 1.0).values
            oracle = ols(column.reshape(-1, 1), e).coefficients[0]
            assert scan_omega(TimeSeries(e), pi, T) == pytest.approx(oracle, abs=1e-10)


class TestLambdaStat:
    def test_zero_omega(self):
        assert lambda_stat(0.0, 2.0, 1.0) == 0.0

    def test_arithmetic(self):
        assert lambda_stat(2.0, 4.0, 1.0) == pytest.approx(4.0)

    def test_rejects_bad_sigma(self):
        with pytest.raises(DomainError):
            lambda_stat(1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            lambda_stat(1.0, 0.5, 1.0)

    def test_scale_invariance(self):
        fit = make_fit(phi=(0.5,))
        pi = pi_weights(fit, 49)
        e = TimeSeries(normals(99, 50))
        k = -3.7
        scaled = TimeSeries(k * e.values)
        T = 20
        tau2 = tau_squared(pi, 50, T)
        sigma = math.sqrt(float(e.values @ e.values) / e.n)
        lam = lambda_stat(omega_hat(e, pi, T), tau2, sigma)
        lam_scaled = lambda_stat(omega_hat(scaled, pi, T), tau2, abs(k) * sigma)
        assert abs(lam_scaled) == pytest.approx(abs(lam), abs=1e-8)


class TestScan:
    def test_all_zero_residuals(self):
        pi = pi_weights(make_fit(phi=(0.5,)), 19)
        T, om, lam = scan(TimeSeries(np.zeros(20)), pi, sigma=1.0, margin=1)
        assert (T, om, lam) == (2, 0.0, 0.0)

    def test_single_spike(self):
        pi = pi_weights(make_fit(phi=(0.5,)), 29)
        e = np.zeros(30)
        e[17] = 10.0
        T, om, lam = scan(TimeSeries(e), pi, sigma=1.0)
        assert T == 18
        assert om == pytest.approx(10.0 / scan_tau2(pi, 30, 18))

    def test_planted_signature_found_reliably(self):
        fit = make_fit(phi=DEMO_PHI)
        n = 200
        pi = pi_weights(fit, n - 1)
        sig = signature_series(pi, n, 98, 8.0).values
        hits = 0
        for s in range(200):
            e = TimeSeries(normals(7000 + s, n) + sig)
            T, _, _ = scan(e, pi, sigma=1.0, margin=2)
            hits += T == 98
        assert hits >= 198

    @pytest.mark.parametrize("n", [50, 2000])
    @pytest.mark.parametrize("name", sorted(FILTER_MODELS))
    def test_matches_the_square_root_reference(self, name, n, rng):
        phi, theta, d = FILTER_MODELS[name]
        pi = pi_weights(make_fit(phi=phi, theta=theta, d=d), n - 1)
        for _ in range(4):
            e = TimeSeries(rng.standard_t(df=3, size=n))
            sigma = float(np.std(e.values))
            for margin in (0, 1, 2, 7, n - 3):
                assert scan(e, pi, sigma, margin) == scan_reference(e, pi, sigma, margin)

    def test_exact_tie_goes_to_the_smallest_position(self):
        pi = pi_weights(make_fit(phi=DEMO_PHI), 49)
        e = np.zeros(50)
        e[9], e[29], e[39] = 5.0, -5.0, 5.0  # equal |num| and the same constant tau2 at 10, 30 and 40
        for margin in (0, 9, 10):
            got = scan(TimeSeries(e), pi, 1.0, margin)
            assert got == scan_reference(TimeSeries(e), pi, 1.0, margin)
            assert got[0] == (10 if margin < 10 else 30)

    @pytest.mark.parametrize("scale", [1e-100, 1e100])
    def test_scaled_series_match_the_reference(self, scale, rng):
        phi, theta, d = FILTER_MODELS["arima111"]
        pi = pi_weights(make_fit(phi=phi, theta=theta, d=d), 1999)
        base = rng.normal(size=2000)
        base[700] += 6.0
        e = TimeSeries(base * scale)
        got = scan(e, pi, scale, margin=1)
        assert got == scan_reference(e, pi, scale, margin=1)
        assert got[0] == scan(TimeSeries(base), pi, 1.0, margin=1)[0]

    def test_window_too_small(self):
        pi = pi_weights(make_fit(phi=(0.5,)), 9)
        with pytest.raises(EmptyScanError):
            scan(TimeSeries(np.zeros(10)), pi, sigma=1.0, margin=8)


class TestStatsAllPositions:
    """The backward recursive filter and the kept tau2 against the per-position oracles."""

    @pytest.mark.parametrize("n", [50, 500, 2000])
    @pytest.mark.parametrize("name", sorted(FILTER_MODELS))
    def test_matches_per_position_oracles(self, name, n, rng):
        phi, theta, d = FILTER_MODELS[name]
        fit = make_fit(phi=phi, theta=theta, d=d)
        e = TimeSeries(rng.normal(size=n))
        for pi in (pi_weights(fit, n - 1), pi_weights_loop(fit, n - 1)):  # filter, hand-built taps
            want_tau2 = np.array([tau_squared(pi, n, T) for T in range(1, n + 1)])
            want_num = np.array([omega_hat(e, pi, T) for T in range(1, n + 1)]) * want_tau2
            num, tau2 = _stats_all_positions(e.values, pi)
            assert np.max(np.abs(num - want_num)) <= 1e-12 * np.max(np.abs(want_num))
            assert np.max(np.abs(tau2 - want_tau2)) <= 1e-12 * np.max(want_tau2)

    def test_longer_weights_scan_a_shorter_series(self, rng):
        fit = make_fit(phi=(0.5,), theta=(0.3,), d=1)
        e = TimeSeries(rng.normal(size=30))
        pi = pi_weights(fit, 99)
        num, tau2 = _stats_all_positions(e.values, pi)
        for T in (1, 15, 30):
            assert tau2[T - 1] == pytest.approx(tau_squared(pi, 30, T), rel=1e-12)
            assert num[T - 1] / tau2[T - 1] == pytest.approx(omega_hat(e, pi, T), abs=1e-12)

    def test_too_few_weights_rejected(self):
        pi = pi_weights(make_fit(phi=(0.5,)), 9)
        with pytest.raises(ValueError):
            _stats_all_positions(np.zeros(11), pi)
        with pytest.raises(ValueError):
            scan(TimeSeries(np.zeros(11)), pi, sigma=1.0)


class TestAdjustResiduals:
    def test_zero_magnitude_is_identity(self):
        pi = pi_weights(make_fit(phi=(0.5,)), 9)
        e = TimeSeries(np.arange(10.0))
        out = adjust_residuals(e, 0.0, pi, 5)
        assert np.array_equal(out.values, e.values)

    def test_projection_orthogonality(self, rng):
        fit = make_fit(phi=DEMO_PHI, theta=(0.2,))
        n = 80
        pi = pi_weights(fit, n - 1)
        for T in (1, 17, 52, 79, 80):
            e = TimeSeries(rng.normal(size=n))
            om = omega_hat(e, pi, T)
            adj = adjust_residuals(e, om, pi, T)
            assert omega_hat(adj, pi, T) == pytest.approx(0.0, abs=1e-12)

    def test_noiseless_signature_zeroed(self):
        pi = pi_weights(make_fit(phi=(0.6,)), 19)
        e = signature_series(pi, 20, 8, 5.0)
        out = adjust_residuals(e, 5.0, pi, 8)
        assert np.max(np.abs(out.values)) < 1e-12

    def test_earlier_positions_untouched(self):
        pi = pi_weights(make_fit(phi=(0.6,)), 19)
        e = TimeSeries(np.arange(20.0))
        out = adjust_residuals(e, 3.0, pi, 10)
        assert np.array_equal(out.values[:9], e.values[:9])


class TestDetectIterative:
    def test_clean_frozen_seed_has_no_detections(self):
        y = simulate(SimSpec(order=ArimaOrder(2, 0, 0), n=200, seed=424200, phi=DEMO_PHI))
        fit = fit_ar_ols(y, 2, with_intercept=True)
        res = detect_iterative(y, fit, DetectionConfig())
        assert res.outliers == ()
        assert res.terminated_by == "no_candidate"
        assert res.mse_trail == (fit.mse,)
        assert np.array_equal(res.corrected_series.values, y.values)

    def test_demo_scenario_recovers_planted_positions(self):
        z = simulate(SimSpec(order=ArimaOrder(2, 0, 0), n=200, seed=20180967, phi=DEMO_PHI))
        y = inject(z, InjectionPlan(points=((98, 8.0), (162, -8.0), (180, 6.0))))
        fit = fit_ar_ols(y, 2, with_intercept=True)
        res = detect_iterative(y, fit, DetectionConfig())
        assert [r.T for r in res.outliers] == [98, 162, 180]
        signs = [math.copysign(1.0, r.omega_hat) for r in res.outliers]
        assert signs == [1.0, -1.0, 1.0]
        assert all(abs(r.lambda_hat) > 3.0 for r in res.outliers)

    def test_record_tau2_is_the_signature_norm_at_its_position(self):
        z = simulate(SimSpec(order=ArimaOrder(2, 0, 0), n=200, seed=20180967, phi=DEMO_PHI))
        y = inject(z, InjectionPlan(points=((98, 8.0), (199, 10.0))))  # 199: one weight left
        fit = fit_ar_ols(y, 2, with_intercept=True)
        res = detect_iterative(y, fit, DetectionConfig())
        assert {98, 199} <= {r.T for r in res.outliers}
        pi = pi_weights(fit, 199)
        for rec in res.outliers:
            assert rec.tau2 == pytest.approx(tau_squared(pi, 200, rec.T), rel=1e-12)

    @pytest.mark.parametrize("with_intercept", [True, False])
    def test_intercept_flag_is_not_read_off_a_zero_constant(self, with_intercept):
        z = simulate(SimSpec(order=ArimaOrder(2, 0, 0), n=200, seed=20180967, phi=DEMO_PHI))
        y = inject(z, InjectionPlan(points=((98, 8.0), (162, -8.0), (180, 6.0))))
        fit = make_fit(phi=DEMO_PHI, intercept=0.0, with_intercept=with_intercept)
        res = detect_iterative(y, fit, DetectionConfig())
        times = [r.T for r in res.outliers]
        assert len(res.final_fit.coefficients) == with_intercept + 2 + len(times) > 2
        want = joint_refit(y, times, 2, with_intercept)
        assert (res.final_fit.coefficients, res.final_fit.std_errors) == (want.coefficients, want.std_errors)

    def test_sigma_trail_non_increasing(self):
        z = simulate(SimSpec(order=ArimaOrder(2, 0, 0), n=200, seed=20180967, phi=DEMO_PHI))
        y = inject(z, InjectionPlan(points=((98, 8.0), (162, -8.0), (180, 6.0))))
        fit = fit_ar_ols(y, 2, with_intercept=True)
        res = detect_iterative(y, fit)
        trail = res.sigma_trail
        assert all(trail[i + 1] <= trail[i] + 1e-12 for i in range(len(trail) - 1))
        assert all(s > 0 and math.isfinite(s) for s in trail)

    def test_deterministic(self):
        z = simulate(SimSpec(order=ArimaOrder(2, 0, 0), n=200, seed=20180967, phi=DEMO_PHI))
        y = inject(z, InjectionPlan(points=((98, 8.0),)))
        fit = fit_ar_ols(y, 2, with_intercept=True)
        a = detect_iterative(y, fit, DetectionConfig())
        b = detect_iterative(y, fit, DetectionConfig())
        assert a.outliers == b.outliers
        assert a.sigma_trail == b.sigma_trail
        assert a.mse_trail == b.mse_trail
        assert np.array_equal(a.corrected_series.values, b.corrected_series.values)
        assert a.terminated_by == b.terminated_by

    def test_magnitude_within_three_standard_errors(self):
        hits = 0
        runs = 100
        for s in range(runs):
            z = simulate(SimSpec(order=ArimaOrder(2, 0, 0), n=200, seed=9100 + s, phi=DEMO_PHI))
            y = inject(z, InjectionPlan(points=((98, 8.0),)))
            fit = fit_ar_ols(y, 2, with_intercept=True)
            res = detect_iterative(y, fit, DetectionConfig())
            rec = next((r for r in res.outliers if r.T == 98), None)
            if rec is None:
                continue
            if abs(rec.omega_hat - 8.0) <= 3.0 / math.sqrt(rec.tau2):
                hits += 1
        assert hits >= 95

    def test_max_outliers_guard(self):
        y = simulate(SimSpec(order=ArimaOrder(2, 0, 0), n=40, seed=1, phi=DEMO_PHI))
        fit = fit_ar_ols(y, 2, with_intercept=True)
        with pytest.raises(DomainError):
            detect_iterative(y, fit, DetectionConfig(max_outliers=10))

    def test_max_outliers_termination(self):
        z = simulate(SimSpec(order=ArimaOrder(2, 0, 0), n=200, seed=20180967, phi=DEMO_PHI))
        y = inject(z, InjectionPlan(points=((98, 8.0), (162, -8.0), (180, 6.0))))
        fit = fit_ar_ols(y, 2, with_intercept=True)
        res = detect_iterative(y, fit, DetectionConfig(max_outliers=2))
        assert len(res.outliers) == 2
        assert res.terminated_by == "max_outliers"

    def test_refit_mode_still_finds_planted(self):
        z = simulate(SimSpec(order=ArimaOrder(2, 0, 0), n=200, seed=20180967, phi=DEMO_PHI))
        y = inject(z, InjectionPlan(points=((98, 8.0), (162, -8.0), (180, 6.0))))
        fit = fit_ar_ols(y, 2, with_intercept=True)
        res = detect_iterative(y, fit, DetectionConfig(refit_each_iteration=True))
        assert {r.T for r in res.outliers} >= {98, 162, 180}

    def test_differenced_model_maps_labels_back(self):
        z = simulate(SimSpec(order=ArimaOrder(1, 1, 0), n=200, seed=33, phi=(0.5,)))
        y = inject(z, InjectionPlan(points=((120, 12.0),)))
        fit = fit_arima(y, ArimaOrder(1, 1, 0), with_intercept=False)
        res = detect_iterative(y, fit, DetectionConfig())
        assert any(r.T == 120 for r in res.outliers)
        rec = next(r for r in res.outliers if r.T == 120)
        assert abs(rec.omega_hat - 12.0) < 1.5
        # integrated models skip the indicator regression: before/after pair
        assert len(res.mse_trail) == 2
        assert res.mse_trail[1] < res.mse_trail[0]

    def test_moving_average_model_refits_on_corrected(self):
        y = simulate(
            SimSpec(order=ArimaOrder(1, 0, 1), n=300, seed=5, phi=(0.5,), theta=(0.3,))
        )
        fit = fit_arma_css(y, ArimaOrder(1, 0, 1), with_intercept=True)
        res = detect_iterative(y, fit, DetectionConfig(critical_value=6.0))
        assert res.outliers == ()
        assert isinstance(res.final_fit, ArimaFit)
        assert len(res.mse_trail) == 2

    @pytest.mark.parametrize("margin", [0, 1])
    def test_scan_margin_below_p_rejected_before_the_scan(self, margin):
        # the joint regression has no row for labels 1..p, and the scan would accept label 1
        z = simulate(SimSpec(order=ArimaOrder(2, 0, 0), n=200, seed=20180967, phi=DEMO_PHI))
        y = inject(z, InjectionPlan(points=((1, 15.0), (98, 8.0))))
        fit = fit_ar_ols(y, 2, with_intercept=True)
        with pytest.raises(DomainError, match="scan_margin"):
            detect_iterative(y, fit, DetectionConfig(scan_margin=margin))

    def test_scan_margin_zero_kept_when_the_final_model_is_a_refit(self):
        y = simulate(SimSpec(order=ArimaOrder(1, 1, 0), n=200, seed=33, phi=(0.5,)))
        fit = fit_arima(y, ArimaOrder(1, 1, 0), with_intercept=False)
        res = detect_iterative(y, fit, DetectionConfig(scan_margin=0))
        assert len(res.mse_trail) == 2

    def test_huge_threshold_detects_nothing(self):
        z = simulate(SimSpec(order=ArimaOrder(2, 0, 0), n=200, seed=20180967, phi=DEMO_PHI))
        y = inject(z, InjectionPlan(points=((98, 8.0),)))
        fit = fit_ar_ols(y, 2, with_intercept=True)
        with pytest.warns(UserWarning):
            cfg = DetectionConfig(critical_value=100.0)
        res = detect_iterative(y, fit, cfg)
        assert res.outliers == ()


class TestMseLadder:
    """The ladder read off one decomposition against one joint regression per rung."""

    @staticmethod
    def _check(y, config):
        res = detect_iterative(y, fit_ar_ols(y, 2, with_intercept=True), config)
        labels = [r.T for r in res.outliers]
        assert labels
        ladder = [joint_refit(y, labels[:j], 2, True).mse for j in range(len(labels) + 1)]
        assert np.allclose(res.mse_trail, ladder, rtol=1e-12, atol=0.0)
        full = joint_refit(y, labels, 2, True)
        assert np.allclose(res.final_fit.coefficients, full.coefficients, rtol=1e-12, atol=0.0)
        assert np.allclose(res.final_fit.std_errors, full.std_errors, rtol=1e-12, atol=0.0)

    def test_demo_csv(self):
        y = read_series_csv(str(resources.files("aoarima") / "data" / "demo_series.csv"))
        self._check(y, DetectionConfig())

    def test_seeded_ar2_with_planted_outliers(self):
        z = simulate(SimSpec(order=ArimaOrder(2, 0, 0), n=2000, seed=77, phi=DEMO_PHI))
        plan = InjectionPlan(points=((300, 8.0), (801, -7.0), (1250, 9.0), (1900, -8.0)))
        self._check(inject(z, plan), DetectionConfig(critical_value=4.0))


class TestCorrectSeries:
    def test_empty_list_is_identity(self):
        y = TimeSeries(np.arange(10.0))
        out = correct_series(y, [])
        assert np.array_equal(out.values, y.values)

    def test_exact_recovery(self):
        z = TimeSeries(np.arange(10.0))
        y = TimeSeries(z.values + 7.0 * (np.arange(10) == 4))
        rec = OutlierRecord(T=5, omega_hat=7.0, lambda_hat=9.0, iteration=1, tau2=1.2)
        out = correct_series(y, [rec])
        assert np.array_equal(out.values, z.values)

    def test_out_of_range_label(self):
        y = TimeSeries(np.arange(10.0))
        rec = OutlierRecord(T=11, omega_hat=1.0, lambda_hat=4.0, iteration=1, tau2=1.0)
        with pytest.raises(IndexError):
            correct_series(y, [rec])

    def test_monte_carlo_correction_error(self):
        errs = []
        planted = {98: 8.0, 162: -8.0, 180: 6.0}
        for s in range(50):
            z = simulate(SimSpec(order=ArimaOrder(2, 0, 0), n=200, seed=12000 + s, phi=DEMO_PHI))
            y = inject(z, InjectionPlan(points=tuple(planted.items())))
            fit = fit_ar_ols(y, 2, with_intercept=True)
            res = detect_iterative(y, fit, DetectionConfig())
            for t in planted:
                errs.append(abs(res.corrected_series.values[t - 1] - z.values[t - 1]))
        mean_abs_planted = np.mean([abs(v) for v in planted.values()])
        assert np.mean(errs) < 0.2 * mean_abs_planted


class TestJointRefit:
    def test_no_indicators_equals_plain_fit(self):
        y = simulate(SimSpec(order=ArimaOrder(2, 0, 0), n=300, seed=44, phi=DEMO_PHI))
        plain = fit_ar_ols(y, 2, with_intercept=True)
        joint = joint_refit(y, [], 2, with_intercept=True)
        assert joint.coefficients[0] == pytest.approx(plain.intercept, abs=1e-12)
        assert joint.coefficients[1:] == pytest.approx(plain.phi, abs=1e-12)
        assert joint.mse == pytest.approx(plain.mse, abs=1e-12)

    def test_nested_sse_never_increases(self):
        z = simulate(SimSpec(order=ArimaOrder(2, 0, 0), n=200, seed=20180967, phi=DEMO_PHI))
        y = inject(z, InjectionPlan(points=((98, 8.0), (162, -8.0), (180, 6.0))))
        times = [98, 162, 180]
        sses = [joint_refit(y, times[:k], 2, True).sse for k in range(4)]
        assert all(sses[k + 1] <= sses[k] + 1e-12 for k in range(3))

    def test_last_coefficients_are_magnitudes(self):
        z = simulate(SimSpec(order=ArimaOrder(2, 0, 0), n=200, seed=20180967, phi=DEMO_PHI))
        y = inject(z, InjectionPlan(points=((98, 8.0), (162, -8.0))))
        res = joint_refit(y, [98, 162], 2, True)
        om = res.coefficients[-2:]
        assert om[0] == pytest.approx(8.0, abs=1.5)
        assert om[1] == pytest.approx(-8.0, abs=1.5)

    DENSE_CASES = [
        (200, 20180967, [98, 162, 180], True, 1),
        (200, 20180967, [180, 3, 98, 200], True, 1),  # first and last regression rows
        (120, 5, [40, 41, 42], False, 1),  # adjacent indicators
        (300, 8, [], True, 1),
        (150, 9, [1060, 1010, 1100], True, 1001),  # labels offset by the start index
    ]

    @pytest.mark.parametrize("n, seed, times, with_intercept, start", DENSE_CASES)
    def test_matches_dense_indicator_regression(self, n, seed, times, with_intercept, start):
        z = simulate(SimSpec(order=ArimaOrder(2, 0, 0), n=n, seed=seed, phi=DEMO_PHI))
        y = TimeSeries(z.values + 3.0, start_index=start)
        got = joint_refit(y, times, 2, with_intercept)
        want = joint_refit_dense(y, times, 2, with_intercept)
        for field in ("coefficients", "std_errors"):
            assert np.allclose(getattr(got, field), getattr(want, field), rtol=1e-12, atol=0.0), field
        # exact zeros at the indicator rows against ~1e-16
        tol = 1e-12 * np.abs(y.values).max()
        assert np.allclose(got.residuals, want.residuals, rtol=0.0, atol=tol)
        assert got.sse == pytest.approx(want.sse, rel=1e-12)
        assert got.mse == pytest.approx(want.mse, rel=1e-12)
        assert got.df_residual == want.df_residual

    @pytest.mark.parametrize("n, seed, times, with_intercept, start",
                             DENSE_CASES + [(20_000, 20_000, [3, 5_000, 12_001, 20_000], True, 1)])
    def test_lag_filter_residuals_match_the_regression_residuals(self, n, seed, times, with_intercept, start):
        # differential: the lag-filter residuals against y - X beta from the public ols
        z = simulate(SimSpec(order=ArimaOrder(2, 0, 0), n=n, seed=seed, phi=DEMO_PHI))
        y = TimeSeries(z.values + 3.0, start_index=start)
        k = 1 if with_intercept else 0
        X = np.column_stack([np.ones((n - 2, k)), y.values[1:-1], y.values[:-2]])
        tol = 1e-14 * np.abs(y.values).max()
        fit, want = fit_ar_ols(y, 2, with_intercept), ols(X, y.values[2:])
        assert (fit.intercept,) * k + fit.phi == want.coefficients
        assert np.allclose(fit.residuals.values, want.residuals, rtol=0.0, atol=tol)
        rows = np.array(times, dtype=int) - (start + 2)
        keep = np.ones(n - 2, dtype=bool)
        keep[rows] = False
        got, want = joint_refit(y, times, 2, with_intercept), ols(X[keep], y.values[2:][keep])
        assert got.coefficients[:k + 2] == want.coefficients
        assert np.allclose(got.residuals[keep], want.residuals, rtol=0.0, atol=tol)
        assert np.all(got.residuals[rows] == 0.0)

    @pytest.mark.parametrize("label", [0, 2, 101])
    def test_label_outside_the_rows_rejected(self, label):
        y = simulate(SimSpec(order=ArimaOrder(2, 0, 0), n=100, seed=3, phi=DEMO_PHI))
        with pytest.raises(RankError):
            joint_refit_dense(y, [50, label], 2, True)
        with pytest.raises(RankError):
            joint_refit(y, [50, label], 2, True)

    def test_duplicate_indicators_rejected(self):
        y = simulate(SimSpec(order=ArimaOrder(2, 0, 0), n=100, seed=3, phi=DEMO_PHI))
        with pytest.raises(RankError):
            joint_refit(y, [50, 50], 2, True)
