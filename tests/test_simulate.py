import math
from importlib import resources

import numpy as np
import pytest
from scipy import signal

from aoarima import (
    ArimaOrder,
    DetectionConfig,
    InjectionPlan,
    SimSpec,
    StabilityError,
    TimeSeries,
    acf,
    correct_series,
    demo_dataset,
    detect_iterative,
    fit_ar_ols,
    inject,
    simulate,
)
from aoarima.estimation import _lag_poly
from aoarima.outliers import OutlierRecord
from aoarima.rng import normals, uniforms
from aoarima.simulate import _ar_recursion


class TestRngStreams:
    def test_uniforms_deterministic_and_in_range(self):
        a = uniforms(123, 1000)
        b = uniforms(123, 1000)
        assert np.array_equal(a, b)
        assert np.all((0.0 <= a) & (a < 1.0))

    def test_uniform_moments(self):
        u = uniforms(7, 200000)
        assert abs(u.mean() - 0.5) < 0.005
        assert abs(u.var() - 1.0 / 12.0) < 0.002

    def test_normal_moments(self):
        z = normals(9, 200000)
        assert abs(z.mean()) < 0.01
        assert abs(z.var() - 1.0) < 0.02

    def test_distinct_seeds_differ(self):
        assert not np.array_equal(uniforms(1, 100), uniforms(2, 100))

    def test_prefix_stability(self):
        # a longer draw starts with the shorter draw: counter-based stream
        assert np.array_equal(uniforms(5, 10), uniforms(5, 50)[:10])


class TestSimulate:
    def test_zero_noise_constant(self):
        spec = SimSpec(order=ArimaOrder(0, 0, 0), n=25, seed=1, intercept=5.0, sigma=0.0)
        out = simulate(spec)
        assert np.array_equal(out.values, np.full(25, 5.0))

    def test_bit_identical_repeats(self):
        spec = SimSpec(order=ArimaOrder(2, 0, 0), n=300, seed=99, phi=(0.2237, 0.4282))
        assert np.array_equal(simulate(spec).values, simulate(spec).values)

    def test_acf_matches_yule_walker_theory(self):
        phi1, phi2 = 0.2237, 0.4282
        spec = SimSpec(order=ArimaOrder(2, 0, 0), n=100000, seed=123, phi=(phi1, phi2))
        y = simulate(spec)
        rho1_theory = phi1 / (1.0 - phi2)
        assert abs(acf(y, 1)[1] - rho1_theory) < 0.02

    def test_mean_converges_to_process_mean(self):
        mu = 3.0
        phi = (0.2237, 0.4282)
        spec = SimSpec(
            order=ArimaOrder(2, 0, 0), n=20000, seed=77, phi=phi,
            intercept=mu * (1.0 - sum(phi)),
        )
        y = simulate(spec)
        assert abs(y.values.mean() - mu) < 3.0 / math.sqrt(20000)

    def test_explosive_ar_rejected(self):
        spec = SimSpec(order=ArimaOrder(1, 0, 0), n=50, seed=1, phi=(1.2,))
        with pytest.raises(StabilityError):
            simulate(spec)

    def test_noninvertible_ma_rejected(self):
        spec = SimSpec(order=ArimaOrder(0, 0, 1), n=50, seed=1, theta=(1.5,))
        with pytest.raises(StabilityError):
            simulate(spec)

    def test_default_burn_in(self):
        spec = SimSpec(order=ArimaOrder(2, 0, 1), n=10, seed=1, phi=(0.1, 0.1), theta=(0.2,))
        assert spec.effective_burn_in == 103

    @pytest.mark.parametrize("phi", [(0.5,), (0.2237, 0.4282), (-0.9,), (1.2, -0.5), (0.3, 0.2, 0.1, 0.05, -0.2)])
    def test_ar_recursion_is_lfilter_bit_for_bit(self, phi):
        # the seeded series and every golden are lfilter's rounding, which the plain loop keeps
        phi = np.asarray(phi)
        for seed in range(40):
            s = normals(seed, 300) + 0.3 * (seed % 2)
            assert np.array_equal(_ar_recursion(phi, s), signal.lfilter([1.0], _lag_poly(phi), s))

    def test_integration_gives_random_walk(self):
        spec = SimSpec(order=ArimaOrder(0, 1, 0), n=500, seed=55, burn_in=0)
        walk = simulate(spec)
        steps = np.diff(walk.values)
        innov = normals(55, 500)
        assert np.allclose(steps, innov[1:], atol=1e-12)


class TestInject:
    def test_empty_plan_identity(self):
        y = TimeSeries(np.arange(5.0))
        out = inject(y, InjectionPlan(points=()))
        assert np.array_equal(out.values, y.values)

    def test_inject_then_correct_round_trip(self):
        raw = simulate(SimSpec(order=ArimaOrder(1, 0, 0), n=100, seed=4, phi=(0.5,)))
        # quantize so that adding/removing dyadic magnitudes is exact in floats
        y = TimeSeries(np.round(raw.values * 2.0 ** 40) / 2.0 ** 40)
        plan = InjectionPlan(points=((10, 3.5), (40, -2.0)))
        contaminated = inject(y, plan)
        records = [
            OutlierRecord(T=t, omega_hat=w, lambda_hat=9.0, iteration=1, tau2=1.0)
            for t, w in plan.points
        ]
        recovered = correct_series(contaminated, records)
        assert np.array_equal(recovered.values, y.values)

    def test_only_planned_positions_change(self):
        zeros = TimeSeries(np.zeros(200))
        out = inject(zeros, InjectionPlan(points=((98, 8.0), (162, -6.0))))
        nonzero = np.flatnonzero(out.values)
        assert nonzero.tolist() == [97, 161]

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            InjectionPlan(points=((5, 1.0), (5, 2.0)))

    def test_out_of_range_rejected(self):
        y = TimeSeries(np.zeros(10))
        with pytest.raises(IndexError):
            inject(y, InjectionPlan(points=((11, 1.0),)))


class TestDemoDataset:
    def test_shape_and_determinism(self):
        y1, plan1, spec1 = demo_dataset()
        y2, plan2, spec2 = demo_dataset()
        assert y1.n == 200
        assert np.array_equal(y1.values, y2.values)
        assert plan1 == plan2 and spec1 == spec2
        assert plan1.points == ((98, 8.0), (162, -8.0), (180, 6.0))

    def test_matches_packaged_csv(self):
        y, _, _ = demo_dataset()
        text = resources.files("aoarima").joinpath("data/demo_series.csv").read_text()
        lines = text.strip().splitlines()
        assert lines[0] == "value"
        values = [float(v) for v in lines[1:]]
        assert values == y.values.tolist()

    def test_detection_recovers_planted_positions(self):
        y, plan, _ = demo_dataset()
        fit = fit_ar_ols(y, 2, with_intercept=True)
        res = detect_iterative(y, fit, DetectionConfig())
        assert {r.T for r in res.outliers} == {t for t, _ in plan.points}
