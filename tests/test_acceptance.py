"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.

Criteria 4 and 5 are asserted at their stated thresholds with the
default critical value of 3.0. Measured behavior of the scan (about 196
near-standard-normal positions per series at n = 200) puts the exact-set
detection rate near 70% and the family-wise false-alarm rate near 39%,
so those two assertions fail; raising the threshold to about 3.5-3.7
meets both stated rates (see scripts/threshold_study.py). The thresholds
here are kept as stated rather than tuned.
"""

import json
import math
import os
import time
from importlib import resources

import numpy as np
import pytest

from aoarima import (
    ArimaOrder,
    DetectionConfig,
    InjectionPlan,
    SimSpec,
    TimeSeries,
    adjust_residuals,
    chi_square_sf,
    demo_dataset,
    detect_iterative,
    difference,
    fit_ar_ols,
    inject,
    integrate,
    joint_refit,
    ks_normal,
    ljung_box,
    ols,
    pi_weights,
    simulate,
)
from aoarima.cli import main
from aoarima.outliers import _stats_all_positions
from aoarima.rng import normals
from scipy.special import ndtri

from conftest import make_fit, scan_omega
from test_diagnostics import chi_square_sf_quadrature

DEMO_PHI = (0.2237, 0.4282)
PLAN = ((98, 8.0), (162, -8.0), (180, 6.0))


def _verdict(num: int, desc: str, ok: bool, detail: str, t0: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] acceptance {num}: {desc} -- {detail} ({time.perf_counter() - t0:.2f}s)")
    assert ok, f"acceptance {num} ({desc}): {detail}"


def _signature(pi, n, T, omega):
    e = np.zeros(n)
    e[T - 1] = omega
    upto = min(n - T, pi.m)
    e[T:T + upto] = -omega * pi.weights[:upto]
    return e


def test_criterion_1_exact_omega_recovery():
    t0 = time.perf_counter()
    worst_recover = 0.0
    worst_orth = 0.0
    cases = [
        ((0.6,), (), 0), ((), (0.5,), 0), ((0.4, 0.3), (), 0),
        (DEMO_PHI, (), 0), ((0.5,), (0.4,), 0), ((0.3,), (), 1),
    ]
    for phi, theta, d in cases:
        fit = make_fit(phi=phi, theta=theta, d=d)
        n = 40
        pi = pi_weights(fit, n - 1)
        for T in (1, 7, 20, 39, 40):
            e = TimeSeries(_signature(pi, n, T, 5.0))
            got = scan_omega(e, pi, T)
            worst_recover = max(worst_recover, abs(got - 5.0))
            adjusted = adjust_residuals(e, got, pi, T)
            worst_orth = max(worst_orth, abs(scan_omega(adjusted, pi, T)))
    elapsed = time.perf_counter() - t0
    ok = worst_recover < 1e-12 and worst_orth < 1e-12 and elapsed < 1.0
    _verdict(
        1, "exact magnitude recovery on noiseless signatures", ok,
        f"max recovery error {worst_recover:.2e}, max post-adjustment estimate "
        f"{worst_orth:.2e}, runtime {elapsed:.3f}s (< 1s required)", t0,
    )


def test_criterion_2_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    fit = make_fit(phi=DEMO_PHI, theta=(0.2,))
    n = 60
    pi = pi_weights(fit, n - 1)
    worst_omega = 0.0
    for _ in range(100):
        e = rng.normal(size=n)
        T = int(rng.integers(1, n + 1))
        column = _signature(pi, n, T, 1.0)
        oracle = ols(column.reshape(-1, 1), e).coefficients[0]
        worst_omega = max(worst_omega, abs(scan_omega(TimeSeries(e), pi, T) - oracle))

    worst_poly = 0.0
    m = 15
    for _ in range(60):
        p = int(rng.integers(0, 3))
        q = int(rng.integers(0, 3))
        d = int(rng.integers(0, 3))
        phi = tuple(rng.uniform(-0.45, 0.45, size=p))
        theta = tuple(rng.uniform(-0.45, 0.45, size=q))
        w = pi_weights(make_fit(phi=phi, theta=theta, d=d), m).weights
        prod = np.convolve(
            np.concatenate([[1.0], -w]), np.concatenate([[1.0], -np.asarray(theta)])
        )[: m + 1]
        target = np.concatenate([[1.0], -np.asarray(phi)])
        for _ in range(d):
            target = np.convolve(target, [1.0, -1.0])
        target = np.concatenate([target, np.zeros(m + 1)])[: m + 1]
        worst_poly = max(worst_poly, float(np.max(np.abs(prod - target))))

    ok = worst_omega < 1e-10 and worst_poly < 1e-10
    _verdict(
        2, "design-column and weight-expansion oracles agree", ok,
        f"max omega gap {worst_omega:.2e}, max polynomial-identity gap {worst_poly:.2e}", t0,
    )


def test_criterion_3_variance_law():
    t0 = time.perf_counter()
    n, T, sigma, reps = 200, 120, 1.3, 2000
    pi = pi_weights(make_fit(phi=DEMO_PHI), n - 1)
    kern = np.concatenate([[1.0], -pi.weights[: n - T]])
    tau2 = 1.0 + float(pi.weights[: n - T] @ pi.weights[: n - T])
    e = sigma * normals(31, reps * n).reshape(reps, n)
    omegas = e[:, T - 1 : T - 1 + kern.size] @ kern / tau2
    empirical = float(np.var(omegas, ddof=1))
    expected = sigma ** 2 / tau2
    rel = abs(empirical - expected) / expected
    elapsed = time.perf_counter() - t0
    ok = rel < 0.15 and elapsed < 30.0
    _verdict(
        3, "magnitude-estimator variance law over 2000 replicates", ok,
        f"empirical {empirical:.5f} vs expected {expected:.5f} (rel err {rel:.1%}), "
        f"runtime {elapsed:.2f}s (< 30s required)", t0,
    )


def test_criterion_4_detection_power_demo_scenario():
    t0 = time.perf_counter()
    target = {t for t, _ in PLAN}
    cfg = DetectionConfig(critical_value=3.0)
    seeds = 200
    exact = 0
    for s in range(seeds):
        z = simulate(SimSpec(order=ArimaOrder(2, 0, 0), n=200, seed=1000 + s, phi=DEMO_PHI))
        y = inject(z, InjectionPlan(points=PLAN))
        fit = fit_ar_ols(y, 2, with_intercept=True)
        res = detect_iterative(y, fit, cfg)
        exact += {r.T for r in res.outliers} == target
    rate = exact / seeds
    elapsed = time.perf_counter() - t0
    ok = rate >= 0.95 and elapsed < 60.0
    _verdict(
        4, "all three planted positions, no spurious hits, c = 3.0", ok,
        f"exact-set rate {rate:.3f} over {seeds} seeds (>= 0.95 required), "
        f"runtime {elapsed:.1f}s (< 60s required)", t0,
    )


def test_criterion_5_null_calibration():
    t0 = time.perf_counter()
    # per-position exceedance of the standardized statistic under pure
    # unit-variance noise with known scale
    n, reps = 200, 500
    pi = pi_weights(make_fit(phi=DEMO_PHI), n - 1)
    exceed = 0
    for r in range(reps):
        e = normals(70000 + r, n)
        num, tau2 = _stats_all_positions(e, pi)
        lam = num / np.sqrt(tau2)
        exceed += int(np.count_nonzero(np.abs(lam) > 3.0))
    freq = exceed / (n * reps)

    # family-wise false alarm of the full loop on clean series
    cfg = DetectionConfig(critical_value=3.0)
    seeds = 200
    alarms = 0
    for s in range(seeds):
        y = simulate(SimSpec(order=ArimaOrder(2, 0, 0), n=200, seed=5000 + s, phi=DEMO_PHI))
        fit = fit_ar_ols(y, 2, with_intercept=True)
        res = detect_iterative(y, fit, cfg)
        alarms += bool(res.outliers)
    fw = alarms / seeds

    ok_freq = abs(freq - 0.0027) <= 0.002
    ok_fw = fw <= 0.15
    _verdict(
        5, "null calibration: per-position rate and family-wise alarms", ok_freq and ok_fw,
        f"per-position {freq:.5f} (0.0027 +/- 0.002 required: {'ok' if ok_freq else 'VIOLATED'}), "
        f"family-wise {fw:.3f} (<= 0.15 required: {'ok' if ok_fw else 'VIOLATED'})", t0,
    )


def test_criterion_6_mse_ladder_on_demo():
    t0 = time.perf_counter()
    y, plan, _ = demo_dataset()
    fit = fit_ar_ols(y, 2, with_intercept=True)
    res = detect_iterative(y, fit, DetectionConfig())
    trail = res.mse_trail
    strictly_down = all(b < a for a, b in zip(trail, trail[1:]))
    improvement = 100.0 * (trail[0] - trail[-1]) / trail[0]
    ok = strictly_down and improvement >= 40.0 and len(trail) == len(plan.points) + 1
    _verdict(
        6, "joint-refit MSE ladder strictly decreases on the demo", ok,
        f"ladder {[round(m, 4) for m in trail]}, improvement {improvement:.2f}% "
        f"(>= 40% required)", t0,
    )


def test_criterion_7_diagnostics_calibration():
    t0 = time.perf_counter()
    rejections = 0
    seeds = 500
    for s in range(seeds):
        y = simulate(SimSpec(order=ArimaOrder(0, 0, 0), n=500, seed=50000 + s))
        (res,) = ljung_box(y, [12], fitted_params=0)
        rejections += res.p_value < 0.05
    frac = rejections / seeds
    ok_lb = abs(frac - 0.05) <= 0.03

    nq = 100
    quantiles = ndtri((np.arange(1, nq + 1) - 0.5) / nq)
    d_stat = ks_normal(TimeSeries(quantiles)).statistic
    ok_ks = d_stat < 0.01

    worst = 0.0
    for df in (1, 2, 5, 10, 50, 100):
        for x in (0.5, 2.0, 10.0, 60.0, 200.0):
            worst = max(worst, abs(chi_square_sf(x, df) - chi_square_sf_quadrature(x, df)))
    ok_chi = worst < 1e-6

    ok = ok_lb and ok_ks and ok_chi
    _verdict(
        7, "portmanteau calibration, normality distance, chi-square tail", ok,
        f"rejection fraction {frac:.3f} (0.05 +/- 0.03), KS D {d_stat:.5f} (< 0.01), "
        f"chi-square max gap {worst:.2e} (< 1e-6)", t0,
    )


def test_criterion_8_determinism_and_round_trips(tmp_path):
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)
    exact = True
    for _ in range(100):
        d = int(rng.integers(1, 3))
        vals = rng.integers(-1000, 1000, size=int(rng.integers(d + 1, 60))).astype(float)
        ts = TimeSeries(vals)
        back = integrate(difference(ts, d), ts.values[:d], d)
        exact = exact and back.values.tolist() == ts.values.tolist()

    spec = SimSpec(order=ArimaOrder(2, 0, 0), n=500, seed=77, phi=DEMO_PHI)
    bit_identical = np.array_equal(simulate(spec).values, simulate(spec).values)

    demo = str(resources.files("aoarima") / "data" / "demo_series.csv")
    out = tmp_path / "detect.json"
    code = main(["detect", "--input", demo, "--order", "2,0,0", "--format", "json",
                 "--output", str(out)])
    emitted = out.read_text()
    report = json.loads(emitted)
    json_round_trip = json.loads(json.dumps(report)) == report and code == 0

    golden_path = os.path.join(os.path.dirname(__file__), "data", "detect_golden.json")
    with open(golden_path, "rb") as fh:
        golden = fh.read()
    golden_match = out.read_bytes() == golden

    ok = exact and bit_identical and json_round_trip and golden_match
    _verdict(
        8, "round trips: difference/integrate, seeded simulation, JSON, golden file", ok,
        f"integrate-exact {exact}, simulate-bit-identical {bit_identical}, "
        f"json-round-trip {json_round_trip}, golden-bytes {golden_match}", t0,
    )
