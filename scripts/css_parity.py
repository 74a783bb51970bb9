#!/usr/bin/env python3
"""Parity of the CSS fit (variable projection) against the Levenberg-Marquardt reference.

``fit_arma_css`` profiles (intercept, phi) out by least squares and
searches theta alone, over the partial autocorrelations of theta: by a
grid and a Brent polish along the first, then, for q >= 2, by Brent
along each in coordinate sweeps; no fit loads ``scipy.optimize``. The
Levenberg-Marquardt (LM) multistart over the process mean and the
partial autocorrelations of phi and theta is what it replaced, kept as
``css_lm_reference`` in ``tests/conftest.py``; it holds phi stationary,
where the projection returns the least-squares phi with a warning. This
script fits both on models with an intercept at n = 200, over the seeds
1000, 1001, ... (intercept 0.3).

A fit is on the boundary when a root of phi(B) or theta(B) is within
1e-8 of the unit circle (the fit then warns). The q = 1 table fits three
models at their own order:

* ARMA(1,1), phi = 0.5, theta = 0.6;
* ARIMA(1,1,1), phi = 0.5, theta = 0.3;
* ARIMA(0,1,1), theta = 0.4.

Per model it counts the fits where LM ends inside the region and the
projection is worse by more than 1e-9 relative ("worse") or ends on the
boundary ("new boundary"), where both end inside and the projection is
lower ("lower"), and where LM ends on the boundary and the projection
inside ("left boundary"). Then it fits ARIMA(1,1,1) on the 32 series of
the benchmark's ``arima_css`` workload (``perfbench/inputs.py``) both
ways and prints the largest coefficient and SSE differences and the mean
time per fit.

The q >= 2 table overfits: ARMA(1,2), MA(2) and ARMA(2,2) on the
ARMA(1,1) series above, and ARIMA(1,1,2) on the ARIMA(1,1,1) ones. Per
model, among the fits where LM ends inside the region, it counts those
where the projection is worse or lower by more than 1e-9 relative; then
the fits where the projection alone ends on the boundary ("new
boundary") or LM alone does ("left boundary"), the fits that raise on
each side, and the mean time per fit of each. Each worse fit and each
new boundary end is listed with both sums of squares.

Exits 1 when a q = 1 fit is worse or newly on the boundary, when the
``arima_css`` fits differ by more than 1e-9 relative in SSE, when a
q >= 2 projection fit raises, or when a q >= 2 model has more worse fits
than lower ones.
"""

import argparse
import math
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from aoarima import AoArimaError, ArimaOrder, SimSpec, TimeSeries, difference, fit_arma_css, simulate
from aoarima.estimation import _ROOT_TOL, _lag_residuals, min_root_modulus

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "tests"))
import inputs  # noqa: E402  (numpy only: the benchmark's seeded series)
from conftest import css_lm_reference  # noqa: E402

ARMA11 = (ArimaOrder(1, 0, 1), (0.5,), (0.6,))
ARIMA111 = (ArimaOrder(1, 1, 1), (0.5,), (0.3,))
MODELS = {
    "ARMA(1,1)": ARMA11,
    "ARIMA(1,1,1)": ARIMA111,
    "ARIMA(0,1,1)": (ArimaOrder(0, 1, 1), (), (0.4,)),
}
# fitted order, then the simulated model
OVERFIT = {
    "ARMA(1,2)": (ArimaOrder(1, 0, 2), ARMA11),
    "MA(2)": (ArimaOrder(0, 0, 2), ARMA11),
    "ARMA(2,2)": (ArimaOrder(2, 0, 2), ARMA11),
    "ARIMA(1,1,2)": (ArimaOrder(1, 1, 2), ARIMA111),
}
REL = 1e-9


def on_boundary(phi, theta) -> bool:
    return min(min_root_modulus(phi), min_root_modulus(theta)) <= 1.0 + _ROOT_TOL


def both_fits(y: TimeSeries, order: ArimaOrder):
    """(projection, LM) as (sse, phi, theta, seconds) each, or None for a fit that raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        t0 = time.perf_counter()
        try:
            fit = fit_arma_css(y, order, with_intercept=True)
            vp = (fit.sse, np.asarray(fit.phi), np.asarray(fit.theta))
        except AoArimaError:
            vp = None
        t1 = time.perf_counter()
        w = difference(y, order.d)
        try:
            beta, theta = css_lm_reference(w, order.p, order.q, True)
            a = _lag_residuals(w.values, beta, True, theta)
            lm = (float(a @ a), beta[1:], theta)
        except AoArimaError:
            lm = None
        t2 = time.perf_counter()
    return (*vp, t1 - t0) if vp else None, (*lm, t2 - t1) if lm else None


def series(model, seeds: int):
    order, phi, theta = model
    for seed in range(1000, 1000 + seeds):
        yield seed, simulate(SimSpec(order=order, n=200, seed=seed, phi=phi, theta=theta, intercept=0.3))


def q1_table(seeds: int) -> int:
    bad = 0
    print(f"{'model':<14}{'fits':>6}{'worse':>7}{'new boundary':>14}{'lower':>7}"
          f"{'left boundary':>15}{'both boundary':>15}")
    for name, model in MODELS.items():
        counts = dict(worse=0, new=0, lower=0, left=0, both=0)
        for _, y in series(model, seeds):
            (sse, *vp), (sse_lm, *lm) = both_fits(y, model[0])
            edge, edge_lm = on_boundary(*vp[:2]), on_boundary(*lm[:2])
            if edge_lm:
                counts["both" if edge else "left"] += 1
            elif edge:
                counts["new"] += 1
            elif sse > sse_lm * (1 + REL):
                counts["worse"] += 1
            elif sse < sse_lm * (1 - REL):
                counts["lower"] += 1
        bad += counts["worse"] + counts["new"]
        print(f"{name:<14}{seeds:>6}{counts['worse']:>7}{counts['new']:>14}{counts['lower']:>7}"
              f"{counts['left']:>15}{counts['both']:>15}")
    return bad


def overfit_table(seeds: int) -> int:
    bad = 0
    print(f"\n{'model (q >= 2)':<16}{'fits':>6}{'worse':>7}{'lower':>7}{'new boundary':>14}{'left boundary':>15}"
          f"{'raises':>8}{'LM raises':>11}{'ms':>7}{'LM ms':>7}")
    for name, (order, model) in OVERFIT.items():
        counts = dict(worse=0, lower=0, new=0, left=0, raises=0, lm_raises=0)
        times = np.zeros(2)
        for seed, y in series(model, seeds):
            vp, lm = both_fits(y, order)
            counts["raises"] += vp is None
            counts["lm_raises"] += lm is None
            times += (vp[3] if vp else 0.0, lm[3] if lm else 0.0)
            if vp is None or lm is None:
                continue
            edge, edge_lm = on_boundary(*vp[1:3]), on_boundary(*lm[1:3])
            if edge and not edge_lm:
                counts["new"] += 1
                print(f"  new boundary: {name} seed {seed}: SSE {vp[0]!r} against LM {lm[0]!r}")
            counts["left"] += edge_lm and not edge
            if edge_lm:
                continue
            if vp[0] > lm[0] * (1 + REL):
                counts["worse"] += 1
                print(f"  worse: {name} seed {seed}: SSE {vp[0]!r} against LM {lm[0]!r}")
            elif vp[0] < lm[0] * (1 - REL):
                counts["lower"] += 1
        bad += counts["raises"] + (counts["worse"] > counts["lower"])
        ms = 1e3 * times / seeds
        print(f"{name:<16}{seeds:>6}{counts['worse']:>7}{counts['lower']:>7}{counts['new']:>14}{counts['left']:>15}"
              f"{counts['raises']:>8}{counts['lm_raises']:>11}{ms[0]:>7.1f}{ms[1]:>7.1f}")
    return bad


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=100, help="seeds per model, from 1000")
    parser.add_argument("--bench-seed", type=int, default=401, help="seed of the arima_css inputs")
    args = parser.parse_args()

    bad = q1_table(args.seeds)
    spec = inputs.WORKLOADS["arima_css"]
    order = ArimaOrder(*spec["order"])
    d_coef = d_sse = 0.0
    times = np.zeros(2)
    for case in inputs.make_cases("arima_css", args.bench_seed):
        vp, lm = both_fits(TimeSeries(case.values), order)
        d_coef = max(d_coef, float(np.max(np.abs(np.concatenate([vp[1] - lm[1], vp[2] - lm[2]])))))
        d_sse = max(d_sse, (vp[0] - lm[0]) / lm[0])
        times += (vp[3], lm[3])
    n_cases = spec["series"]
    print(f"arima_css inputs (seed {args.bench_seed}, {n_cases} series): "
          f"max |d phi|, |d theta| {d_coef:.2e}, max relative SSE change {d_sse:+.2e}, "
          f"ms per fit {1e3 * times[0] / n_cases:.2f} (projection) {1e3 * times[1] / n_cases:.2f} (LM)")
    if not math.isfinite(d_sse) or d_sse > REL:
        bad += 1
    bad += overfit_table(args.seeds)
    print("PASS" if bad == 0 else "FAIL")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
