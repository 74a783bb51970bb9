#!/usr/bin/env python3
"""Parity of the q = 1 CSS fit (variable projection) against the Levenberg-Marquardt solve.

``fit_arma_css`` fits every q = 1 order by variable projection: a grid and
a Brent polish over theta, with (intercept, phi) profiled out. The
Levenberg-Marquardt (LM) multistart over the partial autocorrelations,
``_css_lm``, is what it replaced there and still fits q >= 2. This script
fits both on three models with an intercept at n = 200, over the seeds
1000, 1001, ... (intercept 0.3):

* ARMA(1,1), phi = 0.5, theta = 0.6;
* ARIMA(1,1,1), phi = 0.5, theta = 0.3;
* ARIMA(0,1,1), theta = 0.4.

A fit is on the boundary when a root of phi(B) or theta(B) is within
1e-8 of the unit circle (the fit then warns). Per model it counts the
fits where LM ends inside the region and the projection is worse by more
than 1e-9 relative ("worse") or ends on the boundary ("new boundary"),
where both end inside and the projection is lower ("lower"), and where
LM ends on the boundary and the projection inside ("left boundary").
Then it fits ARIMA(1,1,1) on the 32 series of the benchmark's
``arima_css`` workload (``perfbench/inputs.py``) both ways and prints the
largest coefficient and SSE differences and the mean time per fit.

Exits 1 when any fit is worse or newly on the boundary.
"""

import argparse
import math
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from aoarima import ArimaOrder, SimSpec, TimeSeries, difference, fit_arma_css, simulate
from aoarima.estimation import _ROOT_TOL, _css_lm, _lag_residuals, min_root_modulus

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import inputs  # noqa: E402  (numpy only: the benchmark's seeded series)

MODELS = {
    "ARMA(1,1)": (ArimaOrder(1, 0, 1), (0.5,), (0.6,)),
    "ARIMA(1,1,1)": (ArimaOrder(1, 1, 1), (0.5,), (0.3,)),
    "ARIMA(0,1,1)": (ArimaOrder(0, 1, 1), (), (0.4,)),
}
REL = 1e-9


def on_boundary(phi, theta) -> bool:
    return min(min_root_modulus(phi), min_root_modulus(theta)) <= 1.0 + _ROOT_TOL


def both_fits(y: TimeSeries, order: ArimaOrder):
    """(projection, LM) as (sse, phi, theta, seconds) each."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        t0 = time.perf_counter()
        fit = fit_arma_css(y, order, with_intercept=True)
        t1 = time.perf_counter()
        w = difference(y, order.d)
        beta, theta = _css_lm(w, order.p, order.q, True)
        a = _lag_residuals(w.values, beta, True, theta)
        t2 = time.perf_counter()
    return ((fit.sse, np.asarray(fit.phi), np.asarray(fit.theta), t1 - t0),
            (float(a @ a), beta[1:], theta, t2 - t1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=100, help="seeds per model, from 1000")
    parser.add_argument("--bench-seed", type=int, default=401, help="seed of the arima_css inputs")
    args = parser.parse_args()

    bad = 0
    print(f"{'model':<14}{'fits':>6}{'worse':>7}{'new boundary':>14}{'lower':>7}"
          f"{'left boundary':>15}{'both boundary':>15}")
    for name, (order, phi, theta) in MODELS.items():
        counts = dict(worse=0, new=0, lower=0, left=0, both=0)
        for seed in range(1000, 1000 + args.seeds):
            y = simulate(SimSpec(order=order, n=200, seed=seed, phi=phi, theta=theta, intercept=0.3))
            (sse, *vp), (sse_lm, *lm) = both_fits(y, order)
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
        print(f"{name:<14}{args.seeds:>6}{counts['worse']:>7}{counts['new']:>14}{counts['lower']:>7}"
              f"{counts['left']:>15}{counts['both']:>15}")

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
    print("PASS" if bad == 0 else "FAIL")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
