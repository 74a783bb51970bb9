"""Seeded inputs for the in-process workloads, made with numpy only.

The workload process must not take its inputs from ``aoarima.simulate``
or import scipy for them: set-up time, peak memory and the import counts
would then measure the benchmark instead of the program.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Model, length, planted outliers and critical value of each in-process
# workload. ar_long: c = 5.0 keeps the family-wise false alarm near 1% over
# 20 000 scanned positions. arima_css: c = 4.5 does the same for 2 000.
# ``series`` is how many series a run makes and rotates over. A CSS fit's
# cost depends on the data (optimizer iterations vary by a factor of 2
# between series), so arima_css averages over more of them.
WORKLOADS = {
    "ar_long": dict(order=(2, 0, 0), phi=(0.2237, 0.4282), theta=(), n=20_000,
                    outliers=8, critical=5.0, series=8),
    "arima_css": dict(order=(1, 1, 1), phi=(0.5,), theta=(0.3,), n=2_000,
                      outliers=4, critical=4.5, series=32),
}
MAGNITUDE = 8.0  # planted outlier size, in innovation standard deviations
BURN_IN = 500


@dataclass(frozen=True)
class Case:
    values: np.ndarray  # observations, index labels 1..n
    planted: tuple  # ((label, magnitude), ...)


def _arima(rng: np.random.Generator, n: int, phi, theta, d: int) -> np.ndarray:
    """(1 - phi B)(1 - B)^d x_t = (1 - theta B) a_t with unit-variance shocks."""
    a = rng.standard_normal(n + BURN_IN)
    u = a.copy()
    for j, th in enumerate(theta, start=1):
        u[j:] -= th * a[:-j]
    w = u.tolist()
    for t in range(len(w)):
        acc = w[t]
        for i, ph in enumerate(phi, start=1):
            if t >= i:
                acc += ph * w[t - i]
        w[t] = acc
    x = np.asarray(w[BURN_IN:])
    for _ in range(d):
        x = np.cumsum(x)
    return x


def make_cases(workload: str, seed: int) -> list[Case]:
    """The series one run of ``workload`` rotates over, all from ``seed``."""
    spec = WORKLOADS[workload]
    n, k = spec["n"], spec["outliers"]
    labels = [int(round((j + 0.5) * n / k)) for j in range(k)]
    cases = []
    for i in range(spec["series"]):
        rng = np.random.default_rng([seed, i])
        x = _arima(rng, n, spec["phi"], spec["theta"], spec["order"][1])
        signs = rng.choice([-1.0, 1.0], size=k)
        planted = tuple((t, float(s * MAGNITUDE)) for t, s in zip(labels, signs))
        for t, w in planted:
            x[t - 1] += w
        cases.append(Case(values=x, planted=planted))
    return cases
