"""Seeded, reproducible ARMA simulation and outlier injection.

All randomness flows through the counter-based generator in
:mod:`aoarima.rng`, so a spec determines its output series exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import StabilityError
from .estimation import ArimaOrder, _ROOT_TOL, _lag_poly, min_root_modulus
from .series import TimeSeries

__all__ = ["SimSpec", "InjectionPlan", "simulate", "inject", "demo_dataset", "DEMO_SEED"]

# Frozen seed behind the bundled demo series; chosen once (see
# scripts/pick_demo_seed.py) so that the standard detection run recovers
# exactly the three planted positions, then never changed.
DEMO_SEED = 20180967


@dataclass(frozen=True)
class SimSpec:
    """Everything needed to regenerate one simulated series bit for bit.

    The recursion is
    x_t = intercept + sum_i phi_i x_{t-i} + a_t - sum_j theta_j a_{t-j}
    with zero pre-sample values and a_t = sigma * z_t from the seeded
    normal stream; ``burn_in`` leading values are discarded (default
    100 + p + q) and the result is cumulatively summed d times.
    """

    order: ArimaOrder
    n: int
    seed: int
    phi: tuple = ()
    theta: tuple = ()
    intercept: float = 0.0
    sigma: float = 1.0
    burn_in: int | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.sigma < 0.0:
            raise ValueError("sigma cannot be negative")
        if len(self.phi) != self.order.p or len(self.theta) != self.order.q:
            raise ValueError("coefficient lengths must match the order")
        if self.burn_in is not None and self.burn_in < 0:
            raise ValueError("burn_in cannot be negative")

    @property
    def effective_burn_in(self) -> int:
        if self.burn_in is not None:
            return self.burn_in
        return 100 + self.order.p + self.order.q


@dataclass(frozen=True)
class InjectionPlan:
    """Additive outliers to plant: (index label, magnitude) pairs."""

    points: tuple

    def __post_init__(self):
        pts = tuple((int(t), float(w)) for t, w in self.points)
        labels = [t for t, _ in pts]
        if len(set(labels)) != len(labels):
            raise ValueError("injection labels must be distinct")
        object.__setattr__(self, "points", pts)


def simulate(spec: SimSpec) -> TimeSeries:
    """Generate the series described by ``spec`` (deterministic in the seed)."""
    phi = np.asarray(spec.phi, dtype=float)
    theta = np.asarray(spec.theta, dtype=float)
    for coeffs, what in ((phi, "AR coefficients are not stationary"),
                         (theta, "MA coefficients are not invertible")):
        modulus = min_root_modulus(coeffs)
        if modulus <= 1.0 + _ROOT_TOL:
            raise StabilityError(f"{what} (smallest root modulus {modulus:.6g} <= 1)")
    total = spec.effective_burn_in + spec.n
    a = spec.sigma * rng.normals(spec.seed, total)
    # moving-average part and intercept form the filter input
    s = a.copy()
    for j, th in enumerate(theta, start=1):
        s[j:] -= th * a[:-j]
    s += spec.intercept
    x = (_ar_recursion(phi, s) if phi.size else s)[spec.effective_burn_in:]
    for _ in range(spec.order.d):
        x = np.cumsum(x)
    return TimeSeries(x, start_index=1)


def _ar_recursion(phi: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``scipy.signal.lfilter([1], 1 - phi_1 B - ..., s)`` bit for bit, in plain Python.

    The seeded series, the bundled demo CSV and the golden reports are
    made of lfilter's rounding (a banded solve rounds differently). So this
    is lfilter's direct form II transposed loop in its own order, with
    a = 1, -phi_1, ..., -phi_p: y = z_0 + x, then z_i = (z_{i+1} + 0 x) - a_{i+1} y
    for i < p - 1 and z_{p-1} = 0 x - a_p y.
    """
    a = _lag_poly(phi).tolist()
    p = len(a) - 1
    z = [0.0] * p
    out = []
    for x in s.tolist():
        y = z[0] + x
        for i in range(p - 1):
            z[i] = (z[i + 1] + x * 0.0) - a[i + 1] * y
        z[p - 1] = x * 0.0 - a[p] * y
        out.append(y)
    return np.array(out)


def inject(series: TimeSeries, plan: InjectionPlan) -> TimeSeries:
    """Add each planned magnitude at its index label."""
    out = series.values.copy()
    for t, w in plan.points:
        out[series.position_of(t)] += w
    return TimeSeries(out, start_index=series.start_index)


def demo_dataset() -> tuple[TimeSeries, InjectionPlan, SimSpec]:
    """The bundled demonstration series.

    A stationary AR(2) with coefficients (0.2237, 0.4282), unit
    innovation variance and 200 observations, contaminated at labels 98,
    162 and 180 with magnitudes +8, -8 and +6 (in innovation units).
    Deterministic: the frozen seed always reproduces the same bytes, and
    the same series ships as ``data/demo_series.csv``.
    """
    spec = SimSpec(
        order=ArimaOrder(2, 0, 0),
        n=200,
        seed=DEMO_SEED,
        phi=(0.2237, 0.4282),
        sigma=1.0,
    )
    plan = InjectionPlan(points=((98, 8.0), (162, -8.0), (180, 6.0)))
    return inject(simulate(spec), plan), plan, spec
