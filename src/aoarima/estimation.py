"""ARIMA parameter estimation and the filtering machinery built on it.

AR models are estimated by ordinary least squares on lagged regressors;
models with an MA part by minimizing the conditional sum of squares
(CSS). Every fit's conditional residual is the one :func:`_lag_residuals`:
x_t - c - phi_1 x_{t-1} - ... - phi_p x_{t-p}, passed through
1 / theta(B) when there is an MA part. Both fits report in the intercept
coordinates (c, phi, theta) of that residual. For a fixed theta the CSS
residuals are linear in c and phi, so those are profiled out by one QR
and theta is searched alone, inside the invertible region (variable
projection): on a grid and by a Brent polish along its first partial
autocorrelation, then, with more MA coefficients, by Brent along each in
coordinate sweeps. phi is the least-squares profile, as in the AR fit,
so it may come out non-stationary; a non-stationary phi or a theta on
the invertibility boundary warns. A CSS fit with no MA part is the AR
fit. The standard errors of every fit come from one R factor, that of
the lag design or of the residuals' analytic Jacobian, as the row norms
of R^-1 (:func:`_std_errors`), and a rank-deficient design or Jacobian
raises :class:`RankError` on every path. Both fits report two variance
estimates that must not be conflated:

* ``sigma2`` -- mean squared residual with denominator equal to the
  residual count (the innovation-variance convention used by the outlier
  test statistic), and
* ``mse`` -- the usual degree-of-freedom adjusted regression mean square.

Every least-squares fit (:func:`ols`, the AR fit, the joint refit of
the outlier module and each point of the CSS profile) factors its lag
design [1, x_{t-1}, ..., x_{t-p} | x_t], built once, in place by the one
Householder QR :func:`_qr`, and solves from R by :func:`_solve`. Every
filter here is the one recursive filter :func:`_lfilter`. The AR path
(OLS, the residual filter, the pi weights and the backward scan filter,
all without feedback when q = 0) runs on numpy alone: its filters are
truncated convolutions and its QR is numpy's bundled LAPACK. scipy is
imported where it is first needed, ``scipy.linalg`` for the banded
triangular solve of a filter with feedback (an MA part). No estimation
path loads ``scipy.signal`` or ``scipy.optimize``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.linalg import lapack_lite

from .errors import (
    ConvergenceError,
    DomainError,
    LengthError,
    NonInvertibleWarning,
    NonStationaryWarning,
    RankError,
)
from .series import TimeSeries, _levinson, difference

__all__ = [
    "ArimaOrder",
    "ArimaFit",
    "PiWeights",
    "OlsResult",
    "ols",
    "fit_ar_ols",
    "yule_walker",
    "fit_arma_css",
    "fit_arima",
    "pi_weights",
    "filter_residuals",
    "sigma_hat",
]

_ROOT_TOL = 1e-8
_RANK_TOL = 1e-10


@dataclass(frozen=True)
class ArimaOrder:
    """(p, d, q) orders. Differencing beyond d = 2 is rejected."""

    p: int
    d: int = 0
    q: int = 0

    def __post_init__(self):
        if self.p < 0 or self.d < 0 or self.q < 0:
            raise ValueError("orders must be non-negative")
        if self.d > 2:
            raise ValueError("differencing order d > 2 is not supported")


@dataclass(frozen=True, eq=False)  # array fields: == is identity, not an ambiguous array
class OlsResult:
    """Least-squares solution with the usual accounting."""

    coefficients: tuple
    sse: float
    mse: float
    std_errors: tuple
    residuals: np.ndarray
    df_residual: int


@dataclass(frozen=True)
class ArimaFit:
    """A fitted ARIMA model.

    ``phi`` and ``theta`` use the sign convention of the lag polynomials
    1 - phi_1 B - ... and 1 - theta_1 B - ...; ``intercept`` is the
    regression constant (0 when suppressed) and ``with_intercept`` says
    whether the model has one, which a fitted constant of 0.0 cannot tell.
    ``residuals`` are aligned so their start index names the first
    observation they correspond to.
    """

    order: ArimaOrder
    phi: tuple
    theta: tuple
    intercept: float
    with_intercept: bool
    sigma2: float
    residuals: TimeSeries
    coefficient_std_errors: tuple
    sse: float
    mse: float

    @property
    def process_mean(self) -> float:
        """Implied stationary mean intercept / (1 - sum(phi)); 0 without an intercept."""
        if not self.with_intercept:
            return 0.0
        denom = 1.0 - sum(self.phi)
        if abs(denom) < 1e-10:
            raise DomainError("process mean undefined: AR coefficients sum to 1")
        return self.intercept / denom


@dataclass(frozen=True, eq=False)  # array fields: == is identity, not an ambiguous array
class PiWeights:
    """The first m weights of the autoregressive (infinite-order) representation.

    ``ar`` and ``ma`` are the lag polynomials of the recursive filter
    ar(B) / ma(B), the one :func:`filter_residuals` runs and the outlier
    scan runs backwards. The rest is built once from them, for all scans:
    ``weights[j-1]`` is pi_j in pi(B) = 1 - pi_1 B - pi_2 B^2 - ..., the
    negated impulse response (the implicit pi_0 is 1); ``support`` counts
    the weights up to the last non-zero one; and ``tau2[s]`` is
    1 + pi_1^2 + ... + pi_{m-s}^2, the squared signature norm at 0-based
    position s of an (m + 1)-long series. The sums run over the support
    only: before its last ``support`` positions tau2 is one constant.
    """

    ar: np.ndarray
    ma: np.ndarray
    m: int
    weights: np.ndarray = field(init=False)
    support: int = field(init=False)
    tau2: np.ndarray = field(init=False)

    def __post_init__(self):
        m = self.m
        w = -_lfilter(self.ar, self.ma, np.concatenate([[1.0], np.zeros(m)]))[1:]
        live = w != 0  # compared forwards: a reversed compare takes 5x as long
        support = m - int(np.argmax(live[::-1])) if live.any() else 0
        run = np.cumsum(w[:support] ** 2)[::-1]  # beyond the support the sum adds only exact zeros
        tau2 = np.full(m + 1, 1.0 + (run[0] if support else 0.0))
        tau2[m - support:] = 1.0 + np.append(run, 0.0)
        ar, ma = (np.array(c, dtype=float) for c in (self.ar, self.ma))
        for name, value in (("ar", ar), ("ma", ma), ("weights", w), ("tau2", tau2)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        object.__setattr__(self, "support", support)


def _lag_poly(coeffs) -> np.ndarray:
    """1, -c_1, ..., -c_k: the coefficients of the lag polynomial 1 - c_1 B - ... - c_k B^k."""
    return np.concatenate([[1.0], -np.asarray(coeffs, dtype=float)])


def min_root_modulus(coeffs) -> float:
    """Smallest root modulus of 1 - c_1 z - ... - c_k z^k (inf if degree 0).

    Solved as the reciprocal of the largest root of the monic reversed
    polynomial z^k - c_1 z^(k-1) - ... - c_k, whose companion matrix stays
    well scaled however small c_k is.
    """
    c = np.asarray(coeffs, dtype=float)
    top = float(np.max(np.abs(np.roots(_lag_poly(c))))) if c.size else 0.0
    return math.inf if top == 0.0 else 1.0 / top


def _warn_on_roots(phi, theta) -> None:
    if min_root_modulus(phi) <= 1.0 + _ROOT_TOL:
        warnings.warn(
            "AR polynomial has a root on or inside the unit circle; "
            "estimates are at or beyond the stationarity boundary",
            NonStationaryWarning,
            stacklevel=3,
        )
    if min_root_modulus(theta) <= 1.0 + _ROOT_TOL:
        warnings.warn(
            "MA polynomial has a root on or inside the unit circle; "
            "estimates are at the invertibility boundary",
            NonInvertibleWarning,
            stacklevel=3,
        )


def _lfilter(b, a, x: np.ndarray, overwrite_x: bool = False) -> np.ndarray:
    """``scipy.signal.lfilter(b, a, x, axis=0)`` with zero initial state, for a monic a.

    Without feedback (a = [1]) the filter is the truncated convolution, the
    very ``np.convolve(b, x)`` scipy runs for it, so the result is bit for
    bit scipy's, on numpy alone. With feedback, the all-pole part 1 / a(B)
    from a zero state is the unit lower-triangular banded system
    sum_j a_j y_{t-j} = (b(B) x)_t, solved by forward substitution in
    O(n len(a)) by LAPACK ``dtbtrs``, down the one column of a vector or
    the columns of a 2-d x, which takes b = [1]. The solve adds in another
    order than ``lfilter``, so the two agree to rounding, not bit for bit.
    x is never written, except a Fortran-ordered 2-d x given with
    ``overwrite_x``, which is solved in place.
    """
    if len(a) == 1 and a[0] == 1.0:
        return np.convolve(b, x)[:x.size] if x.size else np.zeros(0)
    if a[0] != 1.0 or (x.ndim > 1 and (len(b) != 1 or b[0] != 1.0)):
        raise ValueError("the filter needs a monic a, and b = [1] for a 2-d x")
    n = x.shape[0]
    if n == 0:
        return np.zeros(x.shape)
    from scipy.linalg import lapack

    a = np.asarray(a, dtype=float)
    # band storage ab[j, t] = a_j; dtbtrs takes the band width from the rows. np.repeat copies
    # 32-byte rows about 3x faster than 24-byte ones, so q = 2 gets a spare band of zeros, whose
    # products leave every finite result bit for bit as it is
    ab = np.repeat(np.append(a, 0.0)[None] if a.size == 3 else a[None], n, axis=0).T
    if x.ndim == 1:
        x = np.convolve(b, x)[:n] if len(b) > 1 else b[0] * x  # a new array, solved in place
        overwrite_x = True
    y, info = lapack.dtbtrs(ab, x, uplo="L", diag="U", overwrite_b=overwrite_x)
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK dtbtrs failed with info = {info}")
    return y


def _qr(A: np.ndarray) -> np.ndarray:
    """Householder QR of the Fortran-ordered [X | y], or of a Jacobian, in place; returns its top rows.

    LAPACK ``dgeqrf`` (the one bundled with numpy, no explicit Q) leaves R
    on and above the diagonal of those rows, Q^T y in the last column of
    [X | y], and the Householder vectors below the diagonal, which callers
    must not read as R. Raises :class:`RankError` when X has no more rows
    than columns.
    """
    rows, cols = A.shape
    if rows < cols:
        raise RankError(f"underdetermined system: {rows} rows for {cols - 1} coefficients")
    lwork = 3 * cols  # scipy's default workspace, so the blocking choice matches it
    info = lapack_lite.dgeqrf(rows, cols, A.T, rows, np.empty(cols), np.empty(lwork), lwork, 0)["info"]
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK dgeqrf failed with info = {info}")
    return A[:cols]


def _std_errors(R: np.ndarray, mse: float) -> np.ndarray:
    """sqrt(mse diag((R^T R)^-1)): the row norms of R^-1 scaled by the mse.

    R is the upper triangular factor of a design or a Jacobian. Raises
    :class:`RankError` when it is rank deficient (pivot ratio below 1e-10).
    """
    pivots = np.abs(np.diag(R))
    if pivots.size and (pivots.min() < _RANK_TOL * pivots.max() or pivots.max() == 0.0):
        raise RankError("design matrix is rank deficient")
    rinv = np.linalg.solve(R, np.eye(R.shape[0]))
    return np.sqrt(mse * np.sum(rinv * rinv, axis=1))


def _solve(r: np.ndarray, rows: int) -> tuple[np.ndarray, float, float, np.ndarray]:
    """(beta, sse, mse, standard errors) of the least-squares fit whose [X | y] factor :func:`_qr` left.

    beta solves R beta = (Q^T y)[:cols], the residual sum of squares is
    the squared bottom corner, the mse takes ``rows`` - cols degrees of
    freedom, and the standard errors come from R by :func:`_std_errors`,
    which raises :class:`RankError` when X is rank deficient.
    """
    c = r.shape[1] - 1
    R = np.triu(r[:c, :c])
    sse = float(r[c, c] ** 2)
    mse = sse / (rows - c)
    std = _std_errors(R, mse)  # the rank check, before a solve on a singular R
    return np.linalg.solve(R, r[:c, c]), sse, mse, std


def ols(X: np.ndarray, y) -> OlsResult:
    """Least squares fit of y on the columns of X.

    One Householder QR of [X | y] (:func:`_qr`) and the solve from its R
    (:func:`_solve`); the residuals are y - X beta. Raises
    :class:`RankError` when the system is underdetermined or the design
    is rank deficient (pivot ratio below 1e-10).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be a 2-d matrix")
    rows, cols = X.shape
    if y.shape != (rows,):
        raise ValueError("y length must match the row count of X")
    beta, sse, mse, std = _solve(_qr(np.asfortranarray(np.column_stack([X, y]))), rows)
    return OlsResult(coefficients=tuple(map(float, beta)), sse=sse, mse=mse, std_errors=tuple(map(float, std)),
                     residuals=y - X @ beta, df_residual=rows - cols)


def _lagged_design(x: np.ndarray, p: int, with_intercept: bool, rows=slice(None)) -> np.ndarray:
    """[1, x_{t-1}, ..., x_{t-p} | x_t] for t >= p, ``rows`` of them only, as one array.

    Fortran-ordered, LAPACK's layout, so :func:`_qr` and the filter work
    on it in place.
    """
    y = x[p:][rows]
    k = 1 if with_intercept else 0
    A = np.empty((y.size, k + p + 1), order="F")
    A[:, :k] = 1.0
    for i in range(1, p + 1):
        A[:, k + i - 1] = x[p - i:x.size - i][rows]
    A[:, -1] = y
    return A


def _lag_residuals(x: np.ndarray, beta: np.ndarray, with_intercept: bool, theta=()) -> np.ndarray:
    """theta(B)^-1 (x_t - c - phi_1 x_{t-1} - ... - phi_p x_{t-p}), t >= p, for beta = (c, phi) or phi.

    The conditional residuals of every fit, in one new array: the lag
    filter phi(B) run over x, less the intercept c (the residuals of every
    row of the lag design), then, given an MA part theta, the recursion
    a_t = u_t + theta_1 a_{t-1} + ... + theta_q a_{t-q} with zero
    pre-sample shocks.
    """
    k = 1 if with_intercept else 0
    e = np.convolve(_lag_poly(beta[k:]), x)[beta.size - k:x.size]
    e -= beta[0] if with_intercept else 0.0
    return _lfilter([1.0], _lag_poly(theta), e) if len(theta) else e


def fit_ar_ols(series: TimeSeries, p: int, with_intercept: bool = True) -> ArimaFit:
    """Fit an AR(p) by regressing each value on its p predecessors."""
    if p < 1:
        raise ValueError("p must be at least 1")
    if series.n <= 2 * p + 2:
        raise LengthError(f"need more than {2 * p + 2} observations to fit AR({p})")
    x = series.values
    A = _lagged_design(x, p, with_intercept)
    beta, sse, mse, std = _solve(_qr(A), A.shape[0])
    k = 1 if with_intercept else 0
    intercept = float(beta[0]) if with_intercept else 0.0
    phi = tuple(float(v) for v in beta[k:])
    e = _lag_residuals(x, beta, with_intercept)
    _warn_on_roots(phi, ())
    return ArimaFit(
        order=ArimaOrder(p, 0, 0),
        phi=phi,
        theta=(),
        intercept=intercept,
        with_intercept=with_intercept,
        sigma2=sse / e.size,
        residuals=TimeSeries(e, start_index=series.start_index + p),
        coefficient_std_errors=tuple(float(s) for s in std),
        sse=sse,
        mse=mse,
    )


def yule_walker(series: TimeSeries, p: int) -> np.ndarray:
    """Order-p Yule-Walker AR coefficients from sample autocorrelations.

    Solved by the Levinson recursion; raises :class:`SingularError` when
    the recursion breaks down.
    """
    return _levinson(series, p)[0]


def _from_pacf(z) -> list:
    """Lag coefficients whose partial autocorrelations are tanh(z), as Python floats.

    Every |tanh(z_k)| < 1, so 1 - c_1 B - ... has all its roots outside the
    unit circle (Monahan 1984). The Levinson step-up runs on floats, so an
    evaluation of the one-coefficient profile makes no numpy call for it.
    """
    coef = []
    for zk in z:
        r = math.tanh(zk)
        coef = [c - r * b for c, b in zip(coef, reversed(coef))]
        coef.append(r)
    return coef


def _css_jacobian(w: np.ndarray, a: np.ndarray, beta: np.ndarray, theta: np.ndarray,
                  with_intercept: bool) -> np.ndarray:
    """d a / d (c, phi, theta) of the residuals a = _lag_residuals(w, beta, with_intercept, theta).

    The derivative filters of BJR ch. 7: the c and phi_i columns are the
    negated columns 1, w_{t-i} of the lag design, the theta_j columns the
    residuals shifted by j; each passed through 1 / theta(B) with zero
    initial state.
    """
    k = 1 if with_intercept else 0
    p, q, n = beta.size - k, len(theta), a.size
    J = np.empty((n, k + p + q), order="F")  # LAPACK's layout, so the filter solves it in place
    np.negative(_lagged_design(w, p, with_intercept)[:, :-1], out=J[:, :k + p])
    for j in range(1, q + 1):
        J[:j, k + p + j - 1] = 0.0
        J[j:, k + p + j - 1] = a[:n - j]
    return _lfilter([1.0], _lag_poly(theta), J, overwrite_x=True) if q else J


def _brent(f, a: float, b: float, x: float, fx: float, tol: float = 1.48e-8) -> tuple[float, float]:
    """Minimize f on [a, b] from x in it, f(x) = fx, by Brent's method; returns (x, f(x)).

    Golden-section steps with parabolic ones where the last three points
    allow them (Brent 1973, ch. 5), to a relative tolerance ``tol`` in x.
    """
    golden = 0.3819660112501051  # (3 - sqrt 5) / 2
    v = w = x
    fv = fw = fx
    d = e = 0.0
    while True:
        mid = 0.5 * (a + b)
        tol1 = tol * abs(x) + 1e-11
        if abs(x - mid) <= 2.0 * tol1 - 0.5 * (b - a):
            return x, fx
        parabolic = False
        if abs(e) > tol1:  # fit a parabola through x, w and v
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            s = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            s, q = (-s, q) if q > 0.0 else (s, -q)
            if abs(s) < abs(0.5 * q * e) and q * (a - x) < s < q * (b - x):
                e, d = d, s / q
                parabolic = True
                if (x + d) - a < 2.0 * tol1 or b - (x + d) < 2.0 * tol1:
                    d = tol1 if x < mid else -tol1
        if not parabolic:
            e = (a if x >= mid else b) - x
            d = golden * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        fu = f(u)
        if fu < fx:  # a tie keeps x, so a flat stretch does not move it
            a, b = (x, b) if u >= x else (a, x)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (a, u) if u >= x else (u, b)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


# The theta search runs in z = atanh of the partial autocorrelations of theta:
# a grid along the first one over [-3, 3] (|theta_1| <= 0.995), and out to
# |z| = 15 (1 - |r| = 1.9e-13, where the profile is flat to rounding). Each
# step after the first searches +/-0.75 around the current z_j, and a search
# still moving after 1 000 sweeps raises.
_Z_GRID = np.linspace(-3.0, 3.0, 33)
_Z_EDGE = 15.0
_Z_STEP = 0.75
_MAX_SWEEPS = 1000
_SWEEP_RTOL = 1e-13


def _css_projection(wv: np.ndarray, p: int, q: int, with_intercept: bool):
    """(beta = (c, phi), theta) minimizing the CSS of a q >= 1 model by variable projection.

    For a fixed theta the residuals of :func:`_lag_residuals`,
    theta(B)^-1 (w_t - c - sum phi_i w_{t-i}), are linear in (c, phi): one
    Householder QR of the lag design [1, w_{t-1}, ..., w_{t-p} | w_t] run
    through 1 / theta(B) gives the profiled sum of squares as its squared
    bottom corner, and (c, phi) from R (Golub & Pereyra 1973). theta alone
    is searched, in z = atanh of its partial autocorrelations, so it stays
    invertible; phi is never searched and may come out non-stationary.
    The search starts on a grid along z_1 with the other z at 0 and takes
    every strict interior grid minimum (or, when the profile falls to an
    edge of the grid, the lowest grid point); with q >= 2 and p > 0 it also
    starts from all z at 0 and at +/-atanh 0.5, with a bracket of +/-0.75.
    Each start is polished by Brent's method along z_1 within its bracket,
    out to |z| = 15 at an edge of the grid; with q = 1 that is the search.
    With q >= 2 coordinate sweeps follow: Brent along z_1, ..., z_q in
    turn, each within +/-0.75 of where it stands, until a sweep lowers the
    profiled sum of squares by no more than 1e-13 relative. The lowest end
    is kept. 1 / theta(B) is a unit lower-triangular map, so the rank of
    the filtered design does not depend on theta: a rank-deficient design
    raises :class:`RankError` in the final solve, as it does in the AR fit.
    """
    design = _lagged_design(wv, p, with_intercept)
    n, m = design.shape
    a = np.empty_like(design)  # the per-theta working copy, filtered and factored in place

    def profile(z):
        np.copyto(a, design)
        _lfilter([1.0], [1.0, *(-c for c in _from_pacf(z))], a, overwrite_x=True)
        corner = float(_qr(a)[m - 1, m - 1])
        sse = corner * corner  # inf, not an overflow warning, past the largest float
        if not math.isfinite(sse):
            raise ConvergenceError("the profiled conditional sum of squares is not finite")
        return sse

    def polish(z, j, lo, hi, fz):  # Brent along z_j within [lo, hi], the other z held
        def along(t):
            z[j] = t
            return profile(z)

        z[j], fz = _brent(along, lo, hi, z[j], fz)
        return fz

    def search(z, lo, hi, fz):
        fz, sweeps = polish(z, 0, lo, hi, fz), 0
        while q > 1:  # coordinate sweeps until one stands still
            before = fz
            for j in range(q):
                fz = polish(z, j, max(z[j] - _Z_STEP, -_Z_EDGE), min(z[j] + _Z_STEP, _Z_EDGE), fz)
            if before - fz <= _SWEEP_RTOL * before:
                break
            sweeps += 1
            if sweeps == _MAX_SWEEPS:
                raise ConvergenceError(f"the theta search still moved after {_MAX_SWEEPS} sweeps")
        return z, fz

    rest = [0.0] * (q - 1)
    f = np.array([profile([g] + rest) for g in _Z_GRID])
    inner = np.flatnonzero((f[1:-1] < f[:-2]) & (f[1:-1] < f[2:])) + 1
    if not inner.size:  # the lowest grid point, nearest theta = 0 among ties: an edge only when
        near = np.argsort(np.abs(_Z_GRID), kind="stable")  # the profile falls to it
        inner = [int(near[np.argmin(f[near])])]
    brackets = np.concatenate([[-_Z_EDGE], _Z_GRID, [_Z_EDGE]])  # brackets[i] is the grid's i - 1
    starts = [([_Z_GRID[i]] + rest, brackets[i], brackets[i + 2], f[i]) for i in inner]
    if p and q > 1:  # a mixed model's CSS surface can have a second basin across the phi = theta ridge
        starts += [([z0] * q, z0 - _Z_STEP, z0 + _Z_STEP, profile([z0] * q))
                   for z0 in (0.0, math.atanh(0.5), -math.atanh(0.5))]
    z = min((search(*start) for start in starts), key=lambda t: t[1])[0]
    profile(z)  # leaves the factor at the chosen theta in a
    return _solve(a[:m], n)[0], np.array(_from_pacf(z))


def fit_arma_css(series: TimeSeries, order: ArimaOrder, with_intercept: bool = True) -> ArimaFit:
    """Fit an ARIMA(p, d, q) by conditional sum of squares.

    The d-fold difference is taken first. The objective sums squared
    shocks reconstructed recursively with zero pre-sample shocks,
    conditioning on the first p differenced observations.

    For q = 0 the conditional sum of squares is the AR least-squares fit,
    and that fit is returned (:func:`fit_arima`). Otherwise (intercept,
    phi) are profiled out by least squares and theta is searched alone,
    inside the invertible region (:func:`_css_projection`): by a grid and
    a Brent polish along its first partial autocorrelation, then, for
    q >= 2, by Brent along each partial autocorrelation in coordinate
    sweeps, from a few starts. The target is the lowest local minimum
    inside the region: the fit ends on the invertibility boundary, with a
    :class:`NonInvertibleWarning`, only when the objective keeps falling
    towards it. phi is never searched: it is the least-squares profile at
    the chosen theta, as in the AR fit, and a non-stationary phi (a
    trend, a random walk, explosive growth) is returned with a
    :class:`NonStationaryWarning`. The fit reports the intercept form
    (c, phi, theta); the residuals are :func:`_lag_residuals` and the
    standard errors come from the R factor of their analytic Jacobian
    (:func:`_css_jacobian`) at the optimum, by :func:`_std_errors`. A
    rank-deficient design or Jacobian (a constant series, or one the
    model fits exactly) raises :class:`RankError`.
    """
    p, d, q = order.p, order.d, order.q
    if q == 0:
        return fit_arima(series, order, with_intercept)
    if series.n <= 3 * (p + q) + 5 + d:
        raise LengthError(f"need more than {3 * (p + q) + 5 + d} observations for this order")
    w = difference(series, d)
    wv = w.values
    k = 1 if with_intercept else 0
    beta, theta_v = _css_projection(wv, p, q, with_intercept)
    a = _lag_residuals(wv, beta, with_intercept, theta_v)
    sse = float(a @ a)
    if not math.isfinite(sse):
        raise ConvergenceError("the conditional sum of squares at the optimum is not finite")
    mse = sse / (a.size - k - p - q)  # the length check leaves more residuals than parameters
    phi = tuple(float(v) for v in beta[k:])
    theta = tuple(float(v) for v in theta_v)
    J = _css_jacobian(wv, a, beta, theta_v, with_intercept)
    std = _std_errors(np.triu(_qr(J)), mse)
    _warn_on_roots(phi, theta)
    return ArimaFit(
        order=order,
        phi=phi,
        theta=theta,
        intercept=float(beta[0]) if with_intercept else 0.0,
        with_intercept=with_intercept,
        sigma2=sse / a.size,
        residuals=TimeSeries(a, start_index=w.start_index + p),
        coefficient_std_errors=tuple(float(s) for s in std),
        sse=sse,
        mse=mse,
    )


def fit_arima(series: TimeSeries, order: ArimaOrder, with_intercept: bool = True) -> ArimaFit:
    """Dispatch to the OLS fitter for pure AR orders, otherwise to CSS."""
    if order.q == 0:
        return replace(fit_ar_ols(difference(series, order.d), order.p, with_intercept), order=order)
    return fit_arma_css(series, order, with_intercept)


def pi_weights(fit: ArimaFit, m: int) -> PiWeights:
    """First m weights of the autoregressive representation of the model.

    Includes the differencing operator: the weights expand
    phi(B) (1-B)^d / theta(B). They are the impulse response of that
    recursive filter, the one :func:`filter_residuals` runs; the outlier
    scan runs it backwards. For q = 0 the filter has no feedback, so the
    weights beyond p + d are exact zeros.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    _warn_on_roots((), fit.theta)
    poly = _lag_poly(fit.phi)
    for _ in range(fit.order.d):
        poly = np.convolve(poly, [1.0, -1.0])
    return PiWeights(poly, _lag_poly(fit.theta), m)


def filter_residuals(series: TimeSeries, fit: ArimaFit) -> TimeSeries:
    """Filter a series into one residual per (differenced) observation.

    The series is differenced per the fitted order, centered at the
    implied process mean, and passed through the recursive filter
    phi(B) / theta(B) with zero initial state: the autoregressive
    representation of the ARMA part, untruncated, in O(n (p + q)). Early
    positions t <= p are warm-up values computed from the lags available
    so far; downstream consumers should treat them as conditioning values
    rather than genuine one-step errors.
    """
    _warn_on_roots((), fit.theta)
    w = difference(series, fit.order.d)
    e = _lfilter(_lag_poly(fit.phi), _lag_poly(fit.theta), w.values - fit.process_mean)
    return TimeSeries(e, start_index=w.start_index)


def _filter_backward(e: np.ndarray, pi: PiWeights) -> np.ndarray:
    """e[s] - pi_1 e[s+1] - ... - pi_{n-1-s} e[n-1]: pi(F) applied to e, F the forward shift.

    That is the filter of the weights run over the reversed series, whose
    zero initial state cuts each sum at the end of the series.
    """
    return _lfilter(pi.ar, pi.ma, e[::-1])[::-1]


def sigma_hat(residuals: TimeSeries) -> float:
    """Innovation-variance estimate: mean of squared residuals (denominator n)."""
    v = residuals.values
    return float(v @ v) / v.size
