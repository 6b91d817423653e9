"""Empirical log-MGF and plug-in rate estimation.

For a batch (X_1, ..., X_m) the empirical log-MGF is

    L_m(theta) = log( (1/m) sum_i exp(theta X_i) ),

a convex function with L_m(0) = 0. The plug-in estimate of the decay rate
of P(mean <= 0) for a negative-mean population is

    I_m(0) = -inf_theta L_m(theta),

and the rate at a general point x is the same quantity for the shifted
batch (X_i - x). The infimum is the root of the strictly increasing
derivative L_m'(theta), found by safeguarded Newton steps with L_m''(theta),
the tilted variance, as the slope; when every sample sits strictly on one
side of zero the infimum is -inf and the estimate is +infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._solve import expand_bracket, newton_root

# the largest |theta| of a tilt search: an estimate saturates here, so the
# closed-form two-atom rate in populations reports this tilt at an atom
_THETA_CAP = 2.0 ** 10


@dataclass(frozen=True)
class RateEstimate:
    """Value of a rate function together with optimizer diagnostics.

    status is one of "interior" (finite optimum located), "diverges-left" /
    "diverges-right" (the defining infimum runs away to -inf as theta goes
    to -inf / +inf, value is +infinity), or "at-mean" (the evaluation point
    is the mean and the rate is exactly zero). The estimates of
    empirical_rate also report "theta-overflow": the value is exact, but
    the optimizer, scaled back to the batch's units, lies beyond the float
    range (a batch of subnormal magnitude), and theta_star is None.
    populations.rate_function also reports "theta-cap" (the search for the
    optimizer stopped at the edge of its theta range; the value there is a
    lower bound). theta_star is None whenever value is +infinity.
    """

    value: float
    theta_star: float | None
    status: str
    iterations: int = 0


def _values(batch):
    arr = np.asarray(batch, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("batch must be a nonempty 1-D collection of reals")
    if not np.isfinite(arr).all():
        raise ValueError("batch values must be finite (no NaN or inf)")
    return arr


def empirical_log_mgf(batch, theta: float) -> float:
    """log of the empirical mean of exp(theta X), computed with a max shift.

    The shift makes the result exact up to rounding for |theta * X_i| far
    beyond the bare exp overflow threshold.
    """
    return float(_log_mgf(_values(batch), theta))


def _tilt(x: np.ndarray, theta):
    """theta * x and its maximum over the last axis, kept as an axis.

    x is one batch with a float theta, or an (R, m) matrix with one theta
    per row; each row's arithmetic is exactly that of the row alone.
    """
    t = (theta[:, None] if np.ndim(theta) else theta) * x
    return t, np.maximum.reduce(t, axis=-1, keepdims=True)


def _log_mgf(x: np.ndarray, theta):
    """L_m(theta) of one batch, or the list of L_m of the rows of x.

    The last step is math.log, row by row: np.log can differ from it in
    the last bit.
    """
    t, hi = _tilt(x, theta)
    mean_w = np.add.reduce(np.exp(t - hi), axis=-1) / x.shape[-1]
    if not np.ndim(theta):
        return hi[0] + math.log(mean_w)
    return [h + math.log(w) for h, w in zip(hi[:, 0].tolist(),
                                            mean_w.tolist())]


def _tilted_moments(x: np.ndarray, theta):
    """(L_m'(theta), L_m''(theta)): the batch mean under the theta-tilt and
    its tilted variance E_w[X^2] - (E_w X)^2, from one exp pass (row-wise
    for a matrix x and one theta per row, as in _tilt)."""
    t, hi = _tilt(x, theta)
    w = np.exp(t - hi)
    total = np.add.reduce(w, axis=-1)
    xw = x * w
    mean = np.add.reduce(xw, axis=-1) / total
    var = np.add.reduce(x * xw, axis=-1) / total - mean * mean
    return (mean, var) if np.ndim(theta) else (float(mean), float(var))


def _tilted_mean(x: np.ndarray, theta):
    """L_m'(theta) alone, for the bracket walks and Empirical.dlog_mgf."""
    return _tilted_moments(x, theta)[0]


def _row_derivative(x, moments=_tilted_mean):
    """L_m' (or, with moments=_tilted_moments, L_m' and L_m'') of the rows
    of x as f(theta, rows), for the lock-step solvers."""
    def deriv(theta, rows):
        return moments(x if rows.size == len(x) else x[rows], theta)
    return deriv


def _rate(lm):
    """-L_m(theta*) as a rate: +0.0, never -0.0, where L_m(theta*) = 0."""
    return -lm if lm < 0 else 0.0


def estimate_rate_at_zero(batch) -> RateEstimate:
    """I_m(0) = -inf_theta L_m(theta) at the root of L_m'.

    L_m' is strictly increasing when the batch has at least two distinct
    points, so a sign change of the derivative brackets the optimum. The
    search runs on the batch scaled by the power of two that puts its
    largest |X_i| in [1, 2), which leaves I_m(0) unchanged and makes it
    independent of the batch's units; theta_star is scaled back. The
    bracket expands geometrically from [-1, 1] up to |theta| = 2^10 in
    scaled units, and safeguarded Newton steps (newton_root) from
    theta = 0 locate the root inside it, with L_m'', the tilted variance,
    as the slope; iterations counts the derivative evaluations of that
    search. Where theta_star scaled back overflows, the status is
    "theta-overflow" (see RateEstimate). If the derivative never changes
    sign inside that range the infimum is either -inf (all samples strictly
    one-signed, value +infinity) or attained in the limit because the batch
    has mass exactly at zero, in which case the boundary value at the cap
    already matches the limit to double precision. The rate at the batch
    mean is +0.0.
    """
    return estimate_rates_at_zero(_values(batch)[None, :])[0]


def estimate_rates_at_zero(batches) -> list[RateEstimate]:
    """estimate_rate_at_zero of every row of an (R, m) matrix of batches.

    The root searches of all rows step in lock-step, each row taking
    exactly the steps it takes alone, so no estimate, iterations included,
    depends on the other rows.
    """
    x = np.asarray(batches, dtype=float)
    if x.ndim != 2 or x.size == 0:
        raise ValueError("batches must be a nonempty 2-D array of reals")
    if not np.isfinite(x).all():
        raise ValueError("batch values must be finite (no NaN or inf)")
    out = [None] * len(x)
    equal = (x == x[:, :1]).all(axis=1)
    above = (x > 0).all(axis=1)
    below = (x < 0).all(axis=1)
    for i in np.flatnonzero(equal | above | below):
        if equal[i] and x[i, 0] == 0.0:
            out[i] = RateEstimate(0.0, 0.0, "at-mean", 0)
        else:
            status = "diverges-left" if above[i] else "diverges-right"
            out[i] = RateEstimate(math.inf, None, status, 0)
    rows = np.flatnonzero(~(equal | above | below))
    if not rows.size:
        return out
    # each row times the power of two that puts its largest |x| in [1, 2):
    # exact (barring entries pushed below the normal range), so the rate
    # is that of the row as given, and theta* scales back by that power
    x = x[rows]
    shift = 1 - np.frexp(np.abs(x).max(axis=1))[1]
    x = np.ldexp(x, shift[:, None])
    lo, dlo = expand_bracket(_row_derivative(x), np.full(len(x), -1.0),
                             -math.inf, 1, cap=_THETA_CAP)
    hi, dhi = expand_bracket(_row_derivative(x), np.full(len(x), 1.0),
                             math.inf, -1, cap=_THETA_CAP)
    # mass exactly at zero: derivative keeps one sign, optimum saturates
    theta = np.where(dlo > 0, lo, hi)
    iterations = np.zeros(len(x), dtype=int)
    free = np.flatnonzero((dlo <= 0) & (dhi >= 0))
    if free.size:
        xf = x[free]
        tol = 1e-10 * np.maximum(1.0, np.abs(xf).mean(axis=1))
        root = newton_root(_row_derivative(xf, _tilted_moments), lo[free],
                           hi[free], 0.0, flo=dlo[free], fhi=dhi[free],
                           xtol=1e-12, ftol=tol, max_iter=199)
        theta[free] = root.x
        iterations[free] = root.iterations
    with np.errstate(over="ignore"):
        theta_star = np.ldexp(theta, shift)
    for i, lm, th, it in zip(rows, _log_mgf(x, theta), theta_star.tolist(),
                             iterations.tolist()):
        if math.isfinite(th):
            out[i] = RateEstimate(_rate(lm), th, "interior", it)
        else:
            out[i] = RateEstimate(_rate(lm), None, "theta-overflow", it)
    return out


def estimate_rate_at(batch, x: float) -> RateEstimate:
    """Rate estimate at a general point: the zero estimate of X - x."""
    vals = _values(batch)
    return estimate_rate_at_zero(vals - x)

