"""Empirical log-MGF and plug-in rate estimation.

For a batch (X_1, ..., X_m) the empirical log-MGF is

    L_m(theta) = log( (1/m) sum_i exp(theta X_i) ),

a convex function with L_m(0) = 0. The plug-in estimate of the decay rate
of P(mean <= 0) for a negative-mean population is

    I_m(0) = -inf_theta L_m(theta),

and the rate at a general point x is the same quantity for the shifted
batch (X_i - x). The infimum is found by bisecting the strictly increasing
derivative L_m'(theta); when every sample sits strictly on one side of zero
the infimum is -inf and the estimate is +infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._solve import bisect_root, expand_bracket

_THETA_CAP = 2.0 ** 10


@dataclass(frozen=True)
class RateEstimate:
    """Value of a rate function together with optimizer diagnostics.

    status is one of "interior" (finite optimum located), "diverges-left" /
    "diverges-right" (the defining infimum runs away to -inf as theta goes
    to -inf / +inf, value is +infinity), or "at-mean" (the evaluation point
    is the mean and the rate is exactly zero). theta_star is None whenever
    value is +infinity.
    """

    value: float
    theta_star: float | None
    status: str
    iterations: int = 0


def _values(batch):
    vals = getattr(batch, "values", batch)
    arr = np.asarray(vals, dtype=float)
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


def _log_mgf(x: np.ndarray, theta: float):
    t = theta * x
    hi = t.max()
    return hi + math.log(np.exp(t - hi).sum() / x.size)


def _tilted_mean(x: np.ndarray, theta: float) -> float:
    """L_m'(theta): the batch mean under the theta-tilt."""
    t = theta * x
    w = np.exp(t - t.max())
    return float((x * w).sum() / w.sum())


def estimate_rate_at_zero(batch) -> RateEstimate:
    """I_m(0) = -inf_theta L_m(theta) by bisection on L_m'.

    L_m' is strictly increasing when the batch has at least two distinct
    points, so a sign change of the derivative brackets the optimum. The
    bracket expands geometrically from [-1, 1] up to |theta| = 2^10; if the
    derivative never changes sign inside that range the infimum is either
    -inf (all samples strictly one-signed, value +infinity) or attained in
    the limit because the batch has mass exactly at zero, in which case the
    boundary value at the cap already matches the limit to double precision.
    """
    x = _values(batch)
    if np.all(x == x[0]):
        if x[0] == 0.0:
            return RateEstimate(0.0, 0.0, "at-mean", 0)
        status = "diverges-left" if x[0] > 0 else "diverges-right"
        return RateEstimate(math.inf, None, status, 0)
    if np.all(x > 0):
        return RateEstimate(math.inf, None, "diverges-left", 0)
    if np.all(x < 0):
        return RateEstimate(math.inf, None, "diverges-right", 0)

    deriv = partial(_tilted_mean, x)
    lo, dlo = expand_bracket(deriv, -1.0, -math.inf, 1, cap=_THETA_CAP)
    hi, dhi = expand_bracket(deriv, 1.0, math.inf, -1, cap=_THETA_CAP)

    # mass exactly at zero: derivative keeps one sign, optimum saturates
    if dlo > 0:
        return RateEstimate(max(-_log_mgf(x, lo), 0.0), lo, "interior", 0)
    if dhi < 0:
        return RateEstimate(max(-_log_mgf(x, hi), 0.0), hi, "interior", 0)

    tol = 1e-10 * max(1.0, float(np.abs(x).mean()))
    root = bisect_root(deriv, lo, hi, flo=dlo, fhi=dhi, xtol=1e-12,
                       ftol=tol, max_iter=199)
    return RateEstimate(max(-_log_mgf(x, root.mid), 0.0), root.mid,
                        "interior", root.iterations)


def estimate_rate_at(batch, x: float) -> RateEstimate:
    """Rate estimate at a general point: the zero estimate of X - x."""
    vals = _values(batch)
    return estimate_rate_at_zero(vals - x)


def restricted_inf_log_mgf(batch, theta_lo: float, theta_hi: float):
    """inf of L_m over the closed interval [theta_lo, theta_hi].

    Returns (value, theta_star). Convexity puts the infimum at an endpoint
    or at the interior derivative root, whichever the derivative signs at
    the endpoints select.
    """
    if theta_lo > theta_hi:
        raise ValueError("theta_lo must not exceed theta_hi")
    x = _values(batch)
    d_lo = _tilted_mean(x, theta_lo)
    if theta_lo == theta_hi or d_lo >= 0:
        return float(_log_mgf(x, theta_lo)), theta_lo
    d_hi = _tilted_mean(x, theta_hi)
    if d_hi <= 0:
        return float(_log_mgf(x, theta_hi)), theta_hi
    tol = 1e-10 * max(1.0, float(np.abs(x).mean()))
    theta_star = bisect_root(partial(_tilted_mean, x), theta_lo, theta_hi,
                             flo=d_lo, fhi=d_hi, xtol=1e-12, ftol=tol).mid
    return float(_log_mgf(x, theta_star)), theta_star
