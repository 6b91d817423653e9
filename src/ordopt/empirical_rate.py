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
side of zero the infimum is -inf and the estimate is +infinity. A batch
that holds exactly two distinct values is a two-atom law, whose rate has
the closed form KL(pi || q) of _rate_two_atoms, so two-point and Bernoulli
batches take no search. The same formula gives rate_function on the
two-atom models of populations, and meta_rate on a two-atom law, whose W
has two atoms at every tilt; meta_rate's alpha search, from alpha = +-1,
runs on the other laws. Both modules sum through _shifted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._solve import expand_bracket, newton_root

# the largest |theta| of a tilt search: an estimate saturates here, so the
# closed-form two-atom rate reports this tilt at an atom (a batch with mass
# at zero, or a two-atom model at one of its atoms)
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


def _shifted(w, alpha, p=None):
    """(hi, e, den) for each row of w (a 1-D w is one row) at one alpha or
    one per row: hi is the row's largest exponent alpha w, e = p e^{alpha w
    - hi} (p = 1 when not given) and den its row sum, so log sum p e^{alpha
    w} = hi + log den, with each row's arithmetic that of the row alone."""
    with np.errstate(over="ignore"):
        e = np.asarray(alpha, dtype=float).reshape(-1, 1) * w
    hi = np.maximum.reduce(e, axis=1)
    e -= hi[:, None]
    np.exp(e, out=e)
    if p is not None:
        e *= p
    return hi, e, np.add.reduce(e, axis=1)


def _log_mgf(x: np.ndarray, theta):
    """L_m(theta) of one batch, or the list of L_m of the rows of x.

    The last step is math.log, row by row: np.log can differ from it in
    the last bit.
    """
    hi, _, den = _shifted(x, theta)
    mean_w = den / x.shape[-1]
    if not np.ndim(theta):
        return hi[0] + math.log(mean_w[0])
    return [h + math.log(w) for h, w in zip(hi.tolist(), mean_w.tolist())]


def _tilted_moments(x: np.ndarray, theta):
    """(L_m'(theta), L_m''(theta)): the batch mean under the theta-tilt and
    its tilted variance E_w[X^2] - (E_w X)^2, from one exp pass (row-wise
    for an (R, m) matrix x and one theta per row)."""
    _, w, total = _shifted(x, theta)
    xw = x * w
    mean = np.add.reduce(xw, axis=-1) / total
    var = np.add.reduce(x * xw, axis=-1) / total - mean * mean
    return (mean, var) if np.ndim(theta) else (float(mean[0]),
                                                float(var[0]))


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


def _log_ratio(s, p):
    """log(s / p), or log s - log p where a subnormal p overflows s / p."""
    r = s / p
    return math.log(r) if r < math.inf else math.log(s) - math.log(p)


def _rate_two_atoms(lo, hi, p_lo, p_hi, a):
    """Closed-form rate of a two-atom law at 'a', with optimizer: the
    relative entropy of the law moved to mean 'a' on the same atoms. Each
    mass is the caller's own, so a tiny one survives beside 1 - it."""
    # all mass on one atom: every other a diverges
    if a < lo or (p_lo == 0.0 and a < hi):
        return RateEstimate(math.inf, None, "diverges-left", 0)
    if a > hi or (p_hi == 0.0 and a > lo):
        return RateEstimate(math.inf, None, "diverges-right", 0)
    if (a == lo and p_lo == 1.0) or (a == hi and p_hi == 1.0):
        return RateEstimate(0.0, 0.0, "at-mean", 0)
    s = (a - lo) / (hi - lo)        # required mass on the upper atom
    # 'a' at an atom, or within rounding of one: all mass moves there
    if s == 0.0:
        return RateEstimate(-math.log(p_lo), -_THETA_CAP, "interior", 0)
    if s == 1.0:
        return RateEstimate(-math.log(p_hi), _THETA_CAP, "interior", 0)
    up, down = _log_ratio(s, p_hi), _log_ratio(1.0 - s, p_lo)
    val = s * up + (1.0 - s) * down
    theta = (up - down) / (hi - lo)
    status = "at-mean" if val <= 1e-15 else "interior"
    return RateEstimate(max(val, 0.0), theta, status, 0)


def estimate_rate_at_zero(batch) -> RateEstimate:
    """I_m(0) = -inf_theta L_m(theta), in closed form or at the root of L_m'.

    The estimate works on the batch scaled by the power of two that puts
    its largest |X_i| in [1, 2), which leaves I_m(0) unchanged and makes it
    independent of the batch's units; theta_star is scaled back. A batch
    of exactly two distinct values, k of them at the upper one, is the
    two-atom law with masses (m - k)/m and k/m, and takes that law's
    closed form (_rate_two_atoms) with no search: iterations is 0, and a
    value exactly at zero gives -log of its share, with theta_star at the
    cap. Every other batch has an L_m' that is strictly increasing, so a
    sign change of the derivative brackets the optimum. The bracket
    expands geometrically from [-1, 1] up to |theta| = 2^10 in scaled
    units, and safeguarded Newton steps (newton_root) from theta = 0 locate
    the root inside it, with L_m'', the tilted variance, as the slope;
    iterations counts the derivative evaluations of that search. Where
    theta_star scaled back overflows, the status is "theta-overflow" (see
    RateEstimate). If the derivative never changes sign inside that range
    the infimum is either -inf (all samples strictly one-signed, value
    +infinity) or attained in the limit because the batch has mass exactly
    at zero, in which case the boundary value at the cap already matches
    the limit to double precision. The rate at the batch mean is +0.0.
    """
    return estimate_rates_at_zero(_values(batch)[None, :])[0]


def estimate_rates_at_zero(batches) -> list[RateEstimate]:
    """estimate_rate_at_zero of every row of an (R, m) matrix of batches.

    Each row is classified once by its minimum and maximum. The closed
    form is evaluated, and its estimate built, once per distinct (scaled
    atoms, upper count, scale) of the two-valued rows, which share that
    estimate. The root searches of the other rows step in lock-step, each
    row taking exactly the steps it takes alone, so no estimate,
    iterations included, depends on the other rows.
    """
    x = np.asarray(batches, dtype=float)
    if x.ndim != 2 or x.size == 0:
        raise ValueError("batches must be a nonempty 2-D array of reals")
    lo = np.minimum.reduce(x, axis=1)
    hi = np.maximum.reduce(x, axis=1)
    # a NaN or an inf anywhere in a row reaches its minimum or maximum
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValueError("batch values must be finite (no NaN or inf)")
    out = [None] * len(x)
    trivial = (lo > 0) | (hi < 0) | (lo == hi)
    for i in np.flatnonzero(trivial):
        if lo[i] > 0:
            out[i] = RateEstimate(math.inf, None, "diverges-left", 0)
        elif hi[i] < 0:
            out[i] = RateEstimate(math.inf, None, "diverges-right", 0)
        else:
            out[i] = RateEstimate(0.0, 0.0, "at-mean", 0)
    rows = np.flatnonzero(~trivial)
    if not rows.size:
        return out
    # each row times the power of two that puts its largest |x| in [1, 2):
    # exact (barring entries pushed below the normal range), so the rate
    # is that of the row as given, and theta* scales back by that power;
    # ldexp is monotone, so the scaled rows' ends are the scaled ends
    x, lo, hi = x[rows], lo[rows], hi[rows]
    shift = 1 - np.frexp(np.maximum(-lo, hi))[1]
    x = np.ldexp(x, shift[:, None])
    lo, hi = np.ldexp(lo, shift), np.ldexp(hi, shift)
    m = x.shape[1]
    n_hi = np.add.reduce(x == hi[:, None], axis=1)
    two = np.add.reduce(x == lo[:, None], axis=1) + n_hi == m
    # rows of two values: one closed form, and so one RateEstimate, per
    # distinct (scaled atoms, upper count, scale)
    forms = {}
    for i, key in zip(rows[two].tolist(),
                      zip(lo[two].tolist(), hi[two].tolist(),
                          n_hi[two].tolist(), shift[two].tolist())):
        if key not in forms:
            a, b, k, e = key
            est = _rate_two_atoms(a, b, (m - k) / m, k / m, 0.0)
            try:
                forms[key] = RateEstimate(est.value,
                                          math.ldexp(est.theta_star, e),
                                          est.status, 0)
            except OverflowError:
                forms[key] = RateEstimate(est.value, None, "theta-overflow",
                                          0)
        out[i] = forms[key]
    search = np.flatnonzero(~two)
    if not search.size:
        return out
    x, shift = x[search], shift[search]
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
    for i, lm, th, it in zip(rows[search], _log_mgf(x, theta),
                             theta_star.tolist(), iterations.tolist()):
        if math.isfinite(th):
            out[i] = RateEstimate(_rate(lm), th, "interior", it)
        else:
            out[i] = RateEstimate(_rate(lm), None, "theta-overflow", it)
    return out


def estimate_rate_at(batch, x: float) -> RateEstimate:
    """Rate estimate at a general point: the zero estimate of X - x.

    A finite batch whose shift by x overflows (or a NaN x) raises
    ValueError naming the shift, not the batch.
    """
    vals = _values(batch)
    with np.errstate(over="ignore"):
        shifted = vals - x
    if not np.isfinite(shifted).all():
        raise ValueError(f"the batch shifted by x = {x!r} is not finite")
    return estimate_rate_at_zero(shifted)

