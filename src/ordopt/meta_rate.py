"""Second-level rate functions for the rate estimator itself.

The plug-in rate estimate I_m(0) concentrates around I(0) with its own
large-deviations behavior, driven for each tilt theta by the rate function
of the empirical mean of W = exp(theta X):

    J_theta(nu) = sup_alpha ( alpha nu - log E exp(alpha W) ).

This module evaluates J_theta (meta_rate), its infimum over theta (the decay
rate of upward errors P(I_m(0) >= a) for a above I(0)), its supremum over
the set Theta_a = {theta : Lambda(theta) <= -a} (downward errors, which
collapse to rate zero whenever some W has a heavy upper tail), the optimal
two-phase budget split built on top of it, and the certificate that a
sequential stopping rule built on the proxy exp(-m I_m(0)) over-delivers
false selections relative to its target delta.

By the envelope theorem dJ_theta(nu)/dtheta = -alpha E_q[XW], q
proportional to p e^{alpha W}, so every tilt the four searches seek lies on
one stationarity curve, E_q[XW] = 0: one root in alpha per tilt, with
level g = -log E_q W and value J (continuation: Allgower and Georg,
Introduction to Numerical Continuation Methods, SIAM 2003).

Conventions: alpha_star is reported as the maximizer of the defining sup,
except in the sequential certificate for the shifted-exponential model.
There the same maximizer alpha_W is reported in the z = exp(theta Y)
convention, alpha_star = -alpha_W exp(-theta K), the coefficient of z in
  int_1^inf exp(-alpha z) z^{-lam/theta - 1} dz
(the form the closed-form residual equations are written in).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._quad import node_table
from ._solve import expand_bracket, falsi_root, newton_root
from .empirical_rate import _rate_two_atoms, _shifted
from .populations import ShiftedExponential, rate_function

__all__ = [
    "RegimeError", "NumericalError", "MetaRateResult", "TwoPhaseExponent",
    "tilted_log_mgf", "meta_rate", "inf_meta_rate",
    "sup_meta_rate_on_theta_a", "two_phase_exponent",
    "sequential_failure_certificate",
]

_ALPHA_CAP = 2.0 ** 30
_LOG_CAP = math.log(_ALPHA_CAP)
_BIG = np.finfo(float).max
# the largest b whose e^{-b} is a normal float, about 708.4
_LEVEL_MAX = -math.log(np.finfo(float).tiny)


class RegimeError(ValueError):
    """The requested quantity is defined in a different parameter regime."""


class NumericalError(RuntimeError):
    """A solver failed to converge; .best carries the final iterate."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class MetaRateResult:
    """J_theta(nu) and where the sup over alpha was found.

    status is "interior" when alpha_star solves M'(alpha) = nu: in closed
    form for a law of two atoms whose W atoms are positive floats with nu
    strictly between them, else by a search that starts at alpha = +-1;
    "boundary" when the sup sits on the edge of the domain of M
    (alpha_star = 0 with value 0, or no finite maximizer, alpha_star None,
    with value +inf); "alpha-cap" when the sup is reached only as |alpha|
    grows without bound, reported at alpha_star = -2^30 or 2^30: for an
    atom law with nu exactly at its lowest or highest W atom, value is -log
    of that atom's mass, with no search; otherwise the search stopped at
    the cap, and value is the objective there, a lower bound.
    """

    value: float
    alpha_star: float | None
    theta: float
    nu: float
    status: str


@dataclass(frozen=True)
class TwoPhaseExponent:
    """two_phase_exponent's result, a rate per pilot sample; c1 is echoed."""

    exponent: float
    gamma_star: float
    theta_star: float
    alpha_star: float
    c1: float
    c2: float


def _w_bounds(model, theta):
    """Essential range (lo, hi) of W = exp(theta X) for each tilt of a 1-D
    array, by the np.exp of the tilt table (math.exp can differ from it by
    an ulp and put a level computed the table's way outside the range)."""
    with np.errstate(invalid="ignore"):
        ends = np.multiply.outer(theta, model.support())
    ends[theta == 0.0] = 0.0
    # an upper end past 709 is the range's infinite end, which every
    # caller reads as W unbounded above
    with np.errstate(over="ignore"):
        return np.exp(ends.min(axis=1)), np.exp(ends.max(axis=1))


def _law(model):
    """(x, p): the atoms of positive mass, or a density's node table."""
    atoms = model.atoms()
    if atoms is None:
        x, p = node_table(model)
        if not x.size:
            raise ValueError(f"{model!r}: every node weight is 0 in floats")
        return x, p
    x, p = np.array(atoms, dtype=float).T
    return x[p > 0], p[p > 0]


def _tilt(law, theta):
    """(x, p, w) with w[i, j] = exp(theta[i] x[j]), one row per tilt of a
    float or 1-D array theta. Where x w overflows, w holds the largest
    float: alpha < 0 there, so alpha w sends the node's weight to exactly
    0 and it adds 0 to every sum, where inf * 0 would add nan."""
    x, p = law
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.exp(np.asarray(theta, dtype=float).reshape(-1, 1) * x)
        over = ~np.isfinite(x * w)
    if over.any():
        w[over] = _BIG
    return x, p, w


def _atom_moments(x, p, w, alpha, nu):
    """(J, T, V) for each row of w over the law (x, p), at one alpha (or
    one per row): the objective J = alpha nu - M(alpha) with M(alpha) =
    log E e^{aW}, the tilted W-mean T = M', and the tilted variance of W,
    V = E[W^2] - T^2 = M''. M is the row's largest exponent, a shift that
    makes it safe for any finite alpha, plus a log sum; alpha nu cancels
    against the shift first, which keeps J exact at |alpha| = 2^30 for a
    level at an atom on the edge of the range of W."""
    hi, e, den = _shifted(w, alpha, p)
    we = w * e
    t_mean = np.add.reduce(we, axis=1) / den
    var = np.add.reduce(w * we, axis=1) / den - t_mean * t_mean
    return (alpha * nu - hi) - np.log(den), t_mean, var


def tilted_log_mgf(model, alpha: float, theta: float) -> float:
    """M(alpha, theta) = log E exp(alpha exp(theta X)); +inf on divergence.

    Atom laws reduce to a shifted log-sum, density models to the same sum
    over a fixed node table that reaches tail probabilities of 1e-300 on
    both sides. When exp(theta X) is unbounded above its tail is at best
    polynomial for every model here, so alpha > 0 diverges.
    """
    if alpha == 0.0:
        return 0.0
    if theta == 0.0:
        return float(alpha)
    if alpha > 0 and math.isinf(_w_bounds(model, np.array([theta]))[1][0]):
        return math.inf
    return -float(_atom_moments(*_tilt(_law(model), theta), alpha, 0.0)[0][0])


def meta_rate(model, theta: float, nu: float) -> MetaRateResult:
    """J_theta(nu) = sup_alpha (alpha nu - M(alpha)), at the root of the
    tilted-mean equation M'(alpha) = nu, found by safeguarded Newton steps
    from alpha = +-1 with the tilted variance of W as M''. A law of two
    atoms has the closed form instead, the relative entropy of the law
    moved to mean nu on the same W atoms, wherever both W atoms are
    positive floats and nu lies strictly between them.

    The domain of M is all of R when W = exp(theta X) is bounded above and
    (-inf, 0] otherwise; in the latter case levels nu >= E W sit at the
    boundary alpha = 0 with value 0 (no decay through that tilt). Levels
    below the range of W give +infinity. An atom law's level exactly at its
    lowest or highest W atom gives -log of that atom's mass, with no
    search; where J runs off toward +infinity, as for a density's level
    near the essential infimum of W, the search saturates at |alpha| =
    2^30 and reports the value there. Both have status "alpha-cap" (see
    MetaRateResult). A density's node table (see tilted_log_mgf) holds
    every level with P(W <= nu) >= 1e-300.
    """
    return _meta_rate(model, _law(model), theta, nu)


def _meta_rate(model, law, theta, nu):
    """meta_rate over a law built once."""
    nu = float(nu)
    if nu <= 0:
        raise ValueError("nu must be positive")
    w_lo, w_hi = (float(v[0])
                  for v in _w_bounds(model, np.array([float(theta)])))
    if w_lo == w_hi:
        hit = abs(nu - w_lo) < 1e-12
        return MetaRateResult(0.0 if hit else math.inf, 0.0 if hit else None,
                              theta, nu, "boundary")
    if not w_lo <= nu <= w_hi:
        return MetaRateResult(math.inf, None, theta, nu, "boundary")
    # W unbounded above: alpha = 0 closes the domain of M, with the
    # sign-equal gap log E W - log nu there, as E W can overflow; nu at or
    # above E W decays at rate 0
    unbounded = math.isinf(w_hi)
    gap_zero = 1.0
    if unbounded:
        gap_zero = model.log_mgf(float(theta)) - math.log(nu)
        if gap_zero <= 0:
            return MetaRateResult(0.0, 0.0, theta, nu, "boundary")
    x, p = law
    # an atom law's level exactly at an end of the range of W: J is -log of
    # that W atom's mass, the limit as alpha runs to -inf or +inf
    if nu in (w_lo, w_hi) and model.atoms() is not None:
        low = nu == w_lo
        # the support's upper end is W's lower end at a negative tilt
        mass = p[x == model.support()[int((theta > 0.0) != low)]]
        if mass.size:
            return MetaRateResult(float(-np.log(mass)[0]),
                                  -_ALPHA_CAP if low else _ALPHA_CAP, theta,
                                  nu, "alpha-cap")
    if x.size == 2 and 0.0 < w_lo < nu < w_hi and not unbounded:
        # two atoms: J is the relative entropy of the law moved to mean nu
        # on the same W atoms, with no search, where both W atoms are
        # positive floats and nu lies strictly between them
        masses = p.tolist()
        rise = (theta > 0.0) == (x[1] > x[0])     # W of atom 1 is w_hi
        p_lo, p_hi = masses if rise else masses[::-1]
        est = _rate_two_atoms(w_lo, w_hi, p_lo, p_hi, nu)
        return MetaRateResult(est.value, est.theta_star, theta, nu,
                              "interior")
    # elsewhere the sign of M'(0) - nu tells which side of 0 the root is
    # on: gap_zero holds it where W is unbounded above, and the table's own
    # E W elsewhere. A tilted mean at |alpha| = 2^30 on that side still on
    # the same side of nu saturates there; otherwise newton_root runs in
    # [-2^30, 0] or [0, 2^30] from alpha = -1 or 1, with the tilted
    # variance of W as the derivative
    w = _tilt(law, theta)[2]
    value = np.zeros(1)
    if not unbounded:
        value, t_zero, _ = _atom_moments(x, p, w, 0.0, nu)
        gap_zero = float(t_zero[0]) - nu
    side = -1.0 if gap_zero > 0 else 1.0
    j_cap, t_cap, _ = _atom_moments(x, p, w, side * _ALPHA_CAP, nu)
    f_cap = float(t_cap[0]) - nu
    alpha, status = 0.0, "interior"
    if side * f_cap <= 0:
        value, alpha, status = j_cap, side * _ALPHA_CAP, "alpha-cap"
    elif gap_zero != 0:
        noise = 4.0 * np.finfo(float).eps * nu

        def gap(a, rows):
            # the tilted W-mean minus nu, its slope the tilted variance,
            # and the objective kept as the value; a point mass in floats
            # leaves both rounding noise, and a gap of 0 stops the search
            value[:], t_mean, var = _atom_moments(x, p, w, a, nu)
            f = t_mean - nu
            f[(abs(f) <= noise) & (var <= noise * nu)] = 0.0
            return f, var

        ends = (f_cap, gap_zero) if side < 0 else (gap_zero, f_cap)
        alpha = float(newton_root(
            gap, [min(side * _ALPHA_CAP, 0.0)], [max(side * _ALPHA_CAP, 0.0)],
            side, flo=[ends[0]], fhi=[ends[1]], xtol=1e-13,
            ftol=1e-11 * max(1.0, nu)).x[0])
    return MetaRateResult(float(np.maximum(value[0], 0.0)), alpha, theta, nu,
                          status)


def _tilted_moments(x, p, w, alpha):
    """(J, E W, E[XW], E[X^2 W], Var W, Cov(W, XW), Var XW) per row of w,
    under q proportional to p e^{alpha W}, alpha one per row, with J =
    alpha E W - M(alpha), from one shifted exp pass. Each product takes
    the weight e first, so a w of _BIG (e exactly 0) adds exactly 0."""
    hi, e, den = _shifted(w, alpha, p)
    with np.errstate(over="ignore", invalid="ignore"):
        we = w * e
        xwe = x * we
        wxwe = w * xwe
        ew, exw, ew2, exw2, ex2w, ex2w2 = (
            np.add.reduce(v, axis=1) / den
            for v in (we, xwe, w * we, wxwe, x * xwe, x * wxwe))
        return ((alpha * ew - hi) - np.log(den), ew, exw, ex2w,
                ew2 - ew * ew, exw2 - ew * exw, ex2w2 - exw * exw)


def _table_curve(law, k, theta, u, side):
    """(alpha, g, J, dg/dtheta, dlog|alpha|/dtheta) on the curve E_q[XW]
    = 0 at each tilt of a 1-D array theta, over a law sorted in x whose
    first k points are negative: g = -log E_q W is the level whose
    meta-rate J the tilt makes stationary.

    newton_root solves F = log(E[X^+ W e^{alpha W}] / E[X^- W e^{alpha
    W}]) = 0, two sums of one sign each, for u = log |alpha| in [-708.4,
    log 2^30] from the given start, alpha = side e^u per row. F rises in
    alpha where theta > 0 and falls where theta < 0 (W > 1 on every x > 0,
    W < 1 on every x < 0), and it is nearly linear in alpha where one
    point dominates each part, so a root many orders of magnitude away
    takes few steps. The slopes come from _tilted_moments at the root,
    alpha's by implicit differentiation of E_q[XW] = 0. A row off the
    curve (no root, or sums past the floats) has g nan."""
    theta, u, side = np.broadcast_arrays(np.atleast_1d(theta), u, side)
    x, p, w = _tilt(law, theta)
    n, up = theta.size, np.sign(theta)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        xpw = np.where(w < _BIG, w, 0.0) * (x * p)
        # F as alpha runs to 0, each part largest against the other there
        # (a point whose x w overflows adds 0 at every alpha < 0): a row
        # where either is 0, or F has the wrong sign, has no root
        last_f = (np.log(np.add.reduce(xpw[:, k:], axis=1))
                  - np.log(-np.add.reduce(xpw[:, :k], axis=1)))
    flo = np.where(np.isfinite(last_f) & (last_f * side * up < 0.0),
                   -side * up, 0.0)

    def stationarity(u, rows):
        a = side[rows] * np.exp(u)
        w_rows = w if rows.size == n else w[rows]
        _, e, _ = _shifted(w_rows, a, p)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            xwe = x * (w_rows * e)
            wxwe = w_rows * xwe
            neg, pos, w_neg, w_pos = (
                np.add.reduce(v, axis=1) for v in (
                    xwe[:, :k], xwe[:, k:], wxwe[:, :k], wxwe[:, k:]))
            f = np.log(pos) - np.log(-neg)
            last_f[rows] = f
            # Newton's step in alpha, as the step log(alpha_new / alpha) in
            # u; where alpha_new would cross 0, Newton's step in u or, if
            # larger, one that doubles |u|
            du = -f / (a * (w_pos / pos - w_neg / neg))
            du = np.where(du > -1.0, np.log1p(du),
                          np.minimum(du, -np.maximum(1.0, abs(u))))
            # a part that underflows to 0 is a step of 2 in u toward the
            # root; both (q on W = 0, alpha too far out) a step toward 0
            far = ~np.isfinite(f)
            if far.any():
                su = (side * up)[rows]
                f = np.where(np.isnan(f), su * np.inf, f)
                f[far] = np.sign(f[far])
                du[far] = -2.0 * (f * su)[far]
            # F within rounding of 0, or sums past the floats, stop a row
            f[(abs(f) <= 1e-13) | ~np.isfinite(neg + pos + w_neg + w_pos)] = 0
            return f, np.where(f == 0.0, 1.0, -f / du)

    u = np.clip(np.where(np.isfinite(u), u, 0.0), -_LEVEL_MAX, _LOG_CAP)
    u = newton_root(stationarity, np.full(n, -_LEVEL_MAX),
                    np.full(n, _LOG_CAP), u, flo=flo, fhi=side * up,
                    xtol=1e-12).x
    alpha = side * np.exp(u)
    j, ew, exw, ex2w, var_w, cov, var_xw = _tilted_moments(x, p, w, alpha)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        d_alpha = -(ex2w + alpha * var_xw) / cov
        d_ew = exw + alpha * cov + var_w * d_alpha
        on = (abs(last_f) <= 1e-8) & np.isfinite(d_ew)
        return (alpha, np.where(on, -np.log(ew), math.nan), j, -d_ew / ew,
                d_alpha / alpha)


def _curve(law):
    """The law's stationarity curve as curve(theta, u, side): _table_curve,
    or for two atoms x_lo < 0 < x_hi a closed form with no search (u and
    side unread): E_q[XW] = 0 puts the tilted masses at log(q_lo / q_hi) =
    z = log(x_hi / -x_lo) + theta (x_hi - x_lo), so J = KL(q || p), alpha
    is the logit difference of q and p over w_lo - w_hi, and dg/dtheta =
    -E_q X."""
    x, p = law
    if not (x.size == 2 and x.min() < 0.0 < x.max()):
        # x over a power of two s keeps theta x bit for bit, moments finite
        order, s = np.argsort(x), 2.0 ** np.frexp(abs(x).max())[1]
        x, p, k = x[order] / s, p[order], int(np.searchsorted(x[order], 0.0))

        def scaled(theta, u, side):
            a, g, j, dg, du = _table_curve((x, p), k, theta * s, u, side)
            # du s is inf at theta_m, where alpha = 0 (a supremum's probe)
            with np.errstate(over="ignore"):
                return a, g, j, dg * s, du * s
        return scaled
    (x_lo, l_lo), (x_hi, l_hi) = sorted(zip(x.tolist(), np.log(p).tolist()))
    k, d = math.log(x_hi / -x_lo), x_hi - x_lo

    def two_atoms(theta, u=None, side=None):
        z = k + theta * d
        lq_lo, lq_hi = -np.logaddexp(0.0, -z), -np.logaddexp(0.0, z)
        q_lo, q_hi = np.exp(lq_lo), np.exp(lq_hi)
        g = -np.logaddexp(lq_lo + theta * x_lo, lq_hi + theta * x_hi)
        j = q_lo * (lq_lo - l_lo) + q_hi * (lq_hi - l_hi)
        # w_lo - w_hi over the larger W atom, which may overflow
        top = np.maximum(theta * x_lo, theta * x_hi)
        alpha = (z - l_lo + l_hi) * np.exp(-top) / (
            np.exp(theta * x_lo - top) - np.exp(theta * x_hi - top))
        return alpha, g, j, -(q_lo * x_lo + q_hi * x_hi), 0.0 * lq_lo

    return two_atoms


def _spread(law):
    """The standard deviation of the law, the unit of the tilt steps, from
    x over its largest |x|, so that no square leaves the floats."""
    x, p = law
    y = x / float(abs(x).max())
    return float(abs(x).max()) * math.sqrt(float(p @ (y - p @ y) ** 2))


def _zero_limit(law, nu, s):
    """lim J_theta(nu) as theta runs to s inf, for a law with an atom at 0:
    W tends to 1 there, to 0 where s X < 0 and to inf where s X > 0, so the
    law moved to the level nu < 1 puts nu on X = 0 and the rest on s X <
    0; inf where either has no mass. A support that ends at 0 has an
    empty curve (X W keeps one sign), and this limit is its answer."""
    x, p = law
    p0, rest = float(p[x == 0.0].sum()), float(p[s * x < 0.0].sum())
    if not (p0 > 0.0 and rest > 0.0):
        return math.inf
    return (nu * (math.log(nu) - math.log(p0))
            + (1.0 - nu) * (math.log1p(-nu) - math.log(rest)))


def _search(model, law, target, start, step, side):
    """(value, theta, alpha_star) at the least J where the curve's level g
    reaches target on branch rows theta = start + t step, t > 0, alpha on
    the given side of 0, g(start) < target. Probes t = 1, 2, 4, ... double
    with no cap until g passes it, so step sets the scale, and newton_root
    in t, with slope dg/dt, solves between the last two probes from their
    secant (or between 0 and 1 from the Newton step off 1); J is meta_rate
    there. Each point's alpha search starts from the last point's, carried
    along by its slope: a continuation method's predictor. A row whose
    probes end off the curve first takes, on a law with an atom at 0,
    whose g stays bounded, the limit _zero_limit at its infinite end
    (alpha_star None), and raises NumericalError on any other law."""
    curve = _curve(law)
    # per row at its last point: alpha, g, J, dg/dt, theta, u = log |alpha|
    # and du/dtheta, and g - target at the probe before
    last = np.array([side] * 4 + [start, 0.0 * side, 0.0 * side])
    before = np.empty(start.size)

    def gap(t, rows):
        rows = rows if rows.size < start.size else slice(None)
        theta = start[rows] + t * step[rows]
        # u carried by its slope, or alpha by its own where |alpha| grows
        du = (theta - last[4, rows]) * last[6, rows]
        u = last[5, rows] + np.log1p(np.maximum(du, 0.0)) + np.minimum(du, 0.0)
        before[rows] = last[1, rows] - target
        a, g, j, dg, du = curve(theta, u, side[rows])
        with np.errstate(divide="ignore"):
            last[:, rows] = (a, g, j, dg * step[rows], theta,
                             np.log(np.abs(a)), du)
        return g - target, last[3, rows]

    t, f = expand_bracket(lambda t, rows: gap(t, rows)[0],
                          np.ones(start.size), math.inf, -1)
    reached = f >= 0.0
    if not (reached.all() or (law[0] == 0.0).any()):
        raise NumericalError(f"no tilt on the stationarity curve reaches "
                             f"the level {target:.6g}")
    lo = np.where(t > 1.0, 0.5 * t, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        x0 = np.where(t > 1.0, lo - lo * before / (f - before),
                      t - f / last[3])
    t = newton_root(gap, lo, t, np.where((lo < x0) & (x0 < t), x0, t),
                    flo=np.where(reached, -1.0, 0.0),
                    fhi=np.where(reached, f, 1.0), xtol=1e-12).x
    nu = math.exp(-target)
    value = np.where(reached, last[2], [
        r or _zero_limit(law, nu, s) for r, s in zip(reached, np.sign(step))])
    i = int(np.argmin(value))
    if not reached[i]:
        return float(value[i]), math.copysign(math.inf, step[i]), None
    theta = float(start[i] + t[i] * step[i])
    res = _meta_rate(model, law, theta, nu)
    return res.value, theta, res.alpha_star


def inf_meta_rate(model, a: float):
    """inf over theta of J_theta(e^{-a}) for a above I(0).

    Returns (value, theta_star). This is the decay rate of the upward error
    P(I_m(0) >= a). The minimizing tilt lies on the stationarity curve
    where its level g equals a, on one of the two branches with alpha < 0:
    outward from theta_m, the minimizer of Lambda (g = I(0) there), and
    from 0 (g = 0) on the other side of 0. _search solves g = a on both in
    lock-step and keeps the smaller J, meta_rate there, or a limit at an
    infinite tilt on a law with an atom at 0.
    """
    rate = _rate_at_zero(model)
    i0 = rate.value
    if not a > i0:
        raise RegimeError(
            f"inf_meta_rate needs a > I(0) = {i0:.6g}; for a below I(0) "
            "use sup_meta_rate_on_theta_a")
    law = _law(model)
    unit = math.copysign(1.0, rate.theta_star) / _spread(law)
    return _search(model, law, a, np.array([rate.theta_star, 0.0]),
                   np.array([unit, -unit]), -np.ones(2))[:2]


def _rate_at_zero(model):
    """rate_function(model, 0.0): I(0) and theta_star, the minimizer of
    Lambda, from each entry point's one Lambda' = 0 search. Raises
    NumericalError where theta_star is no minimizer: at "theta-cap", where
    the value is only a lower bound on I(0), and at "theta-overflow"."""
    rate = rate_function(model, 0.0)
    if rate.status in ("theta-cap", "theta-overflow"):
        raise NumericalError(f"I(0) of {model!r} is unresolved "
                             f"({rate.status})", best=rate)
    return rate


def _theta_a_interval(model, a, theta_m):
    """[theta_lo, theta_hi] where Lambda <= -a, for 0 < a < I(0), given
    theta_m, the minimizer of Lambda (rate_function's theta_star at 0).

    Each endpoint is bracketed between theta_m and a point outside Theta_a
    on that side: 0 when it lies there (Lambda(0) = 0 > -a), else a probe
    stepped toward the domain edge with no cap. Toward an infinite edge
    where the support ends at 0, Lambda falls to -I(0) < -a: Theta_a is
    unbounded, and the endpoint is that edge.
    """
    def excess(t):
        return model.log_mgf(t) + a     # <= 0 exactly on Theta_a

    def endpoint(edge):
        right = edge > theta_m
        if (theta_m < 0.0) == right:
            x = 0.0
        elif math.isinf(edge) and model.support()[int(right)] == 0.0:
            return edge
        else:
            step = max(abs(theta_m), 0.5)
            x = theta_m + step if right else theta_m - step
            if math.isfinite(edge):
                far = (edge if math.isfinite(model.log_mgf(edge))
                       else 0.5 * (theta_m + edge))
                x = min(x, far) if right else max(x, far)
        x, fx = expand_bracket(excess, x, edge, -1)
        if fx <= 0.0:
            return x
        if right:
            return falsi_root(excess, theta_m, x, fhi=fx, xtol=1e-10).lo
        return falsi_root(excess, x, theta_m, flo=fx, xtol=1e-10).hi

    d_lo, d_hi = model.theta_domain()
    return endpoint(d_lo), endpoint(d_hi)


def sup_meta_rate_on_theta_a(model, a: float):
    """sup of J_theta(e^{-a}) over Theta_a = {Lambda <= -a}, 0 < a < I(0).

    Returns (value, theta_star, (theta_lo, theta_hi)), an end infinite
    where Theta_a is unbounded. At the endpoints Lambda = -a puts the level
    at E W, where the rate vanishes, so a positive supremum lies on the
    stationarity curve's branch with alpha > 0, between 0 (g = 0) and
    theta_m (g = I(0)), where _search finds g = a. A heavy upper tail of W
    on that branch forces it to 0 (reported at theta_lo).
    """
    rate = _rate_at_zero(model)
    i0 = rate.value
    if not 0.0 < a < i0:
        raise RegimeError(
            f"sup_meta_rate_on_theta_a needs 0 < a < I(0) = {i0:.6g}")
    if math.isinf(i0):
        raise RegimeError("degenerate model: I(0) is infinite")
    left, right = _theta_a_interval(model, a, rate.theta_star)
    if math.isinf(model.support()[int(rate.theta_star > 0.0)]):
        return 0.0, left, (left, right)
    value, theta, _ = _search(model, _law(model), a, np.zeros(1),
                              np.array([rate.theta_star]), np.ones(1))
    return value, theta, (left, right)


def two_phase_exponent(model, c1: float, c2: float) -> TwoPhaseExponent:
    """Optimal failure exponent of the two-phase budget split.

    It is the decay rate of P(FS) per pilot sample m, for the decision
    batch N = c2 m / I_m(0) of two_phase_select. c1 only sets m =
    ceil(c1 log(1/delta)), so it is validated and echoed but never read:
    P(FS) decays like delta^(c1 exponent), at c1 = 1 with the exponent as
    the slope of -log P(FS) against log(1/delta).

    Minimizes phi(b) = c2 I(0) / b + inf_theta J_theta(e^{-b}) over the
    phase-1 level b from I(0) up to _LEVEL_MAX, where e^{-b} is still a
    normal float. The inner infimum lies on the stationarity curve's
    branch outward from theta_m, the minimizer of Lambda (see
    inf_meta_rate), where g(theta) = b, so phi is a function of theta
    there. Along the curve dJ/dtheta = -alpha e^{-g} dg/dtheta, so phi's
    slope has the sign of -alpha e^{-g} - c2 I(0) / g^2 wherever g rises.
    Probes theta_m + t / sd(X), t = 1, 2, 4, ..., walk the branch until it
    turns +, g passes _LEVEL_MAX, or the curve stops rising or leaves the
    floats; _first_minimum solves the first sign change.

    A law whose support ends at 0 has an empty curve: X W < 0 wherever X
    < 0, and as theta grows J_theta(nu) falls toward KL(Bern(nu) ||
    Bern(p0)), p0 = e^{-I(0)}. So theta_star = +inf, and with nu = e^{-b},
    phi has the slope a nu - c2 I(0) / b^2 in b, a = alpha_star = log(p0
    (1 - nu) / ((1 - p0) nu)).

    NumericalError is raised for an empty window, and where phi has no
    minimum at or below its limit as b grows without bound, -log P(X < 0),
    which the message names, as far as the curve reaches.
    """
    if c1 <= 0 or c2 <= 0:
        raise ValueError("c1 and c2 must be positive")
    if model.mean() >= 0:
        raise RegimeError("two-phase exponent needs a negative-mean model")
    rate = _rate_at_zero(model)
    i0 = rate.value
    if not math.isfinite(i0) or i0 <= 0:
        raise RegimeError("degenerate model: I(0) must be finite positive")
    if not i0 * (1.0 + 1e-7) < _LEVEL_MAX:
        raise NumericalError(f"two-phase exponent: no level b in (I(0), "
                             f"{_LEVEL_MAX:.6g}] for I(0) = {i0:.6g}")
    c = c2 * i0
    if model.support()[1] == 0.0:
        limit = -math.log(-math.expm1(-i0))     # -log(1 - p0)

        def slope(b):
            nu = np.exp(-b)
            return (b + np.log1p(-nu) + limit - i0) * nu - c / (b * b)

        def at(b):
            nu = math.exp(-b)
            exponent = (c / b + nu * (i0 - b)
                        + (1.0 - nu) * (math.log1p(-nu) + limit))
            return TwoPhaseExponent(exponent, b, math.inf, c / (b * b * nu),
                                    c1, c2)

        grid = np.geomspace(i0 * (1.0 + 1e-7), _LEVEL_MAX, 129)
        return _first_minimum(slope, grid, slope(grid), at, limit)
    x, p = law = _law(model)
    limit = -math.log(float(model.cdf(0.0)) if model.atoms() is None
                      else float(p[x < 0.0].sum()))
    theta_m, unit = rate.theta_star, 1.0 / _spread(law)
    curve = _curve(law)
    state = [theta_m, 0.0, 0.0]     # theta, u, du/dtheta, as in _search

    def point(t):
        du = (t - state[0]) * state[2]
        a, g, j, _, du = (v.item(0) for v in curve(
            t, state[1] + (math.log1p(du) if du > 0.0 else du), -1.0))
        if a:
            state[:] = t, math.log(abs(a)), du
        return a, g, j

    def log_slope(a, g):    # phi's slope sign, nearly linear for falsi_root
        if not (a < 0.0 < g):
            return -math.inf
        return math.log(-a) - g - math.log(c) + 2.0 * math.log(g)

    # (theta, g, log_slope) at theta_m and at each probe
    probes = [(theta_m, i0, -math.inf)]

    def walk(t):
        a, g, _ = point(theta_m + t * unit)
        rising = math.isfinite(g) and g > probes[-1][1]
        if rising:
            probes.append((theta_m + t * unit, g, log_slope(a, g)))
        return -1.0 if rising and g < _LEVEL_MAX and probes[-1][2] <= 0.0 \
            else 1.0

    expand_bracket(walk, 1.0, math.inf, -1)
    theta, g, f = (np.array(v) for v in zip(*probes))
    if not (g[-1] >= _LEVEL_MAX or f[-1] > 0.0):
        raise NumericalError(
            f"two-phase exponent: phi(b) falls up to b = {g[-1]:.6g}, where "
            f"the stationarity curve leaves the floats, with no minimum at "
            f"or below its limit -log P(X < 0) = {limit:.10g}")

    def slope(t):
        return log_slope(*point(t)[:2])

    def at(t):
        a, g, j = point(t)
        return TwoPhaseExponent((c / g if g > 0.0 else math.inf) + j, g, t,
                                -a, c1, c2)

    return _first_minimum(slope, theta, f, at, limit)


def _first_minimum(slope, grid, f, at, limit):
    """at(t) at the first minimum of phi over an increasing grid, f =
    slope(grid), slope(t) of the sign of phi': falsi_root solves the first
    step where f turns from - to +. NumericalError names phi's limit where
    there is none, or the exponent there is above it."""
    k = int(np.argmax((f[:-1] <= 0.0) & (f[1:] > 0.0)))
    if f.size > 1 and f[k] <= 0.0 < f[k + 1]:
        t = float(falsi_root(slope, float(grid[k]), float(grid[k + 1]),
                             float(f[k]), float(f[k + 1])).mid)
        result = at(t)
        if result.exponent <= limit:
            return result
    raise NumericalError(
        f"two-phase exponent: phi(b) has no minimum at or below its "
        f"limit -log P(X < 0) = {limit:.10g} as b grows without bound")


def sequential_failure_certificate(model, c1: float):
    """Certificate that the round-1 stopping proxy under-controls errors.

    Minimizes J_{-theta}(e^{-1/c1}) over tilts theta > 0 (the value reported
    is the decay rate of the probability that the rate estimate crosses the
    stopping threshold while the sign decision is wrong). certified = True
    when the minimum is strictly below 1/c1, which makes the ratio of the
    false-selection probability to its target delta blow up as delta -> 0.

    Returns (theta, alpha_star, meta_rate_value, certified), -theta the
    root of g = 1/c1 on inf_meta_rate's branch from 0 with theta < 0, with
    no cap on the tilt; RegimeError where X <= 0 keeps every W above the
    level. alpha_star is the maximizer of the defining sup, converted to
    the z-convention for the shifted-exponential model (see the module
    docstring).
    """
    if c1 <= 0:
        raise ValueError("c1 must be positive")
    if model.mean() >= 0:
        raise RegimeError("certificate needs a negative-mean model")
    i0 = _rate_at_zero(model).value
    if not i0 < 1.0 / c1:
        raise RegimeError(
            f"certificate regime needs I(0) = {i0:.6g} < 1/c1 = "
            f"{1.0 / c1:.6g}")

    if not model.support()[1] > 0.0:
        raise RegimeError(
            "certificate needs a tilt theta with e^(-1/c1) in the range of "
            "exp(-theta X), which X <= 0 keeps at or above 1")
    law = _law(model)
    value, theta, alpha_star = _search(model, law, 1.0 / c1, np.zeros(1),
                                       np.array([-1.0 / _spread(law)]),
                                       -np.ones(1))
    if alpha_star is not None and isinstance(model, ShiftedExponential):
        # W = e^{-theta K} z: the coefficient of z in exp(-alpha z)
        alpha_star = -alpha_star * math.exp(theta * model.K)
    return -theta, alpha_star, value, value < 1.0 / c1 - 1e-9
