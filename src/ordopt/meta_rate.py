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
from ._solve import bisect_root, expand_bracket, newton_root, newton_system
from .populations import ShiftedExponential, rate_function

__all__ = [
    "RegimeError", "NumericalError", "MetaRateResult", "TwoPhaseExponent",
    "tilted_log_mgf", "meta_rate", "inf_meta_rate",
    "sup_meta_rate_on_theta_a", "two_phase_exponent",
    "sequential_failure_certificate",
]

_THETA_BRACKET = 64.0
_ALPHA_CAP = 2.0 ** 30
# matrix elements in one block of tilts solved in lock-step: a whole
# 129-tilt grid over a density table of up to 2208 nodes at once would add
# some 10 MB of temporaries to each step
_BLOCK = 2 ** 16
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

    status is "interior" when alpha_star solves M'(alpha) = nu; "boundary"
    when the sup sits on the edge of the domain of M (alpha_star = 0 with
    value 0, or no finite maximizer, alpha_star None, with value +inf);
    "alpha-cap" when the search stopped at |alpha| = 2^30, where value is
    the objective at the cap, a lower bound (the limit itself for a level
    at an atom on the edge of the range of W).
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
    hi, e, den = _shifted(p, w, alpha)
    we = w * e
    t_mean = np.add.reduce(we, axis=1) / den
    var = np.add.reduce(w * we, axis=1) / den - t_mean * t_mean
    return (alpha * nu - hi) - np.log(den), t_mean, var


def _shifted(p, w, alpha):
    """(hi, e, den) for each row of w at one alpha (or one per row): hi is
    the row's largest exponent alpha w, e = p e^{alpha w - hi} and den its
    row sum, so M(alpha) = hi + log den."""
    with np.errstate(over="ignore"):
        e = np.asarray(alpha, dtype=float).reshape(-1, 1) * w
    hi = np.maximum.reduce(e, axis=1)
    e -= hi[:, None]
    np.exp(e, out=e)
    e *= p
    return hi, e, np.add.reduce(e, axis=1)


def _tilted_moments(law, theta, alpha):
    """(E W, E[XW], E[X^2 W], Var W, Cov(W, XW), Var XW) under q
    proportional to p e^{alpha W}, W = e^{theta X}, at one tilt and one
    alpha, from one tilt and one shifted exp pass over the law; None where
    the shift or its sum is not finite. These are the residuals and the
    exact Jacobian of every stationarity system in theta and alpha."""
    x, p, w = _tilt(law, theta)
    hi, e, den = _shifted(p, w, alpha)
    if not (math.isfinite(hi[0]) and math.isfinite(den[0])):
        return None
    # each product takes the weight e first, so a node whose w is _BIG
    # (e exactly 0) adds exactly 0 to every sum
    w = w[0]
    we = w * e[0]
    xwe = x * we
    wxwe = w * xwe
    ew, exw, ew2, exw2, ex2w, ex2w2 = np.add.reduce(
        [we, xwe, w * we, wxwe, x * xwe, x * wxwe], axis=1) / den
    return ew, exw, ex2w, ew2 - ew * ew, exw2 - ew * exw, ex2w2 - exw * exw


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
    with the tilted variance of W as M''.

    The domain of M is all of R when W = exp(theta X) is bounded above and
    (-inf, 0] otherwise; in the latter case levels nu >= E W sit at the
    boundary alpha = 0 with value 0 (no decay through that tilt). Levels at
    or below the essential infimum of W give +infinity for density models
    and -log(mass) for an atom there; the search saturates at |alpha| =
    2^30 in that regime and reports the value there with status
    "alpha-cap" (see MetaRateResult). A density's node table (see
    tilted_log_mgf) holds every level with P(W <= nu) >= 1e-300.
    """
    return _meta_rate(model, _law(model), theta, nu)


def _meta_rate(model, law, theta, nu):
    """meta_rate over a law built once. theta may also be a 1-D array: its
    tilts are solved in lock-step, in blocks of at most _BLOCK matrix
    elements, and every field of the result is an array (alpha_star nan
    where the float result has None). Each tilt gets exactly the result of
    its own scalar call."""
    nu = float(nu)
    if nu <= 0:
        raise ValueError("nu must be positive")
    thetas = np.atleast_1d(np.asarray(theta, dtype=float))
    value = np.full(thetas.size, math.inf)
    alpha = np.full(thetas.size, math.nan)
    status = np.full(thetas.size, "boundary", dtype=object)
    w_lo, w_hi = _w_bounds(model, thetas)
    flat = w_lo == w_hi
    at_level = flat & (abs(nu - w_lo) < 1e-12)
    value[at_level] = alpha[at_level] = 0.0
    inside = ~flat & (w_lo <= nu) & (nu <= w_hi)
    # W unbounded above: alpha = 0 closes the domain of M, with the
    # sign-equal gap log E W - log nu there, as E W can overflow; nu at or
    # above E W decays at rate 0
    unbounded = np.isinf(w_hi)
    gap_zero = np.ones(thetas.size)
    for i in np.flatnonzero(inside & unbounded):
        gap_zero[i] = model.log_mgf(float(thetas[i])) - math.log(nu)
    at_mean = inside & (gap_zero <= 0)
    value[at_mean] = alpha[at_mean] = 0.0
    rows = np.flatnonzero(inside & (gap_zero > 0))
    block = max(1, _BLOCK // law[0].size)
    for k in range(0, rows.size, block):
        r = rows[k:k + block]
        value[r], alpha[r], status[r] = _solve_alpha(
            law, thetas[r], unbounded[r], gap_zero[r], nu)
    if np.ndim(theta):
        return MetaRateResult(value, alpha, thetas, nu, status)
    a = float(alpha[0])
    return MetaRateResult(float(value[0]), None if math.isnan(a) else a,
                          theta, nu, status[0])


def _solve_alpha(law, thetas, unbounded, gap_zero, nu):
    """(value, alpha_star, status) for one block of tilts whose level lies
    inside the range of W and, where W is unbounded above, below E W.

    The sign of M'(0) - nu tells which side of 0 the root is on: gap_zero
    holds it where W is unbounded above, and the table's own E W gives it
    elsewhere. A tilt whose tilted mean at |alpha| = 2^30 on that side is
    still on the same side of nu saturates there; the others run
    newton_root in [-2^30, 0] or [0, 2^30], with the tilted variance of W
    as the derivative. One pass evaluates each row's first two points:
    alpha = -1 or 1 and, where W is bounded above so that M''(0) = Var W is
    finite, one Newton step from alpha = 0. Both narrow the row's bracket,
    and the row steps on from the one whose tilted mean is nearer nu in
    ratio. Neither start serves alone: the Newton step lands some 25
    decades short of the root on the steep rows of a density table
    (ShiftedExponential(0.96, 1) at theta = 55), and +-1 lands as far past
    it on the far tilts of a two-point law."""
    x, p, w = _tilt(law, thetas)
    f_zero, value = gap_zero.copy(), np.zeros(thetas.size)
    var_zero = np.full(thetas.size, math.inf)
    bounded = np.flatnonzero(~unbounded)
    if bounded.size:
        value[bounded], t_zero, var_zero[bounded] = _atom_moments(
            x, p, w[bounded], 0.0, nu)
        f_zero[bounded] = t_zero - nu
    side = np.where(f_zero > 0, -1.0, 1.0)
    j_cap, t_cap, _ = _atom_moments(x, p, w, side * _ALPHA_CAP, nu)
    f_cap = t_cap - nu
    capped = side * f_cap <= 0
    alpha = np.where(capped, side * _ALPHA_CAP, 0.0)
    value = np.where(capped, j_cap, value)
    status = np.where(capped, "alpha-cap", "interior").astype(object)
    solve = np.flatnonzero(~capped & (f_zero != 0))
    if solve.size:
        w_solve = w if solve.size == thetas.size else w[solve]
        n, unit = solve.size, side[solve]
        end = unit * _ALPHA_CAP
        lo, hi = np.minimum(end, 0.0), np.maximum(end, 0.0)
        down = unit < 0
        flo = np.where(down, f_cap[solve], f_zero[solve])
        fhi = np.where(down, f_zero[solve], f_cap[solve])
        with np.errstate(divide="ignore", invalid="ignore"):
            step = -f_zero[solve] / var_zero[solve]
        warm = np.flatnonzero((unit * step > 0) & (abs(step) < _ALPHA_CAP))
        x0, j_at = unit.copy(), np.empty(n)
        if warm.size:
            pts = np.stack([unit[warm], step[warm]])
            first = _atom_moments(x, p, np.tile(w_solve[warm], (2, 1)),
                                  pts.ravel(), nu)
            j, gaps, slopes = (v.reshape(2, -1) for v in (
                first[0], first[1] - nu, first[2]))
            b_lo, b_hi, f_lo, f_hi = lo[warm], hi[warm], flo[warm], fhi[warm]
            for at, f in zip(pts, gaps):
                # the gap M'(alpha) - nu increases with alpha
                up, down = (f > 0) & (at < b_hi), (f <= 0) & (at > b_lo)
                b_hi[up], f_hi[up] = at[up], f[up]
                b_lo[down], f_lo[down] = at[down], f[down]
            lo[warm], hi[warm], flo[warm], fhi[warm] = b_lo, b_hi, f_lo, f_hi
            with np.errstate(divide="ignore", invalid="ignore"):
                off = abs(np.log1p(gaps / nu))
            best = ((off[1] < off[0]).astype(int), np.arange(warm.size))
            j_at[warm] = j[best]
            # newton_root's next point from there when it lies inside the
            # bracket; else newton_root starts at that point itself
            with np.errstate(divide="ignore", invalid="ignore"):
                nxt = pts[best] - gaps[best] / slopes[best]
            x0[warm] = np.where((b_lo < nxt) & (nxt < b_hi), nxt, pts[best])

        noise = 4.0 * np.finfo(float).eps * nu

        def gap(a, rows):
            """Tilted W-mean minus nu and its slope, the tilted variance;
            the objective at the point is kept as the value. Where the
            tilted law is a point mass in floats, both are rounding noise,
            and a gap of 0 stops the row."""
            j, t_mean, var = _atom_moments(
                x, p, w_solve if rows.size == n else w_solve[rows], a, nu)
            j_at[rows] = j
            f = t_mean - nu
            f[(abs(f) <= noise) & (var <= noise * nu)] = 0.0
            return f, var

        root = newton_root(gap, lo, hi, x0, flo=flo, fhi=fhi, xtol=1e-13,
                           ftol=1e-11 * max(1.0, nu))
        alpha[solve], value[solve] = root.x, j_at
    return np.maximum(value, 0.0), alpha, status


def inf_meta_rate(model, a: float):
    """inf over theta of J_theta(e^{-a}) for a above I(0).

    Returns (value, theta_star). This is the decay rate of the upward error
    P(I_m(0) >= a). A coarse grid of 81 tilts, 0 and 40 on either side
    evenly spaced in log|theta| from 1e-3 to 64, solved in one array call,
    finds the basin; the stationarity Newton of _tilt_search then solves
    for the minimizing tilt within the cells next to the best grid tilt,
    which stands where Newton does not converge.
    """
    i0 = _rate_at_zero(model).value
    if not a > i0:
        raise RegimeError(
            f"inf_meta_rate needs a > I(0) = {i0:.6g}; for a below I(0) "
            "use sup_meta_rate_on_theta_a")
    t = _geometric_tilts(1e-3, 40)
    theta_star, res = _tilt_search(model, _law(model), math.exp(-a),
                                   np.concatenate([-t[::-1], [0.0], t]))
    return res.value, theta_star


def _geometric_tilts(smallest, n):
    """n tilts from smallest up to _THETA_BRACKET, evenly spaced in log."""
    return np.geomspace(smallest, _THETA_BRACKET, n)


def _tilt_search(model, law, nu, grid, *, sign=1.0):
    """(theta, result): the tilt where sign * J_theta(nu) is least, sign =
    -1 seeking the supremum, with _meta_rate's result there.

    The tilts of grid, in order in either direction, are solved in one
    lock-step call to find the basin. From the best of them, where its
    alpha is interior, newton_system solves the stationarity system

        r1 = E_q W - nu:   d/dtheta = E[XW] + alpha Cov(W, XW),
                           d/dalpha = Var W
        r2 = E_q[XW]:      d/dtheta = E[X^2 W] + alpha Var(XW),
                           d/dalpha = Cov(W, XW)

    in (theta, alpha), with q proportional to p e^{alpha W}, W = e^{theta
    X}, the moments under q, and each step's residuals and Jacobian from
    one pass of _tilted_moments. The system's domain is the cells next to
    the best grid tilt, with alpha of the grid's sign: Newton's line search
    halves back into them, and newton_system gives up once its iterates
    keep leaving them. Its tilt is the answer when it converges and does
    no worse than the best grid tilt, which is the answer otherwise. The
    answer's result is one more scalar _meta_rate solve there.
    """
    res = _meta_rate(model, law, grid, nu)
    vals = sign * res.value
    vals[np.isnan(vals)] = math.inf
    i = int(np.argmin(vals))
    lo, hi = sorted(float(grid[k])
                    for k in (max(i - 1, 0), min(i + 1, grid.size - 1)))
    alpha0 = res.alpha_star[i]
    if res.status[i] == "interior" and alpha0 != 0.0:
        def system(v):
            theta, alpha = v
            if not (lo <= theta <= hi and alpha * alpha0 > 0.0):
                return None
            moments = _tilted_moments(law, theta, alpha)
            if moments is None:
                return None
            ew, exw, ex2w, var_w, cov, var_xw = moments
            return (np.array([ew - nu, exw]),
                    np.array([[exw + alpha * cov, var_w],
                              [ex2w + alpha * var_xw, cov]]))

        root = newton_system(system, [grid[i], alpha0])
        if root is not None:
            at = _meta_rate(model, law, root[0], nu)
            if sign * at.value <= vals[i]:
                return root[0], at
    theta = float(grid[i])
    return theta, _meta_rate(model, law, theta, nu)


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
    stepped toward the domain edge, and the end of the final bracket
    inside Theta_a is returned. If Theta_a runs past |theta| = 4 * 64 the
    last probe stands in for the endpoint. That may be the first probe,
    2 theta_m, when it already lies past the limit: on Bernoulli(0.3),
    theta_m = -1024, and the left endpoint returned is -2048.
    """
    def excess(t):
        return model.log_mgf(t) + a     # <= 0 exactly on Theta_a

    def endpoint(edge):
        right = edge > theta_m
        if (theta_m < 0.0) == right:
            x = 0.0
        else:
            step = max(abs(theta_m), 0.5)
            x = theta_m + step if right else theta_m - step
            if math.isfinite(edge):
                far = (edge if math.isfinite(model.log_mgf(edge))
                       else 0.5 * (theta_m + edge))
                x = min(x, far) if right else max(x, far)
        x, fx = expand_bracket(excess, x, edge, -1,
                               cap=4.0 * _THETA_BRACKET)
        if fx <= 0.0:
            return x
        if right:
            return bisect_root(excess, theta_m, x, fhi=fx, xtol=1e-10).lo
        return bisect_root(excess, x, theta_m, flo=fx, xtol=1e-10).hi

    d_lo, d_hi = model.theta_domain()
    return endpoint(d_lo), endpoint(d_hi)


def sup_meta_rate_on_theta_a(model, a: float):
    """sup of J_theta(e^{-a}) over Theta_a = {Lambda <= -a}, 0 < a < I(0).

    Returns (value, theta_star, (theta_lo, theta_hi)). At the interval
    endpoints Lambda = -a makes the level equal E W and the rate vanish, so
    any positive supremum is interior; a heavy upper tail of W forces the
    supremum to 0 everywhere on the interval. A grid of 129 tilts evenly
    spaced across Theta_a finds the basin, and the stationarity Newton of
    _tilt_search solves for the maximizer, which makes the first-order
    residual E[X W exp(alpha* W)] its convergence test; where Newton does
    not converge, the best grid tilt stands.
    """
    rate = _rate_at_zero(model)
    i0 = rate.value
    if not 0.0 < a < i0:
        raise RegimeError(
            f"sup_meta_rate_on_theta_a needs 0 < a < I(0) = {i0:.6g}")
    if math.isinf(i0):
        raise RegimeError("degenerate model: I(0) is infinite")
    left, right = _theta_a_interval(model, a, rate.theta_star)
    theta_star, res = _tilt_search(
        model, _law(model), math.exp(-a), np.linspace(left, right, 129),
        sign=-1.0)
    return res.value, theta_star, (left, right)


def two_phase_exponent(model, c1: float, c2: float) -> TwoPhaseExponent:
    """Optimal failure exponent of the two-phase budget split.

    It is the decay rate of P(FS) per pilot sample m, for the decision
    batch N = c2 m / I_m(0) of two_phase_select. c1 only sets m =
    ceil(c1 log(1/delta)), so it is validated and echoed but never read:
    P(FS) decays like delta^(c1 exponent), at c1 = 1 with the exponent as
    the slope of -log P(FS) against log(1/delta).

    Minimizes phi(b) = c2 I(0) / b + inf_theta J_theta(e^{-b}) over the
    phase-1 level b in the window from I(0)(1 + 1e-7) up to _LEVEL_MAX,
    where e^{-b} is still a normal float (past it the level and outer
    residuals vanish for want of digits). newton_system solves the
    stationarity system of _two_phase_newton, a level condition, theta
    stationarity and outer stationarity in the level g, the tilt theta and
    the negated alpha a, on the window from (2 I(0), theta*, 1), theta* the
    minimizer of Lambda, with each point's residuals and exact Jacobian
    from one pass of tilted moments.

    Where the support ends at 0, X W < 0 wherever X < 0, and the theta
    equation has no root: as theta > 0 grows, W = e^{theta X} falls
    pointwise and J_theta(nu) with it, toward KL(Bern(nu) || Bern(p0)),
    the rate of the indicator of X = 0, p0 = e^{-I(0)}. So theta_star =
    +inf, and with nu = e^{-b}, phi(b) = c2 I(0) / b + KL has the slope
    a nu - c2 I(0) / b^2, a = log(p0 (1 - nu) / ((1 - p0) nu)). In the
    first step of 1025 levels, evenly spaced in log b across the window,
    where it turns from - to +, bisect_root finds the minimum, with
    alpha_star from Newton's outer stationarity.

    NumericalError is raised for an empty window, where Newton gives up
    (the minimum lies past the window or at an infinite tilt), and where
    no such minimum is at most phi's b -> inf limit, -log P(X < 0).
    """
    if c1 <= 0 or c2 <= 0:
        raise ValueError("c1 and c2 must be positive")
    if model.mean() >= 0:
        raise RegimeError("two-phase exponent needs a negative-mean model")
    rate = _rate_at_zero(model)
    i0 = rate.value
    if not math.isfinite(i0) or i0 <= 0:
        raise RegimeError("degenerate model: I(0) must be finite positive")

    lo = i0 * (1.0 + 1e-7)
    if not lo < _LEVEL_MAX:
        raise NumericalError(f"two-phase exponent: no level b in (I(0), "
                             f"{_LEVEL_MAX:.6g}] for I(0) = {i0:.6g}")
    c = c2 * i0
    if model.support()[1] == 0.0:
        limit = -math.log(-math.expm1(-i0))     # -log(1 - p0)

        def slope(b):
            nu = np.exp(-b)
            return (b + np.log1p(-nu) + limit - i0) * nu - c / (b * b)

        levels = np.geomspace(lo, _LEVEL_MAX, 1025)
        f = slope(levels)
        k = int(np.argmax((f[:-1] <= 0.0) & (f[1:] > 0.0)))
        if f[k] <= 0.0 < f[k + 1]:
            b = float(bisect_root(slope, levels[k], levels[k + 1], flo=f[k],
                                  fhi=f[k + 1]).mid)
            nu = math.exp(-b)
            exponent = (c / b + nu * (i0 - b)
                        + (1.0 - nu) * (math.log1p(-nu) + limit))
            if exponent <= limit:
                return TwoPhaseExponent(exponent, b, math.inf,
                                        c / (b * b * nu), c1, c2)
        raise NumericalError(
            f"two-phase exponent: phi(b) has no minimum at or below its "
            f"limit -log P(X < 0) = {limit:.10g} as b grows without bound")
    law = _law(model)
    newton = _two_phase_newton(law, c2, i0, lo, rate.theta_star)
    if newton is None:
        raise NumericalError(f"two-phase exponent: Newton found no root "
                             f"with b in [{lo:.6g}, {_LEVEL_MAX:.6g}]")
    gamma, theta, alpha = newton
    value = _atom_moments(*_tilt(law, theta), -alpha, math.exp(-gamma))[0]
    return TwoPhaseExponent(c / gamma + float(value[0]), gamma, theta,
                            alpha, c1, c2)


def _two_phase_newton(law, c2, i0, lo, theta0):
    """(g, theta, a) zeroing the residuals r1 to r3 below, by newton_system
    from (2 I(0), theta0, 1) on lo <= g <= _LEVEL_MAX, a > 0, or None. With q
    proportional to p e^{-a W}, W = e^{theta X}, and E, Var and Cov under
    q, the residuals and their exact Jacobian are

        r1 = E W - e^{-g}:  d/dg = e^{-g},  d/dtheta = E[XW] - a Cov(W, XW),
                            d/da = -Var W
        r2 = E[XW]:         d/dg = 0,  d/dtheta = E[X^2 W] - a Var(XW),
                            d/da = -Cov(XW, W)
        r3 = a e^{-g} - c2 I(0) / g^2:  d/dg = -a e^{-g} + 2 c2 I(0) / g^3,
                            d/dtheta = 0,  d/da = e^{-g}

    all from one _tilted_moments pass per point (at alpha = -a)."""
    c = c2 * i0

    def system(v):
        g, theta, a = v
        if not (lo <= g <= _LEVEL_MAX and a > 0):
            return None
        moments = _tilted_moments(law, theta, -a)
        if moments is None:
            return None
        ew, exw, ex2w, var_w, cov, var_xw = moments
        level = math.exp(-g)
        r = np.array([ew - level, exw, a * level - c / (g * g)])
        jac = np.array([[level, exw - a * cov, -var_w],
                        [0.0, ex2w - a * var_xw, -cov],
                        [2.0 * c / g ** 3 - a * level, 0.0, level]])
        return r, jac

    return newton_system(system, [2.0 * i0, theta0, 1.0])


def sequential_failure_certificate(model, c1: float):
    """Certificate that the round-1 stopping proxy under-controls errors.

    Minimizes J_{-theta}(e^{-1/c1}) over tilts theta > 0 (the value reported
    is the decay rate of the probability that the rate estimate crosses the
    stopping threshold while the sign decision is wrong). certified = True
    when the minimum is strictly below 1/c1, which makes the ratio of the
    false-selection probability to its target delta blow up as delta -> 0.

    Returns (theta, alpha_star, meta_rate_value, certified), found by the
    tilt search of inf_meta_rate on 33 tilts evenly spaced in log theta
    over [1e-6, 64] (the stationarity Newton of _tilt_search at -theta;
    the best grid tilt where Newton does not converge); tilts where
    e^{-1/c1} lies below the range of W give +inf and the grid steps over
    them. alpha_star is the maximizer of the defining sup,
    converted to the z-convention for the shifted-exponential model (see
    the module docstring).
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

    nu, law = math.exp(-1.0 / c1), _law(model)
    # W = exp(-theta X) reaches lowest at the largest tilt; its upper end
    # is above 1 > nu, as a negative-mean X takes negative values
    w_lo = _w_bounds(model, np.array([-_THETA_BRACKET]))[0][0]
    if nu < w_lo:
        raise RegimeError(
            f"certificate needs a tilt theta <= {_THETA_BRACKET:g} with "
            f"e^(-1/c1) = {nu:.6g} in the range of exp(-theta X), which at "
            f"theta = {_THETA_BRACKET:g} starts at {w_lo:.6g}")
    # the tilts t of [1e-6, 64], searched as theta = -t
    theta, res = _tilt_search(model, law, nu, -_geometric_tilts(1e-6, 33))
    theta_star = -theta
    alpha_star = res.alpha_star
    if alpha_star is not None and isinstance(model, ShiftedExponential):
        # W = e^{-theta K} z: the coefficient of z in exp(-alpha z)
        alpha_star = -alpha_star * math.exp(-theta_star * model.K)
    return theta_star, alpha_star, res.value, res.value < 1.0 / c1 - 1e-9
