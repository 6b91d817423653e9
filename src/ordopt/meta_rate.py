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
import warnings
from dataclasses import dataclass

import numpy as np

from ._solve import (bisect_root, expand_bracket, grid_then_brent,
                     newton_root, newton_system)
from .populations import (ShiftedExponential, _derivative_bracket,
                          rate_function)

__all__ = [
    "RegimeError", "NumericalError", "MetaRateResult", "TwoPhaseExponent",
    "tilted_log_mgf", "meta_rate", "inf_meta_rate",
    "sup_meta_rate_on_theta_a", "two_phase_exponent",
    "sequential_failure_certificate",
]

_THETA_BRACKET = 64.0
_ALPHA_CAP = 2.0 ** 30
# matrix elements in one block of tilts solved in lock-step: a whole
# 257-tilt grid over a 2192-node density table at once would add some
# 20 MB of temporaries to each step
_BLOCK = 2 ** 16
_BIG = np.finfo(float).max


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


_ORDER = 16
_CORE_PANELS = 48
_SPAN_PANELS = 48
_CORE_LOGIT = math.log(1e14)
_TAIL_GROWTH = 1.25
_REACH_LOGIT = math.log(1e300)
_GL_X, _GL_W = np.polynomial.legendre.leggauss(_ORDER)


def _node_table(model):
    """Nodes x and weights p = (Gauss-Legendre weight) * pdf(x) > 0 of a
    density model, on panels between breakpoints. Quantile breakpoints sit
    at logit-spaced probabilities in the core [1e-14, 1 - 1e-14] and widen
    geometrically in logit out to tail probabilities of 1e-300, each taken
    as Q(q) or Q(1 - q) from its tail probability q. Equal-width breakpoints
    across the core bound the panels where the density is low, such as
    between the modes of a mixture."""
    from scipy.special import expit
    step = 2.0 * _CORE_LOGIT / _CORE_PANELS
    t = [-_CORE_LOGIT + step * k for k in range(_CORE_PANELS // 2 + 1)]
    edge = -_CORE_LOGIT
    while edge > -_REACH_LOGIT:
        step *= _TAIL_GROWTH
        edge = max(edge - step, -_REACH_LOGIT)
        t.append(edge)
    q = expit(np.array(t))
    lower, upper = model.quantile(q), model.upper_quantile(q)
    span = np.linspace(lower[0], upper[0], _SPAN_PANELS + 1)
    cuts = np.unique(np.clip(np.concatenate([lower, upper, span]),
                             *model.support()))
    half = 0.5 * np.diff(cuts)[:, None]
    x = (cuts[:-1, None] + half * (1.0 + _GL_X)).ravel()
    with np.errstate(under="ignore"):
        p = (half * _GL_W).ravel() * np.exp(model.logpdf(x))
    return x[p > 0], p[p > 0]


def _law(model):
    """(x, p): the atoms of positive mass, or a density's node table."""
    atoms = model.atoms()
    if atoms is None:
        return _node_table(model)
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
    """(J, T, XW, V) for each row of w over the law (x, p), at one alpha
    (or one per row): the objective J = alpha nu - M(alpha) with M(alpha)
    = log E e^{aW}, the tilted W-mean T = M', the tilted E[X W], and the
    tilted variance of W, V = E[W^2] - T^2 = M''. M is the row's largest
    exponent, a shift that makes it safe for any finite alpha, plus a log
    sum; alpha nu cancels against the shift first, which keeps J exact at
    |alpha| = 2^30 for a level at an atom on the edge of the range of W."""
    a = np.asarray(alpha, dtype=float).reshape(-1, 1)
    with np.errstate(over="ignore"):
        e = a * w
    hi = np.maximum.reduce(e, axis=1)
    e -= hi[:, None]
    np.exp(e, out=e)
    e *= p
    den = np.add.reduce(e, axis=1)
    we = w * e
    t_mean = np.add.reduce(we, axis=1) / den
    xw = np.add.reduce(x * we, axis=1) / den
    var = np.add.reduce(w * we, axis=1) / den - t_mean * t_mean
    return (a[:, 0] * nu - hi) - np.log(den), t_mean, xw, var


def _moments_at(law, theta, alpha, nu):
    """_atom_moments at one tilt and one alpha, as floats."""
    return tuple(float(v[0]) for v in _atom_moments(*_tilt(law, theta),
                                                    alpha, nu))


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
    return -_moments_at(_law(model), theta, alpha, 0.0)[0]


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
    newton_root in [-2^30, 0] or [0, 2^30] from alpha = -1 or 1, with the
    tilted variance of W as the derivative."""
    x, p, w = _tilt(law, thetas)
    f_zero, value = gap_zero.copy(), np.zeros(thetas.size)
    bounded = np.flatnonzero(~unbounded)
    if bounded.size:
        value[bounded], t_zero, _, _ = _atom_moments(x, p, w[bounded], 0.0,
                                                     nu)
        f_zero[bounded] = t_zero - nu
    side = np.where(f_zero > 0, -1.0, 1.0)
    j_cap, t_cap, _, _ = _atom_moments(x, p, w, side * _ALPHA_CAP, nu)
    f_cap = t_cap - nu
    capped = side * f_cap <= 0
    alpha = np.where(capped, side * _ALPHA_CAP, 0.0)
    value = np.where(capped, j_cap, value)
    status = np.where(capped, "alpha-cap", "interior").astype(object)
    solve = np.flatnonzero(~capped & (f_zero != 0))
    if solve.size:
        w_solve = w if solve.size == thetas.size else w[solve]
        down = side[solve] < 0
        j_at = np.empty(solve.size)

        def gap(a, rows):
            """Tilted W-mean minus nu and its slope, the tilted variance;
            the objective at the point is kept as the value."""
            j, t_mean, _, var = _atom_moments(
                x, p, w_solve if rows.size == solve.size else w_solve[rows],
                a, nu)
            j_at[rows] = j
            return t_mean - nu, var

        end = side[solve] * _ALPHA_CAP
        root = newton_root(
            gap, np.minimum(end, 0.0), np.maximum(end, 0.0), side[solve],
            flo=np.where(down, f_cap[solve], f_zero[solve]),
            fhi=np.where(down, f_zero[solve], f_cap[solve]), xtol=1e-13,
            ftol=1e-11 * max(1.0, nu))
        alpha[solve], value[solve] = root.x, j_at
    return np.maximum(value, 0.0), alpha, status


def inf_meta_rate(model, a: float):
    """inf over theta of J_theta(e^{-a}) for a above I(0).

    Returns (value, theta_star). This is the decay rate of the upward error
    P(I_m(0) >= a). Search is a coarse grid of 257 tilts over [-64, 64],
    solved in one array call, refined by Brent's method around the best
    grid cell.
    """
    i0 = rate_function(model, 0.0).value
    if not a > i0:
        raise RegimeError(
            f"inf_meta_rate needs a > I(0) = {i0:.6g}; for a below I(0) "
            "use sup_meta_rate_on_theta_a")
    return _inf_meta_rate(model, _law(model), a)


def _inf_meta_rate(model, law, a):
    nu = math.exp(-a)

    def objective(theta):
        return _meta_rate(model, law, theta, nu).value

    theta_star, value = grid_then_brent(objective, -_THETA_BRACKET,
                                        _THETA_BRACKET, n_grid=257,
                                        tol=1e-7)
    return float(value), float(theta_star)


def _lambda_minimizer(model):
    (lo, f_lo), (hi, f_hi) = _derivative_bracket(model, model.dlog_mgf,
                                                 _ALPHA_CAP)
    if (f_lo > 0) == (f_hi > 0):
        # Lambda' keeps one sign: the infimum sits at the reachable edge
        return lo if f_lo > 0 else hi
    return bisect_root(model.dlog_mgf, lo, hi, flo=f_lo, fhi=f_hi,
                       xtol=1e-13).mid


def _theta_a_interval(model, a):
    """[theta_lo, theta_hi] where Lambda <= -a, for 0 < a < I(0).

    Each endpoint is bracketed between the Lambda-minimizer and a point
    outside Theta_a on that side: 0 when it lies there (Lambda(0) = 0 >
    -a), else a probe stepped toward the domain edge, and the end of the
    final bracket inside Theta_a is returned. If Theta_a runs past
    |theta| = 4 * 64 the last probe stands in for the endpoint.
    """
    theta_m = _lambda_minimizer(model)

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
    supremum to 0 everywhere on the interval. When an interior positive
    maximum exists the first-order residual E[X W exp(alpha* W)] is checked
    and a failure emits a warning rather than an exception.
    """
    i0 = rate_function(model, 0.0).value
    if not 0.0 < a < i0:
        raise RegimeError(
            f"sup_meta_rate_on_theta_a needs 0 < a < I(0) = {i0:.6g}")
    if math.isinf(i0):
        raise RegimeError("degenerate model: I(0) is infinite")
    left, right = _theta_a_interval(model, a)
    nu = math.exp(-a)
    law = _law(model)

    theta_star, _ = grid_then_brent(
        lambda theta: -_meta_rate(model, law, theta, nu).value, left, right,
        n_grid=129, tol=1e-8)
    theta_star = float(theta_star)
    res = _meta_rate(model, law, theta_star, nu)
    value = res.value
    interior = (left + 1e-6 < theta_star < right - 1e-6
                and res.alpha_star is not None and value > 1e-12
                and abs(res.alpha_star) > 1e-9)
    if interior:
        _, t_mean, xw, _ = _moments_at(law, theta_star, res.alpha_star, nu)
        scale = max(abs(t_mean), 1.0)
        if abs(xw) > 1e-6 * scale:
            warnings.warn(
                "first-order residual %.3g at the reported maximizer; "
                "possible multiple roots" % xw, RuntimeWarning)
    return value, theta_star, (left, right)


def two_phase_exponent(model, c1: float, c2: float) -> TwoPhaseExponent:
    """Optimal failure exponent of the two-phase budget split.

    Minimizes phi(b) = c2 I(0) / b + inf_theta J_theta(e^{-b}) over the
    phase-1 level b. A damped Newton iteration on the stationarity system

        e^{-g} = E[W e^{-a W}] / E[e^{-a W}]      (level condition)
        E[X W e^{-a W}] = 0                       (theta stationarity)
        a e^{-g} = c2 I(0) / g^2                  (outer stationarity)

    (written in the negated-alpha family) is tried first from
    (g, theta, a) = (2 I(0), Lambda-minimizer, 1) by _solve.newton_system;
    if it fails to converge the outer one-dimensional minimization over b
    is used instead: grid_then_brent over 65 levels, each level's value an
    inner grid-then-Brent search over theta. Both failing, or the
    fallback's best tilt sitting on an edge of its window [-64, 64] (where
    the minimum lies outside the search, as when it is only approached as
    b grows without bound), raises NumericalError with the best iterate
    attached.
    """
    if c1 <= 0 or c2 <= 0:
        raise ValueError("c1 and c2 must be positive")
    if model.mean() >= 0:
        raise RegimeError("two-phase exponent needs a negative-mean model")
    i0 = rate_function(model, 0.0).value
    if not math.isfinite(i0) or i0 <= 0:
        raise RegimeError("degenerate model: I(0) must be finite positive")

    law = _law(model)
    newton = _two_phase_newton(model, law, c2, i0)
    if newton is not None:
        gamma, theta, alpha = newton
        value = _moments_at(law, theta, -alpha, math.exp(-gamma))[0]
        exponent = c2 * i0 / gamma + value
        return TwoPhaseExponent(exponent, gamma, theta, alpha, c1, c2)

    # fallback: outer grid-then-Brent search over the level b
    def phi(b):
        # the grid phase passes its 65 levels as one array
        levels = np.atleast_1d(b)
        vals = c2 * i0 / levels + np.array(
            [_inf_meta_rate(model, law, v)[0] for v in levels])
        return vals if np.ndim(b) else float(vals[0])

    lo = i0 * (1.0 + 1e-7) + 1e-300
    # double hi while phi still falls from hi / 2 to hi
    hi, _ = expand_bracket(lambda b: phi(0.5 * b) - phi(b),
                           max(20.0 * i0, 0.5), math.inf, 1, cap=2e3)
    b_star, exponent = grid_then_brent(phi, lo, hi, n_grid=65, tol=1e-9)
    val, theta_star = _inf_meta_rate(model, law, b_star)
    res = _meta_rate(model, law, theta_star, math.exp(-b_star))
    best = (b_star, theta_star, res.alpha_star)
    if res.alpha_star is None or not math.isfinite(exponent):
        raise NumericalError("two-phase exponent failed to converge",
                             best=best)
    if abs(theta_star) == _THETA_BRACKET:
        raise NumericalError(
            f"two-phase exponent: the tilt search ended at the edge "
            f"theta = {theta_star:g} of its window, so the minimum over "
            f"the level lies outside the search", best=best)
    return TwoPhaseExponent(exponent, b_star, theta_star,
                            -res.alpha_star, c1, c2)


def _two_phase_newton(model, law, c2, i0):
    def residuals(vs):
        """Residuals at each row (g, theta, alpha) of vs, with the tilted
        moments of every row from one call; None once a row leaves the
        domain."""
        g, th, al = vs.T
        if min(g.min(), al.min()) <= 0:
            return None
        neg_m, t_mean, xw, _ = _atom_moments(*_tilt(law, th), -al, 0.0)
        if not np.isfinite(neg_m).all():
            return None
        level = np.exp(-g)
        return np.array([t_mean - level, xw,
                         al * level - c2 * i0 / (g * g)]).T

    return newton_system(residuals,
                         [2.0 * i0, _lambda_minimizer(model), 1.0])


def sequential_failure_certificate(model, c1: float):
    """Certificate that the round-1 stopping proxy under-controls errors.

    Minimizes J_{-theta}(e^{-1/c1}) over tilts theta > 0 (the value reported
    is the decay rate of the probability that the rate estimate crosses the
    stopping threshold while the sign decision is wrong). certified = True
    when the minimum is strictly below 1/c1, which makes the ratio of the
    false-selection probability to its target delta blow up as delta -> 0.

    Returns (theta, alpha_star, meta_rate_value, certified), found by a
    grid-then-Brent search of the meta-rate evaluator over [1e-6, 64];
    tilts where e^{-1/c1} lies below the range of W give +inf and the grid
    steps over them. alpha_star is the maximizer of the defining sup,
    converted to the z-convention for the shifted-exponential model (see
    the module docstring).
    """
    if c1 <= 0:
        raise ValueError("c1 must be positive")
    if model.mean() >= 0:
        raise RegimeError("certificate needs a negative-mean model")
    i0 = rate_function(model, 0.0).value
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
    theta_star, _ = grid_then_brent(
        lambda t: _meta_rate(model, law, -t, nu).value, 1e-6,
        _THETA_BRACKET, n_grid=129, tol=1e-8)
    res = _meta_rate(model, law, -theta_star, nu)
    alpha_star = res.alpha_star
    if alpha_star is not None and isinstance(model, ShiftedExponential):
        # W = e^{-theta K} z: the coefficient of z in exp(-alpha z)
        alpha_star = -alpha_star * math.exp(-theta_star * model.K)
    return theta_star, alpha_star, res.value, res.value < 1.0 / c1 - 1e-9
