"""Analytic population models.

Each model knows its mean, exact log-MGF Lambda(theta) = log E exp(theta X)
with domain, sampler, CDF/quantile, the upper-tail quantile Q(1 - q)
computed from q itself, and either a discrete atom list or a log-density.
TwoPoint and Bernoulli share one two-atom law, _TwoAtoms, which each fills
in from its atoms and masses; the closed-form rate of that law serves both.
On top of that the module provides the Legendre-transform rate function
I(a) = sup_theta (theta a - Lambda(theta)), KL divergence between models,
and an exact finite-sample law for the two-point rate estimator that the
test harnesses use as an oracle.

A model draws from the generator it is handed, model.draw(rng, n); the
selectors key those generators by (seed, stream) through a counter-based
Philox generator, so any replication is reproducible in isolation.

A model whose draws are one transform of rng.random(n) also has
from_uniform(u): the draws for an array u of uniforms in [0, 1), of u's
shape, elementwise, so that draw(rng, n) is from_uniform(rng.random(n))
and a transform over many streams' uniforms at once gives each stream's
draws exactly. TwoPoint, Bernoulli and Pareto have it; the models that
draw normals, exponentials, integers or two streams (Gaussian,
ShiftedExponential, GaussianMixture, Empirical, Mirrored) have draw only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._quad import integrate, log_tail_integral, sorted_unique, table_cuts
from ._solve import bisect_root, expand_bracket, newton_root
from .empirical_rate import (_THETA_CAP, RateEstimate, _tilted_mean,
                             empirical_log_mgf, estimate_rate_at)

__all__ = [
    "SupportError", "TwoPoint", "ShiftedExponential", "Gaussian",
    "GaussianMixture", "Bernoulli", "Pareto", "Empirical", "Mirrored",
    "log_mgf", "rate_function", "kl_divergence", "quantile",
    "two_point_rate_law",
]

_LOG_NORM_CONST = -0.5 * math.log(2.0 * math.pi)


class SupportError(ValueError):
    """Two models whose supports cannot be compared (discrete vs density)."""


def _check_prob(name, value):
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")


def _log_masses(p):
    """(log p, log(1 - p)), each -inf where its mass is zero."""
    return (math.log(p) if p > 0.0 else -math.inf,
            math.log1p(-p) if p < 1.0 else -math.inf)


class _TwoAtoms:
    """A two-atom law from the model's _atoms() = (lo, hi, p_lo, p_hi,
    log p_lo, log p_hi), atoms lo < hi with each mass and its log taken the
    accurate way for the model's parameter (a zero mass's log, -inf, is
    never read). The model keeps its fields, mean and from_uniform."""

    def theta_domain(self):
        return (-math.inf, math.inf)

    def log_mgf(self, theta):
        lo, hi, p_lo, p_hi, log_lo, log_hi = self._atoms()
        if p_lo == 0.0:
            return theta * hi
        if p_hi == 0.0:
            return theta * lo
        return float(np.logaddexp(log_lo + theta * lo, log_hi + theta * hi))

    def dlog_mgf(self, theta):
        lo, hi, p_lo, p_hi, log_lo, log_hi = self._atoms()
        if p_lo == 0.0:
            return hi
        if p_hi == 0.0:
            return lo
        # weight of hi under the tilted law
        z = (log_lo - log_hi) - theta * (hi - lo)
        w = 1.0 / (1.0 + math.exp(z)) if z < 700 else 0.0
        return lo + (hi - lo) * w

    def support(self):
        return self._atoms()[:2]

    def atoms(self):
        lo, hi, p_lo, p_hi = self._atoms()[:4]
        return [(lo, p_lo), (hi, p_hi)]

    def logpdf(self, x):
        return None

    def cdf(self, x):
        lo, hi, p_lo = self._atoms()[:3]
        x = np.asarray(x, dtype=float)
        return np.where(x < lo, 0.0, np.where(x < hi, p_lo, 1.0))

    def quantile(self, p):
        lo, hi, p_lo = self._atoms()[:3]
        return lo if p <= p_lo else hi

    def upper_quantile(self, q):
        return self.quantile(1.0 - q)

    def draw(self, rng, n):
        return self.from_uniform(rng.random(n))


@dataclass(frozen=True)
class TwoPoint(_TwoAtoms):
    """X = -b with probability p_minus, +b otherwise."""

    b: float = 1.0
    p_minus: float = 0.5

    def __post_init__(self):
        if self.b <= 0:
            raise ValueError("b must be positive")
        _check_prob("p_minus", self.p_minus)

    def _atoms(self):
        p = self.p_minus
        return (-self.b, self.b, p, 1.0 - p, *_log_masses(p))

    def mean(self):
        return self.b * (1.0 - 2.0 * self.p_minus)

    def from_uniform(self, u):
        return np.where(u < self.p_minus, -self.b, self.b)


@dataclass(frozen=True)
class Bernoulli(_TwoAtoms):
    """X = 1 with probability q, 0 otherwise."""

    q: float = 0.5

    def __post_init__(self):
        _check_prob("q", self.q)

    def _atoms(self):
        q = self.q
        log_q, log_rest = _log_masses(q)
        return (0.0, 1.0, 1.0 - q, q, log_rest, log_q)

    def mean(self):
        return self.q

    def from_uniform(self, u):
        return (u < self.q).astype(float)


@dataclass(frozen=True)
class ShiftedExponential:
    """X = K - Y with Y exponential(lam): upper-bounded, heavy lower tail."""

    K: float = 0.0
    lam: float = 1.0

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lam must be positive")

    def mean(self):
        return self.K - 1.0 / self.lam

    def theta_domain(self):
        return (-self.lam, math.inf)

    def log_mgf(self, theta):
        if theta <= -self.lam:
            return math.inf
        return theta * self.K - math.log1p(theta / self.lam)

    def dlog_mgf(self, theta):
        return self.K - 1.0 / (self.lam + theta)

    def support(self):
        return (-math.inf, self.K)

    def atoms(self):
        return None

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x <= self.K,
                       math.log(self.lam) - self.lam * (self.K - x),
                       -math.inf)
        return out

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= self.K, 1.0, np.exp(-self.lam * (self.K - x)))

    def quantile(self, p):
        return self.K + np.log(p) / self.lam

    def upper_quantile(self, q):
        return self.K + np.log1p(-q) / self.lam

    def draw(self, rng, n):
        return self.K - rng.exponential(1.0 / self.lam, n)


@dataclass(frozen=True)
class Gaussian:
    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")

    def mean(self):
        return self.mu

    def theta_domain(self):
        return (-math.inf, math.inf)

    def log_mgf(self, theta):
        return theta * self.mu + 0.5 * (theta * self.sigma) ** 2

    def dlog_mgf(self, theta):
        return self.mu + theta * self.sigma ** 2

    def support(self):
        return (-math.inf, math.inf)

    def atoms(self):
        return None

    def logpdf(self, x):
        z = (np.asarray(x, dtype=float) - self.mu) / self.sigma
        return _LOG_NORM_CONST - math.log(self.sigma) - 0.5 * z * z

    def cdf(self, x):
        from scipy.special import ndtr
        return ndtr((np.asarray(x, dtype=float) - self.mu) / self.sigma)

    def quantile(self, p):
        from scipy.special import ndtri
        return self.mu + self.sigma * ndtri(p)

    def upper_quantile(self, q):
        from scipy.special import ndtri
        return self.mu - self.sigma * ndtri(q)

    def draw(self, rng, n):
        return self.mu + self.sigma * rng.standard_normal(n)


@dataclass(frozen=True)
class GaussianMixture:
    """p N(0, 1) + (1 - p) N(mu, 1)."""

    p: float = 0.5
    mu: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ValueError("p must lie in (0, 1)")

    def mean(self):
        return (1.0 - self.p) * self.mu

    def theta_domain(self):
        return (-math.inf, math.inf)

    def log_mgf(self, theta):
        return 0.5 * theta * theta + float(
            np.logaddexp(math.log(self.p),
                         math.log1p(-self.p) + theta * self.mu))

    def dlog_mgf(self, theta):
        # weight of the mu-component under the theta-tilt
        z = theta * self.mu + math.log1p(-self.p) - math.log(self.p)
        w = 1.0 / (1.0 + math.exp(-z)) if z > -700 else 0.0
        return theta + self.mu * w

    def support(self):
        return (-math.inf, math.inf)

    def atoms(self):
        return None

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)
        a = math.log(self.p) + _LOG_NORM_CONST - 0.5 * x * x
        b = (math.log1p(-self.p) + _LOG_NORM_CONST
             - 0.5 * (x - self.mu) ** 2)
        return np.logaddexp(a, b)

    def cdf(self, x):
        from scipy.special import ndtr
        x = np.asarray(x, dtype=float)
        return self.p * ndtr(x) + (1.0 - self.p) * ndtr(x - self.mu)

    def quantile(self, p):
        return self._invert(p, upper=False)

    def upper_quantile(self, q):
        return self._invert(q, upper=True)

    def _invert(self, q, upper):
        """Q(q), or Q(1 - q) from q when upper, for a float or an array:
        safeguarded Newton steps (newton_root, one row per probability) on
        log F(x) - log q, or on log S(x) - log q, with slope pdf/F or -pdf/S.

        Each component's quantile, moved out by 1, brackets the root. The
        gap is log1p((F - q) / q), with F - q summed from each component's
        smaller tail Phi(-|t|) so that no terms near 1 cancel: between two
        far modes F stays within 1e-17 of q, below the resolution of F.
        """
        from scipy.special import log_ndtr, ndtri
        qs = np.atleast_1d(np.asarray(q, dtype=float))
        z = -ndtri(qs) if upper else ndtri(qs)
        lo = np.minimum(z, self.mu + z) - 1.0
        hi = np.maximum(z, self.mu + z) + 1.0
        # F(x) = p Phi(x) + (1 - p) Phi(x - mu), S(x) = 1 - F(x) =
        # p Phi(-x) + (1 - p) Phi(mu - x): the components' Phi(sign t)
        sign = -1.0 if upper else 1.0
        rest = 1.0 - self.p
        log_weight = np.array([[math.log(self.p)], [math.log1p(-self.p)]])
        log_q = np.log(qs)
        # (weight of the components with t > 0, less q) / q for each row
        # and each set of them (none, the first, the second, both), with
        # the rounding of 1 - p added back
        offset = np.stack([-qs, self.p - qs,
                         (rest - qs) + ((1.0 - rest) - self.p), 1.0 - qs],
                        axis=1) / qs[:, None]

        def gap(x, rows):
            # log F - log q rises through 0, log S - log q falls through it
            t = sign * np.stack([x, x - self.mu])
            past = t > 0
            tail = np.exp(log_weight + log_ndtr(-abs(t)) - log_q[rows])
            excess = (offset[rows, past[0] + 2 * past[1]]
                      + np.where(past, -tail, tail).sum(axis=0))
            slope = sign * np.exp(self.logpdf(x) - log_q[rows])
            return np.log1p(excess), slope / (1.0 + excess)

        # start between the components' quantiles, at their mean's shift
        x = newton_root(gap, lo, hi, z + rest * self.mu,
                        flo=np.full_like(lo, -sign),
                        fhi=np.full_like(hi, sign), xtol=1e-13).x
        return x if np.ndim(q) else float(x[0])

    def draw(self, rng, n):
        x = rng.standard_normal(n)
        shift = rng.random(n) >= self.p
        return x + self.mu * shift


def _log_pareto_integral(t, p):
    """log of int_0^inf e^{t v} (1 + v)^{-p} dv for t < 0, by one tail
    quadrature."""
    return log_tail_integral(lambda v: t * v - p * np.log1p(v), 0.0,
                             f"Pareto integral at t={t!r}, p={p!r}")[0]


@dataclass(frozen=True)
class Pareto:
    """P(X > x) = (scale/x)^alpha_tail for x >= scale; heavy upper tail."""

    alpha_tail: float = 2.0
    scale: float = 1.0

    def __post_init__(self):
        if self.alpha_tail <= 1:
            raise ValueError("alpha_tail must exceed 1 for a finite mean")
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    def mean(self):
        return self.alpha_tail * self.scale / (self.alpha_tail - 1.0)

    def theta_domain(self):
        return (-math.inf, 0.0)

    def log_mgf(self, theta):
        if theta > 0.0:
            return math.inf
        if theta == 0.0:
            return 0.0
        a, s = self.alpha_tail, self.scale
        # x = s(1+v): E exp(theta X) = a e^{theta s} int e^{theta s v} (1+v)^{-(a+1)} dv
        return (theta * s + math.log(a)
                + _log_pareto_integral(theta * s, a + 1.0))

    def dlog_mgf(self, theta):
        if theta == 0.0:
            return self.mean()
        a, s = self.alpha_tail, self.scale
        return s * math.exp(_log_pareto_integral(theta * s, a)
                            - _log_pareto_integral(theta * s, a + 1.0))

    def support(self):
        return (self.scale, math.inf)

    def atoms(self):
        return None

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)
        a, s = self.alpha_tail, self.scale
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(x >= s,
                           math.log(a) + a * math.log(s)
                           - (a + 1.0) * np.log(np.maximum(x, s)),
                           -math.inf)
        return out

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < self.scale, 0.0,
                        1.0 - (self.scale / np.maximum(x, self.scale))
                        ** self.alpha_tail)

    def quantile(self, p):
        return self.scale * (1.0 - p) ** (-1.0 / self.alpha_tail)

    def upper_quantile(self, q):
        return self.scale * q ** (-1.0 / self.alpha_tail)

    def from_uniform(self, u):
        return self.scale * (1.0 - u) ** (-1.0 / self.alpha_tail)

    def draw(self, rng, n):
        return self.from_uniform(rng.random(n))


@dataclass(frozen=True, eq=False)
class Empirical:
    """Discrete uniform over the points of a batch."""

    points: np.ndarray = field(default_factory=lambda: np.zeros(1))

    def __post_init__(self):
        arr = np.asarray(self.points, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("empirical model needs at least one point")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "points", arr)

    def mean(self):
        return float(self.points.mean())

    def theta_domain(self):
        return (-math.inf, math.inf)

    def log_mgf(self, theta):
        return empirical_log_mgf(self.points, theta)

    def dlog_mgf(self, theta):
        return _tilted_mean(self.points, theta)

    def support(self):
        return (float(self.points.min()), float(self.points.max()))

    def atoms(self):
        vals, counts = np.unique(self.points, return_counts=True)
        m = self.points.size
        return [(float(v), c / m) for v, c in zip(vals, counts)]

    def logpdf(self, x):
        return None

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.searchsorted(np.sort(self.points), x, side="right") \
            / self.points.size

    def quantile(self, p):
        xs = np.sort(self.points)
        k = max(int(math.ceil(p * xs.size)), 1)
        return float(xs[k - 1])

    def upper_quantile(self, q):
        return self.quantile(1.0 - q)

    def draw(self, rng, n):
        return self.points[rng.integers(0, self.points.size, n)]


@dataclass(frozen=True)
class Mirrored:
    """The law of -X for a base model X; swaps the heavy-tail side."""

    base: object

    def mean(self):
        return -self.base.mean()

    def theta_domain(self):
        lo, hi = self.base.theta_domain()
        return (-hi, -lo)

    def log_mgf(self, theta):
        return self.base.log_mgf(-theta)

    def dlog_mgf(self, theta):
        return -self.base.dlog_mgf(-theta)

    def support(self):
        lo, hi = self.base.support()
        return (-hi, -lo)

    def atoms(self):
        base = self.base.atoms()
        if base is None:
            return None
        return sorted((-x, p) for x, p in base)

    def logpdf(self, x):
        inner = self.base.logpdf(-np.asarray(x, dtype=float))
        return inner

    def cdf(self, x):
        # continuous bases only; P(-X <= x) = 1 - F(-x)
        if self.base.atoms() is not None:
            raise NotImplementedError("mirrored CDF for discrete bases")
        return 1.0 - self.base.cdf(-np.asarray(x, dtype=float))

    def quantile(self, p):
        return -self.base.upper_quantile(p)

    def upper_quantile(self, q):
        return -self.base.quantile(q)

    def draw(self, rng, n):
        return -self.base.draw(rng, n)


def log_mgf(model, theta: float) -> float:
    """Lambda(theta) = log E exp(theta X); +inf outside the MGF domain."""
    return model.log_mgf(float(theta))


def _rate_two_atoms(lo, hi, p_lo, p_hi, a):
    """Closed-form rate for a two-atom law at 'a', with optimizer; each
    mass is the model's own, so a tiny one survives beside 1 - it."""
    # all mass on one atom: every other a diverges
    if a < lo or (p_lo == 0.0 and a < hi):
        return RateEstimate(math.inf, None, "diverges-left", 0)
    if a > hi or (p_hi == 0.0 and a > lo):
        return RateEstimate(math.inf, None, "diverges-right", 0)
    if (a == lo and p_lo == 1.0) or (a == hi and p_hi == 1.0):
        return RateEstimate(0.0, 0.0, "at-mean", 0)
    if a == lo:
        return RateEstimate(-math.log(p_lo), -_THETA_CAP, "interior", 0)
    if a == hi:
        return RateEstimate(-math.log(p_hi), _THETA_CAP, "interior", 0)
    s = (a - lo) / (hi - lo)        # required mass on the upper atom
    val = s * math.log(s / p_hi) + (1.0 - s) * math.log((1.0 - s) / p_lo)
    theta = (math.log(s / p_hi) - math.log((1.0 - s) / p_lo)) / (hi - lo)
    status = "at-mean" if val <= 1e-15 else "interior"
    return RateEstimate(max(val, 0.0), theta, status, 0)


def rate_function(model, a: float) -> RateEstimate:
    """I(a) = sup_theta (theta a - Lambda(theta)).

    Closed forms for the two-atom models and the Gaussian; a mirrored
    model takes its base's route at -a, with the tilt negated and the
    sides of divergence swapped; elsewhere the concave problem is solved
    by bisecting Lambda'(theta) = a on the MGF domain. Points outside the
    support give +infinity; a heavy tail on the 'a' side gives 0 with the
    optimizer at the domain boundary. When Lambda' - a keeps one strict
    sign up to |theta| = 2^10 or to the edge of the MGF domain, the status
    is "theta-cap": theta_star is that last point and the value, the
    objective there, is only a lower bound on I(a). A NaN level raises
    ValueError.
    """
    a = float(a)
    if math.isnan(a):
        raise ValueError("the level a must not be NaN")
    if isinstance(model, _TwoAtoms):
        return _rate_two_atoms(*model._atoms()[:4], a)
    if isinstance(model, Mirrored):
        # I_{-X}(a) = I_X(-a), at the negated tilt
        r = rate_function(model.base, -a)
        status = {"diverges-left": "diverges-right",
                  "diverges-right": "diverges-left"}.get(r.status, r.status)
        return RateEstimate(r.value, None if r.theta_star is None
                            else -r.theta_star, status, r.iterations)
    if isinstance(model, Gaussian):
        theta = (a - model.mu) / model.sigma ** 2
        val = 0.5 * ((a - model.mu) / model.sigma) ** 2
        status = "at-mean" if a == model.mu else "interior"
        return RateEstimate(val, theta, status, 0)
    if isinstance(model, Empirical):
        return estimate_rate_at(model.points, a)

    lo_s, hi_s = model.support()
    if a < lo_s:
        return RateEstimate(math.inf, None, "diverges-left", 0)
    if a > hi_s:
        return RateEstimate(math.inf, None, "diverges-right", 0)
    if a == model.mean():
        return RateEstimate(0.0, 0.0, "at-mean", 0)

    def deriv(theta):
        return model.dlog_mgf(theta) - a

    (lo, f_lo), (hi, f_hi) = _derivative_bracket(model, deriv)
    if f_hi <= 0 or f_lo >= 0:
        # the search stopped at an end of the reachable domain, on an exact
        # root of Lambda' - a or short of one
        theta, f_end = (hi, f_hi) if f_hi <= 0 else (lo, f_lo)
        val = theta * a - model.log_mgf(theta)
        status = "interior" if f_end == 0 else "theta-cap"
        return RateEstimate(max(val, 0.0), theta, status, 0)

    root = bisect_root(deriv, lo, hi, flo=f_lo, fhi=f_hi, xtol=1e-12,
                       ftol=1e-11 * max(1.0, abs(a)), max_iter=199)
    theta = root.mid
    val = theta * a - model.log_mgf(theta)
    return RateEstimate(max(val, 0.0), theta, "interior", root.iterations)


def _derivative_bracket(model, deriv):
    """Ends ((lo, deriv(lo)), (hi, deriv(hi))) of a search for the root of
    an increasing deriv over the MGF domain.

    Each domain edge is either infinite (step geometrically, capped at
    |theta| = 2^10), an open pole where Lambda' blows up (start halfway to
    it, then halve toward it), or a closed finite endpoint (evaluate
    there). An end whose deriv keeps the wrong sign is the last point
    reached.
    """
    d_lo, d_hi = model.theta_domain()
    lo = -1.0 if math.isinf(d_lo) else 0.5 * d_lo
    hi = 1.0 if math.isinf(d_hi) else d_hi
    if not math.isfinite(model.log_mgf(hi)):
        hi = 0.5 * d_hi if d_hi != 0.0 else -1e-8
    return (expand_bracket(deriv, lo, d_lo, 1, cap=_THETA_CAP),
            expand_bracket(deriv, hi, d_hi, -1, cap=_THETA_CAP))


def _kl_discrete(g_atoms, gt_atoms):
    q = {}
    for x, p in gt_atoms:
        q[x] = q.get(x, 0.0) + p
    total = 0.0
    for x, p in g_atoms:
        if p == 0.0:
            continue
        mass = q.get(x, 0.0)
        if mass == 0.0:
            return math.inf
        total += p * math.log(p / mass)
    return max(total, 0.0)


def _kl_continuous(g, gt):
    """KL(g || gt) as the sum of p (log g - log gt) over g's node table,
    with the points where gt's density jumps (gt.jumps, when it has them)
    inside the table added as cuts."""
    g_lo, g_hi = g.support()
    t_lo, t_hi = gt.support()
    if g_lo < t_lo or g_hi > t_hi:
        return math.inf
    cuts = table_cuts(g)
    jumps = np.asarray(getattr(gt, "jumps", ()), dtype=float)
    cuts = sorted_unique(cuts, jumps[(cuts[0] < jumps) & (jumps < cuts[-1])])

    def integrand(x):
        lg = g.logpdf(x)
        with np.errstate(invalid="ignore"):
            return np.where(np.isfinite(lg), np.exp(lg) * (lg - gt.logpdf(x)),
                            0.0)

    val, _ = integrate(integrand, cuts, f"KL({g!r} || {gt!r})")
    return max(val, 0.0)


def kl_divergence(g, g_tilde) -> float:
    """KL(g || g_tilde); +inf when absolute continuity fails.

    Gaussian pairs use a closed form; any discrete pair, Bernoulli and
    two-point included, reduces to an atom sum; density pairs sum
    p (log g - log g_tilde) over g's node table (see _quad), with g_tilde's
    jumps added as panel cuts. Mixing a discrete model with a density model
    raises SupportError.
    """
    if isinstance(g, Gaussian) and isinstance(g_tilde, Gaussian):
        r = g.sigma / g_tilde.sigma
        return (math.log(g_tilde.sigma / g.sigma)
                + 0.5 * (r * r - 1.0)
                + 0.5 * ((g.mu - g_tilde.mu) / g_tilde.sigma) ** 2)
    ga, ta = g.atoms(), g_tilde.atoms()
    if (ga is None) != (ta is None):
        raise SupportError(
            "cannot compare a discrete model with a density model")
    if ga is not None:
        return _kl_discrete(ga, ta)
    return _kl_continuous(g, g_tilde)


def quantile(model, p: float) -> float:
    """Generalized inverse CDF, inf{x : F(x) >= p}."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1")
    return float(model.quantile(float(p)))


def two_point_rate_law(m: int, p_minus: float):
    """Exact law of the two-point rate estimate for a batch of size m.

    The estimate depends on the batch only through k = #{positive samples}:
    +infinity at k in {0, m}, else log(m / (2 sqrt(k (m - k)))). Returns
    [(k, P(K = k), value)] for k = 0..m with exact binomial weights.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    _check_prob("p_minus", p_minus)
    p_plus = 1.0 - p_minus
    out = []
    for k in range(m + 1):
        if p_plus in (0.0, 1.0):
            logp = 0.0 if (k == m) == (p_plus == 1.0) else -math.inf
        else:
            logp = (math.lgamma(m + 1) - math.lgamma(k + 1)
                    - math.lgamma(m - k + 1)
                    + k * math.log(p_plus) + (m - k) * math.log(p_minus))
        prob = math.exp(logp) if logp > -math.inf else 0.0
        if k in (0, m):
            value = math.inf
        else:
            value = math.log(m / (2.0 * math.sqrt(k * (m - k))))
        out.append((k, prob, max(value, 0.0)))
    return out

