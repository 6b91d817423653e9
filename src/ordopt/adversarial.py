"""Lower-bound gadgets: tail tilts, sample floors, quantile mixtures.

The tilt takes a distribution G with unbounded upper support and returns a
close-in-KL distribution with a much larger mean, by down-weighting mass
below a split point b and lifting the tail above it. Split points land far
out in the tail (the flagship instance has b around 2200 where survival
probabilities underflow), so the class keeps its tail bookkeeping in log
space: the survival mass and tail moments come from one tail quadrature
(geometric panels from the split, see _quad), shifted by the largest
log-density at its nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._quad import log_tail_integral, sorted_unique, table_cuts, tail_cuts
from ._solve import bisect_root, expand_bracket
from .populations import GaussianMixture, kl_divergence, quantile

__all__ = [
    "TiltedDistribution", "QuantileGadget",
    "tilt", "lower_bound_samples", "quantile_gadget",
]

def _log_upper_tail(base, x0: float, moment: int = 0) -> float:
    """log of int_{x0}^inf x^moment g(x) dx, stable when the tail underflows.

    One tail quadrature (_quad.log_tail_integral) of the log-integrand,
    shifted by its largest value, on geometric panels from x0 and the
    base's node-table cuts past x0; x0 must be positive when moment = 1
    (tilt split points always are).
    """
    def log_integrand(x):
        lp = base.logpdf(x)
        return lp + np.log(x) if moment else lp

    return log_tail_integral(log_integrand, x0,
                             f"upper tail of {base!r} from {x0!r}",
                             table_cuts(base))[0]


def _log_sf(base, x: float) -> float:
    """log(1 - G(x)), by _log_upper_tail where 1 - G(x) <= 1e-3."""
    sf = 1.0 - float(np.asarray(base.cdf(x)))
    if sf > 1e-3:
        return math.log(sf)
    return _log_upper_tail(base, x, 0)


@dataclass(frozen=True)
class TiltedDistribution:
    """Density (1-gamma) g(x) below b, beta_factor g(x) from b up."""

    base: object
    b: float
    gamma: float

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")

    @cached_property
    def _g_below(self) -> float:
        return float(np.asarray(self.base.cdf(self.b)))

    @cached_property
    def _log_gbar(self) -> float:
        return _log_sf(self.base, self.b)

    @cached_property
    def _log_beta(self) -> float:
        # beta = 1 + gamma G(b)/Gbar(b), in logs when the ratio explodes
        if self._g_below == 0.0:
            return 0.0
        r_log = (math.log(self.gamma) + math.log(self._g_below)
                 - self._log_gbar)
        if r_log > 36.0:  # log1p(e^r) = r beyond double resolution
            return r_log
        return math.log1p(math.exp(r_log))

    @cached_property
    def beta_factor(self) -> float:
        """1 + gamma G(b)/Gbar(b), the tail's lift; inf when it overflows."""
        return math.exp(self._log_beta) if self._log_beta < 709.0 else math.inf

    def support(self):
        return self.base.support()

    @property
    def jumps(self):
        """Where the density jumps: the split b."""
        return (self.b,)

    def table_cuts(self):
        """Node-table cuts: the base's, and tail panels from b, which hold
        the mass lifted past b, far out beyond the base's own table (none
        when b lies outside the base's support)."""
        table = table_cuts(self.base)
        tail = tail_cuts(self.base.logpdf, self.b, table)
        return table if tail is None else sorted_unique(table, tail)

    def atoms(self):
        return None

    def logpdf(self, x):
        arr = np.asarray(x, dtype=float)
        return self.base.logpdf(arr) + np.where(
            arr < self.b, math.log1p(-self.gamma), self._log_beta)

    def cdf(self, x):
        arr = np.asarray(x, dtype=float)
        out = np.empty(arr.shape)
        for i, xi in np.ndenumerate(arr):
            out[i] = self._cdf_scalar(float(xi))
        return out if arr.shape else float(out)

    def _cdf_scalar(self, x):
        if x < self.b:
            return (1.0 - self.gamma) * float(np.asarray(self.base.cdf(x)))
        expo = self._log_beta + _log_sf(self.base, x)
        return 1.0 - math.exp(min(expo, 0.0))

    def quantile(self, p):
        if not 0.0 < p < 1.0:
            raise ValueError("p must lie strictly between 0 and 1")
        below_mass = (1.0 - self.gamma) * self._g_below
        if p < below_mass:
            return float(self.base.quantile(p / (1.0 - self.gamma)))
        # in the lifted tail solve beta Gbar(x) = 1 - p for x >= b
        target = math.log1p(-p) - self._log_beta

        def excess(x):
            return _log_sf(self.base, x) - target

        start = 2.0 * abs(self.b) + 1.0
        hi, f_hi = expand_bracket(excess, start, math.inf, 1)
        lo = self.b if hi == start else 0.5 * hi
        return bisect_root(excess, lo, hi, fhi=f_hi, xtol=1e-12).mid

    def mean(self) -> float:
        # split E X = (below-b part) + (tail part), tail in log space
        log_tail_x = _log_upper_tail(self.base, self.b, 1)
        tail_x = math.exp(log_tail_x)
        lifted = math.exp(self._log_beta + log_tail_x)
        return (1.0 - self.gamma) * (self.base.mean() - tail_x) + lifted

    def total_mass(self) -> float:
        return ((1.0 - self.gamma) * self._g_below
                + math.exp(self._log_beta + self._log_gbar))

    def kl_from_base(self) -> float:
        """KL(base, tilted) exactly: -G(b) log(1-gamma) - Gbar(b) log beta."""
        kl = (-self._g_below * math.log1p(-self.gamma)
              - math.exp(self._log_gbar) * self._log_beta)
        return max(kl, 0.0)


def tilt(base, alpha_target: float, k: float) -> TiltedDistribution:
    """KL-budgeted mean lift: KL(base, result) <= alpha_target, mean >= k.

    gamma = 1 - exp(-alpha_target/2); the split b doubles from 2|mu| + 1
    until the mean lower bound exp(-alpha/2) mu + gamma G(b) b reaches k,
    then the exact (quadrature) tilted mean confirms; both certified
    inequalities are re-checked on the returned object.
    """
    if alpha_target <= 0.0:
        raise ValueError("alpha_target must be positive")
    hi_support = base.support()[1]
    if math.isfinite(hi_support):
        raise ValueError("unsupported support: the tilt needs unbounded "
                         "upper support to lift the mean")
    mu = base.mean()
    if k <= mu:
        raise ValueError("trivial request: k must exceed the base mean")
    gamma = -math.expm1(-alpha_target / 2.0)
    damp = math.exp(-alpha_target / 2.0)
    tilted = None

    def shortfall(b):
        # k less the certified mean bound, or once that reaches k, less
        # the exact mean of the distribution built at b, which is kept
        nonlocal tilted
        cert = damp * mu + gamma * float(np.asarray(base.cdf(b))) * b
        if cert < k:
            return k - cert
        tilted = TiltedDistribution(base, b, gamma)
        return k - tilted.mean()

    # at most 60 splits, b0 * 2^j for j < 60
    b0 = 2.0 * abs(mu) + 1.0
    _, short = expand_bracket(shortfall, b0, math.inf, 1,
                              cap=b0 * 2.0 ** 59)
    if not short <= 0.0:
        raise RuntimeError("no split point certified the requested mean "
                           "within the doubling budget")
    if tilted.kl_from_base() > alpha_target + 1e-12:
        raise RuntimeError("tilt construction exceeded its KL budget")
    return tilted


def lower_bound_samples(g, g_tilde, delta: float, *, kl=None) -> float:
    """Sample floor log(1/delta)/(3 KL(g, g_tilde)) for delta-correct
    policies facing the g versus g_tilde dichotomy.

    kl is KL(g, g_tilde) when the caller has it already; it is computed
    otherwise."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if kl is None:
        kl = kl_divergence(g, g_tilde)
    if kl <= 0.0 or math.isinf(kl):
        raise ValueError("degenerate bound: KL must be finite and positive")
    return math.log(1.0 / delta) / (3.0 * kl)


@dataclass(frozen=True)
class QuantileGadget:
    g: GaussianMixture
    g_eps: GaussianMixture
    kl_bound: float
    quantile_gap: float


def quantile_gadget(p: float, epsilon: float, mu: float) -> QuantileGadget:
    """Gaussian-mixture pair whose p-quantiles split by an arbitrary gap.

    g mixes (p, 1-p) over N(0,1) and N(mu,1); g_eps shifts weight epsilon
    off the first component. Their KL stays below log(p/(p-epsilon))
    regardless of mu, while the p-quantile gap grows with mu.
    """
    if not 0.0 < p <= 0.5:
        raise ValueError("p must lie in (0, 1/2]")
    if not 0.0 < epsilon < p:
        raise ValueError("epsilon must lie in (0, p)")
    if mu <= 0.0:
        raise ValueError("mu must be positive")
    g = GaussianMixture(p, mu)
    g_eps = GaussianMixture(p - epsilon, mu)
    bound = math.log(p / (p - epsilon))
    kl = kl_divergence(g, g_eps)
    if kl > bound + 1e-9:
        raise RuntimeError("mixture KL exceeded its closed-form bound")
    gap = quantile(g_eps, p) - quantile(g, p)
    return QuantileGadget(g, g_eps, bound, gap)
