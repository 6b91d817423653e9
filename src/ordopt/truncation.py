"""Worst-case bias of truncating or capping under a moment budget.

A nonnegative random variable constrained only by E f(X) <= c, with f
increasing and convex, can hide mass wherever the budget allows. For a
threshold u these routines produce the distribution maximizing the bias of

  truncation:  X 1{X <= u}, bias E[X 1{X > u}]
  capping:     min(X, u),   bias E[(X - u)+]

together with the bias value. The maximizer is always degenerate at the
budget point f^{-1}(c) or supported on two atoms {0, x} with the budget
tight; which one applies depends on where the threshold sits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._solve import expand_bracket, falsi_root

__all__ = [
    "PowerSpec", "ExponentialSpec", "CustomSpec",
    "DegenerateSupport", "TwoPointSupport", "WorstCaseSolution",
    "worst_truncation_error", "worst_capping_error", "solve_x_u",
]


@dataclass(frozen=True)
class PowerSpec:
    """f(x) = x^alpha with alpha > 1."""

    alpha: float

    def __post_init__(self):
        if self.alpha <= 1:
            raise ValueError("alpha must exceed 1")

    def f(self, x):
        return x ** self.alpha

    def df(self, x):
        return self.alpha * x ** (self.alpha - 1.0)

    def f_inv(self, y):
        return y ** (1.0 / self.alpha)


@dataclass(frozen=True)
class ExponentialSpec:
    """f(x) = exp(theta x) with theta > 0."""

    theta: float

    def __post_init__(self):
        if self.theta <= 0:
            raise ValueError("theta must be positive")

    def f(self, x):
        return math.exp(self.theta * x)

    def df(self, x):
        return self.theta * math.exp(self.theta * x)

    def f_inv(self, y):
        return math.log(y) / self.theta


@dataclass(frozen=True)
class CustomSpec:
    """User-supplied increasing convex budget function as an
    (f, df, f_inv) triple of callables on [0, inf)."""

    f_callable: object
    df_callable: object
    f_inv_callable: object

    def f(self, x):
        return self.f_callable(x)

    def df(self, x):
        return self.df_callable(x)

    def f_inv(self, y):
        return self.f_inv_callable(y)


@dataclass(frozen=True)
class DegenerateSupport:
    point: float


@dataclass(frozen=True)
class TwoPointSupport:
    low: float
    high: float
    p_high: float


@dataclass(frozen=True)
class WorstCaseSolution:
    error: float
    support: DegenerateSupport | TwoPointSupport
    u: float
    c: float
    f_spec: object


def _check_budget(f_spec, c):
    f0 = f_spec.f(0.0)
    if c <= f0:
        raise ValueError(
            f"infeasible budget: c = {c:.6g} does not exceed f(0) = "
            f"{f0:.6g}")
    return f0


def worst_truncation_error(f_spec, c: float, u: float) -> WorstCaseSolution:
    """Maximal E[X 1{X > u}] over laws on [0, inf) with E f(X) <= c.

    Thresholds below the budget point f^{-1}(c) are beaten by a point mass
    sitting exactly there; above it the maximizer splits between 0 and the
    threshold itself, putting as much mass on u as the budget permits.
    An f(u) that overflows the floats raises RuntimeError.
    """
    if u < 0:
        raise ValueError("threshold u must be nonnegative")
    f0 = _check_budget(f_spec, c)
    x_c = f_spec.f_inv(c)
    if u <= x_c:
        return WorstCaseSolution(x_c, DegenerateSupport(x_c), u, c, f_spec)
    try:
        f_u = f_spec.f(u)
    except OverflowError:
        raise RuntimeError(f"f overflows at u = {u!r} for {f_spec!r}"
                           ) from None
    p_high = (c - f0) / (f_u - f0)
    return WorstCaseSolution(u * p_high, TwoPointSupport(0.0, u, p_high),
                             u, c, f_spec)


def solve_x_u(f_spec, u: float) -> float:
    """The atom location x_u > u maximizing (x - u) / (f(x) - f(0)).

    Stationarity reads (x - u) f'(x) = f(x) - f(0); for the power budget
    that solves in closed form to u alpha / (alpha - 1), otherwise regula
    falsi brackets the increasing residual's root to 1e-12 relative width.
    The bracket walk starts 2^-20 min(u, 1) above u and doubles its
    distance from u, so it evaluates f at most about 2 (x_u - u) past u,
    whatever the size of u. An f that overflows on the way raises
    RuntimeError.
    """
    if u <= 0:
        raise ValueError("threshold u must be positive")
    if isinstance(f_spec, PowerSpec):
        return u * f_spec.alpha / (f_spec.alpha - 1.0)
    f0 = f_spec.f(0.0)

    def g(x):
        return (x - u) * f_spec.df(x) - (f_spec.f(x) - f0)

    # the distance of hi from u doubles, up to at most 1e12 u
    try:
        span, g_hi = expand_bracket(lambda d: g(u + d), min(u, 1.0) * 2**-20,
                                    math.inf, -1, cap=u * 1e12)
    except OverflowError:
        raise RuntimeError("f overflows in the search for x_u past u = "
                           f"{u!r} for {f_spec!r}") from None
    if not g_hi >= 0:
        raise ValueError("no stationary point found; f may not be "
                         "strictly convex")
    # width alone stops the search: g carries terms of size f(x), whose
    # rounding can exceed any fixed residual tolerance
    return falsi_root(g, u, u + span, fhi=g_hi, xtol=1e-12).mid


def worst_capping_error(f_spec, c: float, u: float) -> WorstCaseSolution:
    """Maximal E[(X - u)+] over laws on [0, inf) with E f(X) <= c.

    Same structure as truncation with the overshoot atom at x_u instead of
    u: when x_u is inside the budget region the degenerate law at f^{-1}(c)
    wins with error f^{-1}(c) - u, else the two-point law {0, x_u}.
    """
    if u <= 0:
        raise ValueError("threshold u must be positive")
    f0 = _check_budget(f_spec, c)
    x_c = f_spec.f_inv(c)
    x_u = solve_x_u(f_spec, u)
    if x_u <= x_c:
        return WorstCaseSolution(max(x_c - u, 0.0), DegenerateSupport(x_c),
                                 u, c, f_spec)
    p_high = (c - f0) / (f_spec.f(x_u) - f0)
    return WorstCaseSolution((x_u - u) * p_high,
                             TwoPointSupport(0.0, x_u, p_high), u, c, f_spec)
