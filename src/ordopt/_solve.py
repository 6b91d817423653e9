"""Small 1-D numeric solvers shared across the library.

Everything here operates on plain callables and floats. The heavy lifting
elsewhere (rate functions, tilted-moment optimizations, quantiles, caps)
reduces to monotone root finding or unimodal minimization on an interval,
and this module is the only numerical machinery the optimizers use: every
float bisection in the package runs through bisect_root, with
expand_bracket growing its brackets.
"""

from __future__ import annotations

import math
from typing import NamedTuple

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class Bracket(NamedTuple):
    """Final bracket [lo, hi] of a root search and the steps it took."""

    lo: float
    hi: float
    iterations: int

    @property
    def mid(self):
        return 0.5 * (self.lo + self.hi)


def bisect_root(f, lo, hi, *, xtol=1e-12, ftol=None, max_iter=200,
                flo=None, fhi=None):
    """Bracket the root of a monotone f with f(lo), f(hi) of opposite sign.

    Stops once hi - lo <= xtol * max(1, |mid|) and, when ftol is given,
    |f(mid)| <= ftol at the last midpoint, or after max_iter steps. A
    midpoint where f is exactly 0 replaces the end where f <= 0, so the
    Bracket's lo keeps f <= 0 for increasing f and hi keeps it for
    decreasing f. flo and fhi skip re-evaluating ends the caller already
    knows; an exact root at an end returns the degenerate bracket there.
    """
    flo = f(lo) if flo is None else flo
    fhi = f(hi) if fhi is None else fhi
    if flo == 0.0:
        return Bracket(lo, lo, 0)
    if fhi == 0.0:
        return Bracket(hi, hi, 0)
    up = fhi > 0
    if (flo > 0) == up:
        raise ValueError("root not bracketed")
    it = 0
    for it in range(1, max_iter + 1):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if (fm > 0) == up:
            hi = mid
        else:
            lo = mid
        if hi - lo <= xtol * max(1.0, abs(mid)) and (
                ftol is None or abs(fm) <= ftol):
            break
    return Bracket(lo, hi, it)


def expand_bracket(f, x, edge, sign, cap=math.inf):
    """Step x toward the domain edge while f(x) keeps the given sign.

    sign is +1 or -1. An infinite edge doubles x (nonzero, pointing at the
    edge) and stops before |x| passes cap; a finite edge halves the gap
    to it until the gap no longer shrinks. A zero or NaN value stops the
    walk. Returns (x, f(x)) at the last point, ready for bisect_root's
    flo or fhi.
    """
    fx = f(x)
    while sign * fx > 0:
        if math.isinf(edge):
            nxt = 2.0 * x
            if abs(nxt) > cap:
                break
        else:
            nxt = 0.5 * (x + edge)
        if nxt == x:
            break
        x, fx = nxt, f(nxt)
    return x, fx


def golden_min(f, lo, hi, *, tol=1e-10, max_iter=300):
    """Golden-section minimizer of a unimodal f on [lo, hi].

    Returns (x, f(x)). The interval shrinks by the golden ratio each step;
    non-finite values are treated as +inf so domain edges never poison the
    search.
    """

    def safe(x):
        v = f(x)
        return v if v == v and v < math.inf else math.inf

    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = safe(x1), safe(x2)
    for _ in range(max_iter):
        if b - a <= tol * max(1.0, abs(a) + abs(b)):
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = safe(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = safe(x2)
    if f1 <= f2:
        return x1, f1
    return x2, f2


def grid_then_golden(f, lo, hi, *, n_grid=129, tol=1e-10):
    """Coarse grid scan followed by golden refinement around the best cell.

    Robust against mild non-unimodality near domain edges: the grid pins the
    basin, golden-section polishes inside it. Returns (x, f(x)).
    """
    if hi <= lo:
        return lo, f(lo)
    step = (hi - lo) / (n_grid - 1)
    best_i, best_v = 0, math.inf
    for i in range(n_grid):
        v = f(lo + i * step)
        if v == v and v < best_v:
            best_i, best_v = i, v
    a = lo + max(best_i - 1, 0) * step
    b = lo + min(best_i + 1, n_grid - 1) * step
    x, v = golden_min(f, a, b, tol=tol)
    if best_v < v:
        return lo + best_i * step, best_v
    return x, v


def increasing_fixed_point(g, t0, *, tol=1e-12, max_iter=500):
    """Fixed point of t = g(t) for increasing g with g'(t) < 1 near the root.

    Iterates from t0; monotone convergence under the contraction condition.
    Returns (t, iterations).
    """
    t = t0
    for it in range(1, max_iter + 1):
        t_next = g(t)
        if abs(t_next - t) <= tol * max(1.0, abs(t_next)):
            return t_next, it
        t = t_next
    return t, max_iter
