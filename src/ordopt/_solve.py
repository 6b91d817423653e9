"""Small numeric root searches shared across the library.

Every search here finds a root; none minimizes. An optimum elsewhere is
found as the root of its first-order condition. Each search takes one
form, the one its callers use. bisect_root is a float search, and every
float bisection runs through it; falsi_root is the same search by regula
falsi, for the outer slope of the two-phase exponent, where each
evaluation costs more than a bisection step. newton_root is a row
search: it steps 1-D arrays of independent brackets in lock-step, for
blocks of rate estimates, meta-rates or quantiles, and serves roots
whose derivative comes cheaply with the value; the tilt searches of
meta_rate run it twice over, in the tilt along the stationarity curve
and, inside each point of it, in alpha. expand_bracket grows the
brackets of both, as floats or as rows. increasing_fixed_point iterates
t = g(t).
The rate functions, tilted-moment optimizations, quantiles and caps
elsewhere reduce to these searches, and every search loop in the numeric
modules runs here. The one search that seeks no root, zoom_max, is a
reference: it finds the largest value of unimodal rows by grids alone,
so that reproduce can check closed forms with no first-order condition
of theirs.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

# the stop rule of increasing_fixed_point (relative step) and its step
# limit
_FIXED_POINT_TOL = 1e-12
_MAX_STEPS = 500


class Root(NamedTuple):
    """Each row's last Newton point x and the steps it took, as arrays."""

    x: np.ndarray
    iterations: np.ndarray


class Bracket(NamedTuple):
    """Final bracket [lo, hi] of a root search and the steps it took."""

    lo: float
    hi: float
    iterations: int

    @property
    def mid(self):
        return 0.5 * (self.lo + self.hi)


def _converged(width, mid, fm, xtol, ftol):
    """The stop test of both root searches, for floats or row arrays alike:
    width <= xtol * max(1, |mid|) and, when ftol is given, |f(mid)| <= ftol.
    """
    done = (width <= xtol) | (width <= xtol * abs(mid))
    return done if ftol is None else done & (abs(fm) <= ftol)


def bisect_root(f, lo, hi, *, xtol=1e-12, ftol=None, max_iter=200,
                flo=None, fhi=None):
    """Bracket the root of a monotone f with f(lo), f(hi) of opposite sign.

    A float search: f takes and returns floats. Stops once hi - lo <=
    xtol * max(1, |mid|) and, when ftol is given, |f(mid)| <= ftol at the
    last midpoint, or after max_iter steps. A midpoint where f is exactly
    0 replaces the end where f <= 0, so the Bracket's lo keeps f <= 0 for
    increasing f and hi keeps it for decreasing f. flo and fhi skip
    re-evaluating ends the caller already knows; an exact root at an end
    returns the degenerate bracket there.
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
        if _converged(hi - lo, mid, fm, xtol, ftol):
            break
    return Bracket(lo, hi, it)


def falsi_root(f, lo, hi, flo, fhi, *, xtol=1e-12, max_iter=200):
    """bisect_root's search without ftol, from the values flo and fhi at
    the ends, by the Illinois variant of regula falsi (Dowell and Jarratt,
    BIT 11, 1971): f at the bracket's secant point (its midpoint where
    that is not strictly inside) replaces the end of its sign, and an end
    kept twice in a row has its value halved, so both ends close in
    superlinearly; a secant point that rounds onto an end moves half the
    tolerance inside. A point where f is exactly 0 returns its degenerate
    bracket."""
    up = fhi > 0
    if (flo > 0) == up:
        raise ValueError("root not bracketed")
    kept, it = 0, 0
    for it in range(1, max_iter + 1):
        x = lo + (hi - lo) * (flo / (flo - fhi))
        if x in (lo, hi) and math.isfinite(flo - fhi):
            # the root within rounding of an end: half a tolerance inside
            x += math.copysign(0.5 * xtol * max(1.0, abs(x)), hi + lo - x - x)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        fx = f(x)
        if fx == 0.0:
            return Bracket(x, x, it)
        if (fx > 0) == up:
            hi, fhi = x, fx
            flo = 0.5 * flo if kept == -1 else flo
            kept = -1
        else:
            lo, flo = x, fx
            fhi = 0.5 * fhi if kept == 1 else fhi
            kept = 1
        if _converged(hi - lo, x, fx, xtol, None):
            break
    return Bracket(lo, hi, it)


def newton_root(f, lo, hi, x0, *, xtol=1e-12, ftol=None, max_iter=200,
                flo=None, fhi=None):
    """Roots of monotone functions in [lo, hi] by Newton steps kept in
    their brackets, one search per row.

    A row search: lo and hi (and flo and fhi when given) are 1-D arrays,
    one independent bracket per row, and x0 (and ftol when given) an array
    of the same length or one float for every row. The rows step in
    lock-step: f(x, rows) gets the points of the still-active rows and
    their indices (ascending) and returns two arrays, f(x) and f'(x).
    Starting from x0 in [lo, hi], every evaluated point replaces the end
    of its row's bracket whose sign it shares; the row's next point is the
    Newton step when that is finite and inside the bracket, else the
    bracket's midpoint (the rtsafe scheme, Press et al., Numerical Recipes,
    section 9.4). A row stops at the first point x where its Newton step s
    passes bisect_root's test, |s| <= xtol * max(1, |x|) and, when ftol is
    given, |f(x)| <= ftol, or once no float lies strictly inside its
    bracket (rounding noise in f can keep s above xtol), or after max_iter
    evaluations, and leaves the active rows then, so each row takes
    exactly the steps its own one-row call would. Returns each row's last
    evaluated point, so a caller can keep what f computed there. flo and
    fhi give the signs at the ends, as in bisect_root; an exact root at an
    end returns it with no step.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    every = np.arange(lo.size)
    flo = f(lo, every)[0] if flo is None else np.asarray(flo)
    fhi = f(hi, every)[0] if fhi is None else np.asarray(fhi)
    x = np.array(np.broadcast_to(x0, lo.shape), dtype=float)
    at_lo = flo == 0.0
    at_hi = (fhi == 0.0) & ~at_lo
    x[at_lo] = lo[at_lo]
    x[at_hi] = hi[at_hi]
    iterations = np.zeros(lo.size, dtype=int)
    # the active rows are kept compacted and leave, with their last point
    # written back, at the step they converge
    act = np.flatnonzero(~(at_lo | at_hi))
    up = fhi[act] > 0
    if np.any((flo[act] > 0) == up):
        raise ValueError("root not bracketed")
    tol = ftol if np.ndim(ftol) == 0 else np.asarray(ftol)[act]
    a_lo, a_hi, a_x = lo[act], hi[act], x[act]
    for it in range(1, max_iter + 1):
        if not act.size:
            break
        # f runs outside the errstate, so none of its warnings is hidden
        fx, dfx = f(a_x, act)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            to_hi = (fx > 0) == up
            a_hi = np.where(to_hi, a_x, a_hi)
            a_lo = np.where(to_hi, a_lo, a_x)
            step = fx / dfx
            mid = 0.5 * (a_lo + a_hi)
            done = (_converged(abs(step), a_x, fx, xtol, tol)
                    | (it == max_iter) | (mid == a_lo) | (mid == a_hi))
            if done.any():
                fin = act[done]
                x[fin], iterations[fin] = a_x[done], it
                keep = ~done
                act, a_lo, a_hi, up = (act[keep], a_lo[keep], a_hi[keep],
                                       up[keep])
                a_x, step, mid = a_x[keep], step[keep], mid[keep]
                if np.ndim(tol):
                    tol = tol[keep]
            a_x = a_x - step
            inside = (a_lo < a_x) & (a_x < a_hi)
        a_x = np.where(inside, a_x, mid)
    return Root(x, iterations)


def expand_bracket(f, x, edge, sign, cap=math.inf):
    """Step x toward the domain edge while f(x) keeps the given sign.

    sign is +1 or -1. An infinite edge doubles x (nonzero, pointing at the
    edge) and stops before |x| passes cap; a finite edge halves the gap
    to it until the gap no longer shrinks. A zero or NaN value stops the
    walk. Returns (x, f(x)) at the last point, ready for bisect_root's
    flo or fhi.

    x is a float, with f taking floats, or a 1-D array, every row walking
    on its own: f(x, rows) is evaluated on the still-walking rows only, and
    x, f(x) come back as arrays. The walk keeps both forms because the
    float walk is far cheaper: a 9-step walk on a model's Lambda' takes
    about 7 us as floats and 150 us as a one-row array call (one Xeon
    core), and rate_function makes two walks per call.
    """
    if np.ndim(x):
        return _expand_rows(f, x, edge, sign, cap)
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


def _expand_rows(f, x, edge, sign, cap):
    x = np.array(x, dtype=float)
    every = np.arange(x.size)
    fx = np.asarray(f(x, every), dtype=float)
    act = np.flatnonzero(sign * fx > 0)
    while act.size:
        if math.isinf(edge):
            nxt = 2.0 * x[act]
            walk = (np.abs(nxt) <= cap) & (nxt != x[act])
        else:
            nxt = 0.5 * (x[act] + edge)
            walk = nxt != x[act]
        act = act[walk]
        x[act] = nxt[walk]
        fx[act] = f(x[act], act)
        act = act[sign * fx[act] > 0]
    return x, fx


def increasing_fixed_point(g, t0):
    """Fixed point of t = g(t) for increasing g with g'(t) < 1 near the root.

    Iterates from t0; monotone convergence under the contraction condition.
    Returns (t, iterations).
    """
    t = t0
    for it in range(1, _MAX_STEPS + 1):
        t_next = g(t)
        if abs(t_next - t) <= _FIXED_POINT_TOL * max(1.0, abs(t_next)):
            return t_next, it
        t = t_next
    return t, _MAX_STEPS


def zoom_max(f, lo, hi, points, zooms):
    """The largest value of each row's unimodal f on [lo, hi], 1-D arrays.

    f takes an array of x, one row of `points` per bracket, evenly spaced
    in log x from lo (exactly) to hi, and returns the values. A unimodal
    row keeps its maximizer in the two cells around its best grid point,
    so each of `zooms` rounds lays a new grid across them. Returns the
    largest value seen per row.
    """
    rows, steps = np.arange(lo.size), np.linspace(0.0, 1.0, points)
    best = np.full(lo.size, -math.inf)
    for _ in range(zooms + 1):
        x = lo[:, None] * np.exp(np.multiply.outer(np.log(hi / lo), steps))
        v = f(x)
        k = v.argmax(axis=1)
        best = np.maximum(best, v[rows, k])
        lo = x[rows, np.maximum(k - 1, 0)]
        hi = x[rows, np.minimum(k + 1, points - 1)]
    return best
