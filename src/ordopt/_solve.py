"""Small 1-D numeric solvers shared across the library.

Everything here operates on plain callables and floats; the root searches
also step 1-D arrays of independent brackets in lock-step, for row-wise
work such as a block of rate estimates or of meta-rates, and the grid
phase of grid_then_brent evaluates its whole grid in one call. The heavy
lifting elsewhere (rate functions, tilted-moment optimizations, quantiles,
caps) reduces to monotone root finding or unimodal minimization on an
interval, and this module is the only numerical machinery the optimizers
use: every search loop in the numeric modules runs here. Every float
bisection runs through bisect_root, with expand_bracket growing its
brackets; newton_root is the safeguarded Newton search for roots whose
derivative comes cheaply with the value, and newton_system the damped
Newton solver for a small square system of equations. Every minimization
runs through brent_min, Brent's parabolic-plus-golden-section search,
which grid_then_brent starts from the best cell of a coarse grid.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

# the golden-section step, as a fraction of the larger side of the bracket
_GOLDEN_STEP = (3.0 - math.sqrt(5.0)) / 2.0
_SQRT_EPS = math.sqrt(np.finfo(float).eps)


class Root(NamedTuple):
    """Last point x a Newton search evaluated and the steps it took."""

    x: float
    iterations: int


class Bracket(NamedTuple):
    """Final bracket [lo, hi] of a root search and the steps it took."""

    lo: float
    hi: float
    iterations: int

    @property
    def mid(self):
        return 0.5 * (self.lo + self.hi)


def _converged(width, mid, fm, xtol, ftol):
    """The stop test of bisect_root, for floats or row arrays alike:
    width <= xtol * max(1, |mid|) and, when ftol is given, |f(mid)| <= ftol.
    """
    done = (width <= xtol) | (width <= xtol * abs(mid))
    return done if ftol is None else done & (abs(fm) <= ftol)


def bisect_root(f, lo, hi, *, xtol=1e-12, ftol=None, max_iter=200,
                flo=None, fhi=None):
    """Bracket the root of a monotone f with f(lo), f(hi) of opposite sign.

    Stops once hi - lo <= xtol * max(1, |mid|) and, when ftol is given,
    |f(mid)| <= ftol at the last midpoint, or after max_iter steps. A
    midpoint where f is exactly 0 replaces the end where f <= 0, so the
    Bracket's lo keeps f <= 0 for increasing f and hi keeps it for
    decreasing f. flo and fhi skip re-evaluating ends the caller already
    knows; an exact root at an end returns the degenerate bracket there.

    With 1-D arrays for lo and hi (and flo, fhi, and ftol when given) every
    row is its own search, stepped in lock-step: f(x, rows) gets the
    midpoints of the still-active rows and their indices (ascending), and
    the Bracket holds arrays. Each row takes exactly the steps its scalar
    call would.
    """
    if np.ndim(lo):
        return _bisect_rows(f, lo, hi, xtol, ftol, max_iter, flo, fhi)
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


def _bisect_rows(f, lo, hi, xtol, ftol, max_iter, flo, fhi):
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    every = np.arange(lo.size)
    flo = f(lo, every) if flo is None else np.asarray(flo)
    fhi = f(hi, every) if fhi is None else np.asarray(fhi)
    at_lo = flo == 0.0
    at_hi = (fhi == 0.0) & ~at_lo
    hi[at_lo] = lo[at_lo]
    lo[at_hi] = hi[at_hi]
    iterations = np.zeros(lo.size, dtype=int)
    # the active rows' brackets are kept compacted; a row leaves them, with
    # its final bracket written back, at the step it converges
    act = np.flatnonzero(~(at_lo | at_hi))
    up = fhi[act] > 0
    if np.any((flo[act] > 0) == up):
        raise ValueError("root not bracketed")
    tol = ftol if np.ndim(ftol) == 0 else np.asarray(ftol)[act]
    a_lo, a_hi = lo[act], hi[act]
    for it in range(1, max_iter + 1):
        if not act.size:
            break
        mid = 0.5 * (a_lo + a_hi)
        fm = f(mid, act)
        to_hi = (fm > 0) == up
        a_hi = np.where(to_hi, mid, a_hi)
        a_lo = np.where(to_hi, a_lo, mid)
        done = _converged(a_hi - a_lo, mid, fm, xtol, tol)
        if done.any():
            fin = act[done]
            lo[fin], hi[fin], iterations[fin] = a_lo[done], a_hi[done], it
            keep = ~done
            act, a_lo, a_hi, up = act[keep], a_lo[keep], a_hi[keep], up[keep]
            if np.ndim(tol):
                tol = tol[keep]
    lo[act], hi[act], iterations[act] = a_lo, a_hi, max_iter
    return Bracket(lo, hi, iterations)


def newton_root(f, lo, hi, x0, *, xtol=1e-12, ftol=None, max_iter=200,
                flo=None, fhi=None):
    """Root of a monotone f in [lo, hi] by Newton steps kept in a bracket.

    f(x) returns (f(x), f'(x)). Starting from x0 in [lo, hi], every
    evaluated point replaces the end of the bracket whose sign it shares;
    the next point is the Newton step when that is finite and inside the
    bracket, else the bracket's midpoint (the rtsafe scheme, Press et al.,
    Numerical Recipes, section 9.4). Stops at the first point x where the
    Newton step s passes bisect_root's test, |s| <= xtol * max(1, |x|) and,
    when ftol is given, |f(x)| <= ftol, or after max_iter evaluations.
    Returns that last evaluated point, so a caller can keep what f computed
    there. flo and fhi give the signs at the ends, as in bisect_root; an
    exact root at an end returns it with no step.

    With 1-D arrays for lo, hi and x0 (and flo, fhi, and ftol when given)
    every row is its own search, stepped in lock-step: f(x, rows) gets the
    points of the still-active rows and their indices (ascending) and
    returns two arrays, and the Root holds arrays. Each row takes exactly
    the steps its scalar call would.
    """
    if np.ndim(lo):
        return _newton_rows(f, lo, hi, x0, xtol, ftol, max_iter, flo, fhi)
    flo = f(lo)[0] if flo is None else flo
    fhi = f(hi)[0] if fhi is None else fhi
    if flo == 0.0:
        return Root(lo, 0)
    if fhi == 0.0:
        return Root(hi, 0)
    up = fhi > 0
    if (flo > 0) == up:
        raise ValueError("root not bracketed")
    x = x0
    for it in range(1, max_iter + 1):
        fx, dfx = f(x)
        if (fx > 0) == up:
            hi = x
        else:
            lo = x
        with np.errstate(divide="ignore", invalid="ignore"):
            step = float(np.divide(fx, dfx))
        if _converged(abs(step), x, fx, xtol, ftol) or it == max_iter:
            return Root(x, it)
        x = x - step
        if not lo < x < hi:          # also catches a nan step
            x = 0.5 * (lo + hi)
    return Root(x, 0)


def _newton_rows(f, lo, hi, x0, xtol, ftol, max_iter, flo, fhi):
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
    # as in _bisect_rows, the active rows are kept compacted and leave, with
    # their last point written back, at the step they converge
    act = np.flatnonzero(~(at_lo | at_hi))
    up = fhi[act] > 0
    if np.any((flo[act] > 0) == up):
        raise ValueError("root not bracketed")
    tol = ftol if np.ndim(ftol) == 0 else np.asarray(ftol)[act]
    a_lo, a_hi, a_x = lo[act], hi[act], x[act]
    for it in range(1, max_iter + 1):
        if not act.size:
            break
        fx, dfx = f(a_x, act)
        to_hi = (fx > 0) == up
        a_hi = np.where(to_hi, a_x, a_hi)
        a_lo = np.where(to_hi, a_lo, a_x)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = fx / dfx
        done = _converged(abs(step), a_x, fx, xtol, tol) | (it == max_iter)
        if done.any():
            fin = act[done]
            x[fin], iterations[fin] = a_x[done], it
            keep = ~done
            act, a_lo, a_hi, up = act[keep], a_lo[keep], a_hi[keep], up[keep]
            a_x, step = a_x[keep], step[keep]
            if np.ndim(tol):
                tol = tol[keep]
        with np.errstate(invalid="ignore"):
            a_x = a_x - step
            inside = (a_lo < a_x) & (a_x < a_hi)
        a_x = np.where(inside, a_x, 0.5 * (a_lo + a_hi))
    return Root(x, iterations)


def expand_bracket(f, x, edge, sign, cap=math.inf):
    """Step x toward the domain edge while f(x) keeps the given sign.

    sign is +1 or -1. An infinite edge doubles x (nonzero, pointing at the
    edge) and stops before |x| passes cap; a finite edge halves the gap
    to it until the gap no longer shrinks. A zero or NaN value stops the
    walk. Returns (x, f(x)) at the last point, ready for bisect_root's
    flo or fhi.

    With a 1-D array x every row walks on its own, as in bisect_root:
    f(x, rows) is evaluated on the still-walking rows only, and x, f(x)
    come back as arrays.
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


def newton_system(residuals, v0, *, tol=1e-11, max_iter=500):
    """Root of a square system r(v) = 0 by damped Newton steps.

    residuals(vs) takes a 2-D array with one point per row and returns the
    residual vector of each row, or None once a row leaves the domain. The
    Jacobian comes from forward differences of relative size 1e-7, with
    every stepped point in one call; each Newton step is halved, up to 50
    times, until the max-norm of the residual falls (Dennis and Schnabel,
    Numerical Methods for Unconstrained Optimization and Nonlinear
    Equations, ch. 6). Returns the first point whose residual max-norm is
    at most tol, as a tuple of floats, or None when a point leaves the
    domain, the Jacobian is singular, the line search fails or max_iter
    steps pass.
    """
    v = np.array(v0, dtype=float)
    r = residuals(v[None])
    if r is None:
        return None
    r = r[0]
    for _ in range(max_iter):
        norm = float(np.max(np.abs(r)))
        if norm <= tol:
            return tuple(float(x) for x in v)
        h = 1e-7 * np.maximum(1.0, np.abs(v))
        rp = residuals(v + np.diag(h))
        if rp is None:
            return None
        jac = ((rp - r) / h[:, None]).T
        try:
            step = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            return None
        t = 1.0
        for _ in range(50):
            cand = v + t * step
            rc = residuals(cand[None])
            if rc is not None and float(np.max(np.abs(rc))) < norm:
                v, r = cand, rc[0]
                break
            t *= 0.5
        else:
            return None
    return None


def _parabola(x, fx, w, fw, v, fv):
    """Vertex of the parabola through (x, fx), (w, fw), (v, fv) as the
    offset p / q from x, with q >= 0."""
    r = (x - w) * (fx - fv)
    q = (x - v) * (fx - fw)
    p = (x - v) * q - (x - w) * r
    q = 2.0 * (q - r)
    return (-p, q) if q > 0.0 else (p, -q)


def brent_min(f, lo, hi, *, tol=1e-10, max_iter=300):
    """Minimizer of a unimodal f on [lo, hi] by Brent's method.

    Returns (x, f(x)) at the best point evaluated. Each step fits a
    parabola through the three best points and takes its vertex when that
    falls inside the bracket and moves less than half the step before
    last; otherwise it takes a golden-section step into the larger side
    (R. P. Brent, Algorithms for Minimization without Derivatives, 1973,
    ch. 5, procedure localmin). With tol1 = sqrt(eps) |x| + tol * max(1,
    |a| + |b|) / 4 on the current bracket [a, b], no step is shorter than
    tol1, and the search stops once x is within 2 tol1 of both ends, so
    the final bracket is about tol * max(1, |a| + |b|) wide and no steps
    are spent below the resolution of f. Non-finite values are treated as
    +inf, so domain edges never poison the search, and never enter a
    parabola.
    """

    def safe(x):
        v = f(x)
        return v if v == v and v < math.inf else math.inf

    a, b = lo, hi
    x = w = v = a + _GOLDEN_STEP * (b - a)
    fx = fw = fv = safe(x)
    d = e = 0.0
    for _ in range(max_iter):
        m = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(x) + 0.25 * tol * max(1.0, abs(a) + abs(b))
        tol2 = 2.0 * tol1
        if abs(x - m) <= tol2 - 0.5 * (b - a):
            break
        parabolic = False
        if abs(e) > tol1 and fw < math.inf and fv < math.inf:
            p, q = _parabola(x, fx, w, fw, v, fv)
            if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
                e, d = d, p / q
                parabolic = True
                # keep the vertex at least tol2 inside the bracket
                if x + d - a < tol2 or b - x - d < tol2:
                    d = tol1 if x < m else -tol1
        if not parabolic:
            e = (b if x < m else a) - x
            d = _GOLDEN_STEP * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        fu = safe(u)
        if fu <= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx


def grid_then_brent(f, lo, hi, *, n_grid=129, tol=1e-10):
    """Coarse grid scan followed by Brent refinement around the best cell.

    Robust against mild non-unimodality near domain edges: the grid pins the
    basin, brent_min polishes inside it. f takes a float and, for the
    grid, the 1-D array of the n_grid points lo + i * step, returning one
    value per point; the first smallest non-nan value wins. Returns
    (x, f(x)).
    """
    if hi <= lo:
        return lo, f(lo)
    step = (hi - lo) / (n_grid - 1)
    vals = np.asarray(f(lo + np.arange(n_grid) * step), dtype=float)
    vals = np.where(np.isnan(vals), math.inf, vals)
    best_i = int(np.argmin(vals))
    best_v = float(vals[best_i])
    a = lo + max(best_i - 1, 0) * step
    b = lo + min(best_i + 1, n_grid - 1) * step
    x, v = brent_min(f, a, b, tol=tol)
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
