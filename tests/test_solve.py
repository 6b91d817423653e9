import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import ordopt
import ordopt._solve
from ordopt._solve import (bisect_root, brent_min, expand_bracket,
                           grid_then_brent, increasing_fixed_point,
                           newton_root, newton_system)


def test_bisect_root_cubic():
    root = bisect_root(lambda t: t ** 3 - 2.0, 0.0, 2.0)
    assert abs(root.mid - 2.0 ** (1.0 / 3.0)) < 1e-10
    assert root.iterations > 0


def test_bisect_requires_bracket():
    with pytest.raises(ValueError):
        bisect_root(lambda t: t + 10.0, 0.0, 1.0)


def test_bisect_exact_endpoint():
    root = bisect_root(lambda t: t, 0.0, 1.0)
    assert root.mid == 0.0 and root.iterations == 0


@given(r=st.floats(-1e3, 1e3), a=st.floats(0.0, 10.0),
       b=st.floats(1e-3, 10.0), sign=st.sampled_from([1.0, -1.0]),
       left=st.floats(1e-3, 1e3), right=st.floats(1e-3, 1e3),
       xtol=st.sampled_from([1e-4, 1e-9, 1e-13]),
       ftol=st.sampled_from([None, 1e-6]), max_iter=st.integers(1, 200))
@example(r=-5e-324, a=0.0, b=0.5, sign=1.0, left=0.5, right=0.5, xtol=1e-4,
         ftol=None, max_iter=1)
def test_bisect_root_brackets_shifted_monotone_roots(r, a, b, sign, left,
                                                     right, xtol, ftol,
                                                     max_iter):
    seen = []

    def g(t):
        return sign * (a * (t - r) ** 3 + b * (t - r))

    def f(t):
        seen.append(t)
        return g(t)

    root = bisect_root(f, r - left, r + right, xtol=xtol, ftol=ftol,
                       max_iter=max_iter)
    assert 1 <= root.iterations <= max_iter
    # the bracket keeps a sign change of f as computed; it holds r unless a
    # midpoint where f rounds to exactly 0 (a subnormal r) became an end
    assert sign * g(root.lo) <= 0.0 <= sign * g(root.hi)
    assert root.lo <= r <= root.hi or 0.0 in (g(root.lo), g(root.hi))
    if root.iterations < max_iter:
        last = seen[-1]
        assert last in (root.lo, root.hi)
        assert root.hi - root.lo <= xtol * max(1.0, abs(last))
        assert ftol is None or abs(g(last)) <= ftol


def test_expand_bracket_doubles_to_cap_and_halves_to_edge():
    assert expand_bracket(lambda t: t + 5.0, -1.0, -math.inf, 1,
                          cap=64.0) == (-8.0, -3.0)
    x, fx = expand_bracket(lambda t: t + 500.0, -1.0, -math.inf, 1,
                           cap=64.0)
    assert x == -64.0 and fx > 0
    x, fx = expand_bracket(lambda t: 1.0 / (2.0 - t) - 1e6, 1.0, 2.0, -1)
    assert 1.0 < x < 2.0 and fx >= 0 and 2.0 - x > 5e-7


@given(rows=st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(0.0, 10.0),
                               st.floats(1e-3, 10.0),
                               st.sampled_from([1.0, -1.0]),
                               st.floats(1e-3, 1e3), st.floats(1e-3, 1e3),
                               st.sampled_from([None, 1e-6])),
                     min_size=1, max_size=6),
       xtol=st.sampled_from([1e-4, 1e-9, 1e-13]),
       max_iter=st.integers(1, 200))
def test_bisect_rows_take_each_scalar_search_step_for_step(rows, xtol,
                                                           max_iter):
    r, a, b, sign, left, right, ftols = (np.array(c) for c in zip(*rows))
    ftol = None if all(f is None for f in ftols) else np.array(
        [1e-6 if f is not None else math.inf for f in ftols])

    def g(i, t):
        return sign[i] * (a[i] * (t - r[i]) ** 3 + b[i] * (t - r[i]))

    active = []

    def f(t, idx):
        active.append(idx.tolist())
        return g(idx, t)

    got = bisect_root(f, r - left, r + right, xtol=xtol, ftol=ftol,
                      max_iter=max_iter)
    assert all(x == sorted(set(x)) for x in active)
    for i in range(len(rows)):
        tol = None if ftol is None or ftol[i] == math.inf else ftol[i]
        one = bisect_root(lambda t: g(i, t), r[i] - left[i], r[i] + right[i],
                          xtol=xtol, ftol=tol, max_iter=max_iter)
        assert (got.lo[i], got.hi[i], got.iterations[i]) == tuple(one)
        # row i is evaluated at exactly its own steps and no others
        assert sum(i in x for x in active[2:]) == one.iterations


def test_expand_rows_walk_like_scalar_calls():
    shifts = np.array([5.0, 500.0, -0.5, 0.0])

    def f(t, idx):
        return t + shifts[idx]

    x, fx = expand_bracket(f, np.full(4, -1.0), -math.inf, 1, cap=64.0)
    for i, s in enumerate(shifts):
        assert (x[i], fx[i]) == expand_bracket(lambda t: t + s, -1.0,
                                               -math.inf, 1, cap=64.0)


def _overshooting(r, b, a, sign):
    """A monotone f with its derivative whose Newton steps overshoot: the
    arctan term flattens away from r, so a step from there lands far past
    the root, as Newton does on a tilted mean that saturates."""
    def f(t):
        u = b * (t - r)
        return (sign * (np.arctan(u) + a * u),
                sign * b * (1.0 / (1.0 + u * u) + a))
    return f


_NEWTON_ROWS = st.lists(
    st.tuples(st.floats(-10.0, 10.0), st.floats(0.1, 1e3),
              st.floats(0.0, 1e-2), st.sampled_from([1.0, -1.0]),
              st.floats(1e-3, 1e3), st.floats(1e-3, 1e3),
              st.floats(0.0, 1.0), st.sampled_from([None, 1e-9])),
    min_size=1, max_size=6)


@given(rows=_NEWTON_ROWS, xtol=st.sampled_from([1e-6, 1e-13]),
       max_iter=st.integers(1, 200))
def test_newton_steps_stay_inside_the_bracket(rows, xtol, max_iter):
    for r, b, a, sign, left, right, at, ftol in rows:
        f = _overshooting(r, b, a, sign)
        lo, hi = r - left, r + right
        # clipped: lo + 1.0 * (hi - lo) can round past hi
        x0 = min(max(lo + at * (hi - lo), lo), hi)
        seen = []

        def traced(t):
            seen.append(t)
            return f(t)

        root = newton_root(traced, lo, hi, x0, xtol=xtol, ftol=ftol,
                           max_iter=max_iter, flo=f(lo)[0], fhi=f(hi)[0])
        assert seen[0] == x0 and root.x == seen[-1]
        assert len(seen) == root.iterations <= max_iter
        # each point after the first lies strictly inside the bracket that
        # the earlier points' signs left
        a_lo, a_hi = lo, hi
        for t in seen:
            assert a_lo <= t <= a_hi
            if t != x0:
                assert a_lo < t < a_hi
            if (f(t)[0] > 0) == (sign > 0):
                a_hi = t
            else:
                a_lo = t
        if root.iterations < max_iter:
            g, dg = f(root.x)
            assert abs(g / dg) <= xtol * max(1.0, abs(root.x))
            assert ftol is None or abs(g) <= ftol


@given(rows=_NEWTON_ROWS, xtol=st.sampled_from([1e-6, 1e-13]),
       max_iter=st.integers(1, 200))
def test_newton_rows_take_each_scalar_search_step_for_step(rows, xtol,
                                                            max_iter):
    r, b, a, sign, left, right, at, ftols = (np.array(c) for c in zip(*rows))
    ftol = None if all(f is None for f in ftols) else np.array(
        [math.inf if f is None else f for f in ftols])
    lo, hi = r - left, r + right
    x0 = lo + at * (hi - lo)
    active = []

    def f(t, idx):
        active.append(idx.tolist())
        return _overshooting(r[idx], b[idx], a[idx], sign[idx])(t)

    got = newton_root(f, lo, hi, x0, xtol=xtol, ftol=ftol,
                      max_iter=max_iter)
    assert all(x == sorted(set(x)) for x in active)
    active = active[2:]     # the calls at the bracket ends
    for i in range(len(rows)):
        tol = None if ftol is None or ftol[i] == math.inf else ftol[i]
        one = newton_root(_overshooting(r[i], b[i], a[i], sign[i]), lo[i],
                          hi[i], x0[i], xtol=xtol, ftol=tol,
                          max_iter=max_iter)
        assert (got.x[i], got.iterations[i]) == tuple(one)
        # row i is evaluated at exactly its own steps and no others
        assert sum(i in x for x in active) == one.iterations


def test_newton_exact_root_at_an_end_takes_no_step():
    def f(t):
        return t, 1.0

    assert tuple(newton_root(f, 0.0, 1.0, 0.5)) == (0.0, 0)
    assert tuple(newton_root(f, -1.0, 0.0, -0.5, flo=-1.0)) == (0.0, 0)
    with pytest.raises(ValueError):
        newton_root(f, 1.0, 2.0, 1.5)


def test_grid_phase_is_one_call_on_the_scalar_grid_points():
    calls = []

    def f(t):
        calls.append(t)
        return (t - 0.3) ** 2

    grid_then_brent(f, -1.0, 2.0, n_grid=17)
    step = 3.0 / 16
    assert np.array_equal(calls[0], [-1.0 + i * step for i in range(17)])
    assert all(np.ndim(t) == 0 for t in calls[1:])


def test_float_bisection_only_in_solve():
    # every float bisection goes through _solve.bisect_root
    midpoint = re.compile(r"0\.5 \* \((lo|hi)")
    offenders = [
        f"{path.name}:{n}"
        for path in sorted(Path(ordopt.__file__).parent.glob("*.py"))
        if path.name != "_solve.py"
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if midpoint.search(line)]
    assert offenders == []


# the one loop in these modules that searches nothing: _node_table steps
# its tail breakpoints out to a fixed reach, building a fixed table
_LOOP_EXEMPT = {("meta_rate.py", "while edge > -_REACH_LOGIT:")}


def test_search_loops_only_in_solve():
    # every iterative search in these modules runs through _solve
    loop = re.compile(r"^\s*while\b|for _ in range\(")
    src = Path(ordopt.__file__).parent
    offenders = [
        (name, line.strip())
        for name in ("meta_rate.py", "adversarial.py", "truncation.py",
                     "populations.py")
        for line in (src / name).read_text().splitlines()
        if loop.search(line)]
    assert [o for o in offenders if o not in _LOOP_EXEMPT] == []


def test_newton_system_solves_a_square_system():
    # x^2 + y^2 = 4 and x = y, from (1, 2): the root (sqrt 2, sqrt 2)
    def residuals(vs):
        x, y = vs.T
        return np.array([x * x + y * y - 4.0, x - y]).T

    root = newton_system(residuals, [1.0, 2.0])
    assert root == pytest.approx((math.sqrt(2.0), math.sqrt(2.0)),
                                 abs=1e-10)
    assert all(type(v) is float for v in root)
    # a residual function that leaves its domain stops the search
    assert newton_system(lambda vs: None, [1.0, 2.0]) is None
    # so does a singular Jacobian: r(x, y) = (x + y, x + y) - (1, 2)
    assert newton_system(lambda vs: np.array(
        [vs.sum(1) - 1.0, vs.sum(1) - 2.0]).T, [0.0, 0.0]) is None


def _counted(f):
    def g(t):
        g.calls += 1
        return f(t)

    g.calls = 0
    return g


def test_brent_quadratic():
    f = _counted(lambda t: (t - 1.3) ** 2 + 0.25)
    x, v = brent_min(f, -4.0, 6.0)
    assert abs(x - 1.3) < 1e-7
    assert abs(v - 0.25) < 1e-13
    # the first parabola through three points lands on the vertex
    assert f.calls <= 8


def test_brent_evaluations_on_a_smooth_asymmetric_minimum():
    # minimum where sinh(t - 0.7) = -0.1
    f = _counted(lambda t: math.cosh(t - 0.7) + 0.1 * t)
    x, _ = brent_min(f, -4.0, 6.0)
    assert abs(x - (0.7 - math.asinh(0.1))) < 1e-7
    assert f.calls <= 15


def test_brent_handles_nan_edges():
    def f(t):
        return math.sqrt(t) + (t - 1.0) ** 2 if t >= 0 else float("nan")

    x, _ = brent_min(f, -0.5, 3.0)
    assert x >= 0.0


def test_brent_keeps_an_infinite_side_out_of_every_parabola(monkeypatch):
    # f is +inf left of 0.5; the search starts there and must walk out by
    # golden steps, fitting parabolas through finite values only
    fitted = []

    def spy(*args):
        fitted.append(args)
        return parabola(*args)

    parabola = ordopt._solve._parabola
    monkeypatch.setattr(ordopt._solve, "_parabola", spy)
    x, v = brent_min(lambda t: (t - 1.0) ** 2 if t >= 0.5 else math.inf,
                     -3.0, 2.0)
    assert abs(x - 1.0) < 1e-7 and math.isfinite(v)
    assert fitted
    assert all(math.isfinite(y) for args in fitted for y in args)


def test_grid_then_brent_bimodal():
    # global minimum at 4.5, a shallower local one near -2; the grid phase
    # passes its points as one array
    def f(t):
        return np.minimum((t + 2.0) ** 2 + 1.0, (t - 4.5) ** 2)

    x, v = grid_then_brent(f, -8.0, 8.0, n_grid=101)
    assert abs(x - 4.5) < 1e-6
    assert v < 1e-10


def test_fixed_point_log():
    t, _ = increasing_fixed_point(lambda t: 10.0 + 2.0 * math.log(t), 10.0)
    assert abs(t - (10.0 + 2.0 * math.log(t))) < 1e-10
    assert abs(t - 15.47896386) < 1e-6
