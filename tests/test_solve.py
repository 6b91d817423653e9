import importlib
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import ordopt
from ordopt._solve import expand_bracket, falsi_root, newton_root, zoom_max
from ordopt.cli import run_reproduce
from ordopt.meta_rate import sup_meta_rate_on_theta_a
from ordopt.populations import (GaussianMixture, ShiftedExponential,
                                TwoPoint, rate_function)


def test_falsi_root_steps_inside_an_end_at_the_root():
    # the secant point rounds onto hi, where f is 1e-20: half the
    # tolerance inside brackets the root in one step, where midpoints
    # took some 40
    root = falsi_root(lambda t: (t - 1.0) + 1e-20, 0.0, 1.0, -1.0, 1e-20)
    assert root.iterations == 1
    assert root.lo == 1.0 - 5e-13 and root.hi == 1.0


def test_falsi_root_cubic_in_few_steps():
    root = falsi_root(lambda t: t ** 3 - 2.0, 0.0, 2.0, -2.0, 6.0)
    assert abs(root.mid - 2.0 ** (1.0 / 3.0)) < 1e-12
    # bisection takes 41 steps to the same width
    assert root.hi - root.lo <= 1e-12 and root.iterations <= 12
    # the ends' values, when not given, are evaluated
    assert falsi_root(lambda t: t ** 3 - 2.0, 0.0, 2.0) == root


def test_falsi_root_requires_a_bracket():
    with pytest.raises(ValueError):
        falsi_root(lambda t: t + 10.0, 0.0, 1.0, 10.0, 11.0)
    with pytest.raises(ValueError):
        falsi_root(lambda t: t + 10.0, 0.0, 1.0)


def test_falsi_root_exact_root_at_an_end_takes_no_step():
    root = falsi_root(lambda t: t, 0.0, 1.0)
    assert root == (0.0, 0.0, 0)
    assert falsi_root(lambda t: t - 1.0, 0.0, 1.0, fhi=0.0) == (1.0, 1.0, 0)


def test_falsi_root_bisects_where_the_secant_stalls():
    # f(hi) is 6e132 times -f(lo), so every secant point rounds onto lo;
    # the Illinois halvings alone would take some 440 steps to move hi
    # (the search ran all 200 and returned 150), where midpoints close in
    # at about bisection's pace (34 steps to this width)
    def g(x):
        return (x - 100.0) * 3.0 * math.exp(3.0 * x) - math.expm1(3.0 * x)

    root = falsi_root(g, 100.0, 200.0, xtol=1e-10)
    assert root.iterations <= 60
    assert abs(root.mid - (100.0 + 1.0 / 3.0)) <= 1e-8


@given(r=st.floats(-1e3, 1e3), a=st.floats(0.0, 10.0),
       b=st.floats(1e-3, 10.0), sign=st.sampled_from([1.0, -1.0]),
       left=st.floats(1e-3, 1e3), right=st.floats(1e-3, 1e3),
       xtol=st.sampled_from([1e-4, 1e-9, 1e-13]),
       ftol=st.sampled_from([None, 1e-6]), max_iter=st.integers(1, 200))
@example(r=-5e-324, a=0.0, b=0.5, sign=1.0, left=0.5, right=0.5, xtol=1e-4,
         ftol=None, max_iter=1)
def test_falsi_root_brackets_shifted_monotone_roots(r, a, b, sign, left,
                                                    right, xtol, ftol,
                                                    max_iter):
    seen = []

    def g(t):
        return sign * (a * (t - r) ** 3 + b * (t - r))

    def f(t):
        seen.append(t)
        return g(t)

    root = falsi_root(f, r - left, r + right, xtol=xtol, ftol=ftol,
                      max_iter=max_iter)
    assert 1 <= root.iterations <= max_iter
    # the bracket keeps a sign change of f as computed; it holds r unless a
    # point where f rounds to exactly 0 (a subnormal r) became an end
    assert sign * g(root.lo) <= 0.0 <= sign * g(root.hi)
    assert root.lo <= r <= root.hi or 0.0 in (g(root.lo), g(root.hi))
    if root.iterations < max_iter:
        last = seen[-1]
        assert last in (root.lo, root.hi)
        assert root.hi - root.lo <= xtol * max(1.0, abs(last))
        assert ftol is None or abs(g(last)) <= ftol


def _half_rate_supremum(model):
    return sup_meta_rate_on_theta_a(
        model, 0.5 * rate_function(model, 0.0).value)


# evaluations of f over every falsi_root call a library call makes, at
# most; the bisection searches these replaced took 41, 41, 66, 162 and 146
FLOAT_SEARCH_BOUNDS = [
    ("rate SE(0.96, 1) at 0",
     lambda: rate_function(ShiftedExponential(0.96, 1.0), 0.0), 12),
    ("rate GM(0.3, 5) at 0",
     lambda: rate_function(GaussianMixture(0.3, 5.0), 0.0), 12),
    ("sup TwoPoint(1, 0.6) at 0.01",
     lambda: sup_meta_rate_on_theta_a(TwoPoint(1.0, 0.6), 0.01), 30),
    ("reproduce capping", lambda: run_reproduce("capping"), 50),
    ("sup SE(0.96, 1) at I(0)/2",
     lambda: _half_rate_supremum(ShiftedExponential(0.96, 1.0)), 60),
]


@pytest.mark.parametrize("call, bound",
                         [case[1:] for case in FLOAT_SEARCH_BOUNDS],
                         ids=[case[0] for case in FLOAT_SEARCH_BOUNDS])
def test_float_search_evaluation_counts(monkeypatch, call, bound):
    evaluations = []

    def counted(f, *args, **kwargs):
        def spied(x):
            evaluations.append(x)
            return f(x)
        return falsi_root(spied, *args, **kwargs)

    for name in ("populations", "meta_rate", "selectors", "adversarial",
                 "truncation"):
        monkeypatch.setattr(importlib.import_module(f"ordopt.{name}"),
                            "falsi_root", counted)
    call()
    assert 0 < len(evaluations) <= bound


def test_rate_at_zero_takes_few_steps():
    rate = rate_function(ShiftedExponential(0.96, 1.0), 0.0)
    assert rate.iterations <= 12
    assert rate.theta_star == pytest.approx(1.0 / 24.0, rel=1e-12)


def test_expand_bracket_doubles_to_cap_and_halves_to_edge():
    assert expand_bracket(lambda t: t + 5.0, -1.0, -math.inf, 1,
                          cap=64.0) == (-8.0, -3.0)
    x, fx = expand_bracket(lambda t: t + 500.0, -1.0, -math.inf, 1,
                           cap=64.0)
    assert x == -64.0 and fx > 0
    x, fx = expand_bracket(lambda t: 1.0 / (2.0 - t) - 1e6, 1.0, 2.0, -1)
    assert 1.0 < x < 2.0 and fx >= 0 and 2.0 - x > 5e-7


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

        def traced(t, rows):
            assert rows.tolist() == [0]
            seen.append(float(t[0]))
            return f(t)

        root = newton_root(traced, [lo], [hi], x0, xtol=xtol, ftol=ftol,
                           max_iter=max_iter, flo=[f(lo)[0]],
                           fhi=[f(hi)[0]])
        x, iterations = root.x[0], root.iterations[0]
        assert seen[0] == x0 and x == seen[-1]
        assert len(seen) == iterations <= max_iter
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
        if iterations < max_iter:
            g, dg = f(x)
            assert abs(g / dg) <= xtol * max(1.0, abs(x))
            assert ftol is None or abs(g) <= ftol


@given(rows=_NEWTON_ROWS, xtol=st.sampled_from([1e-6, 1e-13]),
       max_iter=st.integers(1, 200))
def test_newton_rows_take_each_one_row_search_step_for_step(rows, xtol,
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
        one = newton_root(
            lambda t, idx: _overshooting(r[i], b[i], a[i], sign[i])(t),
            lo[i:i + 1], hi[i:i + 1], x0[i], xtol=xtol, ftol=tol,
            max_iter=max_iter)
        assert (got.x[i], got.iterations[i]) == (one.x[0],
                                                 one.iterations[0])
        # row i is evaluated at exactly its own steps and no others
        assert sum(i in x for x in active) == one.iterations[0]


def test_newton_exact_root_at_an_end_takes_no_step():
    def f(t, rows):
        return t, np.ones_like(t)

    def one_row(root):
        return root.x.tolist(), root.iterations.tolist()

    assert one_row(newton_root(f, [0.0], [1.0], 0.5)) == ([0.0], [0])
    assert one_row(newton_root(f, [-1.0], [0.0], -0.5,
                               flo=[-1.0])) == ([0.0], [0])
    with pytest.raises(ValueError):
        newton_root(f, [1.0], [2.0], 1.5)


def test_newton_stops_where_its_bracket_holds_no_float():
    # f carries rounding noise of 1e-16 around its root, so the Newton
    # step there, 1e-16 / 1e-4, never passes xtol = 1e-13: the row stops
    # once its bracket closes on the root, not at the step limit
    r = 1.0 / 3.0

    def f(t, rows):
        return (1e-4 * (t - r) + np.where(t < r, -1e-16, 1e-16),
                np.full_like(t, 1e-4))

    root = newton_root(f, [0.0], [1.0], 0.5, xtol=1e-13)
    assert root.iterations[0] < 100
    assert abs(root.x[0] - r) <= np.spacing(r)


def test_newton_root_keeps_the_warnings_of_f():
    # newton_root silences the arithmetic of its own steps only: an
    # overflow inside the caller's f still warns
    def f(x, rows):
        np.exp(1000.0 * x)      # overflows at x = 0.9, the start
        return x - 0.25, np.ones(x.size)

    with pytest.warns(RuntimeWarning, match="overflow"):
        newton_root(f, [0.0], [1.0], 0.9, flo=[-1.0], fhi=[1.0])


def test_float_bisection_only_in_solve():
    # every float root search goes through _solve.falsi_root
    midpoint = re.compile(r"0\.5 \* \((lo|hi)")
    offenders = [
        f"{path.name}:{n}"
        for path in sorted(Path(ordopt.__file__).parent.glob("*.py"))
        if path.name != "_solve.py"
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if midpoint.search(line)]
    assert offenders == []


# the one loop in these modules that searches nothing: the node table's
# tail breakpoints step out to a fixed reach, once, at import
_LOOP_EXEMPT = {("_quad.py", "while edge > -_REACH_LOGIT:")}


def test_search_loops_only_in_solve():
    # every iterative search in these modules runs through _solve
    loop = re.compile(r"^\s*while\b|for _ in range\(")
    src = Path(ordopt.__file__).parent
    offenders = [
        (name, line.strip())
        for name in ("meta_rate.py", "adversarial.py", "truncation.py",
                     "populations.py", "_quad.py", "empirical_rate.py",
                     "cli.py")
        for line in (src / name).read_text().splitlines()
        if loop.search(line)]
    assert [o for o in offenders if o not in _LOOP_EXEMPT] == []


def test_zoom_max_rows():
    # a kink at x = 3 (slope +1 then -2), a smooth peak at x = 2 and a row
    # falling from its left end, which the grid holds exactly
    lo, hi = np.array([0.5, 0.5, 0.7]), np.array([40.0, 40.0, 9.0])

    def f(x):
        return np.stack([np.minimum(x[0], 9.0 - 2.0 * x[0]),
                         -np.log(x[1] / 2.0) ** 2, 1.0 / x[2]])

    best = zoom_max(f, lo, hi, 65, 5)
    assert best[0] <= 3.0 and 3.0 - best[0] < 1e-7
    assert -1e-15 < best[1] <= 0.0
    assert best[2] == 1.0 / 0.7
