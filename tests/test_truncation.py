"""Tests for worst-case truncation and capping bias."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordopt.truncation import (
    CustomSpec,
    DegenerateSupport,
    ExponentialSpec,
    PowerSpec,
    TwoPointSupport,
    WorstCaseSolution,
    solve_x_u,
    worst_capping_error,
    worst_truncation_error,
)


def brute_force_error(f_spec, c, u, kind, n=400):
    """Best bias over two-atom laws {x1, x2} with the budget saturated."""
    f0 = f_spec.f(0.0)
    best = 0.0
    for x1 in np.linspace(0.0, u, 40):
        f1 = f_spec.f(x1)
        if f1 >= c:
            continue
        for x2 in np.geomspace(u + 1e-9, 50.0 * u + 50.0, n):
            p = min(1.0, (c - f1) / (f_spec.f(x2) - f1))
            if kind == "trunc":
                err = x2 * p + (x1 if x1 > u else 0.0) * (1 - p)
            else:
                err = (x2 - u) * p + max(x1 - u, 0.0) * (1 - p)
            best = max(best, err)
    return best


class TestWorstTruncationError:
    def test_power_closed_form_above_budget_point(self):
        for alpha in (1.5, 2.0, 3.0):
            spec = PowerSpec(alpha)
            for c in (0.5, 1.0, 4.0):
                for u_mult in (1.5, 3.0, 10.0):
                    u = u_mult * spec.f_inv(c)
                    sol = worst_truncation_error(spec, c, u)
                    assert sol.error == pytest.approx(
                        c * u ** (1.0 - alpha), rel=1e-10)
                    assert isinstance(sol.support, TwoPointSupport)

    def test_degenerate_below_budget_point(self):
        spec = PowerSpec(2.0)
        sol = worst_truncation_error(spec, 4.0, 1.0)
        assert isinstance(sol.support, DegenerateSupport)
        assert sol.support.point == pytest.approx(2.0)
        assert sol.error == pytest.approx(2.0)

    def test_budget_is_tight(self):
        for spec, c, u in [(PowerSpec(2.0), 1.0, 3.0),
                           (ExponentialSpec(1.0), 2.0, 4.0),
                           (PowerSpec(1.5), 0.25, 0.1)]:
            sol = worst_truncation_error(spec, c, u)
            s = sol.support
            if isinstance(s, DegenerateSupport):
                ef = spec.f(s.point)
            else:
                ef = s.p_high * spec.f(s.high) + (1 - s.p_high) * spec.f(s.low)
            assert ef == pytest.approx(c, rel=1e-9)

    def test_never_beaten_by_brute_force(self):
        for spec in (PowerSpec(2.0), ExponentialSpec(0.7)):
            for c in (1.5, 3.0):
                for u in (1.0, 2.5):
                    sol = worst_truncation_error(spec, c, u)
                    brute = brute_force_error(spec, c, u, "trunc")
                    assert sol.error >= brute - 1e-6

    def test_monotone_nonincreasing_in_u(self):
        spec = PowerSpec(2.0)
        errs = [worst_truncation_error(spec, 1.0, u).error
                for u in (0.5, 1.0, 1.5, 2.0, 4.0, 8.0)]
        assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))

    def test_infeasible_budget(self):
        with pytest.raises(ValueError, match="infeasible"):
            worst_truncation_error(ExponentialSpec(1.0), 1.0, 2.0)
        with pytest.raises(ValueError, match="infeasible"):
            worst_truncation_error(PowerSpec(2.0), 0.0, 1.0)

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            worst_truncation_error(PowerSpec(2.0), 1.0, -0.5)

    def test_overflow_names_u_and_spec(self):
        # f(u) = e^10000 leaves the floats in the budget split
        with pytest.raises(RuntimeError, match=r"u = 10000\.0 .*theta=1\.0"):
            worst_truncation_error(ExponentialSpec(1.0), 2.0, 10000.0)


class TestSolveXU:
    def test_power_closed_form(self):
        assert solve_x_u(PowerSpec(2.0), 1.0) == pytest.approx(2.0)
        assert solve_x_u(PowerSpec(3.0), 1.0) == pytest.approx(1.5)
        assert solve_x_u(PowerSpec(1.5), 2.0) == pytest.approx(6.0)

    def test_exponential_bisection(self):
        spec = ExponentialSpec(1.0)
        x = solve_x_u(spec, 1.0)
        assert x == pytest.approx(1.8414, abs=1e-3)
        # stationarity residual
        assert (x - 1.0) * spec.df(x) == pytest.approx(spec.f(x) - 1.0,
                                                       rel=1e-9)

    def test_scales_with_theta(self):
        # f(x) = exp(theta x) makes theta x_u depend only on theta u
        x1 = solve_x_u(ExponentialSpec(1.0), 1.0)
        x2 = solve_x_u(ExponentialSpec(2.0), 0.5)
        assert 2.0 * x2 == pytest.approx(x1, rel=1e-9)

    def test_rejects_nonpositive_u(self):
        with pytest.raises(ValueError):
            solve_x_u(PowerSpec(2.0), 0.0)

    def test_overflow_names_u_and_spec(self):
        # exp(10000) leaves the floats at the bracket walk's first point
        with pytest.raises(RuntimeError, match=r"u = 10000\.0 .*theta=1\.0"):
            solve_x_u(ExponentialSpec(1.0), 10000.0)

    @pytest.mark.parametrize("theta,u", [
        (1.0, 0.5), (1.0, 2.0), (2.0, 5.0), (1.0, 30.0), (1.0, 700.0),
        (0.5, 1400.0), (1000.0, 0.7), (1e-3, 3e5)])
    def test_exponential_lambert_closed_form(self, theta, u):
        # y = theta (x_u - u) solves (1 - y) e^y = e^{-theta u}, so
        # x_u = u + (1 + W0(-e^{-theta u - 1})) / theta; the argument is
        # taken in log space, so no e^{theta x} is formed. theta u = 700
        # puts f(x_u) near e^701, a float that a walk starting a distance
        # u above u overflows before reaching
        from scipy.special import lambertw
        want = u + (1.0 + lambertw(-math.exp(-theta * u - 1.0)).real) / theta
        assert solve_x_u(ExponentialSpec(theta), u) == pytest.approx(
            want, rel=1e-11)


class TestWorstCappingError:
    def test_power_closed_form(self):
        for alpha in (1.5, 2.0, 3.0):
            spec = PowerSpec(alpha)
            ratio = (alpha - 1.0) ** (alpha - 1.0) / alpha ** alpha
            for c in (0.5, 2.0):
                for u_mult in (1.5, 4.0):
                    u = u_mult * spec.f_inv(c)
                    sol = worst_capping_error(spec, c, u)
                    assert sol.error == pytest.approx(
                        c * u ** (1.0 - alpha) * ratio, rel=1e-10)

    def test_capping_to_truncation_ratio(self):
        # same threshold, same budget: capping shrinks the worst bias by
        # exactly (alpha-1)^(alpha-1)/alpha^alpha in the two-point regime
        for alpha in (1.5, 2.0, 3.0):
            spec = PowerSpec(alpha)
            c, u = 1.0, 3.0
            t = worst_truncation_error(spec, c, u).error
            k = worst_capping_error(spec, c, u).error
            assert k / t == pytest.approx(
                (alpha - 1.0) ** (alpha - 1.0) / alpha ** alpha, rel=1e-10)

    def test_degenerate_branch(self):
        sol = worst_capping_error(PowerSpec(2.0), 4.0, 0.5)
        assert isinstance(sol.support, DegenerateSupport)
        assert sol.error == pytest.approx(1.5)

    def test_overshoot_atom_is_x_u(self):
        spec = ExponentialSpec(1.0)
        sol = worst_capping_error(spec, 2.0, 3.0)
        assert isinstance(sol.support, TwoPointSupport)
        assert sol.support.high == pytest.approx(solve_x_u(spec, 3.0),
                                                 rel=1e-9)

    def test_never_beaten_by_brute_force(self):
        for spec in (PowerSpec(2.0), ExponentialSpec(0.7)):
            sol = worst_capping_error(spec, 2.0, 1.5)
            brute = brute_force_error(spec, 2.0, 1.5, "cap")
            assert sol.error >= brute - 1e-6

    def test_strictly_decreasing_in_u(self):
        spec = ExponentialSpec(1.0)
        errs = [worst_capping_error(spec, 3.0, u).error
                for u in (0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(errs, errs[1:]))

    @settings(max_examples=40, deadline=None)
    @given(alpha=st.floats(1.2, 4.0), c=st.floats(0.2, 5.0),
           u=st.floats(0.1, 8.0))
    def test_brute_force_property(self, alpha, c, u):
        spec = PowerSpec(alpha)
        sol = worst_capping_error(spec, c, u)
        brute = brute_force_error(spec, c, u, "cap", n=120)
        assert sol.error >= brute - 1e-5


def test_custom_spec_matches_power():
    custom = CustomSpec(lambda x: x * x, lambda x: 2.0 * x, math.sqrt)
    power = PowerSpec(2.0)
    for c, u in [(1.0, 2.0), (4.0, 0.5), (2.0, 5.0)]:
        a = worst_truncation_error(custom, c, u)
        b = worst_truncation_error(power, c, u)
        assert a.error == pytest.approx(b.error, rel=1e-9)
        ka = worst_capping_error(custom, c, u)
        kb = worst_capping_error(power, c, u)
        assert ka.error == pytest.approx(kb.error, rel=1e-9)


def test_solution_records_inputs():
    spec = PowerSpec(2.0)
    sol = worst_truncation_error(spec, 1.0, 3.0)
    assert sol.u == 3.0 and sol.c == 1.0 and sol.f_spec is spec
    assert isinstance(sol, WorstCaseSolution)
