"""Tests for the second-level rate machinery."""

import importlib
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize
from scipy.special import ndtr

import ordopt
from ordopt.meta_rate import (
    MetaRateResult,
    NumericalError,
    RegimeError,
    _law,
    _meta_rate,
    _moments_at,
    inf_meta_rate,
    meta_rate,
    sequential_failure_certificate,
    sup_meta_rate_on_theta_a,
    tilted_log_mgf,
    two_phase_exponent,
)
from ordopt.populations import (
    Bernoulli,
    Empirical,
    Gaussian,
    GaussianMixture,
    Mirrored,
    Pareto,
    ShiftedExponential,
    TwoPoint,
    rate_function,
)


def two_atom_kl(q, p):
    return q * math.log(q / p) + (1 - q) * math.log((1 - q) / (1 - p))


def _whole_line_log_moment(model, theta, alpha, k):
    """log int pdf(x) W^k exp(alpha W) dx over the whole support, with
    W = exp(theta x), for alpha < 0: adaptive quad on pieces around the
    peak of the log-integrand, which is found on a grid."""
    lo_s, hi_s = model.support()

    def g(x):
        if theta * x > 700.0:
            return -math.inf
        return (float(model.logpdf(x)) + alpha * math.exp(theta * x)
                + k * theta * x)

    grid = np.linspace(max(lo_s, -100.0), min(hi_s, 100.0), 8001)[1:-1]
    top = grid[int(np.argmax([g(x) for x in grid]))]
    g_top = g(top)
    pieces = sorted({lo_s, hi_s} | {top + d for d in
                                    (-16, -8, -4, -2, -1, 0, 1, 2, 4, 8, 16)
                                    if lo_s < top + d < hi_s})
    total = sum(integrate.quad(lambda x: math.exp(g(x) - g_top), a, b,
                               epsabs=0.0, epsrel=1e-13, limit=400)[0]
                for a, b in zip(pieces, pieces[1:]))
    return g_top + math.log(total)


def _whole_line_meta_rate(model, theta, nu):
    """(J, alpha*) for a level nu below E W, independent of the library's
    node table: Brent's method in log(-alpha) on the tilted W-mean."""
    def gap(log_neg_alpha):
        alpha = -math.exp(log_neg_alpha)
        return math.exp(_whole_line_log_moment(model, theta, alpha, 1)
                        - _whole_line_log_moment(model, theta, alpha, 0)) - nu

    alpha = -math.exp(optimize.brentq(gap, -10.0, 12.0, xtol=1e-14,
                                      rtol=1e-14))
    return (alpha * nu - _whole_line_log_moment(model, theta, alpha, 0),
            alpha)


def _bisection_meta_rate(model, theta, nu):
    """J_theta(nu) by plain bisection on the tilted W-mean over the
    library's own law (its atoms or node table), so that it checks the
    solver and not the table: alpha is bracketed by doubling from -1 and 1
    (or 0 where W is unbounded above) and halved until the bracket stops
    shrinking."""
    x, p = _law(model)
    with np.errstate(over="ignore"):
        w = np.exp(theta * x)
        keep = np.isfinite(x * w)   # alpha < 0 wherever x w overflows
    p, w = p[keep], w[keep]
    lo_s, hi_s = model.support()
    unbounded = math.isinf(hi_s if theta > 0 else lo_s)

    def shifted(a):
        with np.errstate(over="ignore"):
            t = a * w
        top = t.max()
        return top, p * np.exp(t - top)

    def mean(a):
        _, e = shifted(a)
        return np.sum(w * e) / np.sum(e)

    lo, hi = -1.0, 0.0 if unbounded else 1.0
    while mean(lo) > nu:
        lo *= 2.0
    while not unbounded and mean(hi) < nu:
        hi *= 2.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if mean(mid) > nu:
            hi = mid
        else:
            lo = mid
    top, e = shifted(mid)
    return (mid * nu - top) - math.log(np.sum(e))


def _gaussian_cramer_cap(model, theta, nu):
    """-log P(W <= nu) for W = exp(theta X), X Gaussian."""
    z = (math.log(nu) / theta - model.mu) / model.sigma
    return -math.log(ndtr(z) if theta > 0 else ndtr(-z))


class TestTiltedLogMgf:
    def test_theta_zero_collapses_to_alpha(self):
        assert tilted_log_mgf(TwoPoint(1.0, 0.55), 1.0, 0.0) == 1.0
        assert tilted_log_mgf(TwoPoint(1.0, 0.55), -2.5, 0.0) == -2.5

    def test_alpha_zero_is_zero(self):
        assert tilted_log_mgf(ShiftedExponential(0.96, 1.0), 0.0, -1.3) == 0.0

    def test_two_atom_closed_form(self):
        m = TwoPoint(1.0, 0.55)
        alpha, theta = -0.7, 0.4
        w_lo, w_hi = math.exp(-theta), math.exp(theta)
        direct = math.log(0.55 * math.exp(alpha * w_lo)
                          + 0.45 * math.exp(alpha * w_hi))
        assert tilted_log_mgf(m, alpha, theta) == pytest.approx(
            direct, abs=1e-14)

    def test_unbounded_w_diverges_for_positive_alpha(self):
        # X unbounded below, theta < 0 makes exp(theta X) heavy above
        assert tilted_log_mgf(ShiftedExponential(0.96, 1.0), 0.5, -1.0) \
            == math.inf
        # mirrored: X unbounded above, theta > 0
        assert tilted_log_mgf(Mirrored(ShiftedExponential(1.5, 1.0)),
                              1e-3, 2.0) == math.inf

    def test_bounded_w_finite_for_positive_alpha(self):
        val = tilted_log_mgf(ShiftedExponential(0.96, 1.0), 2.0, 1.0)
        assert math.isfinite(val) and val > 0


class TestMetaRate:
    def test_matches_two_atom_kl(self):
        m = TwoPoint(1.0, 0.55)
        for theta in (0.1, 0.3, 1.0):
            w_lo, w_hi = math.exp(-theta), math.exp(theta)
            for frac in (0.1, 0.5, 0.9):
                nu = w_lo + frac * (w_hi - w_lo)
                q = (nu - w_lo) / (w_hi - w_lo)
                want = two_atom_kl(q, 0.45)
                got = meta_rate(m, theta, nu)
                assert got.value == pytest.approx(want, abs=1e-12)
                assert got.theta == theta and got.nu == nu

    @settings(max_examples=60, deadline=None)
    @given(theta=st.floats(0.05, 2.0), frac=st.floats(0.02, 0.98),
           p_minus=st.floats(0.05, 0.95))
    def test_two_atom_kl_property(self, theta, frac, p_minus):
        m = TwoPoint(1.0, p_minus)
        w_lo, w_hi = math.exp(-theta), math.exp(theta)
        nu = w_lo + frac * (w_hi - w_lo)
        want = two_atom_kl(frac, 1.0 - p_minus)
        assert meta_rate(m, theta, nu).value == pytest.approx(
            want, abs=1e-9)

    def test_zero_at_the_mean_level(self):
        m = TwoPoint(1.0, 0.55)
        nu = math.exp(m.log_mgf(0.3))
        assert meta_rate(m, 0.3, nu).value == pytest.approx(0.0, abs=1e-8)

    def test_nonnegative_and_convex_in_nu(self):
        m = TwoPoint(1.0, 0.6)
        theta = 0.25
        w_lo, w_hi = math.exp(-theta), math.exp(theta)
        grid = [w_lo + f * (w_hi - w_lo) for f in
                (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)]
        vals = [meta_rate(m, theta, nu).value for nu in grid]
        assert all(v >= 0 for v in vals)
        for i in range(1, len(vals) - 1):
            assert vals[i] <= 0.5 * (vals[i - 1] + vals[i + 1]) + 1e-10

    def test_level_outside_essential_range_is_infinite(self):
        m = TwoPoint(1.0, 0.55)
        assert meta_rate(m, 0.5, 10.0).value == math.inf
        assert meta_rate(m, 0.5, 1e-6).value == math.inf

    def test_level_at_the_smallest_atom_by_np_exp(self):
        # np.exp(1.375 * -1.5) lies an ulp below math.exp of the same
        # product; the level is still the range's lower edge, and the one
        # atom there has mass 1/5
        m = Empirical(np.array([-1.5, -0.2, 0.3, 1.0, 1.7]))
        nu = float(np.exp(1.375 * -1.5))
        assert nu < math.exp(1.375 * -1.5)
        assert meta_rate(m, 1.375, nu).value == pytest.approx(math.log(5.0),
                                                              rel=1e-12)

    def test_rejects_nonpositive_level(self):
        with pytest.raises(ValueError):
            meta_rate(TwoPoint(1.0, 0.55), 0.5, 0.0)

    def test_heavy_upper_tail_gives_zero_above_mean_level(self):
        se = ShiftedExponential(0.96, 1.0)
        theta = -0.5
        nu = 1.5 * math.exp(se.log_mgf(theta))
        res = meta_rate(se, theta, nu)
        assert res.value == 0.0 and res.alpha_star == 0.0

    def test_quadrature_path_frozen_value(self):
        # exponential-tail model at a tilt outside the mgf domain: the
        # tilted family is still defined for alpha < 0
        se = ShiftedExponential(0.96, 1.0)
        res = meta_rate(se, -2.133, math.exp(-0.5))
        assert res.value == pytest.approx(0.2214557, abs=2e-6)
        assert res.alpha_star < 0

    def test_pareto_probe_sits_below_its_cramer_cap(self):
        # the tilted W-weighted mass peaks near the scale point; a box of
        # quantiles 1e-14 and 1 - 1e-14 gave J = 498 with alpha* = +977
        m = Pareto(3.0, 0.6)
        res = meta_rate(m, -0.5, 0.5)
        cap = -math.log((0.6 / (math.log(0.5) / -0.5)) ** 3)
        assert cap == pytest.approx(2.5124, abs=1e-4)
        assert res.value < cap
        assert res.value == pytest.approx(0.582038, abs=1e-6)
        assert res.alpha_star == pytest.approx(-6.2238, abs=1e-4)
        want, alpha = _whole_line_meta_rate(m, -0.5, 0.5)
        assert res.value == pytest.approx(want, rel=1e-8)
        assert res.alpha_star == pytest.approx(alpha, rel=1e-6)

    def test_gaussian_level_beyond_the_quantile_box(self):
        # W <= 0.3076 needs X >= 11.79, a tail probability near 2e-33: the
        # old box [Q(1e-14), Q(1 - 1e-14)] saturated there at J = 283.5
        m = Gaussian(-0.2, 1.0)
        res = meta_rate(m, -0.1, 0.3076)
        want, alpha = _whole_line_meta_rate(m, -0.1, 0.3076)
        assert want == pytest.approx(72.26880, abs=1e-5)
        assert res.value == pytest.approx(want, rel=1e-8)
        assert res.alpha_star == pytest.approx(alpha, rel=1e-6)
        assert res.value < _gaussian_cramer_cap(m, -0.1, 0.3076)

    @pytest.mark.parametrize("model", [
        TwoPoint(1.0, 0.6), Empirical(np.array([-1.5, -0.2, 0.3, 1.0, 1.7])),
        Gaussian(-0.2, 1.0), GaussianMixture(0.3, 5.0), Pareto(3.0, 0.6)],
        ids=lambda m: type(m).__name__)
    def test_matches_a_bisection_reference(self, model):
        # levels between the ends of the range of W for atoms, and at lower
        # and upper tail probabilities for densities (the upper ones only
        # where W is bounded above, as the others decay at rate 0), all
        # with alpha* inside |alpha| <= 2^30
        for theta in (3.0, -3.0, 0.5, -0.5, 0.1, -0.1):
            lo_s, hi_s = model.support()
            bounded = math.isfinite(hi_s if theta > 0 else lo_s)
            if model.atoms() is not None:
                w_lo, w_hi = sorted(math.exp(theta * s)
                                    for s in (lo_s, hi_s))
                levels = [w_lo + f * (w_hi - w_lo)
                          for f in (0.02, 0.3, 0.7, 0.98)]
            else:
                levels = [_level(model, theta, k)[0] for k in (1.0, 1.5)]
                if bounded:
                    levels += [_level(model, theta, k, upper=True)[0]
                               for k in (0.5, 2.0)]
            for nu in levels:
                res = meta_rate(model, theta, nu)
                assert res.status == "interior", (theta, nu)
                want = _bisection_meta_rate(model, theta, nu)
                assert res.value == pytest.approx(want, rel=1e-9,
                                                  abs=1e-12), (theta, nu)

    def test_lock_step_grid_equals_scalar_calls(self):
        # the inf_meta_rate grid, with its overflowing tilts and theta = 0
        thetas = -64.0 + np.arange(257) * 0.5
        for model in (Gaussian(-0.2, 1.0), TwoPoint(1.0, 0.6),
                      Pareto(3.0, 0.6)):
            law = _law(model)
            grid = _meta_rate(model, law, thetas, math.exp(-0.1))
            for i, theta in enumerate(thetas):
                one = _meta_rate(model, law, float(theta), math.exp(-0.1))
                alpha = grid.alpha_star[i]
                assert one.value == grid.value[i]
                assert one.alpha_star == (None if math.isnan(alpha)
                                          else alpha)
                assert one.status == grid.status[i]

    def test_gaussian_probe_moment_calls(self, monkeypatch):
        # the level of test_gaussian_level_beyond_the_quantile_box, whose
        # alpha* = -390.5: bisection inside a doubled bracket took 55
        module = importlib.import_module("ordopt.meta_rate")
        calls = []
        real = module._atom_moments

        def counted(*args):
            calls.append(args[3])
            return real(*args)

        monkeypatch.setattr(module, "_atom_moments", counted)
        res = meta_rate(Gaussian(-0.2, 1.0), -0.1, 0.3076)
        assert res.value == pytest.approx(72.26880, abs=1e-5)
        assert len(calls) <= 12

    def test_status_says_how_the_value_was_reached(self):
        m = Gaussian(-0.2, 1.0)
        assert meta_rate(m, -0.5, 0.9).status == "interior"
        # nu above E W with W unbounded above, and nu below the range of W
        se = ShiftedExponential(0.96, 1.0)
        above = meta_rate(se, -0.5, 1.5 * math.exp(se.log_mgf(-0.5)))
        assert (above.status, above.alpha_star) == ("boundary", 0.0)
        outside = meta_rate(TwoPoint(1.0, 0.55), 0.5, 1e-6)
        assert (outside.status, outside.alpha_star) == ("boundary", None)
        # P(W <= nu) = 1e-20 at theta = 3 needs |alpha| beyond 2^30: the
        # value is the objective at the cap, a lower bound of J
        nu = math.exp(3.0 * float(m.quantile(1e-20)))
        capped = meta_rate(m, 3.0, nu)
        assert capped.status == "alpha-cap"
        assert capped.alpha_star == -2.0 ** 30
        assert capped.value == pytest.approx(24.5997, abs=1e-4)
        assert capped.value < _gaussian_cramer_cap(m, 3.0, nu)

    def test_density_moments_call_no_adaptive_quadrature(self, monkeypatch):
        calls = []
        real = integrate.quad

        def counted(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(integrate, "quad", counted)
        res = meta_rate(Gaussian(-0.2, 1.0), -0.5, 0.9)
        assert res.value == pytest.approx(0.196767515164, abs=1e-11)
        assert calls == []


def _property_model(kind, a, b):
    """A density or atom model of each family, from two unit draws."""
    if kind == "gaussian":
        return Gaussian(2.0 * a - 1.0, 0.5 + 1.5 * b)
    if kind == "mixture":
        return GaussianMixture(0.1 + 0.8 * a, 10.0 * b - 5.0)
    if kind == "shifted-exponential":
        return ShiftedExponential(2.0 * a - 1.0, 0.5 + 1.5 * b)
    if kind == "mirrored-shifted-exponential":
        return Mirrored(ShiftedExponential(2.0 * a - 1.0, 0.5 + 1.5 * b))
    if kind == "pareto":
        return Pareto(1.5 + 2.5 * a, 0.5 + 1.5 * b)
    return Empirical(np.array([-1.5, -0.2 + a, 0.3, 1.0 + b, 1.7]))


def _level(model, theta, log10_q, upper=False):
    """(nu, q) with P(W <= nu) = q, or P(W >= nu) = q when upper, for
    W = exp(theta X)."""
    if isinstance(model, Empirical):
        # np.exp, as the library's own range of W is
        w = sorted(float(v) for v in np.exp(theta * model.points))
        k = min(int(len(w) * 10.0 ** -log10_q), len(w) - 1)
        nu = w[-1 - k] if upper else w[k]
        return nu, float(np.mean([(v >= nu) if upper else (v <= nu)
                                  for v in w]))
    q = 10.0 ** -log10_q
    x = (model.upper_quantile(q) if (theta < 0) != upper
         else model.quantile(q))
    log_nu = theta * float(x)
    return (float(np.exp(log_nu)) if log_nu < 700.0 else math.inf), q


_KINDS = st.sampled_from(["gaussian", "mixture", "shifted-exponential",
                          "mirrored-shifted-exponential", "pareto",
                          "empirical"])
_THETAS = st.one_of(st.floats(-2.0, -0.05), st.floats(0.05, 2.0))


class TestMetaRateProperties:
    @settings(max_examples=60, deadline=None)
    @given(kind=_KINDS, a=st.floats(0, 1), b=st.floats(0, 1), theta=_THETAS,
           log10_q=st.floats(0.05, 250.0), upper=st.booleans())
    def test_nonnegative_and_below_the_cramer_cap(self, kind, a, b, theta,
                                                  log10_q, upper):
        # J <= -log P(W <= nu) for nu below E W, and -log P(W >= nu) above
        # it, at every level, far outside the old quantile box too
        m = _property_model(kind, a, b)
        nu, q = _level(m, theta, log10_q, upper)
        assume(0.0 < nu < math.inf and q > 0.0)
        assume((math.log(nu) >= m.log_mgf(theta)) == upper)
        value = meta_rate(m, theta, nu).value
        # at an atom on the edge of W's range the search saturates at
        # |alpha| = 2^30, and alpha nu - M(alpha) rounds at that scale
        slack = 1e-12 + (1e-15 * 2.0 ** 30 * nu if kind == "empirical"
                         else 0.0)
        assert 0.0 <= value <= -math.log(q) * (1.0 + 1e-9) + slack

    @settings(max_examples=40, deadline=None)
    @given(kind=_KINDS, a=st.floats(0, 1), b=st.floats(0, 1), theta=_THETAS)
    def test_zero_at_the_mean_of_w(self, kind, a, b, theta):
        m = _property_model(kind, a, b)
        log_mean = m.log_mgf(theta)
        assume(math.isfinite(log_mean))
        assert meta_rate(m, theta, math.exp(log_mean)).value \
            == pytest.approx(0.0, abs=1e-8)

    @settings(max_examples=40, deadline=None)
    @given(kind=_KINDS, a=st.floats(0, 1), b=st.floats(0, 1), theta=_THETAS,
           log10_q=st.floats(0.05, 60.0), spread=st.floats(0.01, 0.5))
    def test_convex_in_the_level(self, kind, a, b, theta, log10_q, spread):
        m = _property_model(kind, a, b)
        nu, _ = _level(m, theta, log10_q)
        assume(0.0 < nu < math.inf)
        lo, hi = nu * (1.0 - spread), nu * (1.0 + spread)
        vals = [meta_rate(m, theta, v).value for v in (lo, nu, hi)]
        assume(all(math.isfinite(v) for v in vals))
        assert vals[1] <= 0.5 * (vals[0] + vals[2]) + 1e-9 * (1.0 + vals[1])


class TestInfMetaRate:
    def test_two_point_min_kl_identity(self):
        # at level a the minimizing tilt turns the two-atom law into a
        # coin whose success rate is pinned by the value of the estimate,
        # so the answer is a plain KL to the better-matching tail
        for p_minus in (0.55, 0.6):
            m = TwoPoint(1.0, p_minus)
            i0 = rate_function(m, 0.0).value
            for mult in (1.5, 2.0, 4.0):
                a = mult * i0
                qa = (1.0 - math.sqrt(1.0 - math.exp(-2.0 * a))) / 2.0
                want = min(two_atom_kl(qa, 1.0 - p_minus),
                           two_atom_kl(1.0 - qa, 1.0 - p_minus))
                val, _ = inf_meta_rate(m, a)
                assert val == pytest.approx(want, abs=1e-8)

    def test_frozen_acceptance_instance(self):
        m = TwoPoint(1.0, 0.6)
        i0 = rate_function(m, 0.0).value
        assert i0 == pytest.approx(0.0204109973, abs=1e-9)
        val, theta_star = inf_meta_rate(m, 2.0 * i0)
        assert val == pytest.approx(0.0033748679, abs=1e-8)
        assert theta_star == pytest.approx(0.287682, abs=1e-4)

    def test_monotone_in_level(self):
        m = TwoPoint(1.0, 0.6)
        i0 = rate_function(m, 0.0).value
        vals = [inf_meta_rate(m, mult * i0)[0]
                for mult in (1.2, 1.5, 2.0, 3.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_gaussian_infimum_over_the_whole_theta_grid(self):
        # the search's grid reaches theta = -64, where E W = e^{2061}
        # overflows a float; every grid value stays below its Cramer cap
        m = Gaussian(-0.2, 1.0)
        nu = math.exp(-0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            val, theta_star = inf_meta_rate(m, 0.1)
            for theta in np.linspace(-64.0, 64.0, 257):
                if theta == 0.0:
                    continue
                value = meta_rate(m, theta, nu).value
                assert value <= _gaussian_cramer_cap(m, theta, nu)
        assert val == pytest.approx(0.027664, abs=1e-6)
        assert theta_star == pytest.approx(0.47326, abs=1e-4)
        want, _ = _whole_line_meta_rate(m, theta_star, nu)
        assert val == pytest.approx(want, rel=1e-8)

    def test_peak_memory_of_a_density_infimum(self):
        # 257 tilts over a 2192-node table: the tilts go in blocks of rows,
        # where one (257 x 2192) tilt would add some 17 MB at each step
        tracemalloc.start()
        try:
            inf_meta_rate(Gaussian(-0.2, 1.0), 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2 ** 20

    def test_regime_error_below_i0(self):
        m = TwoPoint(1.0, 0.6)
        i0 = rate_function(m, 0.0).value
        with pytest.raises(RegimeError):
            inf_meta_rate(m, 0.5 * i0)
        with pytest.raises(RegimeError):
            inf_meta_rate(m, i0)


class TestSupMetaRateOnThetaA:
    def test_interval_endpoints_sit_on_the_level_set(self):
        m = TwoPoint(1.0, 0.6)
        i0 = rate_function(m, 0.0).value
        a = 0.5 * i0
        _, _, (lo, hi) = sup_meta_rate_on_theta_a(m, a)
        assert lo < hi
        assert m.log_mgf(lo) == pytest.approx(-a, abs=1e-8)
        assert m.log_mgf(hi) == pytest.approx(-a, abs=1e-8)

    def test_positive_mean_interval_matches_closed_form(self):
        # Lambda(theta) = 0.3 theta + 1.125 theta^2 <= -a between the two
        # quadratic roots, which straddle the negative Lambda-minimizer
        # -0.3/2.25; neither end may collapse onto it
        m = Gaussian(0.3, 1.5)
        a = 0.01
        disc = math.sqrt(0.3 ** 2 - 4.0 * 1.125 * a)
        _, _, (lo, hi) = sup_meta_rate_on_theta_a(m, a)
        assert lo == pytest.approx((-0.3 - disc) / 2.25, abs=1e-9)
        assert hi == pytest.approx((-0.3 + disc) / 2.25, abs=1e-9)

    def test_positive_interior_maximum_without_warning(self):
        m = TwoPoint(1.0, 0.6)
        i0 = rate_function(m, 0.0).value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            val, theta_star, (lo, hi) = sup_meta_rate_on_theta_a(m, 0.5 * i0)
        assert val > 0
        assert lo < theta_star < hi

    def test_heavy_upper_tail_collapses_to_zero(self):
        mir = Mirrored(ShiftedExponential(1.5, 1.0))
        i0 = rate_function(mir, 0.0).value
        assert i0 == pytest.approx(0.0945348918918356, abs=1e-10)
        val, _, (lo, hi) = sup_meta_rate_on_theta_a(mir, 0.04)
        assert val == 0.0
        assert lo < hi

    def test_regime_errors(self):
        m = TwoPoint(1.0, 0.6)
        i0 = rate_function(m, 0.0).value
        with pytest.raises(RegimeError):
            sup_meta_rate_on_theta_a(m, 2.0 * i0)
        with pytest.raises(RegimeError):
            sup_meta_rate_on_theta_a(m, 0.0)


class TestTwoPhaseExponent:
    # exact optima for the unit-split two-phase rule, solved offline to
    # ten digits from the stationarity system
    FROZEN = {
        0.55: (0.104807375, 0.0860550),
        0.52: (0.047175447, 0.0315035),
        0.51: (0.024946211, 0.0151832),
    }

    def test_frozen_unit_split_values(self):
        for p_minus, (want_e, want_g) in self.FROZEN.items():
            r = two_phase_exponent(TwoPoint(1.0, p_minus), 1.0, 1.0)
            assert r.exponent == pytest.approx(want_e, abs=1e-8)
            assert r.gamma_star == pytest.approx(want_g, abs=1e-6)
            assert r.c1 == 1.0 and r.c2 == 1.0

    def test_exponent_below_one_for_unit_split(self):
        # a unit-budget certainty-equivalent rule would get exponent 1;
        # the plug-in split always pays strictly more
        for p_minus in (0.51, 0.55, 0.6):
            r = two_phase_exponent(TwoPoint(1.0, p_minus), 1.0, 1.0)
            assert 0.0 < r.exponent < 1.0

    def test_scale_invariance(self):
        e1 = two_phase_exponent(TwoPoint(1.0, 0.55), 1.0, 1.0)
        e2 = two_phase_exponent(TwoPoint(2.0, 0.55), 1.0, 1.0)
        assert e1.exponent == pytest.approx(e2.exponent, abs=1e-6)
        assert e1.gamma_star == pytest.approx(e2.gamma_star, abs=1e-6)

    def test_solution_consistent_with_meta_rate(self):
        m = TwoPoint(1.0, 0.55)
        r = two_phase_exponent(m, 1.0, 1.0)
        i0 = rate_function(m, 0.0).value
        inner = meta_rate(m, r.theta_star, math.exp(-r.gamma_star)).value
        assert r.exponent == pytest.approx(i0 / r.gamma_star + inner,
                                           abs=1e-7)
        # stationarity of the outer level
        assert r.alpha_star * math.exp(-r.gamma_star) == pytest.approx(
            i0 / r.gamma_star ** 2, rel=1e-5)

    def test_larger_phase_two_budget_buys_larger_exponent(self):
        m = TwoPoint(1.0, 0.55)
        e1 = two_phase_exponent(m, 1.0, 1.0).exponent
        e2 = two_phase_exponent(m, 1.0, 2.0).exponent
        assert e2 > e1

    def test_rejects_bad_inputs(self):
        with pytest.raises(RegimeError):
            two_phase_exponent(TwoPoint(1.0, 0.4), 1.0, 1.0)
        with pytest.raises(ValueError):
            two_phase_exponent(TwoPoint(1.0, 0.55), 0.0, 1.0)


class TestTwoPhaseFallback:
    """The outer search over the level b, taken when newton_system fails."""

    FIELDS = ("exponent", "gamma_star", "theta_star", "alpha_star")

    def test_infinite_optimal_tilt(self, monkeypatch):
        # X in {-1, 0} with P(X = 0) = 0.7: W = e^{theta X} tends to a
        # Bernoulli(0.7) law as theta grows, so the inner infimum is only
        # reached at theta = inf, where it is KL(Bern(e^{-b}) || Bern(0.7)),
        # and Newton has no finite point to converge to
        module = importlib.import_module("ordopt.meta_rate")
        solve, newton = module.newton_system, []

        def spy(*args):
            newton.append(solve(*args))
            return newton[-1]

        monkeypatch.setattr(module, "newton_system", spy)
        r = two_phase_exponent(Mirrored(Bernoulli(0.3)), 1.0, 1.0)
        assert newton == [None]

        def phi(b):
            s = math.exp(-b)
            return (-math.log(0.7) / b + s * math.log(s / 0.7)
                    + (1.0 - s) * math.log((1.0 - s) / 0.3))

        best = optimize.minimize_scalar(phi, bounds=(0.2, 5.0),
                                        method="bounded",
                                        options={"xatol": 1e-12})
        assert r.exponent == pytest.approx(best.fun, rel=1e-9)
        assert r.gamma_star == pytest.approx(best.x, rel=1e-6)
        assert all(type(getattr(r, f)) is float for f in self.FIELDS)

    def test_matches_the_newton_route(self, monkeypatch):
        model = TwoPoint(1.0, 0.55)
        newton = two_phase_exponent(model, 1.0, 1.0)
        module = importlib.import_module("ordopt.meta_rate")
        monkeypatch.setattr(module, "newton_system", lambda *a: None)
        fallback = two_phase_exponent(model, 1.0, 1.0)
        assert fallback.exponent == pytest.approx(newton.exponent,
                                                  rel=1e-12)
        assert fallback.gamma_star == pytest.approx(newton.gamma_star,
                                                    rel=1e-7)
        for r in (newton, fallback):
            assert all(type(getattr(r, f)) is float for f in self.FIELDS)

    def test_minimum_outside_the_search_raises(self):
        # TwoPoint(1, 0.9): phi(b) falls toward -log 0.9 as b grows and
        # never reaches it; the search ends on the tilt window's edge
        with pytest.raises(NumericalError, match="edge") as info:
            two_phase_exponent(TwoPoint(1.0, 0.9), 1.0, 1.0)
        b_star, theta_star, _ = info.value.best
        assert theta_star == 64.0 and b_star > 60.0


@pytest.fixture(scope="module")
def se_certificates():
    se = ShiftedExponential(0.96, 1.0)
    return {c1: sequential_failure_certificate(se, c1)
            for c1 in (2.0, 5.0, 100.0)}


class TestSequentialFailureCertificate:
    # minima of J_{-theta}(e^{-1/c1}), alpha_star in the z-convention,
    # solved offline
    FROZEN = [
        (2.0, 2.070382, 0.055624, 0.22135797, True),
        (5.0, 1.012034, 0.190850, 0.12712425, True),
        (100.0, 0.158322, 0.920073, 0.01482984, False),
    ]

    def test_frozen_minima(self, se_certificates):
        for c1, want_t, want_a, want_v, want_c in self.FROZEN:
            theta, alpha, value, certified = se_certificates[c1]
            assert theta == pytest.approx(want_t, abs=2e-5)
            assert alpha == pytest.approx(want_a, abs=2e-5)
            assert value == pytest.approx(want_v, abs=2e-7)
            assert certified is want_c

    def test_certification_is_sound(self, se_certificates):
        for c1, (_, _, value, certified) in se_certificates.items():
            assert certified == (value < 1.0 / c1 - 1e-9)

    @pytest.mark.parametrize("model, c1, want", [
        (TwoPoint(1.0, 0.55), 2.0, True),
        (TwoPoint(1.0, 0.55), 5.0, False),
        (Gaussian(-0.2, 1.0), 2.0, True),
        (Gaussian(-0.2, 1.0), 5.0, False),
    ])
    def test_minimum_of_meta_rate_on_other_models(self, model, c1, want):
        theta, alpha, value, certified = sequential_failure_certificate(
            model, c1)
        nu = math.exp(-1.0 / c1)
        at_theta = meta_rate(model, -theta, nu)
        assert value == at_theta.value and alpha == at_theta.alpha_star
        grid = [meta_rate(model, -t, nu).value
                for t in np.geomspace(1e-3, 64.0, 200)]
        assert min(grid) >= value - 1e-9
        assert certified == (value < 1.0 / c1)
        assert certified is want

    def test_no_tilt_reaches_the_level(self):
        # W = exp(-theta X) stays above e^{-1/2} for every theta <= 64 when
        # the largest value of X is 0.001
        with pytest.raises(RegimeError, match="range"):
            sequential_failure_certificate(TwoPoint(0.001, 0.55), 2.0)

    def test_regime_errors(self):
        se = ShiftedExponential(0.96, 1.0)
        # I(0) = 8.22e-4, so 1/c1 dips below it around c1 = 1217
        with pytest.raises(RegimeError):
            sequential_failure_certificate(se, 2000.0)
        with pytest.raises(RegimeError):
            sequential_failure_certificate(ShiftedExponential(1.5, 1.0), 2.0)
        with pytest.raises(ValueError):
            sequential_failure_certificate(se, -1.0)


@pytest.fixture
def meta_rate_calls(monkeypatch):
    """Counts of _meta_rate calls on an array of tilts and on one tilt."""
    module = importlib.import_module("ordopt.meta_rate")
    solve, calls = module._meta_rate, {"array": 0, "scalar": 0}

    def counted(model, law, theta, nu):
        calls["array" if np.ndim(theta) else "scalar"] += 1
        return solve(model, law, theta, nu)

    monkeypatch.setattr(module, "_meta_rate", counted)
    return calls


class TestThetaSearchEvaluations:
    """Each theta search solves its grid in one array call, then refines by
    Brent's method one tilt at a time. The counts do not depend on the
    machine."""

    def test_sup(self, meta_rate_calls):
        sup_meta_rate_on_theta_a(TwoPoint(1.0, 0.6), 0.01)
        assert meta_rate_calls["array"] == 1
        assert meta_rate_calls["scalar"] <= 15

    @pytest.mark.parametrize("a", [0.03, 0.04, 0.06])
    def test_inf(self, meta_rate_calls, a):
        inf_meta_rate(TwoPoint(1.0, 0.6), a)
        assert meta_rate_calls["array"] == 1
        assert meta_rate_calls["scalar"] <= 15

    @pytest.mark.parametrize("c1", [2.0, 5.0, 100.0])
    def test_certificate(self, meta_rate_calls, c1):
        sequential_failure_certificate(ShiftedExponential(0.96, 1.0), c1)
        assert meta_rate_calls["array"] == 1
        assert meta_rate_calls["scalar"] <= 20


def _first_order_residual(model, theta, nu):
    """|E[X W e^{alpha W}]| under the tilt, relative to max(|E W|, 1).

    By the envelope theorem dJ_theta(nu)/dtheta is -alpha times this
    moment at the maximizing alpha, so it vanishes at an interior optimum
    over theta, whichever search found it."""
    law = _law(model)
    alpha = _meta_rate(model, law, theta, nu).alpha_star
    _, t_mean, xw, _ = _moments_at(law, theta, alpha, nu)
    return abs(xw) / max(abs(t_mean), 1.0)


class TestFirstOrderCondition:
    @pytest.mark.parametrize("a", [0.03, 0.04, 0.06])
    def test_at_the_infimum(self, a):
        m = TwoPoint(1.0, 0.6)
        _, theta_star = inf_meta_rate(m, a)
        assert _first_order_residual(m, theta_star, math.exp(-a)) <= 1e-6

    def test_at_the_supremum(self):
        m = TwoPoint(1.0, 0.6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, theta_star, _ = sup_meta_rate_on_theta_a(m, 0.01)
        assert _first_order_residual(m, theta_star, math.exp(-0.01)) <= 1e-6


def test_no_quadrature_in_meta_rate():
    # the node table is the only density route in meta_rate
    source = (Path(ordopt.__file__).parent / "meta_rate.py").read_text()
    assert "integrate" not in source and "quad(" not in source


def test_results_are_python_floats():
    m = TwoPoint(1.0, 0.6)
    i0 = rate_function(m, 0.0).value
    assert [type(v) for v in inf_meta_rate(m, 2.0 * i0)] == [float, float]
    value, theta, (lo, hi) = sup_meta_rate_on_theta_a(m, 0.5 * i0)
    assert [type(v) for v in (value, theta, lo, hi)] == [float] * 4
    for theta, nu in ((0.5, 1.0), (0.5, 10.0), (0.0, 1.0)):
        res = meta_rate(m, theta, nu)
        assert type(res.value) is float and type(res.status) is str
        assert res.alpha_star is None or type(res.alpha_star) is float
    res = meta_rate(Gaussian(-0.2, 1.0), 3.0, 1e-12)
    assert type(res.value) is float and type(res.alpha_star) is float


def test_result_containers_are_frozen():
    r = MetaRateResult(0.1, -0.5, 0.3, 0.9, "interior")
    with pytest.raises(AttributeError):
        r.value = 2.0
