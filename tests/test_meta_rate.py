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
    _rate_at_zero,
    _tilt,
    _tilted_moments,
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


class TestTwoPhaseInfiniteTilt:
    """Laws whose support ends at 0: X W < 0 wherever X < 0, so the theta
    equation has no root, and W = e^{theta X} tends to the indicator of
    X = 0 as theta grows. The inner infimum is KL(Bern(e^{-b}) || Bern(p0))
    with p0 = P(X = 0), reached only at theta = inf."""

    FIELDS = ("exponent", "gamma_star", "theta_star", "alpha_star")

    @pytest.mark.parametrize("model, p0, c2", [
        (Mirrored(Bernoulli(0.3)), 0.7, 0.5),
        (Mirrored(Bernoulli(0.3)), 0.7, 1.0),
        (Mirrored(Bernoulli(0.3)), 0.7, 3.0),
        (Mirrored(Bernoulli(0.6)), 0.4, 0.5),
        (Empirical(np.array([-1.0, 0.0, 0.0])), 2.0 / 3.0, 0.5),
        (Empirical(np.array([-1.0, 0.0, 0.0])), 2.0 / 3.0, 1.0)],
        ids=str)
    def test_infinite_optimal_tilt(self, model, p0, c2):
        r = two_phase_exponent(model, 1.0, c2)
        i0 = -math.log(p0)

        def phi(b):
            return c2 * i0 / b + two_atom_kl(math.exp(-b), p0)

        # an independent route: scipy's bounded minimizer on phi
        best = optimize.minimize_scalar(phi, bounds=(i0 * 1.01, 5.0),
                                        method="bounded",
                                        options={"xatol": 1e-12})
        assert i0 * 1.01 + 1e-3 < best.x < 5.0 - 1e-3
        assert best.fun <= -math.log(1.0 - p0)
        assert r.exponent == pytest.approx(best.fun, rel=1e-9)
        assert r.gamma_star == pytest.approx(best.x, rel=1e-6)
        nu = math.exp(-best.x)
        assert r.alpha_star == pytest.approx(
            math.log(p0 * (1.0 - nu) / ((1.0 - p0) * nu)), rel=1e-6)
        assert r.theta_star == math.inf
        assert all(type(getattr(r, f)) is float for f in self.FIELDS)

    @pytest.mark.parametrize("model, p0, c2", [
        (Mirrored(Bernoulli(0.6)), 0.4, 1.0),
        (Mirrored(Bernoulli(0.6)), 0.4, 3.0),
        (Empirical(np.array([-1.0, 0.0, 0.0])), 2.0 / 3.0, 3.0)], ids=str)
    def test_minimum_only_as_the_level_grows_raises(self, model, p0, c2):
        # phi(b) stays above its b -> inf limit -log P(X < 0) at every
        # level, so no finite level is the minimum
        limit = -math.log(1.0 - p0)
        with pytest.raises(NumericalError,
                           match=rf"-log P\(X < 0\) = {limit:.10g}"):
            two_phase_exponent(model, 1.0, c2)


# the inputs of the two-phase battery that raise: every law but those
# whose support ends at 0 has mass above 0, where Newton gives up
RAISING_BATTERY = [
    (Mirrored(TwoPoint(2.5, 0.2)), 1.0), (Mirrored(TwoPoint(2.5, 0.2)), 3.0),
    (Gaussian(-1.0, 0.5), 0.5), (Gaussian(-1.0, 0.5), 1.0),
    (Gaussian(-1.0, 0.5), 3.0),
    (Mirrored(GaussianMixture(0.3, 10.0)), 0.5),
    (Mirrored(GaussianMixture(0.3, 10.0)), 1.0),
    (Mirrored(GaussianMixture(0.3, 10.0)), 3.0),
    (GaussianMixture(0.7, -2.0), 3.0),
    (Mirrored(Empirical(np.array([-1.0, 0.5, 2.0, 2.0]))), 3.0),
    (Mirrored(ShiftedExponential(1.5, 1.0)), 3.0),
    (TwoPoint(1.0, 0.7), 3.0), (TwoPoint(1.0, 0.9), 0.5),
    (TwoPoint(1.0, 0.9), 1.0), (TwoPoint(1.0, 0.9), 3.0),
    (Gaussian(-5.0, 1.0), 0.5), (Gaussian(-5.0, 1.0), 1.0),
    (Gaussian(-5.0, 1.0), 3.0),
    (Mirrored(GaussianMixture(0.3, 5.0)), 0.5),
    (Mirrored(GaussianMixture(0.3, 5.0)), 1.0),
    (Mirrored(GaussianMixture(0.3, 5.0)), 3.0),
    (TwoPoint(1.0, 0.8), 1.0), (TwoPoint(1.0, 0.8), 3.0),
    (Gaussian(-2.0, 1.0), 0.5), (Gaussian(-2.0, 1.0), 1.0),
    (Gaussian(-2.0, 1.0), 3.0),
    (Mirrored(Bernoulli(0.6)), 1.0), (Mirrored(Bernoulli(0.6)), 3.0),
    (Empirical(np.array([-1.0, 0.0, 0.0])), 3.0),
    (ShiftedExponential(0.5, 1.0), 3.0), (ShiftedExponential(0.2, 2.0), 3.0),
    (GaussianMixture(0.5, -1.0), 3.0),
    (Mirrored(GaussianMixture(0.7, 2.0)), 3.0),
    (Mirrored(Empirical(np.array([-0.5, 1.0, 2.0]))), 3.0),
]


@pytest.mark.parametrize("model, c2", RAISING_BATTERY, ids=str)
def test_raises_without_a_tilt_search(monkeypatch, model, c2):
    # each inner tilt search solves a grid of meta-rates, so a raise must
    # come from the Newton route or the closed form alone
    module = importlib.import_module("ordopt.meta_rate")
    search, calls = module._tilt_search, []

    def spy(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(module, "_tilt_search", spy)
    with pytest.raises(NumericalError):
        two_phase_exponent(model, 1.0, c2)
    assert len(calls) == 0


class TestTwoPhaseLevelWindow:
    """two_phase_exponent searches levels b from just above I(0) up to
    _LEVEL_MAX, where e^{-b} is still a normal float."""

    def test_newton_root_past_the_window_is_rejected(self, newton_calls):
        # the root at b = 516146, where e^{-b} = 0 zeroes the level and
        # outer residuals, was once returned as the exponent; with the
        # window as its domain Newton gives up short of it
        with pytest.raises(NumericalError, match="Newton found no root"):
            two_phase_exponent(Gaussian(-1.0, 0.5), 1.0, 1.0)
        (call,) = newton_calls
        assert call["root"] is None

    @pytest.mark.parametrize("model, c2", [
        (TwoPoint(1.0, 0.9), 1.0), (Mirrored(TwoPoint(2.5, 0.2)), 1.0),
        (TwoPoint(1.0, 0.7), 3.0)], ids=str)
    def test_newton_gives_up_outside_the_window(self, newton_calls, model,
                                                c2):
        # Newton gives up at its 4th point outside the window; running on
        # against the window's edge took 2600 to 5800 evaluations
        with pytest.raises(NumericalError, match="Newton found no root"):
            two_phase_exponent(model, 1.0, c2)
        (call,) = newton_calls
        assert call["root"] is None and call["evals"] <= 20

    def test_empty_window_raises(self):
        # I(0) = 800: e^{-b} underflows at every level above it
        with pytest.raises(NumericalError, match="no level"):
            two_phase_exponent(Gaussian(-40.0, 1.0), 1.0, 1.0)


@pytest.fixture
def newton_calls(monkeypatch):
    """Each newton_system call of meta_rate: its system, start point and
    root, and the number of times the search evaluated the system. A
    two_phase_exponent whose Newton converges makes one, its own."""
    module = importlib.import_module("ordopt.meta_rate")
    solve, calls = module.newton_system, []

    def spy(system, v0):
        call = {"system": system, "v0": v0, "evals": 0}

        def counted(v):
            call["evals"] += 1
            return system(v)

        call["root"] = solve(counted, v0)
        calls.append(call)
        return call["root"]

    monkeypatch.setattr(module, "newton_system", spy)
    return calls


class TestTwoPhaseNewton:
    """The stationarity system's exact Jacobian, and the evaluations the
    Newton search spends with it. The counts do not depend on the
    machine."""

    # the models of the benchmark's exponent ops, and a density model
    MODELS = [TwoPoint(1.0, 0.55), TwoPoint(1.0, 0.52), TwoPoint(1.0, 0.51),
              TwoPoint(4.0, 0.55), TwoPoint(1.0, 0.6), TwoPoint(1.0, 0.7),
              Gaussian(-0.2, 1.0)]

    @staticmethod
    def _central_differences(system, v):
        v = np.asarray(v, dtype=float)
        cols = []
        for j in range(v.size):
            h = 1e-6 * max(1.0, abs(v[j]))
            up, down = v.copy(), v.copy()
            up[j] += h
            down[j] -= h
            cols.append((system(up)[0] - system(down)[0]) / (2.0 * h))
        return np.array(cols).T

    @pytest.mark.parametrize("model", [TwoPoint(1.0, 0.55),
                                       Gaussian(-0.2, 1.0)], ids=str)
    def test_jacobian_matches_central_differences(self, newton_calls,
                                                  model):
        two_phase_exponent(model, 1.0, 1.0)
        (call,) = newton_calls
        assert call["root"] is not None
        for v in (call["v0"], call["root"]):
            _, jac = call["system"](np.asarray(v, dtype=float))
            np.testing.assert_allclose(
                jac, self._central_differences(call["system"], v),
                rtol=1e-6, atol=1e-8)

    def test_finite_where_the_node_table_overflows(self, newton_calls):
        model = Gaussian(-0.2, 1.0)
        two_phase_exponent(model, 1.0, 1.0)
        (call,) = newton_calls
        # at theta = 40, x W overflows on the upper tail of the table
        assert (_tilt(_law(model), 40.0)[2] == np.finfo(float).max).any()
        g, _, a = call["root"]
        # -a W is finite at a < 1 and -inf at a > 1 on those nodes
        for alpha in (a, 2.0):
            r, jac = call["system"](np.array([g, 40.0, alpha]))
            assert np.isfinite(r).all() and np.isfinite(jac).all()

    @pytest.mark.parametrize("model", MODELS, ids=str)
    def test_evaluations_per_exponent(self, newton_calls, model):
        two_phase_exponent(model, 1.0, 1.0)
        (call,) = newton_calls
        assert call["root"] is not None
        assert call["evals"] <= 16


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
def search_calls(monkeypatch):
    """What a theta search spends: its _meta_rate calls on an array of
    tilts and on one tilt, the rows of the array call (the grid), the
    _atom_moments passes inside it (the grid's lock-step alpha solve), and
    its newton_system evaluations."""
    module = importlib.import_module("ordopt.meta_rate")
    solve, moments, newton = (module._meta_rate, module._atom_moments,
                              module.newton_system)
    calls = {"array": 0, "scalar": 0, "rows": 0, "grid_passes": 0,
             "system": 0, "in_grid": False}

    def counted(model, law, theta, nu):
        grid = bool(np.ndim(theta))
        calls["array" if grid else "scalar"] += 1
        calls["rows"] += np.size(theta) if grid else 0
        calls["in_grid"] = grid
        try:
            return solve(model, law, theta, nu)
        finally:
            calls["in_grid"] = False

    def counted_moments(*args):
        calls["grid_passes"] += calls["in_grid"]
        return moments(*args)

    def counted_newton(system, v0):
        def counted_system(v):
            calls["system"] += 1
            return system(v)
        return newton(counted_system, v0)

    monkeypatch.setattr(module, "_meta_rate", counted)
    monkeypatch.setattr(module, "_atom_moments", counted_moments)
    monkeypatch.setattr(module, "newton_system", counted_newton)
    return calls


class TestThetaSearchEvaluations:
    """Each theta search solves its grid in one lock-step array call, then
    solves the stationarity system by newton_system from the best grid
    tilt, and makes one scalar _meta_rate solve, at its answer. The bounds
    are the grid sizes and the evaluation counts measured when the
    geometric grids came in; they do not depend on the machine."""

    @staticmethod
    def _check(calls, rows, system_evals):
        assert calls["array"] == 1
        assert calls["rows"] == rows
        assert calls["scalar"] == 1
        assert 0 < calls["system"] <= system_evals

    def test_sup(self, search_calls):
        sup_meta_rate_on_theta_a(TwoPoint(1.0, 0.6), 0.01)
        self._check(search_calls, 129, 3)
        # the passes at alpha = 0 and at the cap, the first pass of the
        # warm start and two Newton steps; from alpha = +-1 the grid took
        # those two passes and six Newton steps
        assert search_calls["grid_passes"] < 2 + 6

    @pytest.mark.parametrize("a", [0.03, 0.04, 0.06])
    def test_inf(self, search_calls, a):
        inf_meta_rate(TwoPoint(1.0, 0.6), a)
        self._check(search_calls, 81, {0.03: 5, 0.04: 4, 0.06: 5}[a])

    @pytest.mark.parametrize("c1", [2.0, 5.0, 100.0])
    def test_certificate(self, search_calls, c1):
        sequential_failure_certificate(ShiftedExponential(0.96, 1.0), c1)
        self._check(search_calls, 33, {2.0: 5, 5.0: 6, 100.0: 5}[c1])

    def test_point_mass_row_stops(self, search_calls):
        # at theta = 0.04 the level e^{-0.04} is the lower atom of W in
        # floats: once the tilted law is a point mass, the gap and the
        # tilted variance are rounding noise of 1e-16, and the row ran
        # all 200 Newton steps, 203 passes of the grid
        value, theta = inf_meta_rate(TwoPoint(1.0, 0.6), 0.04)
        assert search_calls["grid_passes"] <= 70
        assert (value, theta) == (0.0031477363308754086, 0.2847320477977918)


def test_alpha_solves_stop_short_of_the_step_limit(monkeypatch):
    # on this supremum's grid, at two rows' roots |M' - nu| is about 1e-16
    # and M'' about 5e-4, so the Newton step, about 2e-13, never passed
    # xtol = 1e-13 and both rows ran all 200 steps
    module = importlib.import_module("ordopt.meta_rate")
    solve, steps = module.newton_root, []

    def spy(*args, **kwargs):
        root = solve(*args, **kwargs)
        steps.append(int(root.iterations.max()))
        return root

    monkeypatch.setattr(module, "newton_root", spy)
    model = ShiftedExponential(0.96, 1.0)
    sup_meta_rate_on_theta_a(model, 0.5 * rate_function(model, 0.0).value)
    assert steps and max(steps) < 200


def _first_order_residual(model, theta, nu):
    """|E[X W e^{alpha W}]| under the tilt, relative to max(|E W|, 1).

    By the envelope theorem dJ_theta(nu)/dtheta is -alpha times this
    moment at the maximizing alpha, so it vanishes at an interior optimum
    over theta, whichever search found it."""
    law = _law(model)
    alpha = _meta_rate(model, law, theta, nu).alpha_star
    t_mean, xw = _tilted_moments(law, theta, alpha)[:2]
    return abs(xw) / max(abs(t_mean), 1.0)


class TestFirstOrderCondition:
    """The optimum of each theta search solves E_q[XW] = 0 to 1e-10; the
    grid-then-Brent route left residuals of 2.9e-10 to 2.9e-8 at these
    searches. On TwoPoint(1, 0.55) the optimal tilts lie near 0.1, where
    a linear grid's cells 0.5 wide start Newton too far off to converge."""

    BOUND = 1e-10

    @pytest.mark.parametrize("a", [0.03, 0.04, 0.06])
    def test_at_the_infimum(self, a):
        m = TwoPoint(1.0, 0.6)
        _, theta_star = inf_meta_rate(m, a)
        assert _first_order_residual(m, theta_star,
                                     math.exp(-a)) <= self.BOUND

    @pytest.mark.parametrize("model, a", [
        (TwoPoint(1.0, 0.6), 0.01),
        (Mirrored(TwoPoint(1.0, 0.51)), None),
    ], ids=["two-point-a-0.01", "mirrored-two-point-a-half-i0"])
    def test_at_the_supremum(self, model, a):
        if a is None:
            a = 0.5 * rate_function(model, 0.0).value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, theta_star, _ = sup_meta_rate_on_theta_a(model, a)
        assert _first_order_residual(model, theta_star,
                                     math.exp(-a)) <= self.BOUND

    @pytest.mark.parametrize("c1", [2.0, 5.0, 100.0])
    def test_at_the_certificate(self, se_certificates, c1):
        theta = se_certificates[c1][0]
        assert _first_order_residual(ShiftedExponential(0.96, 1.0), -theta,
                                     math.exp(-1.0 / c1)) <= self.BOUND

    @pytest.mark.parametrize("mult", [1.05, 1.2])
    def test_at_a_small_minimizing_tilt(self, mult):
        m = TwoPoint(1.0, 0.55)
        a = mult * rate_function(m, 0.0).value
        _, theta_star = inf_meta_rate(m, a)
        assert _first_order_residual(m, theta_star,
                                     math.exp(-a)) <= self.BOUND

    def test_at_a_small_certificate_tilt(self):
        m = TwoPoint(1.0, 0.55)
        theta = sequential_failure_certificate(m, 100.0)[0]
        assert _first_order_residual(m, -theta,
                                     math.exp(-1.0 / 100.0)) <= self.BOUND


def _models_and_mirrors():
    from test_populations import ALL_MODELS
    return [m for base in ALL_MODELS for m in (base, Mirrored(base))]


# the grid-then-Brent route's values at commit eccf8f5, for each model of
# test_populations.ALL_MODELS (by position) and its mirror whose I(0) is
# finite and positive: (index, mirrored, sup at a = I(0)/2, inf at
# a = 1.5 I(0)); a supremum of 0 is the heavy-upper-tail collapse
GRID_THEN_BRENT = [
    (0, False, 0.00042985941575293674, 0.0002520310673151116),
    (0, True, 0.00042985941575286735, 0.00025203106731512895),
    (1, False, 0.01679140331023521, 0.008131575070067378),
    (1, True, 0.016791403310235375, 0.008131575070067454),
    (2, False, 7.182111565877045e-05, 4.282073836175959e-05),
    (2, True, 7.18211156588034e-05, 4.282073836184286e-05),
    (5, False, 0.0, 0.006792488130947126),
    (5, True, 0.0, 0.006792488130947277),
    (6, False, 0.0, 0.0355033042470673),
    (6, True, 0.0, 0.035503304247067574),
    (7, False, 0.0, 0.004765094465963043),
    (7, True, 0.0, 0.004765094465963127),
    (8, False, 0.04990550637155297, 0.029344062424765005),
    (8, True, 0.04990550637155297, 0.02934406242476495),
    (10, False, 0.01972130727986332, 0.010216348725605659),
    (10, True, 0.01972130727986332, 0.010216348725605673),
    (11, False, 0.0, 0.0025019109923608354),
    (11, True, 0.0, 0.002501910992360877),
]


def _battery_model(index, mirrored):
    from test_populations import ALL_MODELS
    base = ALL_MODELS[index]
    return Mirrored(base) if mirrored else base


@pytest.mark.parametrize("index, mirrored, sup_value, inf_value",
                         GRID_THEN_BRENT,
                         ids=[f"{i}{'-mirrored' if m else ''}"
                              for i, m, _, _ in GRID_THEN_BRENT])
def test_searches_agree_with_grid_then_brent(index, mirrored, sup_value,
                                             inf_value):
    model = _battery_model(index, mirrored)
    i0 = rate_function(model, 0.0).value
    value, _, _ = sup_meta_rate_on_theta_a(model, 0.5 * i0)
    assert value == pytest.approx(sup_value, rel=1e-8, abs=0.0)
    value, _ = inf_meta_rate(model, 1.5 * i0)
    assert value == pytest.approx(inf_value, rel=1e-8, abs=0.0)


def test_battery_covers_every_model_with_a_finite_positive_rate():
    covered = {(i, m) for i, m, _, _ in GRID_THEN_BRENT}
    from test_populations import ALL_MODELS
    for index in range(len(ALL_MODELS)):
        for mirrored in (False, True):
            i0 = rate_function(_battery_model(index, mirrored), 0.0).value
            assert ((index, mirrored) in covered) == (
                math.isfinite(i0) and i0 > 0)


class TestRateAtZero:
    """I(0) and the minimizer of Lambda come from one rate_function(model,
    0) call per entry point, and a capped search there raises."""

    # ShiftedExponential(1e-5, 1): Lambda' = 0 at theta = 99999, past the
    # search's cap 2^10, where -Lambda = 6.92 is only a lower bound on
    # I(0) = 10.52
    CAPPED = ShiftedExponential(1e-5, 1.0)

    @pytest.mark.parametrize("model", _models_and_mirrors(), ids=str)
    def test_theta_star_is_the_root_of_lambda_prime(self, model):
        rate = _rate_at_zero(model)
        assert rate == rate_function(model, 0.0)
        if not math.isfinite(rate.value):
            return
        base = getattr(model, "base", model)
        if isinstance(base, Bernoulli):
            # Lambda' keeps one sign: the optimizer saturates at the cap
            sign = -1.0 if model is base else 1.0
            assert rate.theta_star == sign * 1024.0
            return
        d_lo, d_hi = model.theta_domain()
        lo = max(-8.0, 0.99 * d_lo)
        hi = min(8.0, 0.99 * d_hi)
        want = optimize.brentq(model.dlog_mgf, lo, hi, xtol=1e-15,
                               rtol=1e-15)
        # relative on the scale max(1, |theta|) of the solvers' stop test
        assert abs(rate.theta_star - want) <= 1e-12 * max(1.0, abs(want))

    def test_exponent_makes_no_lambda_prime_search(self):
        calls = []

        class Counted(TwoPoint):
            def dlog_mgf(self, theta):
                calls.append(theta)
                return super().dlog_mgf(theta)

        r = two_phase_exponent(Counted(1.0, 0.55), 1.0, 1.0)
        assert calls == []
        assert r == two_phase_exponent(TwoPoint(1.0, 0.55), 1.0, 1.0)

    def test_capped_rate_at_zero_raises_at_every_entry_point(self):
        assert rate_function(self.CAPPED, 0.0).status == "theta-cap"
        calls = (lambda m: inf_meta_rate(m, 12.0),
                 lambda m: sup_meta_rate_on_theta_a(m, 1.0),
                 lambda m: two_phase_exponent(m, 1.0, 1.0),
                 lambda m: sequential_failure_certificate(m, 0.05))
        for call in calls:
            with pytest.raises(NumericalError) as info:
                call(self.CAPPED)
            assert info.value.best.status == "theta-cap"

    def test_capped_rate_at_zero_exits_3(self, capsys):
        from ordopt.cli import main
        code = main(["meta-rate", "--model", "shifted-exponential:1e-5,1",
                     "--exponent", "--c1", "1", "--c2", "1"])
        assert code == 3
        assert "theta-cap" in capsys.readouterr().err

    def test_overflowing_minimizer_raises(self):
        # the minimizer of a batch of subnormal points overflows when
        # scaled back (status theta-overflow), so Theta_a has no centre
        model = Empirical(np.array([5e-324, -5e-324, -5e-324]))
        assert rate_function(model, 0.0).status == "theta-overflow"
        with pytest.raises(NumericalError):
            sup_meta_rate_on_theta_a(model, 0.01)


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
