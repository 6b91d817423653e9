import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from ordopt.cli import _MODEL_TYPES, parse_model
from ordopt.populations import (Bernoulli, Empirical, Gaussian,
                                GaussianMixture, Mirrored, Pareto,
                                ShiftedExponential, SupportError, TwoPoint,
                                kl_divergence, log_mgf, quantile,
                                rate_function, two_point_rate_law)
from ordopt.selectors import _rng

ALL_MODELS = [
    TwoPoint(1.0, 0.55),
    TwoPoint(2.5, 0.2),
    ShiftedExponential(0.96, 1.0),
    ShiftedExponential(-0.5, 2.0),
    Gaussian(0.0, 1.0),
    Gaussian(-1.0, 0.5),
    GaussianMixture(0.3, 10.0),
    GaussianMixture(0.7, -2.0),
    Bernoulli(0.3),
    Pareto(3.0, 0.6),
    Empirical(np.array([-1.0, 0.5, 2.0, 2.0])),
    Mirrored(ShiftedExponential(1.5, 1.0)),
]


def _domain_grid(model):
    lo, hi = model.theta_domain()
    lo = max(lo, -3.0) if math.isfinite(lo) else -3.0
    hi = min(hi, 3.0) if math.isfinite(hi) else 3.0
    pad = 0.05 * (hi - lo)
    return np.linspace(lo + pad, hi - pad, 9)


@pytest.mark.parametrize("model", ALL_MODELS, ids=str)
def test_log_mgf_zero(model):
    assert log_mgf(model, 0.0) == 0.0


@pytest.mark.parametrize("model", ALL_MODELS, ids=str)
def test_log_mgf_convex(model):
    grid = _domain_grid(model)
    for t1 in grid:
        for t2 in grid:
            mid = model.log_mgf(0.5 * (t1 + t2))
            assert mid <= 0.5 * (model.log_mgf(t1) + model.log_mgf(t2)) \
                + 1e-12


@pytest.mark.parametrize("model", ALL_MODELS, ids=str)
def test_log_mgf_slope_at_zero_is_mean(model):
    h = 1e-6
    up = model.log_mgf(h)
    if math.isfinite(up):
        fd = (up - model.log_mgf(-h)) / (2.0 * h)
    else:
        # heavy upper tail: MGF domain stops at 0, use a one-sided step
        fd = -model.log_mgf(-h) / h
    assert abs(fd - model.mean()) < 1e-4


@pytest.mark.parametrize("model", ALL_MODELS, ids=str)
def test_dlog_mgf_matches_finite_difference(model):
    h = 1e-6
    for t in _domain_grid(model):
        fd = (model.log_mgf(t + h) - model.log_mgf(t - h)) / (2.0 * h)
        assert abs(fd - model.dlog_mgf(t)) < 1e-5 * max(1.0, abs(fd))


def test_shifted_exponential_slope_at_the_domain_edge():
    # Lambda is inf from theta = -lam down, and Lambda' falls to -inf there
    model = ShiftedExponential(0.96, 1e300)
    assert model.log_mgf(-1e300) == math.inf
    assert model.dlog_mgf(-1e300) == -math.inf
    assert model.dlog_mgf(-2e300) == -math.inf
    assert Mirrored(ShiftedExponential(1e300, 1.0)).dlog_mgf(1.0) == math.inf


@pytest.mark.parametrize("model", ALL_MODELS, ids=str)
def test_rate_zero_only_at_mean(model):
    mu = model.mean()
    assert rate_function(model, mu).value <= 1e-9
    lo, hi = model.support()
    heavy_hi = math.isinf(hi)
    for a in np.linspace(mu - 2.0, mu + 2.0, 25):
        r = rate_function(model, float(a))
        assert r.value >= 0.0
        if abs(a - mu) < 1e-9:
            continue
        if a < mu and a > lo:
            assert r.value > 0.0
        if a > mu and not heavy_hi and a < hi:
            assert r.value > 0.0


def test_rate_closed_forms():
    r = rate_function(TwoPoint(1.0, 0.55), 0.0)
    assert abs(r.value - 0.0050251679267507) < 1e-12
    assert abs(r.theta_star - 0.5 * math.log(0.55 / 0.45)) < 1e-12

    r = rate_function(ShiftedExponential(0.96, 1.0), 0.0)
    assert abs(r.value - 8.2199452026e-4) < 1e-11
    assert abs(r.theta_star - (1.0 / 0.96 - 1.0)) < 1e-9

    r = rate_function(Gaussian(2.0, 3.0), -1.0)
    assert abs(r.value - 0.5) < 1e-12

    assert rate_function(Bernoulli(0.5), 0.9).value == pytest.approx(
        0.3680642071684971, abs=1e-12)


def test_gaussian_squares_past_the_float_range_are_inf():
    # the square of theta sigma or of (a - mu) / sigma overflows: +inf,
    # never OverflowError, and never -inf + inf = nan
    assert Gaussian(-1e150, 1.0).log_mgf(1e160) == math.inf
    assert Gaussian(0.0, 1.0).log_mgf(-1e200) == math.inf
    r = rate_function(Gaussian(0.0, 1.0), 1e200)
    assert r.value == math.inf and r.theta_star == 1e200


@pytest.mark.parametrize("mu, sigma, name", [
    (0.0, 1e-300, "sigma"), (-1.0, 1e200, "sigma"), (-1e300, 1.0, "mu")])
def test_gaussian_domain_names_the_parameter(mu, sigma, name):
    with pytest.raises(ValueError, match=name):
        Gaussian(mu, sigma)


def test_rate_outside_support():
    assert rate_function(TwoPoint(1.0, 0.5), 2.0).status == "diverges-right"
    assert rate_function(TwoPoint(1.0, 0.5), -2.0).status == "diverges-left"
    r = rate_function(ShiftedExponential(0.96, 1.0), 1.5)
    assert r.value == math.inf and r.theta_star is None


def test_rate_heavy_tail_side_is_zero():
    par = Pareto(3.0, 0.6)
    for a in (par.mean(), 1.2, 5.0):
        assert rate_function(par, a).value <= 1e-12
    assert rate_function(par, 0.7).value > 0.01


def test_capped_rate_search_reports_theta_cap():
    # Lambda'(theta) - a stays negative down to theta = -2^10 just above
    # the Pareto scale point, so the reported theta is the cap and the
    # value only a lower bound on I(a)
    r = rate_function(Pareto(3.0, 0.6), 0.6000001)
    assert r.theta_star == -1024.0
    assert r.status == "theta-cap"
    # an exact root where the bracket search stops is still interior
    r = rate_function(Mirrored(ShiftedExponential(1.5, 1.0)), -1.0)
    assert r.theta_star == -1.0 and r.status == "interior"


def test_rate_at_bounded_endpoint_is_log_mass():
    r = rate_function(TwoPoint(1.0, 0.55), 1.0)
    assert r.value == pytest.approx(-math.log(0.45), abs=1e-12)


def test_mirrored_rate_reflects():
    base = ShiftedExponential(1.5, 1.0)
    mir = Mirrored(base)
    assert mir.mean() == -base.mean()
    for a in (-0.2, 0.0, 0.3):
        assert rate_function(mir, a).value == pytest.approx(
            rate_function(base, -a).value, abs=1e-9)


_SWAPPED = {"diverges-left": "diverges-right",
            "diverges-right": "diverges-left"}


@pytest.mark.parametrize("model", ALL_MODELS, ids=str)
def test_mirrored_rate_is_the_base_route(model):
    # I_{-X}(-a) = I_X(a) by the base's own route: the same value and
    # iterations, the tilt negated and the sides of divergence swapped, at
    # the mean, inside, at atoms and support ends and beyond them
    lo, hi = model.support()
    mu = model.mean()
    levels = [mu, mu - 0.3, mu + 0.3, mu - 2.0, mu + 2.0]
    levels += [x for x, _ in model.atoms() or ()]
    levels += [e + s for e in (lo, hi) if math.isfinite(e)
               for s in (-0.5, 0.0, 0.5)]
    for a in levels:
        base, mirrored = rate_function(model, a), rate_function(
            Mirrored(model), -a)
        assert repr(mirrored.value) == repr(base.value), a
        assert mirrored.theta_star == (None if base.theta_star is None
                                       else -base.theta_star), a
        assert mirrored.iterations == base.iterations, a
        assert mirrored.status == _SWAPPED.get(base.status, base.status), a


@pytest.mark.parametrize("q", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_bernoulli_is_the_shifted_two_point_law(q):
    # Bernoulli(q) is TwoPoint(1/2, 1 - q) moved up by 1/2; the grids are
    # dyadic, so every shift by 1/2 is exact
    b, t = Bernoulli(q), TwoPoint(0.5, 1.0 - q)
    for theta in np.linspace(-40.0, 40.0, 161):
        assert b.log_mgf(theta) == pytest.approx(
            theta / 2 + t.log_mgf(theta), rel=1e-12, abs=1e-15)
        assert b.dlog_mgf(theta) == pytest.approx(
            0.5 + t.dlog_mgf(theta), rel=1e-12, abs=1e-15)
    xs = np.arange(-16, 33) / 16.0
    np.testing.assert_array_equal(b.cdf(xs), t.cdf(xs - 0.5))
    (x0, p0), (x1, p1) = t.atoms()
    assert b.atoms()[0] == (x0 + 0.5, p0)
    assert b.atoms()[1][0] == x1 + 0.5
    assert b.atoms()[1][1] == pytest.approx(p1, rel=1e-12)
    # the upper masses differ in their last bits (q against 1 - (1 - q)),
    # and the rates with them
    for a in np.arange(-8, 73) / 64.0:
        rb, rt = rate_function(b, a), rate_function(t, a - 0.5)
        assert rb.status == rt.status
        assert rb.value == pytest.approx(rt.value, rel=1e-12, abs=1e-15)
        assert rb.theta_star == pytest.approx(rt.theta_star, rel=1e-12,
                                              abs=1e-15)


@pytest.mark.parametrize("q", [1e-20, 1e-12, 1e-6, 0.3])
def test_bernoulli_rate_keeps_a_tiny_mass(q):
    # I(1) = -log q, and inside (0, 1) I(a) is KL(Bern(a) || Bern(q)),
    # each from q itself and never from 1 - (1 - q)
    r = rate_function(Bernoulli(q), 1.0)
    assert r.status == "interior"
    assert r.value == pytest.approx(-math.log(q), rel=1e-15)
    for a in (1e-3, 0.5, 0.999):
        kl = a * math.log(a / q) + (1.0 - a) * (math.log1p(-a)
                                                - math.log1p(-q))
        r = rate_function(Bernoulli(q), a)
        assert r.status == "interior"
        assert r.value == pytest.approx(kl, rel=1e-13)


def test_two_atom_rate_within_rounding_of_an_atom():
    # the mass required on the upper atom rounds to 1: the rate is that at
    # the atom, with no log of 0
    for b in (1.0, 4.0):
        model = TwoPoint(b, 0.3)
        assert rate_function(model, math.nextafter(b, 0.0)) == (
            rate_function(model, b))


@pytest.mark.parametrize("model", [
    TwoPoint(1.0, 0.55), Gaussian(-0.2, 1.0),
    Empirical(np.array([-1.0, 0.5, 2.0])), Mirrored(TwoPoint(1.0, 0.55)),
    ShiftedExponential(0.96, 1.0)], ids=str)
def test_rate_at_a_nan_level_raises(model):
    with pytest.raises(ValueError, match="NaN"):
        rate_function(model, math.nan)


@pytest.mark.parametrize("mass", [5e-324, 1e-300, 1e-20, 0.3, 1.0 - 1e-12])
def test_two_atom_masses_are_exact(mass):
    # each model puts its own parameter on its atom, never 1 - (1 - q)
    assert Bernoulli(mass).atoms()[1] == (1.0, mass)
    assert TwoPoint(2.0, mass).atoms()[0] == (-2.0, mass)
    if mass > 1e-300:
        assert Bernoulli(mass).dlog_mgf(0.0) == pytest.approx(mass,
                                                              rel=1e-12)
        assert Bernoulli(mass).log_mgf(1.0) == pytest.approx(
            math.log1p(mass * math.expm1(1.0)), rel=1e-12)


@pytest.mark.parametrize("model, a, want", [
    (Bernoulli(5e-324), 0.5, 371.5268887801307),
    (TwoPoint(1.0, 5e-324), -0.5, 557.7677187964172),
], ids=["bernoulli", "two-point"])
def test_two_atom_rate_with_a_subnormal_mass(model, a, want):
    # s / p overflows for the subnormal mass, which made the value and
    # theta_star inf; written out here with each log taken alone
    lo, hi, p_lo, p_hi = model._atoms()[:4]
    s = (a - lo) / (hi - lo)
    kl = (s * (math.log(s) - math.log(p_hi))
          + (1.0 - s) * (math.log1p(-s) - math.log(p_lo)))
    assert kl == pytest.approx(want, rel=1e-12)
    rate = rate_function(model, a)
    assert rate.value == pytest.approx(want, rel=1e-12)
    assert rate.status == "interior" and math.isfinite(rate.theta_star)


def test_kl_bernoulli_closed_form():
    got = kl_divergence(Bernoulli(0.5), Bernoulli(0.25))
    assert got == pytest.approx(0.5 * math.log(2.0)
                                + 0.5 * math.log(2.0 / 3.0), abs=1e-14)


def test_kl_gaussian_closed_form():
    got = kl_divergence(Gaussian(0.0, 1.0), Gaussian(1.0, 2.0))
    assert got == pytest.approx(math.log(2.0) + (1.0 + 1.0) / 8.0 - 0.5,
                                abs=1e-14)


def test_kl_shifted_exponential_quadrature():
    # closed form: log(l1/l2) - 1 + l2 (K2 - K1 + 1/l1) for K1 <= K2
    got = kl_divergence(ShiftedExponential(0.9, 1.0),
                        ShiftedExponential(0.96, 1.0))
    assert got == pytest.approx(0.06, abs=1e-9)
    assert kl_divergence(ShiftedExponential(0.96, 1.0),
                         ShiftedExponential(0.9, 1.0)) == math.inf


def test_kl_nonnegative_zero_iff_equal():
    models = [Bernoulli(q) for q in (0.2, 0.5, 0.8)]
    models += [Gaussian(m, s) for m in (-1.0, 0.0) for s in (0.5, 1.0)]
    models += [GaussianMixture(p, 3.0) for p in (0.3, 0.6)]
    for g in models:
        for gt in models:
            if (g.atoms() is None) != (gt.atoms() is None):
                continue
            kl = kl_divergence(g, gt)
            if g == gt:
                assert kl <= 1e-10
            else:
                assert kl > 1e-6


def test_kl_support_mismatch():
    with pytest.raises(SupportError):
        kl_divergence(Bernoulli(0.5), Gaussian(0.0, 1.0))
    assert kl_divergence(Bernoulli(0.5), TwoPoint(1.0, 0.5)) == math.inf


def test_quantile_examples():
    assert quantile(Gaussian(0.0, 1.0), 0.5) == pytest.approx(0.0, abs=1e-12)
    assert quantile(Bernoulli(0.3), 0.5) == 0.0
    assert quantile(Bernoulli(0.3), 0.8) == 1.0
    q = quantile(GaussianMixture(0.3, 10.0), 0.3)
    assert q < 5.0
    assert abs(float(GaussianMixture(0.3, 10.0).cdf(q)) - 0.3) < 1e-9


@pytest.mark.parametrize("model", ALL_MODELS, ids=str)
def test_quantile_generalized_inverse(model):
    for p in (0.1, 0.3, 0.5, 0.9):
        q = quantile(model, p)
        assert float(model.cdf(q)) >= p - 1e-9
        if model.atoms() is None:
            assert float(model.cdf(q - 1e-6)) <= p + 1e-4


def _survival(model, x):
    if isinstance(model, Mirrored):
        return float(model.base.cdf(-x))
    if isinstance(model, Gaussian):
        return float(ndtr((model.mu - x) / model.sigma))
    if isinstance(model, GaussianMixture):
        return float(model.p * ndtr(-x) + (1 - model.p) * ndtr(model.mu - x))
    if isinstance(model, ShiftedExponential):
        return -math.expm1(-model.lam * (model.K - x))
    return (model.scale / x) ** model.alpha_tail


@pytest.mark.parametrize("model", [
    Gaussian(-0.2, 1.0), GaussianMixture(0.3, 5.0),
    ShiftedExponential(0.96, 1.0), Pareto(3.0, 0.6),
    Mirrored(Gaussian(0.5, 2.0)), Mirrored(GaussianMixture(0.7, -3.0))],
    ids=lambda m: repr(m))
def test_upper_quantile_from_the_tail_probability(model):
    # Q(1 - q) computed from q itself stays exact where 1 - q rounds to 1
    qs = np.array([0.3, 1e-3, 1e-20, 1e-100, 1e-300])
    xs = model.upper_quantile(qs)
    for q, x in zip(qs, xs):
        assert _survival(model, float(x)) == pytest.approx(q, rel=1e-8)
        assert float(model.upper_quantile(float(q))) == pytest.approx(
            x, abs=1e-9)
    # the lower tail of a mirror is its base's upper tail
    if isinstance(model, Mirrored):
        lows = model.quantile(qs)
        for q, x in zip(qs, lows):
            assert _survival(model.base, -float(x)) == pytest.approx(
                q, rel=1e-8)


def test_mixture_quantiles_in_lock_step_match_scalar_calls():
    m = GaussianMixture(0.3, 5.0)
    ps = np.array([1e-300, 1e-14, 0.01, 0.5, 0.97])
    # every row ends within 1e-10 of its root, one at a time or stacked
    assert m.quantile(ps) == pytest.approx(
        [m.quantile(float(p)) for p in ps], abs=2e-10)
    assert m.upper_quantile(ps) == pytest.approx(
        [m.upper_quantile(float(p)) for p in ps], abs=2e-10)


def test_mixture_quantile_between_far_modes():
    # F stays within 1e-17 of the level over [8.3, 11.4], below the
    # resolution of F or log F; the reference solves F - p in the form
    # (1 - p) Phi(x - mu) - p Phi(-x), which has no cancellation
    from scipy.optimize import brentq
    p, mu = 0.01, 20.0
    want = brentq(lambda x: (1 - p) * ndtr(x - mu) - p * ndtr(-x), 5.0,
                  15.0, xtol=1e-14, rtol=1e-15)
    assert GaussianMixture(p, mu).quantile(p) == pytest.approx(want,
                                                                rel=1e-12)
    # an equal mixture's median is halfway between the modes, from either
    # tail
    m = GaussianMixture(0.5, 30.0)
    assert m.quantile(0.5) == pytest.approx(15.0, rel=1e-12)
    assert m.upper_quantile(0.5) == pytest.approx(15.0, rel=1e-12)


def test_quantile_domain_error():
    with pytest.raises(ValueError):
        quantile(Gaussian(0.0, 1.0), 0.0)
    with pytest.raises(ValueError):
        quantile(Gaussian(0.0, 1.0), 1.2)


def test_sample_degenerate():
    values = TwoPoint(1.0, 1.0).draw(_rng(7, 0, 0), 5)
    assert np.array_equal(values, -np.ones(5))
    values = Bernoulli(0.0).draw(_rng(7, 0, 0), 3)
    assert np.array_equal(values, np.zeros(3))


def test_sample_determinism_and_splitting():
    model = GaussianMixture(0.3, 10.0)
    a = model.draw(_rng(123, 5, 0), 50)
    b = model.draw(_rng(123, 5, 0), 50)
    c = model.draw(_rng(123, 6, 0), 50)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.shape == (50,)


def test_sample_mean_large_n():
    values = ShiftedExponential(0.96, 1.0).draw(_rng(2024, 0, 0), 10 ** 6)
    se = 1.0 / math.sqrt(10 ** 6)
    assert abs(values.mean() - (-0.04)) < 3.0 * se


@pytest.mark.parametrize("model", ALL_MODELS, ids=str)
def test_sample_mean_matches_model_mean(model):
    n = 10 ** 5
    values = model.draw(_rng(99, 1, 0), n)
    sd = float(values.std())
    assert abs(values.mean() - model.mean()) < 5.0 * sd / math.sqrt(n)


def test_sample_validation():
    # a stream whose Philox key stream * 2^20 + slot passes 2^64
    with pytest.raises(ValueError):
        Gaussian(0.0, 1.0).draw(_rng(1, 2 ** 44, 0), 1)
    with pytest.raises(ValueError):
        TwoPoint(-1.0, 0.5)
    with pytest.raises(ValueError):
        Bernoulli(1.5)
    with pytest.raises(ValueError):
        Pareto(1.0, 1.0)


def test_two_point_rate_law():
    law = two_point_rate_law(4, 0.55)
    assert abs(sum(p for _, p, _ in law) - 1.0) < 1e-12
    by_k = {k: v for k, _, v in law}
    assert by_k[0] == math.inf and by_k[4] == math.inf
    assert by_k[1] == pytest.approx(math.log(4.0 / (2.0 * math.sqrt(3.0))),
                                    abs=1e-14)
    law2 = two_point_rate_law(2, 0.3)
    assert law2[1][2] == 0.0


def test_two_point_law_probabilities():
    law = two_point_rate_law(10, 0.55)
    # P(K = k) is Binomial(10, 0.45)
    from math import comb
    for k, prob, _ in law:
        assert prob == pytest.approx(comb(10, k) * 0.45 ** k * 0.55
                                     ** (10 - k), rel=1e-12)


def _mapping(model):
    """The models-file mapping of a model: its type name and its fields."""
    if isinstance(model, Mirrored):
        return {"type": "mirrored", "base": _mapping(model.base)}
    if isinstance(model, Empirical):
        return {"type": "empirical", "points": model.points.tolist()}
    name = next(n for n, cls in _MODEL_TYPES.items() if type(model) is cls)
    return {"type": name, **asdict(model)}


def _compact(model):
    """The compact model string of a model."""
    if isinstance(model, Mirrored):
        return "mirrored:" + _compact(model.base)
    if isinstance(model, Empirical):
        return "empirical:" + ";".join(map(repr, model.points.tolist()))
    name, *params = _mapping(model).values()
    return f"{name}:" + ",".join(map(repr, params))


def _assert_same(decoded, model):
    assert type(decoded) is type(model)
    if isinstance(model, Empirical):
        assert np.array_equal(decoded.points, model.points)
    else:
        assert decoded == model


def test_config_roundtrip():
    # every model survives the models-file codec of the CLI; its errors
    # are checked through `ordopt select --models` in test_cli.py
    for model in ALL_MODELS:
        _assert_same(parse_model(_mapping(model), "model:m"), model)


@pytest.mark.parametrize("model", ALL_MODELS, ids=str)
def test_string_and_mapping_decode_alike(model):
    _assert_same(parse_model(_compact(model)), model)
    _assert_same(parse_model(_mapping(model)), model)
    _assert_same(parse_model({"spec": _compact(model)}), model)


def test_mapping_base_and_points_forms():
    m = parse_model({"type": "mirrored", "base": "shifted-exponential:1.5"})
    assert m == Mirrored(ShiftedExponential(1.5, 1.0))
    for points, want in (("-1;0.5 2,2", [-1.0, 0.5, 2.0, 2.0]),
                         (["-1", 0.5], [-1.0, 0.5]), (0.5, [0.5]),
                         (np.array([2.0, 3.0]), [2.0, 3.0])):
        m = parse_model({"type": "empirical", "points": points})
        assert m.points.tolist() == want


# each error in its compact-string and its mapping form, with what the
# message says after the entry's name
CODEC_ERRORS = [
    ("weibull:2", ": unknown type 'weibull'"),
    ({"type": "weibull"}, ": unknown type 'weibull'"),
    ("bernoulli:0.3,0.4", ": 'bernoulli' takes at most 1 parameters (q)"),
    ({"type": "bernoulli", "q": 0.3, "r": 0.4}, ": unexpected fields ['r']"),
    ("mirrored:", ": mirrored needs a base model"),
    ({"type": "mirrored"}, ": mirrored needs a base model"),
    ("mirrored:weibull", ".base: unknown type 'weibull'"),
    ({"type": "mirrored", "base": {"type": "weibull"}},
     ".base: unknown type 'weibull'"),
    ("empirical:", ": empirical needs sample points"),
    ({"type": "empirical", "points": []}, ": empirical needs sample points"),
    ("empirical:0.5;nan;1", ".points.1: must be finite, got 'nan'"),
    ({"type": "empirical", "points": [0.5, math.nan]},
     ".points.1: must be finite, got nan"),
    ("empirical:1,x", ".points.1: not a number: 'x'"),
    ({"type": "empirical", "points": [1, "x"]},
     ".points.1: not a number: 'x'"),
    ("pareto:nan,1", ".alpha_tail: must be finite, got 'nan'"),
    ({"type": "pareto", "alpha_tail": "nan"},
     ".alpha_tail: must be finite, got 'nan'"),
    ("two-point:inf,0.5", ".b: must be finite, got 'inf'"),
    ({"type": "two-point", "b": math.inf}, ".b: must be finite, got inf"),
    ("gaussian:-inf", ".mu: must be finite, got '-inf'"),
    ({"type": "gaussian", "mu": "-inf"}, ".mu: must be finite, got '-inf'"),
    ("gaussian:0,x", ".sigma: not a number: 'x'"),
    ({"type": "gaussian", "sigma": "x"}, ".sigma: not a number: 'x'"),
    ("gaussian:0,-1", ": sigma must be positive"),
    ({"type": "gaussian", "sigma": -1}, ": sigma must be positive"),
    ({"mu": 1.0}, ": needs a 'type' or 'spec' entry"),
]


@pytest.mark.parametrize("spec, message", CODEC_ERRORS, ids=str)
def test_codec_errors_name_the_entry(spec, message):
    forms = [spec, {"spec": spec}] if isinstance(spec, str) else [spec]
    for form in forms:
        with pytest.raises(ValueError) as exc:
            parse_model(form, "model:m")
        assert str(exc.value) == "model:m" + message


@given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
       st.floats(0.05, 0.95), st.floats(0.1, 3.0))
@settings(max_examples=60, deadline=None)
def test_two_point_log_mgf_convexity_property(t1, t2, p, b):
    model = TwoPoint(b, p)
    mid = model.log_mgf(0.5 * (t1 + t2))
    assert mid <= 0.5 * (model.log_mgf(t1) + model.log_mgf(t2)) + 1e-12


@given(st.floats(0.05, 0.45), st.floats(1.0, 20.0), st.floats(0.01, 0.99))
@settings(max_examples=40, deadline=None)
def test_mixture_quantile_inverts_cdf(p, mu, level):
    model = GaussianMixture(p, mu)
    q = model.quantile(level)
    assert abs(float(model.cdf(q)) - level) < 1e-8
