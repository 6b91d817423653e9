import math

import numpy as np
import pytest
from scipy import integrate

from ordopt.adversarial import (
    TiltedDistribution,
    _log_sf,
    lower_bound_samples,
    quantile_gadget,
    tilt,
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
    kl_divergence,
    quantile,
)
from ordopt.selectors import (
    FsEstimate,
    SelectionOutcome,
    fs_estimate,
    hoeffding_select,
    replicate,
)


def _tail_moment(base, b, moment):
    # independent route: plain quadrature in linear space
    val, _ = integrate.quad(
        lambda x: x ** moment * math.exp(float(np.asarray(base.logpdf(x)))),
        b, math.inf, limit=200)
    return val


def test_log_sf_matches_the_closed_form():
    # 1 - cdf loses digits well above 1e-250: at x = 30 it gave -30.959148
    base = Mirrored(ShiftedExponential(0.96, 1.0))
    for x in (-0.5, 2.0, 6.0, 20.0, 30.0, 100.0, 2211.84):
        assert _log_sf(base, x) == pytest.approx(-(x + 0.96), rel=1e-13)


class TestTilt:
    def test_flagship_shifted_exponential_chain(self):
        # the split lands where the base survival mass underflows float64,
        # which is exactly what the log-space bookkeeping is for
        base = Mirrored(ShiftedExponential(0.96, 1.0))
        assert base.mean() == pytest.approx(0.04, rel=1e-12)
        k = 10.0 * abs(base.mean()) + 10.0
        td = tilt(base, 0.01, k)

        assert td.gamma == pytest.approx(-math.expm1(-0.005), rel=1e-12)
        assert td.b == pytest.approx(2211.84, rel=1e-12)
        assert math.isinf(td.beta_factor)
        assert td.kl_from_base() == pytest.approx(0.005, abs=1e-9)
        assert td.mean() >= k
        assert td.mean() == pytest.approx(11.0764, abs=2e-3)
        assert td.total_mass() == pytest.approx(1.0, abs=1e-10)

        kl_quad = kl_divergence(base, td)
        assert kl_quad == pytest.approx(0.005, abs=1e-6)

        floor = lower_bound_samples(base, td, 1e-3)
        assert floor == pytest.approx(math.log(1000.0) / 0.015, abs=0.05)
        assert floor >= 230.26

    def test_moderate_gaussian_instance(self):
        base = Gaussian(0.0, 1.0)
        td = tilt(base, 4.0, 0.5)
        gamma = -math.expm1(-2.0)

        assert td.b == 1.0
        assert td.gamma == pytest.approx(gamma, rel=1e-12)
        g_b = float(base.cdf(1.0))
        beta_expected = 1.0 + gamma * g_b / (1.0 - g_b)
        assert td.beta_factor == pytest.approx(beta_expected, rel=1e-9)
        assert td.total_mass() == pytest.approx(1.0, abs=1e-10)

        tail_x = _tail_moment(base, 1.0, 1)
        mean_expected = (1.0 - gamma) * (0.0 - tail_x) + td.beta_factor * tail_x
        assert td.mean() == pytest.approx(mean_expected, rel=1e-8)
        assert td.mean() >= 0.5

        kl_closed = (-g_b * math.log1p(-gamma)
                     - (1.0 - g_b) * math.log(td.beta_factor))
        assert td.kl_from_base() == pytest.approx(kl_closed, rel=1e-10)
        assert kl_divergence(base, td) == pytest.approx(kl_closed, rel=1e-5)
        assert td.kl_from_base() <= 4.0

    def test_density_and_cdf_structure(self):
        base = Gaussian(0.0, 1.0)
        td = tilt(base, 4.0, 0.5)
        lb = math.log(td.beta_factor)

        assert float(td.logpdf(0.0)) == pytest.approx(
            float(base.logpdf(0.0)) + math.log1p(-td.gamma), rel=1e-12)
        assert float(td.logpdf(2.0)) == pytest.approx(
            float(base.logpdf(2.0)) + lb, rel=1e-12)

        xs = np.linspace(-4.0, 6.0, 41)
        cd = td.cdf(xs)
        assert np.all(np.diff(cd) > 0)
        assert td.cdf(td.b) == pytest.approx(
            (1.0 - td.gamma) * float(base.cdf(td.b)), rel=1e-12)

        for p in (0.05, 0.3, 0.7, 0.99):
            assert td.cdf(td.quantile(p)) == pytest.approx(p, abs=1e-9)
        assert td.atoms() is None
        assert td.support() == base.support()

    def test_pareto_instance(self):
        base = Pareto(2.0, 1.0)
        td = tilt(base, 0.2, 5.0)
        gamma = -math.expm1(-0.1)

        assert td.b == 40.0
        g_b = 1.0 - 1.0 / 1600.0
        assert td.beta_factor == pytest.approx(
            1.0 + gamma * g_b / (1.0 - g_b), rel=1e-9)
        # Pareto(2, 1) tail integral above 40 is exactly 2/40
        mean_expected = (1.0 - gamma) * (2.0 - 0.05) + td.beta_factor * 0.05
        assert td.mean() == pytest.approx(mean_expected, rel=1e-8)
        assert td.mean() >= 5.0
        assert td.kl_from_base() <= 0.2
        assert td.total_mass() == pytest.approx(1.0, abs=1e-10)

    def test_gamma_saturates_at_large_budget(self):
        td = tilt(Gaussian(0.0, 1.0), 50.0, 0.5)
        assert 0.999999 < td.gamma < 1.0
        assert td.b == 1.0
        assert td.mean() >= 0.5
        assert td.kl_from_base() <= 50.0

    def test_bounded_support_rejected(self):
        with pytest.raises(ValueError, match="unsupported support"):
            tilt(ShiftedExponential(0.96, 1.0), 0.01, 5.0)
        with pytest.raises(ValueError, match="unsupported support"):
            tilt(TwoPoint(1.0, 0.5), 0.1, 2.0)

    def test_trivial_request_rejected(self):
        with pytest.raises(ValueError, match="trivial request"):
            tilt(Gaussian(0.0, 1.0), 1.0, 0.0)
        with pytest.raises(ValueError, match="trivial request"):
            tilt(Pareto(2.0, 1.0), 0.5, 2.0)

    def test_alpha_target_validated(self):
        with pytest.raises(ValueError, match="alpha_target"):
            tilt(Gaussian(0.0, 1.0), 0.0, 1.0)
        with pytest.raises(ValueError, match="alpha_target"):
            tilt(Gaussian(0.0, 1.0), -1.0, 1.0)

    def test_field_consistency_enforced(self):
        base = Gaussian(0.0, 1.0)
        g_b = float(base.cdf(1.0))
        td = TiltedDistribution(base, 1.0, 0.5)
        assert td.beta_factor == pytest.approx(1.0 + 0.5 * g_b / (1.0 - g_b),
                                               rel=1e-12)
        assert td.total_mass() == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError, match="gamma"):
            TiltedDistribution(base, 1.0, 1.5)

    @pytest.mark.parametrize("b", [-0.5, 1.0])
    def test_split_at_or_above_the_support_rejected(self, b):
        # no mass from b up to lift: beta would be inf and the mass nan
        with pytest.raises(ValueError, match="top of the base's support"):
            TiltedDistribution(ShiftedExponential(-0.5, 2.0), b, 0.3)


class TestLowerBoundSamples:
    def test_unit_kl_gaussian_pair(self):
        g = Gaussian(0.0, 1.0)
        gt = Gaussian(math.sqrt(2.0), 1.0)
        assert kl_divergence(g, gt) == pytest.approx(1.0, rel=1e-12)
        assert lower_bound_samples(g, gt, math.exp(-3.0)) == pytest.approx(
            1.0, rel=1e-9)

    def test_log_linear_in_delta(self):
        g = Gaussian(0.0, 1.0)
        gt = Gaussian(1.0, 1.0)
        r = lower_bound_samples(g, gt, 1e-6) / lower_bound_samples(g, gt, 1e-3)
        assert r == pytest.approx(2.0, rel=1e-12)

    def test_vanishes_as_delta_approaches_one(self):
        g = Gaussian(0.0, 1.0)
        gt = Gaussian(1.0, 1.0)
        floor = lower_bound_samples(g, gt, 0.999)
        assert 0.0 < floor < 1e-3

    def test_identical_models_degenerate(self):
        g = Gaussian(0.0, 1.0)
        with pytest.raises(ValueError, match="degenerate"):
            lower_bound_samples(g, Gaussian(0.0, 1.0), 0.1)

    def test_disjoint_support_degenerate(self):
        with pytest.raises(ValueError, match="degenerate"):
            lower_bound_samples(TwoPoint(1.0, 0.6), TwoPoint(2.0, 0.6), 0.1)

    def test_delta_validated(self):
        g, gt = Gaussian(0.0, 1.0), Gaussian(1.0, 1.0)
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError, match="delta"):
                lower_bound_samples(g, gt, bad)

    def test_a_given_kl_gives_the_same_floor(self):
        g, gt = Gaussian(0.0, 1.0), Gaussian(1.0, 1.0)
        kl = kl_divergence(g, gt)
        assert (lower_bound_samples(g, gt, 1e-3, kl=kl)
                == lower_bound_samples(g, gt, 1e-3))
        with pytest.raises(ValueError, match="degenerate"):
            lower_bound_samples(g, gt, 0.1, kl=0.0)


class TestQuantileGadget:
    def test_frozen_bound_and_fields(self):
        qg = quantile_gadget(0.3, 0.1, 5.0)
        assert qg.kl_bound == pytest.approx(math.log(1.5), rel=1e-12)
        assert isinstance(qg.g, GaussianMixture)
        assert qg.g.p == pytest.approx(0.3)
        assert qg.g_eps.p == pytest.approx(0.2)
        assert qg.g.mu == qg.g_eps.mu == 5.0
        assert qg.quantile_gap > 0.0

    def test_actual_kl_stays_under_bound_for_all_mu(self):
        bounds, kls = [], []
        for mu in (4.0, 7.0, 10.0):
            qg = quantile_gadget(0.3, 0.1, mu)
            kl = kl_divergence(qg.g, qg.g_eps)
            assert 0.0 < kl <= qg.kl_bound + 1e-9
            bounds.append(qg.kl_bound)
            kls.append(kl)
        # the bound does not move with mu even though the gap does
        assert bounds[0] == bounds[1] == bounds[2]

    def test_gap_grows_with_mu(self):
        gaps = [quantile_gadget(0.3, 0.1, mu).quantile_gap
                for mu in (4.0, 7.0, 10.0)]
        assert gaps[0] > 0.5
        assert gaps[0] < gaps[1] < gaps[2]
        assert gaps[2] > 3.0

    def test_kl_monotone_in_epsilon(self):
        kls, bounds = [], []
        for eps in (0.05, 0.1, 0.2):
            qg = quantile_gadget(0.3, eps, 4.0)
            kls.append(kl_divergence(qg.g, qg.g_eps))
            bounds.append(qg.kl_bound)
        assert kls[0] < kls[1] < kls[2]
        assert bounds[0] < bounds[1] < bounds[2]

    def test_gap_visible_from_the_cdf(self):
        qg = quantile_gadget(0.25, 0.1, 6.0)
        x0 = quantile(qg.g, 0.25)
        # the shifted mixture has strictly less mass below g's quantile
        assert float(qg.g_eps.cdf(x0)) < 0.25
        assert qg.quantile_gap == pytest.approx(
            quantile(qg.g_eps, 0.25) - x0, abs=1e-9)

    def test_half_weight_allowed(self):
        qg = quantile_gadget(0.5, 0.2, 3.0)
        assert qg.kl_bound == pytest.approx(math.log(0.5 / 0.3), rel=1e-12)

    def test_parameters_validated(self):
        with pytest.raises(ValueError, match="p must"):
            quantile_gadget(0.6, 0.1, 5.0)
        with pytest.raises(ValueError, match="p must"):
            quantile_gadget(0.0, 0.1, 5.0)
        with pytest.raises(ValueError, match="epsilon"):
            quantile_gadget(0.3, 0.3, 5.0)
        with pytest.raises(ValueError, match="epsilon"):
            quantile_gadget(0.3, 0.0, 5.0)
        with pytest.raises(ValueError, match="mu"):
            quantile_gadget(0.3, 0.1, 0.0)


def _wilson99(k, n):
    """99% Wilson score interval for k successes in n trials."""
    z = 2.576
    phat = k / n
    center = (phat + z * z / (2 * n)) / (1 + z * z / n)
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) \
        / (1 + z * z / n)
    return center - half, center + half


def _hoeffding_policy(epsilon):
    def policy(truth, delta, seed, streams):
        return hoeffding_select(truth, epsilon, delta, 1.0, seed,
                                stream=streams)
    return policy


def _fs(policy, truth, delta, replications, seed):
    return fs_estimate(replicate(policy, truth, delta, seed, replications))


class TestMonteCarloFs:
    """fs_estimate over the outcomes of the replication engine."""

    def test_deterministic_separated_arms(self):
        models = (Empirical(np.array([0.2])), Empirical(np.array([0.8])))
        est = _fs(_hoeffding_policy(0.5), models, 0.1, 7, seed=42)
        assert isinstance(est, FsEstimate)
        assert est.fs_rate == 0.0
        # a Wald interval had width 0 here; Wilson's upper end is z^2/(n+z^2)
        low, high = _wilson99(0, 7)
        assert est.ci_low == pytest.approx(low, abs=1e-15)
        assert est.ci_low == 0.0
        assert est.ci_high == pytest.approx(2.576 ** 2 / (7 + 2.576 ** 2),
                                            rel=1e-12)
        assert est.ci_high == pytest.approx(high, rel=1e-12)
        # ceil(8 log 10) = 19 pulls per arm, both arms, every replication
        assert est.mean_samples == 38.0

    def test_replication_stream_contract(self):
        seen = []

        def policy(truth, delta, seed, streams):
            seen.append((seed, streams))
            return [SelectionOutcome(0, (3, 4), 1, "budget-exhausted", None,
                                     s % 2 == 0) for s in streams]

        est = _fs(policy, None, 0.5, 4, seed=9)
        assert seen == [(9, range(4))]
        assert est.fs_rate == pytest.approx(0.5)
        low, high = _wilson99(2, 4)
        assert est.ci_low == pytest.approx(low, rel=1e-12)
        assert est.ci_high == pytest.approx(high, rel=1e-12)
        assert est.mean_samples == pytest.approx(7.0)

    def test_undefined_truth_rejected(self):
        models = (Empirical(np.array([0.5])), Empirical(np.array([0.5])))
        with pytest.raises(ValueError, match="undefined truth"):
            _fs(_hoeffding_policy(0.5), models, 0.1, 3, seed=0)

    def test_deterministic_in_seed(self):
        models = (Bernoulli(0.3), Bernoulli(0.5))
        a = _fs(_hoeffding_policy(0.2), models, 0.1, 50, seed=5)
        b = _fs(_hoeffding_policy(0.2), models, 0.1, 50, seed=5)
        assert a == b

    def test_bernoulli_rate_within_guarantee(self):
        models = (Bernoulli(0.3), Bernoulli(0.5))
        est = _fs(_hoeffding_policy(0.2), models, 0.1, 400, seed=7)
        assert est.fs_rate <= 0.1
        assert est.mean_samples == 232.0
        assert est.ci_low <= est.fs_rate <= est.ci_high
        assert est.ci_high - est.ci_low < 0.1

    def test_replications_validated(self):
        with pytest.raises(ValueError, match="replications"):
            _fs(_hoeffding_policy(0.5), None, 0.1, 0, seed=0)
