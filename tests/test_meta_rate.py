"""Tests for the second-level rate machinery."""

import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordopt.meta_rate import (
    MetaRateResult,
    RegimeError,
    inf_meta_rate,
    meta_rate,
    sequential_failure_certificate,
    sup_meta_rate_on_theta_a,
    tilted_log_mgf,
    two_phase_exponent,
)
from ordopt.populations import (
    Gaussian,
    Mirrored,
    ShiftedExponential,
    TwoPoint,
    rate_function,
)


def two_atom_kl(q, p):
    return q * math.log(q / p) + (1 - q) * math.log((1 - q) / (1 - p))


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


@pytest.fixture(scope="module")
def se_certificates():
    se = ShiftedExponential(0.96, 1.0)
    return {c1: sequential_failure_certificate(se, c1)
            for c1 in (2.0, 5.0, 100.0)}


class TestSequentialFailureCertificate:
    # exact minima of the substituted residual system, solved offline
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

    def test_regime_errors(self):
        se = ShiftedExponential(0.96, 1.0)
        # I(0) = 8.22e-4, so 1/c1 dips below it around c1 = 1217
        with pytest.raises(RegimeError):
            sequential_failure_certificate(se, 2000.0)
        with pytest.raises(RegimeError):
            sequential_failure_certificate(ShiftedExponential(1.5, 1.0), 2.0)
        with pytest.raises(ValueError):
            sequential_failure_certificate(se, -1.0)


def test_result_containers_are_frozen():
    r = MetaRateResult(0.1, -0.5, 0.3, 0.9)
    with pytest.raises(AttributeError):
        r.value = 2.0
