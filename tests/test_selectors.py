import math

import numpy as np
import pytest

from ordopt.populations import Bernoulli, Empirical, Mirrored, TwoPoint
from ordopt.selectors import (
    MomentBound,
    _rng,
    _Streams,
    RadiusSchedule,
    capped_concentration_constant,
    capped_select,
    capping_bias,
    capping_radius,
    concentration_constant,
    expected_pulls_bound,
    hoeffding_select,
    optimal_beta,
    radius,
    sequential_select,
    solve_log_fixed_point,
    successive_elimination,
    two_phase_select,
)
from ordopt.truncation import CustomSpec, ExponentialSpec, PowerSpec

C_NORM = 6.0 / math.pi ** 2


def const(x):
    return Empirical(np.array([float(x)]))


class Scripted:
    """Deterministic stream: a fixed prefix, then a repeating cycle.

    Ignores the generator argument, which makes stopping-rule fixtures
    exact; mean() reports the claimed ground truth for FS bookkeeping.
    """

    def __init__(self, prefix, cycle, mean_value):
        self._prefix = [float(v) for v in prefix]
        self._cycle = [float(v) for v in cycle]
        self._pos = 0
        self._mean = float(mean_value)

    def draw(self, rng, n):
        out = np.empty(int(n))
        for i in range(int(n)):
            p = self._pos + i
            if p < len(self._prefix):
                out[i] = self._prefix[p]
            else:
                out[i] = self._cycle[(p - len(self._prefix))
                                     % len(self._cycle)]
        self._pos += int(n)
        return out

    def mean(self):
        return self._mean


class Alternating:
    """+1, -1, +1, ... from the start of every draw; mean reported 0."""

    def draw(self, rng, n):
        return np.where(np.arange(n) % 2 == 0, 1.0, -1.0)

    def mean(self):
        return 0.0


class TestDomainTypes:
    def test_moment_bound_rejects_budget_at_f0(self):
        with pytest.raises(ValueError, match="exceed"):
            MomentBound(PowerSpec(2.0), [0.0])
        with pytest.raises(ValueError, match="exceed"):
            MomentBound(ExponentialSpec(1.0), [1.0])  # f(0) = 1
        with pytest.raises(ValueError, match="exceed"):
            MomentBound(PowerSpec(2.0), [])

    def test_moment_bound_accepts_valid_budgets(self):
        mb = MomentBound(ExponentialSpec(0.5), [1.5, 2.0])
        assert mb.c == [1.5, 2.0]

    def test_radius_schedule_validation(self):
        with pytest.raises(ValueError, match="kind"):
            RadiusSchedule("gaussian", 2, 0.1, b=1.0)
        with pytest.raises(ValueError, match="b > 0"):
            RadiusSchedule("bounded", 2, 0.1)
        with pytest.raises(ValueError, match="alpha > 1"):
            RadiusSchedule("heavy", 2, 0.1, alpha=1.0, K=1.0)
        with pytest.raises(ValueError, match="delta"):
            RadiusSchedule("bounded", 2, 1.5, b=1.0)
        with pytest.raises(ValueError, match="d >= 2"):
            RadiusSchedule("bounded", 1, 0.1, b=1.0)
        # the radius normalizer is the constant 6/pi^2, not a field
        with pytest.raises(TypeError, match="c_norm"):
            RadiusSchedule("bounded", 2, 0.1, b=1.0, c_norm=0.61)


class TestTwoPhase:
    def test_degenerate_negative_stream(self):
        # all-pilot-negative batches have an infinite rate estimate, which
        # collapses the second phase to m; m = ceil(log 10) = 3
        out = two_phase_select(const(-1.0), 0.1, 1.0, 1.0, seed=7)
        assert out.per_arm_samples == [6]
        assert out.rounds == 2
        assert out.termination == "budget-exhausted"
        assert out.decided_sign == "negative"
        assert out.false_selection is False
        assert out.chosen == 0

    def test_degenerate_mirrored_stream(self):
        out = two_phase_select(Mirrored(const(-1.0)), 0.1, 1.0, 1.0, seed=7)
        assert out.decided_sign == "positive"
        assert out.false_selection is False

    def test_budget_scales_with_rate(self):
        # TwoPoint(1, 0.55) has I(0) about 0.005, so phase 2 dwarfs phase 1
        out = two_phase_select(TwoPoint(1.0, 0.55), 1e-3, 1.0, 1.0, seed=3)
        m = math.ceil(math.log(1e3))
        assert out.per_arm_samples[0] > m * 50

    def test_deterministic_in_seed(self):
        args = (TwoPoint(1.0, 0.55), 1e-2, 1.0, 1.0)
        assert two_phase_select(*args, seed=11) == \
            two_phase_select(*args, seed=11)

    def test_parameter_domain(self):
        with pytest.raises(ValueError, match="delta"):
            two_phase_select(const(-1.0), 1.0, 1.0, 1.0, seed=0)
        with pytest.raises(ValueError, match="c1 and c2"):
            two_phase_select(const(-1.0), 0.1, 0.0, 1.0, seed=0)

    def test_zero_rate_pilot_hits_the_sample_cap(self):
        # a balanced +-1 pilot of m = ceil(1.5 log 10) = 4 has rate 0, so
        # N would be infinite; the 2^20 ceiling is reported, not hidden
        out = two_phase_select(Alternating(), 0.1, 1.5, 1.0, seed=0)
        assert out.per_arm_samples == [4 + 2 ** 20]
        assert out.termination == "sample-cap"
        assert out.rounds == 2

    @pytest.mark.parametrize("seed, stream", [
        (2 ** 64, 0), (-1, 0), (0, 2 ** 44), (0, -1)])
    def test_keys_beyond_64_bits_rejected(self, seed, stream):
        for call in (
                lambda: two_phase_select(const(-1.0), 0.1, 1.0, 1.0,
                                         seed=seed, stream=stream),
                lambda: sequential_select(const(-1.0), 0.1, [1.0],
                                          seed=seed, stream=stream),
                lambda: hoeffding_select([const(0.0), const(1.0)], 0.5, 0.1,
                                         1.0, seed=seed, stream=stream)):
            with pytest.raises(ValueError, match="2\\^64"):
                call()

    def test_largest_stream_is_accepted(self):
        out = two_phase_select(const(-1.0), 0.1, 1.0, 1.0,
                               seed=2 ** 64 - 1, stream=2 ** 44 - 1)
        assert out.decided_sign == "negative"

    def test_keys_above_2_63_stay_exact(self):
        # a key list holding 2^63 or more converts through float64, which
        # maps 2^63 + 12345 and 2^63 + 12288 onto one key
        a, b = 2 ** 63 + 12345, 2 ** 63 + 12288
        key = _rng(a, 2 ** 43, 1).bit_generator.state["state"]["key"]
        assert key.tolist() == [a, 2 ** 63 + 1]
        assert not np.array_equal(_rng(a, 0, 0).random(4),
                                  _rng(b, 0, 0).random(4))
        assert np.array_equal(_Streams(a)(2 ** 43, 1).random(4),
                              _rng(a, 2 ** 43, 1).random(4))


class TestSequential:
    def test_degenerate_stops_in_round_one(self):
        # m_1 = ceil(2 log 10) = 5, rate = +inf certifies immediately
        out = sequential_select(const(-1.0), 0.1, [2.0], seed=5)
        assert out.rounds == 1
        assert out.per_arm_samples == [5]
        assert out.termination == "confidence-met"
        assert out.decided_sign == "negative"
        assert out.false_selection is False

    def test_boundary_proceeds_to_round_two(self):
        # delta = 0.1 needs m_k I >= log 10 = 2.3026; the first three values
        # give 3 * I_3 = 3 log(3/(2 sqrt 2)) = 0.177 (below), and the two
        # -5 values then lift round two to 5 * I_5 = 2.53 (above)
        model = Scripted([-1.0, -1.0, 1.0, -5.0, -5.0], [-1.0], -2.2)
        out = sequential_select(model, 0.1, [1.0], seed=0)
        assert out.rounds == 2
        assert out.per_arm_samples == [5]
        assert out.termination == "confidence-met"
        assert out.decided_sign == "negative"
        assert out.false_selection is False

    def test_round_cap_on_zero_rate_stream(self):
        # alternating +-1 keeps the cumulative mean near zero, so the rate
        # estimate never certifies; schedule entry repeats past its end
        model = Scripted([], [1.0, -1.0], 0.0)
        out = sequential_select(model, 0.1, [1.0], round_cap=4, seed=0)
        assert out.rounds == 4
        assert out.termination == "round-cap"
        assert out.per_arm_samples == [10]
        assert out.false_selection is None

    def test_parameter_domain(self):
        with pytest.raises(ValueError, match="delta"):
            sequential_select(const(-1.0), 0.0, [1.0])
        with pytest.raises(ValueError, match="c_schedule"):
            sequential_select(const(-1.0), 0.1, [])
        with pytest.raises(ValueError, match="c_schedule"):
            sequential_select(const(-1.0), 0.1, [1.0, -1.0])

    @pytest.mark.parametrize("cap", [0, -3])
    def test_round_cap_below_one_rejected(self, cap):
        # no round would run, and the decision would come from the mean of
        # an empty sample
        with pytest.raises(ValueError, match="round_cap"):
            sequential_select(const(-1.0), 0.1, [1.0], round_cap=cap)


class TestHoeffding:
    def test_budget_formula(self):
        models = [const(0.0), const(1.0)]
        out = hoeffding_select(models, 0.1, 0.05, 1.0, seed=0)
        assert out.per_arm_samples == [600, 600]
        out = hoeffding_select(models, 0.2, 0.05, 1.0, seed=0)
        assert out.per_arm_samples == [150, 150]

    def test_deterministic_separation(self):
        out = hoeffding_select([const(0.0), const(0.1)], 0.1, 0.1, 1.0,
                               seed=2)
        assert out.chosen == 0
        assert out.false_selection is False
        assert out.termination == "budget-exhausted"

    def test_tie_breaks_to_lowest_index(self):
        out = hoeffding_select([const(0.5), const(0.5)], 0.1, 0.1, 1.0,
                               seed=2)
        assert out.chosen == 0
        assert out.false_selection is None  # ground-truth tie

    def test_guarantee_on_bernoulli_triple(self):
        models = [Bernoulli(0.3), Bernoulli(0.5), Bernoulli(0.5)]
        fails = sum(
            hoeffding_select(models, 0.2, 0.1, 1.0, seed=19,
                             stream=r).false_selection
            for r in range(1500))
        assert fails / 1500 <= 0.1

    def test_parameter_domain(self):
        with pytest.raises(ValueError, match="two"):
            hoeffding_select([const(0.0)], 0.1, 0.1, 1.0, seed=0)
        with pytest.raises(ValueError, match="epsilon"):
            hoeffding_select([const(0.0), const(1.0)], -0.1, 0.1, 1.0,
                             seed=0)


class TestCappingRadius:
    def test_power_closed_form(self):
        assert capping_radius(MomentBound(PowerSpec(2.0), [1.0]),
                              0.25) == pytest.approx(1.0, rel=1e-12)
        assert capping_radius(MomentBound(PowerSpec(2.0), [1.0, 4.0]),
                              0.25) == pytest.approx(4.0, rel=1e-12)

    def test_power_general_alpha_against_bias(self):
        # closed form must invert the two-point bias exactly
        for alpha in (1.5, 2.0, 3.0):
            spec = PowerSpec(alpha)
            for x in (0.05, 0.3, 1.0):
                r = capping_radius(MomentBound(spec, [2.0]), x)
                assert capping_bias(spec, 2.0, r) == pytest.approx(
                    x, rel=1e-10)

    def test_non_increasing_in_x(self):
        mb = MomentBound(PowerSpec(2.0), [1.0])
        xs = np.geomspace(0.01, 10.0, 25)
        rs = [capping_radius(mb, x) for x in xs]
        assert all(a >= b for a, b in zip(rs, rs[1:]))

    def test_exponential_bisection_inverts_bias(self):
        spec = ExponentialSpec(1.0)
        mb = MomentBound(spec, [3.0])
        for x in (0.1, 0.5, 1.0):
            r = capping_radius(mb, x)
            assert r > 0
            assert capping_bias(spec, 3.0, r) == pytest.approx(x, rel=1e-8)

    def test_exponential_saturates_at_zero(self):
        # bias at cap 0 is (c - 1)/theta = 2; any larger target needs no cap
        mb = MomentBound(ExponentialSpec(1.0), [3.0])
        assert capping_radius(mb, 2.5) == 0.0

    def test_custom_spec_matches_power_closed_form(self):
        spec = CustomSpec(lambda x: x * x, lambda x: 2.0 * x, math.sqrt)
        r = capping_radius(MomentBound(spec, [1.0]), 0.25)
        assert r == pytest.approx(1.0, rel=1e-9)

    def test_parameter_domain(self):
        with pytest.raises(ValueError, match="x must be positive"):
            capping_radius(MomentBound(PowerSpec(2.0), [1.0]), 0.0)


class TestCappedSelect:
    def test_budget_formula(self):
        # R(0.25) = 1 under the unit second-moment budget, so
        # n = ceil(32 log 10) = 74
        mb = MomentBound(PowerSpec(2.0), [1.0, 1.0])
        out = capped_select([const(0.0), const(1.0)], 0.5, 0.1, mb, 0.5,
                            seed=0)
        assert out.per_arm_samples == [74, 74]

    def test_deterministic_separation(self):
        mb = MomentBound(PowerSpec(2.0), [1.0, 1.0])
        out = capped_select([const(0.0), const(1.0)], 0.5, 0.1, mb, 0.5,
                            seed=4)
        assert out.chosen == 0
        assert out.false_selection is False

    def test_parameter_domain(self):
        mb = MomentBound(PowerSpec(2.0), [1.0, 1.0])
        models = [const(0.0), const(1.0)]
        with pytest.raises(ValueError, match="beta"):
            capped_select(models, 0.5, 0.1, mb, 1.0, seed=0)
        with pytest.raises(ValueError, match="beta"):
            capped_select(models, 0.5, 0.1, mb, 0.0, seed=0)


class TestOptimalBeta:
    def test_closed_form(self):
        assert optimal_beta(MomentBound(PowerSpec(2.0), [1.0])) == 0.5
        assert optimal_beta(MomentBound(PowerSpec(1.5), [1.0])) == \
            pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_decreasing_in_alpha(self):
        betas = [optimal_beta(MomentBound(PowerSpec(a), [1.0]))
                 for a in np.linspace(1.1, 40.0, 30)]
        assert all(a > b for a, b in zip(betas, betas[1:]))

    def test_exponential_unsupported(self):
        with pytest.raises(ValueError, match="power"):
            optimal_beta(MomentBound(ExponentialSpec(1.0), [2.0]))


class TestRadius:
    def test_bounded_factorizations_agree(self):
        sched = RadiusSchedule("bounded", 2, 0.1, b=1.0)
        r = radius(sched, 100)
        direct = math.sqrt(0.02 * math.log(2e4 / (C_NORM * 0.1)))
        spelled = math.sqrt(0.02 * math.log(2e4 * math.pi ** 2 / 0.6))
        assert r == pytest.approx(direct, rel=1e-12)
        assert r == pytest.approx(spelled, rel=1e-12)

    def test_heavy_formula(self):
        sched = RadiusSchedule("heavy", 3, 0.05, alpha=1.5, K=2.0)
        r = radius(sched, 50)
        expect = (capped_concentration_constant(1.5) * 2.0 ** (2.0 / 3.0)
                  * (math.log(2 * 2500 * 3 / (C_NORM * 0.05)) / 50)
                  ** (1.0 / 3.0))
        assert r == pytest.approx(expect, rel=1e-12)

    def test_vectorized_matches_scalar(self):
        for sched in (RadiusSchedule("bounded", 2, 0.1, b=2.0),
                      RadiusSchedule("heavy", 2, 0.1, alpha=2.0, K=1.0)):
            ms = np.array([1, 2, 7, 100])
            vec = radius(sched, ms)
            assert vec == pytest.approx([radius(sched, int(m)) for m in ms])

    def test_constants(self):
        assert capped_concentration_constant(1.5) == pytest.approx(
            2.7097973444, abs=1e-9)
        assert capped_concentration_constant(2.0) == pytest.approx(
            2.4975468957, abs=1e-9)
        assert concentration_constant(2.0) == pytest.approx(
            4.7475468957, abs=1e-9)

    def test_positive_and_eventually_decreasing(self):
        sched = RadiusSchedule("heavy", 2, 0.1, alpha=1.5, K=1.0)
        rs = radius(sched, np.arange(3, 200))
        assert np.all(rs > 0)
        assert np.all(np.diff(rs) < 0)

    def test_m_below_one_rejected(self):
        sched = RadiusSchedule("bounded", 2, 0.1, b=1.0)
        with pytest.raises(ValueError, match="m must be"):
            radius(sched, 0)


class TestSuccessiveElimination:
    def test_degenerate_pair_eliminates_at_predicted_round(self):
        sched = RadiusSchedule("bounded", 2, 0.1, b=1.0)
        m_star = 1
        while 2.0 * radius(sched, m_star) > 1.0:
            m_star += 1
        out = successive_elimination([const(1.0), const(0.0)], 0.1, sched,
                                     seed=0)
        assert out.chosen == 0
        assert out.rounds == m_star
        assert out.per_arm_samples == [m_star, m_star]
        assert out.termination == "confidence-met"
        assert out.false_selection is False

    def test_identical_arms_hit_pull_cap(self):
        sched = RadiusSchedule("bounded", 2, 0.1, b=1.0)
        out = successive_elimination([const(0.5), const(0.5)], 0.1, sched,
                                     seed=0, pull_cap=300)
        assert out.termination == "round-cap"
        assert out.rounds == 300
        assert out.per_arm_samples == [300, 300]
        assert out.false_selection is None

    def test_best_arm_prevails_on_bernoulli_triple(self):
        models = [Bernoulli(0.9), Bernoulli(0.5), Bernoulli(0.5)]
        sched = RadiusSchedule("bounded", 3, 0.05, b=1.0)
        wins = sum(
            successive_elimination(models, 0.05, sched, seed=23,
                                   stream=r).chosen == 0
            for r in range(100))
        assert wins >= 95

    def test_good_event_protects_best_arm(self):
        # whenever every running mean stays within the radius of its truth,
        # the top arm survives every round and is the final choice
        models = [Bernoulli(0.9), Bernoulli(0.3), Bernoulli(0.3)]
        sched = RadiusSchedule("bounded", 3, 0.2, b=1.0)
        truth = np.array([0.9, 0.3, 0.3])
        checked = 0
        for r in range(30):
            rows = []
            out = successive_elimination(
                models, 0.2, sched, seed=31, stream=r,
                on_round=lambda m, alive, means: rows.append(
                    (m, alive, means)))
            good = all(
                np.all(np.abs(means[alive] - truth[alive])
                       <= radius(sched, m))
                for m, alive, means in rows)
            if good:
                checked += 1
                assert all(alive[0] for _, alive, _ in rows)
                assert out.chosen == 0
        assert checked > 0

    def test_round_leader_survives_to_next_round(self):
        models = [Bernoulli(0.6), Bernoulli(0.5), Bernoulli(0.4)]
        sched = RadiusSchedule("bounded", 3, 0.3, b=1.0)
        rows = []
        successive_elimination(
            models, 0.3, sched, seed=9, pull_cap=2000,
            on_round=lambda m, alive, means: rows.append((alive, means)))
        for (_, means), (alive_next, _) in zip(rows, rows[1:]):
            assert alive_next[np.nanargmax(means)]

    def test_truncated_and_capped_need_heavy_schedule(self):
        sched = RadiusSchedule("bounded", 2, 0.1, b=1.0)
        with pytest.raises(ValueError, match="heavy"):
            successive_elimination([const(0.0), const(1.0)], 0.1, sched,
                                   estimator="truncated")
        with pytest.raises(ValueError, match="estimator"):
            successive_elimination([const(0.0), const(1.0)], 0.1, sched,
                                   estimator="median")

    def test_heavy_estimators_run(self):
        sched = RadiusSchedule("heavy", 2, 0.2, alpha=2.0, K=2.0)
        models = [const(1.0), const(0.0)]
        for estimator in ("plain", "truncated", "capped"):
            out = successive_elimination(models, 0.2, sched,
                                         estimator=estimator, seed=0,
                                         pull_cap=200_000)
            assert out.chosen == 0

    def test_schedule_d_must_match(self):
        sched = RadiusSchedule("bounded", 3, 0.1, b=1.0)
        with pytest.raises(ValueError, match="match"):
            successive_elimination([const(0.0), const(1.0)], 0.1, sched)

    def test_delta_must_match_schedule(self):
        # the radii come from schedule.delta, the thresholds from delta
        sched = RadiusSchedule("heavy", 2, 0.05, alpha=1.5, K=1.0)
        with pytest.raises(ValueError, match="schedule.delta"):
            successive_elimination([const(0.0), const(1.0)], 0.5, sched,
                                   estimator="capped")

    def test_on_round_takes_one_stream(self):
        sched = RadiusSchedule("bounded", 2, 0.1, b=1.0)
        models = [const(1.0), const(0.0)]
        rows = []
        out = successive_elimination(models, 0.1, sched, stream=range(4, 5),
                                     on_round=lambda *row: rows.append(row))
        assert out == [successive_elimination(models, 0.1, sched, stream=4)]
        assert [m for m, _, _ in rows] == list(range(1, out[0].rounds + 1))
        with pytest.raises(ValueError, match="single stream"):
            successive_elimination(models, 0.1, sched, stream=range(2),
                                   on_round=lambda *row: None)

    def test_deterministic_in_seed(self):
        models = [Bernoulli(0.8), Bernoulli(0.4)]
        sched = RadiusSchedule("bounded", 2, 0.2, b=1.0)
        a = successive_elimination(models, 0.2, sched, seed=5, stream=3)
        b = successive_elimination(models, 0.2, sched, seed=5, stream=3)
        assert a == b


class TestExpectedPullsBound:
    def test_huge_gap_needs_one_round(self):
        sched = RadiusSchedule("bounded", 2, 0.1, b=1.0)
        res = expected_pulls_bound([1e9], sched)
        assert res.tau_star == [1]
        assert res.closed_form == [1.0]

    def test_tau_star_is_exact_threshold(self):
        sched = RadiusSchedule("bounded", 2, 0.1, b=1.0)
        res = expected_pulls_bound([4.0, 0.5], sched)
        for tau, gap in zip(res.tau_star, [4.0, 0.5]):
            assert 4.0 * radius(sched, tau) <= gap
            assert tau == 1 or 4.0 * radius(sched, tau - 1) > gap

    def test_tau_star_below_closed_bound(self):
        sched = RadiusSchedule("bounded", 2, 0.01, b=1.0)
        res = expected_pulls_bound([0.5], sched)
        assert res.tau_star[0] <= res.closed_form[0]
        sched = RadiusSchedule("heavy", 2, 0.05, alpha=1.5, K=1.0)
        res = expected_pulls_bound([0.3, 0.7, 1.0], sched)
        for tau, closed in zip(res.tau_star, res.closed_form):
            assert tau <= closed

    def test_dominant_totals(self):
        sched = RadiusSchedule("bounded", 4, 0.05, b=2.0)
        gaps = [0.2, 0.3, 0.5]
        res = expected_pulls_bound(gaps, sched)
        expect = (64.0 * 4.0 * math.log(4 / (C_NORM * 0.05))
                  * sum(1 / g ** 2 for g in gaps))
        assert res.dominant_total == pytest.approx(expect, rel=1e-12)

        sched = RadiusSchedule("heavy", 3, 0.05, alpha=1.5, K=2.0)
        res = expected_pulls_bound(gaps, sched)
        lead = (4.0 * capped_concentration_constant(1.5) * 2.0 ** (2 / 3.0))
        expect = (2.0 * lead ** 3.0 * math.log(6 / (C_NORM * 0.05))
                  * sum((1 / g) ** 3.0 for g in gaps))
        assert res.dominant_total == pytest.approx(expect, rel=1e-12)

    def test_parameter_domain(self):
        sched = RadiusSchedule("bounded", 2, 0.1, b=1.0)
        with pytest.raises(ValueError, match="gaps"):
            expected_pulls_bound([], sched)
        with pytest.raises(ValueError, match="gaps"):
            expected_pulls_bound([0.5, -1.0], sched)


class TestCrossPolicyInvariants:
    def test_budgets_monotone_in_inverse_delta(self):
        models = [const(0.0), const(1.0)]
        mb = MomentBound(PowerSpec(2.0), [1.0, 1.0])
        hoe, cap = [], []
        for delta in (0.2, 0.05, 0.01, 1e-3):
            hoe.append(hoeffding_select(models, 0.1, delta, 1.0,
                                        seed=0).per_arm_samples[0])
            cap.append(capped_select(models, 0.5, delta, mb, 0.5,
                                     seed=0).per_arm_samples[0])
        assert hoe == sorted(hoe) and cap == sorted(cap)

    def test_bounded_radius_asymptotic_shape(self):
        sched = RadiusSchedule("bounded", 2, 0.1, b=1.0)
        ms = np.geomspace(10, 1e6, 40).astype(int)
        shape = radius(sched, ms) * np.sqrt(ms) / np.sqrt(np.log(ms))
        assert shape.max() < 10.0
        assert shape.min() > 0.1

    def test_argmin_policies_are_permutation_equivariant(self):
        # deterministic streams make the replay exact; distinct means keep
        # tie-breaking out of the picture
        values = [0.3, 0.7, 0.5]
        perm = [2, 0, 1]
        base = hoeffding_select([const(v) for v in values], 0.1, 0.1, 1.0,
                                seed=0)
        permuted = hoeffding_select([const(values[p]) for p in perm],
                                    0.1, 0.1, 1.0, seed=0)
        assert perm[permuted.chosen] == base.chosen


class TestSolveLogFixedPoint:
    def test_frozen_values(self):
        t, bound = solve_log_fixed_point(math.e, 1.0)
        assert t == pytest.approx(4.13865195, abs=1e-6)
        assert bound == pytest.approx(4.68452578, abs=1e-6)
        t, bound = solve_log_fixed_point(10.0, 2.0)
        assert t == pytest.approx(15.47896386, abs=1e-6)
        assert bound == pytest.approx(16.59309551, abs=1e-6)

    def test_fixed_point_residual_and_bounds_on_grid(self):
        for a in np.geomspace(math.e, 1e3, 7):
            for b in np.linspace(1.0, 50.0, 5):
                t, bound = solve_log_fixed_point(float(a), float(b))
                assert t == pytest.approx(a + b * math.log(t), rel=1e-9)
                assert t <= bound
                assert t <= (a + b) ** 2

    def test_asymptotic_slack_vanishes(self):
        t, _ = solve_log_fixed_point(1e6, 1.0)
        assert 0.0 < t - 1e6 - math.log(1e6) < 1e-4

    def test_preconditions(self):
        with pytest.raises(ValueError, match="a >= e"):
            solve_log_fixed_point(2.0, 1.0)
        with pytest.raises(ValueError, match="a >= e"):
            solve_log_fixed_point(10.0, 0.5)
