"""Exact false-selection laws of selection policies on two-point models.

On TwoPoint(b, p) the pilot rate estimate of the two-phase policy depends
on the pilot batch only through k, its number of +b draws, so P(FS) is a
finite binomial sum and nothing needs to be simulated; so is the P(FS) of
the Hoeffding policy on two arms with values in {0, b}. Each law is
written here with scipy.stats; from the library it takes only what fixes
the rule under test: the rate of each k from two_point_rate_law and the
decision size from _decision_size, and the Hoeffding budget n. The
two-phase law's slope in the pilot count checks two_phase_exponent, the
decay rate it claims.
"""

import math

import numpy as np
import pytest
from scipy.stats import binom

from ordopt.meta_rate import two_phase_exponent
from ordopt.populations import Empirical, TwoPoint, two_point_rate_law
from ordopt.selectors import (_decision_size, fs_estimate,
                              hoeffding_select, replicate, two_phase_select)


def two_phase_fs(p_minus, delta, c1, c2):
    """P(FS) of two_phase_select on TwoPoint(1, p_minus), p_minus > 1/2.

    Phase one draws m = ceil(c1 log(1/delta)) pilots; k of them are +1 with
    probability binom.pmf(k, m, 1 - p_minus). Phase two draws N fresh
    values, J of them +1, and selects "positive", wrongly, when the mean
    2J/N - 1 is >= 0 (a mean of exactly 0 counts as positive).
    """
    m = math.ceil(c1 * math.log(1.0 / delta))
    p_plus = 1.0 - p_minus
    total = 0.0
    for k, _, rate in two_point_rate_law(m, p_minus):
        n, _ = _decision_size(rate, m, c2)
        wrong = binom.sf(math.ceil(n / 2) - 1, n, p_plus)
        total += binom.pmf(k, m, p_plus) * wrong
    return total


# P(FS) / delta at c1 = c2 = 1 on TwoPoint(1, 0.55), each to the digits
# quoted, so the tolerance is half a unit of the last one
TABLE = [(1e-3, 125.3, 0.05), (1e-6, 4.43e4, 50.0), (1e-9, 1.56e7, 5e4),
         (1e-12, 6.76e9, 5e6)]


def test_two_phase_fs_over_delta_grows_without_bound():
    ratios = []
    for delta, quoted, tol in TABLE:
        ratio = two_phase_fs(0.55, delta, 1.0, 1.0) / delta
        assert abs(ratio - quoted) <= tol
        ratios.append(ratio)
    # the promise P(FS) <= delta fails ever more at smaller delta
    assert all(a * 100 < b for a, b in zip(ratios, ratios[1:]))
    assert two_phase_fs(0.55, 1e-3, 1.0, 1.0) == pytest.approx(0.1252935,
                                                               abs=5e-8)


def test_check10_monte_carlo_matches_the_exact_law():
    # acceptance check 10's run (seed 10, 100k replications) against the
    # exact P(FS): the false-selection count must lie in the central 99%
    # binomial interval of the exact law, fixed before the run
    reps, exact = 100_000, two_phase_fs(0.55, 1e-3, 1.0, 1.0)

    def policy(truth, delta, seed, streams):
        return two_phase_select(truth, delta, 1.0, 1.0, seed, stream=streams)

    est = fs_estimate(replicate(policy, TwoPoint(1.0, 0.55), 1e-3, 10,
                                reps))
    count = round(est.fs_rate * reps)
    assert binom.ppf(0.005, reps, exact) <= count
    assert count <= binom.isf(0.005, reps, exact)


# one Richardson step on the slopes of -log P(FS) per pilot over m = 320
# to 640 and 640 to 1280 came within 6.0e-4 of the exponent at p = 0.7
# (the two-point lattice makes its slopes oscillate) and within 2e-4 at
# the others, each p in about 0.2 s
@pytest.mark.parametrize("p_minus", [0.55, 0.7, 0.52, 0.51])
def test_two_phase_slope_is_the_exponent(p_minus):
    # delta = e^-1 and c1 = m draw m pilots; the slope over [m, 2m] is the
    # exponent plus a 1/m term, which the Richardson step removes
    log_fs = [-math.log(two_phase_fs(p_minus, math.exp(-1.0), m, 1.0))
              for m in (320, 640, 1280)]
    slopes = [(b - a) / m for a, b, m in zip(log_fs, log_fs[1:], (320, 640))]
    exponent = two_phase_exponent(TwoPoint(1.0, p_minus), 1.0, 1.0).exponent
    assert abs(2.0 * slopes[1] - slopes[0] - exponent) <= 1e-3



def hoeffding_fs(q, n):
    """P(FS) of hoeffding_select on two arms b Bernoulli(q[i]) in [0, b],
    n draws each, the arm of the smaller mean the best.

    Arm i's sum is b S_i, S_i binomial(n, q[i]), and np.argmin of the means
    picks the first index on a tie: with the best arm first, the choice is
    wrong when S_1 < S_0, and with it second, when S_0 <= S_1.
    """
    k = np.arange(n + 1)
    if q[0] < q[1]:
        return float(np.sum(binom.pmf(k, n, q[0])
                            * binom.cdf(k - 1, n, q[1])))
    return float(np.sum(binom.pmf(k, n, q[1]) * binom.cdf(k, n, q[0])))


# two-point arms in [0, b], k_i of m equally likely points at b and the
# rest at 0, whose means are epsilon = b |k_0 - k_1| / m apart, the
# closest the policy allows: the best first and second, near the largest
# variance (k / m near 1/2) and far from it
HOEFFDING_ARMS = [((9, 11), 20, 1.0), ((11, 9), 20, 1.0), ((1, 2), 10, 2.0),
                  ((9, 8), 10, 0.5)]


@pytest.mark.parametrize("counts, m, b", HOEFFDING_ARMS, ids=str)
@pytest.mark.parametrize("delta", [1e-3, 1e-6, 1e-9, 1e-12])
def test_hoeffding_select_keeps_its_promise(counts, m, b, delta):
    # the moment-restricted policy keeps P(FS) <= delta, exactly and at
    # every delta, where the plug-in policies' ratios grow without bound;
    # its n is the library's, read off one selection's budget
    models = [Empirical(np.array([0.0] * (m - k) + [b] * k)) for k in counts]
    epsilon = b * abs(counts[0] - counts[1]) / m
    n = hoeffding_select(models, epsilon, delta, b, seed=0) \
        .per_arm_samples[0]
    assert n == math.ceil(2.0 * b * b / epsilon ** 2 * math.log(1.0 / delta))
    assert hoeffding_fs([k / m for k in counts], n) <= delta
