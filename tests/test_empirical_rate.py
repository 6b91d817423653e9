import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordopt.empirical_rate import (RateEstimate, empirical_log_mgf,
                                   estimate_rate_at, estimate_rate_at_zero,
                                   estimate_rates_at_zero)
from ordopt.populations import TwoPoint, two_point_rate_law
from ordopt.selectors import _rng

batches = st.lists(st.floats(-50.0, 50.0), min_size=2, max_size=40)


def test_log_mgf_values():
    assert empirical_log_mgf([3.0, -2.0, 7.0], 0.0) == 0.0
    got = empirical_log_mgf([1.0, -1.0], 1.0)
    assert got == pytest.approx(math.log((math.e + math.exp(-1.0)) / 2.0),
                                abs=1e-14)
    # max-shift keeps huge exponents finite
    assert empirical_log_mgf([1000.0], 1.0) == pytest.approx(1000.0)
    assert math.isfinite(empirical_log_mgf([600.0, -600.0], 1.0))


def test_rate_at_zero_four_point():
    # two values: the two-atom closed form, with no search
    r = estimate_rate_at_zero([1.0, -1.0, -1.0, -1.0])
    assert r.value == pytest.approx(math.log(2.0 / math.sqrt(3.0)),
                                    abs=1e-10)
    # FOC sum x exp(theta x) = 0 gives e^{2 theta} = 3 here
    assert r.theta_star == pytest.approx(0.5 * math.log(3.0), abs=1e-8)
    assert r.status == "interior"
    assert r.iterations == 0
    # a third value, at zero, keeps that FOC and takes the Newton search:
    # the rate is -log((e^theta + 3 e^-theta + 1) / 5) = log(5 / (2 sqrt 3 + 1))
    r = estimate_rate_at_zero([1.0, -1.0, -1.0, -1.0, 0.0])
    assert r.value == pytest.approx(math.log(5.0 / (2.0 * math.sqrt(3.0)
                                                    + 1.0)), abs=1e-10)
    assert r.theta_star == pytest.approx(0.5 * math.log(3.0), abs=1e-8)
    assert r.status == "interior"
    assert r.iterations > 0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_batch_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        estimate_rate_at_zero([1.0, bad, -1.0])


@pytest.mark.parametrize("batch", [[1.0, -1.0], [-3.0, 3.0, 3.0, -3.0],
                                   [-1.0, 3.0, -1.0, -1.0],
                                   [5e-324, -5e-324]])
def test_rate_at_zero_balanced(batch):
    # a batch whose mean is exactly 0 sits at the mean (see RateEstimate)
    assert estimate_rate_at_zero(batch) == RateEstimate(0.0, 0.0, "at-mean",
                                                        0)


def test_rate_at_zero_divergent():
    r = estimate_rate_at_zero([2.0, 3.0, 5.0])
    assert r.value == math.inf
    assert r.status == "diverges-left"
    assert r.theta_star is None
    r = estimate_rate_at_zero([-2.0, -3.0])
    assert r.status == "diverges-right"
    r = estimate_rate_at_zero([4.0, 4.0, 4.0])
    assert r.value == math.inf and r.status == "diverges-left"


def test_rate_at_zero_degenerate_zero():
    r = estimate_rate_at_zero([0.0, 0.0])
    assert r.value == 0.0 and r.status == "at-mean"


@pytest.mark.parametrize("scale", [2.0 ** k for k in range(-600, 601, 75)]
                         + [3.0, 1e-5, 1e-20, 1e160])
def test_rate_at_zero_does_not_depend_on_units(scale):
    # the search runs on the batch scaled to a largest |x| in [1, 2), so a
    # tiny or huge batch neither stops at the theta cap nor overflows L''
    unit = estimate_rate_at_zero([1.0, -1.0, -1.0])
    r = estimate_rate_at_zero([scale, -scale, -scale])
    assert r.status == "interior"
    assert abs(r.value - unit.value) <= 1e-12 * unit.value
    assert r.theta_star * scale == pytest.approx(unit.theta_star, rel=1e-9)


def test_rate_at_zero_mass_at_zero_boundary():
    # minimum of the support is exactly 0: the infimum is -log of its mass
    r = estimate_rate_at_zero([0.0, 0.0, 1.0])
    assert r.value == pytest.approx(math.log(1.5), abs=1e-10)


def test_estimate_rate_at_examples():
    batch = [1.0, -1.0, -1.0, -1.0]
    assert estimate_rate_at(batch, -0.5).value == pytest.approx(
        estimate_rate_at_zero([1.5, -0.5, -0.5, -0.5]).value, abs=1e-12)
    # -0.5 is the batch mean: the optimum is theta = 0, where L_m is 0, and
    # the rate is exactly +0.0 (not -0.0, which printed as "value=-0")
    at_mean = estimate_rate_at(batch, -0.5)
    assert at_mean.value == 0.0 and math.copysign(1.0, at_mean.value) == 1.0
    assert at_mean.theta_star == 0.0
    assert estimate_rate_at(batch, np.mean(batch)).value < 1e-10
    got = estimate_rate_at([0.0, 1.0], 0.9)
    assert got.value == pytest.approx(0.3680642071684971, abs=1e-10)


def test_interior_derivative_residual():
    r = estimate_rate_at_zero([1.0, -1.0, -1.0, -1.0])
    x = np.array([1.0, -1.0, -1.0, -1.0])
    w = np.exp(r.theta_star * x)
    assert abs((x * w).sum() / w.sum()) <= 1e-8


@given(batches, st.floats(-5.0, 5.0))
@settings(max_examples=100, deadline=None)
def test_shift_identity(batch, x):
    arr = np.asarray(batch)
    direct = estimate_rate_at(arr, x)
    shifted = estimate_rate_at_zero(arr - x)
    if direct.value == math.inf:
        assert shifted.value == math.inf
    else:
        assert direct.value == pytest.approx(shifted.value, abs=1e-10)


_away_from_zero = st.floats(-50.0, -0.1) | st.floats(0.1, 50.0)


@given(st.lists(_away_from_zero, max_size=38),
       st.floats(-50.0, -0.1), st.floats(0.1, 50.0),
       st.floats(0.25, 4.0))
@settings(max_examples=60, deadline=None)
def test_scale_covariance(rest, neg, pos, c):
    # mixed-sign batches with magnitudes bounded away from zero keep the
    # optimizer interior, where covariance under scaling is exact
    arr = np.asarray([neg, pos] + rest)
    base = estimate_rate_at_zero(arr)
    scaled = estimate_rate_at_zero(c * arr)
    assert scaled.value == pytest.approx(base.value, abs=1e-10)
    if base.value > 1e-12:
        assert scaled.theta_star == pytest.approx(base.theta_star / c,
                                                  rel=1e-5, abs=1e-9)


def test_subnormal_batch_reports_theta_overflow():
    # the optimizer of a batch of subnormal magnitude lies beyond the float
    # range: the value is that of the unit batch, theta_star is None, and
    # scaling back raises no overflow warning
    unit = estimate_rate_at_zero([1.0, -1.0, -1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tiny = estimate_rate_at_zero([5e-324, -5e-324, -5e-324])
        small = estimate_rate_at_zero([1e-300, -1e-300, -1e-300])
    assert tiny.status == "theta-overflow" and tiny.theta_star is None
    assert tiny.value == unit.value
    assert small.status == "interior"
    assert small.theta_star == pytest.approx(unit.theta_star * 1e300,
                                             rel=1e-12)


def test_subnormal_and_huge_two_valued_rows():
    # the closed form on the scaled row: the value of 1, -1, -1 at every
    # scale, the optimizer overflowing only for the subnormal row
    rows = estimate_rates_at_zero([[5e-324, -5e-324, -5e-324],
                                   [1e160, -1e160, -1e160],
                                   [-1e160, 1e160, -1e160],
                                   [1.0, -1.0, -1.0]])
    tiny, huge, shuffled, unit = rows
    assert tiny.value == pytest.approx(0.05889151783, rel=1e-10)
    assert tiny.status == "theta-overflow" and tiny.theta_star is None
    for r in (huge, shuffled):
        assert r.status == "interior" and r.iterations == 0
        assert r.value == unit.value
        assert r.theta_star * 1e160 == pytest.approx(unit.theta_star,
                                                     rel=1e-14)
    assert unit.value == tiny.value


def test_near_atom_level_takes_the_atom():
    # 0 lies within rounding of the upper atom: the required mass on it
    # rounds to 1, and the rate is -log of that atom's share
    r = estimate_rate_at_zero([1.7953849802193635e-247, -1.0])
    assert r == RateEstimate(math.log(2.0), 1024.0, "interior", 0)


@given(batches, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
@settings(max_examples=60, deadline=None)
def test_empirical_log_mgf_convex(batch, t1, t2):
    mid = empirical_log_mgf(batch, 0.5 * (t1 + t2))
    avg = 0.5 * (empirical_log_mgf(batch, t1)
                 + empirical_log_mgf(batch, t2))
    assert mid <= avg + 1e-12


@pytest.mark.parametrize("stream", range(25))
def test_two_point_oracle_equivalence(stream):
    model = TwoPoint(1.0, 0.55)
    batch = model.draw(_rng(4242, stream, 0), 12)
    k = int((batch > 0).sum())
    oracle = dict((kk, v) for kk, _, v in two_point_rate_law(12, 0.55))
    got = estimate_rate_at_zero(batch)
    if oracle[k] == math.inf:
        assert got.value == math.inf
    else:
        assert got.value == pytest.approx(oracle[k], abs=1e-8)


def test_consistency_two_point():
    # loose stochastic check. At m = 1e5 the estimator's sd is about
    # 0.1/sqrt(m) = 3.2e-4, so the 20% band around I(0) = 0.0050252 is a
    # 3.2-sigma event and 95% of 200 replications clears easily. (At
    # m = 1e4 the sd equals the band half-width, so no correct
    # implementation could hit 95% there.)
    target = 0.005025167926750729
    hits = 0
    model = TwoPoint(1.0, 0.55)
    for rep in range(200):
        batch = model.draw(_rng(777, rep, 0), 10 ** 5)
        est = estimate_rate_at_zero(batch).value
        if abs(est - target) <= 0.2 * target:
            hits += 1
    assert hits >= 190
