"""The batched replication engine against one-replication reference loops.

The references below are the per-replication algorithms written out with
scalar arithmetic only: a fresh Philox generator per (stream, slot), the
scalar expand_bracket path, a safeguarded Newton search written out here
and math.log. The engine steps whole blocks of replications in lock-step
and re-keys one generator, and must reproduce these outcomes and rate
estimates exactly. A bisection route checks the rate estimates
independently, to a tolerance fixed up front. The fixed-budget policies
are checked against one fresh generator and one 1-D mean per (stream,
arm). Successive
elimination is checked against its one-replication loop of 512-round
blocks, which the policy replaces by wider windows on shared tables.
"""

import ast
import dataclasses
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ordopt
from ordopt import selectors
from ordopt._solve import expand_bracket
from ordopt.empirical_rate import (
    RateEstimate,
    estimate_rate_at_zero,
    estimate_rates_at_zero,
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
    two_point_rate_law,
)
from ordopt.selectors import (
    _ELEMENTS,
    MomentBound,
    RadiusSchedule,
    SelectionOutcome,
    _Streams,
    _budget_block,
    _draws,
    capped_select,
    capping_radius,
    fs_estimate,
    hoeffding_select,
    radius,
    replicate,
    sequential_select,
    successive_elimination,
    two_phase_select,
)
from ordopt.truncation import PowerSpec

MODELS = [TwoPoint(1.0, 0.55), Gaussian(-0.2, 1.0),
          Mirrored(ShiftedExponential(0.96, 1.0)),
          Empirical(np.array([-1.0, 0.0, 0.0, 1.5]))]


def _fresh_rng(seed, stream, slot):
    return np.random.Generator(np.random.Philox(key=np.array(
        [seed, stream * 2 ** 20 + slot], dtype=np.uint64)))


def _ref_tilted_mean(x, theta):
    t = theta * x
    w = np.exp(t - t.max())
    return float((x * w).sum() / w.sum())


def _ref_tilted_moments(x, theta):
    """L_m'(theta) and L_m''(theta) = E_w[X^2] - (E_w X)^2."""
    t = theta * x
    w = np.exp(t - t.max())
    total = w.sum()
    xw = x * w
    mean = xw.sum() / total
    return float(mean), float((x * xw).sum() / total - mean * mean)


def _ref_log_mgf(x, theta):
    t = theta * x
    hi = t.max()
    return float(hi + math.log(np.exp(t - hi).sum() / x.size))


def _ref_rate(x, root=None):
    """I_m(0) of one batch with scalar searches. root(deriv, lo, hi, dlo,
    dhi, tol) gives (theta*, iterations) inside the bracket; by default a
    Newton search from theta = 0 with L_m'' as the slope, each step kept
    inside the bracket (rtsafe)."""
    x = np.asarray(x, dtype=float)
    if np.all(x == x[0]):
        if x[0] == 0.0:
            return RateEstimate(0.0, 0.0, "at-mean", 0)
        status = "diverges-left" if x[0] > 0 else "diverges-right"
        return RateEstimate(math.inf, None, status, 0)
    if np.all(x > 0):
        return RateEstimate(math.inf, None, "diverges-left", 0)
    if np.all(x < 0):
        return RateEstimate(math.inf, None, "diverges-right", 0)
    # the search runs on x scaled by the power of two that puts its largest
    # |x| in [1, 2), and theta* scales back
    shift = 1 - math.frexp(float(np.abs(x).max()))[1]
    x = np.ldexp(x, shift)

    def deriv(theta):
        return _ref_tilted_mean(x, theta)

    lo, dlo = expand_bracket(deriv, -1.0, -math.inf, 1, cap=2.0 ** 10)
    hi, dhi = expand_bracket(deriv, 1.0, math.inf, -1, cap=2.0 ** 10)
    if dlo > 0:
        theta, it = lo, 0
    elif dhi < 0:
        theta, it = hi, 0
    else:
        tol = 1e-10 * max(1.0, float(np.abs(x).mean()))
        theta, it = (root or _ref_newton)(x, lo, hi, dlo, dhi, tol)
    lm = _ref_log_mgf(x, theta)
    value = -lm if lm < 0 else 0.0
    try:
        return RateEstimate(value, math.ldexp(theta, shift), "interior", it)
    except OverflowError:
        return RateEstimate(value, None, "theta-overflow", it)


def _ref_closed(x):
    """I_m(0) of a batch that holds exactly two values, one <= 0 and one
    >= 0, once scaled as in _ref_rate: the two-atom law with masses
    (m - k)/m and k/m, k the count at the upper value, at mean 0, written
    out with floats. None for any other batch."""
    x = np.asarray(x, dtype=float)
    shift = 1 - math.frexp(float(np.abs(x).max()))[1]
    x = np.ldexp(x, shift)
    lo, hi = float(x.min()), float(x.max())
    m, k = x.size, int((x == hi).sum())
    if not lo <= 0.0 <= hi or lo == hi or k + int((x == lo).sum()) != m:
        return None
    p_lo, p_hi = (m - k) / m, k / m
    s = -lo / (hi - lo)
    status = "interior"
    if s == 0.0:
        value, theta = -math.log(p_lo), -2.0 ** 10
    elif s == 1.0:
        value, theta = -math.log(p_hi), 2.0 ** 10
    else:
        up, down = math.log(s / p_hi), math.log((1.0 - s) / p_lo)
        value = s * up + (1.0 - s) * down
        theta = (up - down) / (hi - lo)
        if value <= 1e-15:
            status = "at-mean"
        value = max(value, 0.0)
    try:
        return RateEstimate(value, math.ldexp(theta, shift), status, 0)
    except OverflowError:
        return RateEstimate(value, None, "theta-overflow", 0)


def _ref_newton(x, lo, hi, dlo, dhi, tol):
    if dlo == 0.0:
        return lo, 0
    if dhi == 0.0:
        return hi, 0
    theta = 0.0
    for it in range(1, 200):
        d1, d2 = _ref_tilted_moments(x, theta)
        if d1 > 0:
            hi = theta
        else:
            lo = theta
        step = d1 / d2 if d2 != 0.0 else math.nan
        if (abs(step) <= 1e-12 * max(1.0, abs(theta))
                and abs(d1) <= tol) or it == 199:
            return theta, it
        theta -= step
        if not lo < theta < hi:
            theta = 0.5 * (lo + hi)


def _ref_bisect(x, lo, hi, dlo, dhi, tol):
    # plain bisection of the increasing tilted mean, independent of _solve
    if dlo == 0.0:
        return lo, 0
    if dhi == 0.0:
        return hi, 0
    for it in range(1, 200):
        mid = 0.5 * (lo + hi)
        d1 = _ref_tilted_mean(x, mid)
        if d1 > 0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-12 * max(1.0, abs(mid)) and abs(d1) <= tol:
            break
    return 0.5 * (lo + hi), it


def _ref_sign(mean, total, rounds, termination, truth):
    sign = "negative" if mean < 0 else "positive"
    fs = None if truth == 0 else sign != (
        "negative" if truth < 0 else "positive")
    return SelectionOutcome(0, [total], rounds, termination, sign, fs)


def _ref_two_phase(model, delta, c1, c2, seed, stream):
    m = math.ceil(c1 * math.log(1.0 / delta))
    rate = _ref_rate(model.draw(_fresh_rng(seed, stream, 0), m)).value
    termination = "budget-exhausted"
    if math.isinf(rate):
        n2 = m
    elif rate > 0 and c2 * m / rate <= 2 ** 20:
        n2 = math.ceil(c2 * m / rate)
    else:
        n2, termination = 2 ** 20, "sample-cap"
    decision = model.draw(_fresh_rng(seed, stream, 1), n2)
    return _ref_sign(float(np.mean(decision)), m + n2, 2, termination,
                     model.mean())


def _ref_sequential(model, delta, c1, round_cap, seed, stream):
    log_inv = math.log(1.0 / delta)
    values = np.empty(0)
    for k in range(1, round_cap + 1):
        m_k = max(math.ceil(k * c1 * log_inv), 1)
        if m_k > len(values):
            fresh = model.draw(_fresh_rng(seed, stream, k - 1),
                               m_k - len(values))
            values = np.concatenate([values, fresh])
        if m_k * _ref_rate(values).value >= log_inv:
            return _ref_sign(float(values.mean()), m_k, k, "confidence-met",
                             model.mean())
    return _ref_sign(float(values.mean()), len(values), round_cap,
                     "round-cap", model.mean())


@settings(max_examples=40, deadline=None)
@given(model=st.sampled_from(MODELS), seed=st.integers(0, 2 ** 63),
       start=st.integers(0, 2 ** 30), count=st.integers(1, 9),
       m=st.integers(1, 60), scale=st.sampled_from([1.0, 30.0, 1e3]))
def test_rate_rows_match_one_batch_reference(model, seed, start, count, m,
                                             scale):
    # rows of different scales have different residual tolerances
    scales = scale ** (np.arange(count) % 2)
    batches = np.stack([model.draw(_fresh_rng(seed, s, 0), m)
                        for s in range(start, start + count)])
    batches *= scales[::-1, None]
    rows = estimate_rates_at_zero(batches)
    for x, est in zip(batches, rows):
        # value, theta*, status and iterations alike
        assert estimate_rate_at_zero(x) == est
        closed = _ref_closed(x)
        if closed is None:
            assert est == _ref_rate(x)
        else:
            assert est == closed
            _assert_close(est.value, _ref_rate(x).value)
        assert type(est.value) is float
        assert est.theta_star is None or type(est.theta_star) is float
        assert type(est.iterations) is int


def _assert_close(value, ref):
    """The closed form against another route to the same rate: fixed
    tolerances, 1e-10 relative with 1e-15 absolute for rates at 0 (a
    closed form within 1.4e-11 of the Newton route was measured on 8000
    two-point rows of m = 14 to 350)."""
    if math.isinf(ref):
        assert value == ref
    else:
        assert abs(value - ref) <= 1e-10 * ref + 1e-15


# a bisection on L_m' is an independent route to the same rates; the
# tolerance is fixed, not fitted: |dI| <= 1e-14 max(1, I)
BISECTION_MODELS = MODELS + [Bernoulli(0.3), Mirrored(Pareto(3.0, 0.6))]


@pytest.mark.parametrize("model", BISECTION_MODELS, ids=repr)
def test_newton_rates_match_bisection(model):
    for m in (2, 7, 30, 120, 350):
        for scale in (1.0, 30.0, 1e3):
            batches = scale * np.stack([
                model.draw(_fresh_rng(2024, s, m), m) for s in range(12)])
            for x, est in zip(batches, estimate_rates_at_zero(batches)):
                ref = _ref_rate(x, _ref_bisect)
                closed = _ref_closed(x)
                if closed is not None:
                    # the closed form reports a mean at zero as at-mean,
                    # and an optimizer at infinity (a value at zero) at the
                    # cap, wherever the walk stopped
                    assert est == closed
                    ref = dataclasses.replace(ref, status=closed.status)
                    if 0.0 in x:
                        ref = dataclasses.replace(
                            ref, theta_star=closed.theta_star)
                assert est.status == ref.status
                if math.isinf(ref.value):
                    assert est.value == ref.value
                    continue
                assert abs(est.value - ref.value) <= 1e-14 * max(1.0,
                                                                 ref.value)
                assert abs(est.theta_star - ref.theta_star) <= 1e-10 * max(
                    1.0, abs(ref.theta_star))


def test_check10_pilots_take_no_newton_steps():
    # the pilot block of acceptance check 10 (m = ceil(log 1000) = 7):
    # every row is two-valued and takes the closed form, with no step
    model = TwoPoint(1.0, 0.55)
    pilots = np.stack([model.draw(_fresh_rng(10, s, 0), 7)
                       for s in range(250)])
    rows = estimate_rates_at_zero(pilots)
    assert sum(est.status == "interior" for est in rows) > 200
    assert all(est.iterations == 0 for est in rows)
    assert rows == [_ref_closed(x) or _ref_rate(x) for x in pilots]


def test_gaussian_pilots_take_few_newton_steps():
    # 7-value Gaussian pilots at check 10's size keep the Newton search,
    # and take at most 9 steps (measured when the bound was set; a
    # bisection to the same tolerance takes about 41)
    model = Gaussian(-0.2, 1.0)
    pilots = np.stack([model.draw(_fresh_rng(10, s, 0), 7)
                       for s in range(250)])
    steps = [est.iterations for est in estimate_rates_at_zero(pilots)
             if est.status == "interior"]
    assert len(steps) > 200
    assert 0 < min(steps) and max(steps) <= 9


def _pm_rows(m):
    """Every +-1 batch of size m, one row per bit pattern."""
    codes = np.arange(2 ** m)[:, None] >> np.arange(m) & 1
    return np.where(codes == 1, 1.0, -1.0)


@pytest.mark.parametrize("c2", [0.5, 1.0, 3.0])
def test_closed_form_keeps_every_two_phase_decision_size(c2):
    # all 128 +-1 pilots of m = 7: the decision size N = ceil(c2 m / I)
    # is the Newton reference's, and the rate two_point_rate_law's
    law = {k: v for k, _, v in two_point_rate_law(7, 0.5)}
    rows = _pm_rows(7)
    for x, est in zip(rows, estimate_rates_at_zero(rows)):
        ref = _ref_rate(x)
        assert (selectors._decision_size(est.value, 7, c2)
                == selectors._decision_size(ref.value, 7, c2))
        _assert_close(est.value, ref.value)
        _assert_close(est.value, law[int((x > 0).sum())])


def test_closed_form_keeps_every_sequential_decision():
    # every +-1 count at every round of the sequential schedule at
    # c1 = 1, delta = 1e-3, 50 rounds (m_k from 7 to 346): the stop rule
    # m_k I >= log 1000 decides as on two_point_rate_law's rate
    log_inv = math.log(1000.0)
    for k in range(1, 51):
        m = math.ceil(k * log_inv)
        rows = np.where(np.arange(m)[None, :] < np.arange(m + 1)[:, None],
                        1.0, -1.0)
        law = two_point_rate_law(m, 0.5)
        for est, (_, _, value) in zip(estimate_rates_at_zero(rows), law):
            _assert_close(est.value, value)
            assert (m * est.value >= log_inv) == (m * value >= log_inv)


@pytest.mark.parametrize("atoms", [(-1.0, 3.0), (-4.0, 4.0), (-1.0, 1.0)],
                         ids=str)
@pytest.mark.parametrize("m", [7, 30, 120, 350])
def test_two_valued_rows_match_newton(atoms, m):
    rng = np.random.default_rng(m)
    rows = rng.choice(np.array(atoms), size=(60, m))
    for x, est in zip(rows, estimate_rates_at_zero(rows)):
        ref = _ref_rate(x)
        assert est == (_ref_closed(x) or ref)
        _assert_close(est.value, ref.value)
        if est.status == "interior":
            assert est.theta_star == pytest.approx(ref.theta_star, rel=1e-8)
        elif est.status == "at-mean":
            assert x.mean() == 0.0 and abs(ref.theta_star) <= 1e-8


@pytest.mark.parametrize("model", [Bernoulli(0.3), Bernoulli(0.8),
                                   Empirical(np.array([0.0, 1.5])),
                                   Empirical(np.array([-1.9, 0.0]))],
                         ids=repr)
def test_zero_atom_rows_keep_the_search_value(model):
    # a value exactly at 0: -log of its share, bit for bit the value the
    # bracket walk reaches, with the optimizer at the cap
    for m in (2, 7, 50, 350):
        for scale in (1.0, 30.0, 1e3, 1e-300, 5e-324):
            rows = scale * np.stack([model.draw(_fresh_rng(7, s, m), m)
                                     for s in range(12)])
            for x, est in zip(rows, estimate_rates_at_zero(rows)):
                ref = _ref_rate(x)
                assert est.value == ref.value
                assert est.iterations == ref.iterations == 0
                if math.isinf(ref.value) or ref.status == "at-mean":
                    assert est == ref
                    continue
                cap = 2.0 ** 10 if x.max() == 0.0 else -2.0 ** 10
                shift = 1 - math.frexp(float(np.abs(x).max()))[1]
                if shift < 1014:
                    assert est == RateEstimate(ref.value,
                                               math.ldexp(cap, shift),
                                               "interior", 0)
                else:
                    assert est.status == "theta-overflow"


@settings(max_examples=25, deadline=None)
@given(model=st.sampled_from(MODELS), seed=st.integers(0, 2 ** 63),
       start=st.integers(0, 2 ** 30), count=st.integers(1, 8),
       delta=st.sampled_from([0.1, 1e-2, 1e-3]),
       c1=st.sampled_from([0.5, 1.0, 2.0]), c2=st.sampled_from([0.5, 1.0]))
def test_two_phase_block_matches_reference(model, seed, start, count, delta,
                                           c1, c2):
    streams = range(start, start + count)
    block = two_phase_select(model, delta, c1, c2, seed, stream=streams)
    assert block == [_ref_two_phase(model, delta, c1, c2, seed, s)
                     for s in streams]
    assert two_phase_select(model, delta, c1, c2, seed,
                            stream=start) == block[0]


@settings(max_examples=15, deadline=None)
@given(model=st.sampled_from(MODELS), seed=st.integers(0, 2 ** 63),
       start=st.integers(0, 2 ** 30), count=st.integers(1, 6),
       c1=st.sampled_from([0.5, 1.0]), round_cap=st.integers(1, 12))
def test_sequential_block_matches_reference(model, seed, start, count, c1,
                                            round_cap):
    streams = range(start, start + count)
    block = sequential_select(model, 0.05, (c1,), round_cap, seed,
                              stream=streams)
    assert block == [_ref_sequential(model, 0.05, c1, round_cap, seed, s)
                     for s in streams]


# one model of every class; TwoPoint with an integer b draws int64
DRAW_MODELS = [TwoPoint(1.0, 0.55), TwoPoint(1, 0.55), Bernoulli(0.3),
               Pareto(3.0, 0.6), Gaussian(-0.2, 1.0),
               ShiftedExponential(0.96, 1.0), GaussianMixture(0.4, 1.5),
               Empirical(np.array([-1.0, 0.0, 0.0, 1.5])),
               Mirrored(Pareto(3.0, 0.6))]


@pytest.mark.parametrize("n", [1, 7, 8, 128, 129, 5000])
@pytest.mark.parametrize("model", DRAW_MODELS, ids=repr)
def test_draws_match_per_view_draws(model, n):
    assert hasattr(model, "from_uniform") == isinstance(
        model, (TwoPoint, Bernoulli, Pareto))
    # rows on three streams of one re-keyed generator, as the sign
    # procedures and the fixed-budget block fill them
    keys = _Streams(5)
    out = np.empty((3, n))
    got = _draws(model, ((keys(s, 2), row) for s, row in zip(range(3), out)),
                 out)
    ref = np.stack([model.draw(_fresh_rng(5, s, 2), n) for s in range(3)])
    assert got.dtype == np.float64 and got.shape == (3, n)
    assert got.tobytes() == ref.astype(float).tobytes()
    # uneven chunks of one stream in one flat buffer, some empty when n is
    # small, as elimination fills an arm's row
    cuts = [0, n // 3, n // 2, n]
    out = np.empty(n)
    g, ref_g = keys(9, 0), _fresh_rng(5, 9, 0)
    got = _draws(model, ((g, out[a:b]) for a, b in zip(cuts, cuts[1:])),
                 out)
    ref = np.concatenate([model.draw(ref_g, b - a)
                          for a, b in zip(cuts, cuts[1:])])
    assert got.dtype == np.float64 and got.shape == (n,)
    assert got.tobytes() == ref.astype(float).tobytes()


class _Balanced:
    """+1, -1, +1, ... from the start of every draw; mean reported 0. A
    draw holds no array but its result, so a peak counts the policy's."""

    def draw(self, rng, n):
        out = np.ones(n)
        out[1::2] = -1.0
        return out

    def mean(self):
        return 0.0


def test_two_phase_decision_buffers_stay_bounded():
    # balanced pilots of m = ceil(1.5 log 10) = 4 have rate 0, so every
    # decision batch is the 2^20 cap; a block of them must not hold all
    # its batches at once
    model = _Balanced()
    streams = range(64)
    tracemalloc.start()
    try:
        block = two_phase_select(model, 0.1, 1.5, 1.0, 3, stream=streams)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(o.termination == "sample-cap" for o in block)
    assert block == [two_phase_select(model, 0.1, 1.5, 1.0, 3, stream=s)
                     for s in streams]
    assert peak < 3 * 2 ** 20 * 8, peak


def test_two_phase_pilots_stay_bounded():
    # pilots of m = 2^16: the 16 rows alone would be 8 MiB, and the rate
    # estimate on all of them at once peaked at 56 MiB; a block estimates
    # them one row group at a time
    model, c1 = TwoPoint(1.0, 0.55), 2 ** 16 / math.log(10.0)
    streams = range(16)
    tracemalloc.start()
    try:
        block = two_phase_select(model, 0.1, c1, 1e-3, 3, stream=streams)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(o.termination == "budget-exhausted" for o in block)
    assert block == [two_phase_select(model, 0.1, c1, 1e-3, 3, stream=s)
                     for s in streams]
    assert peak <= 8 * 2 ** 20, peak


def test_sequential_rounds_stay_bounded():
    # balanced draws of m_1 = 2^14 have rate 0 at every round, so no row
    # stops before the round cap: at m_4 = 4 * 2^14 the 64 rows alone
    # would be 32 MiB, and a block must not hold them all at once
    model, c1 = _Balanced(), 2 ** 14 / math.log(10.0)
    streams = range(64)
    tracemalloc.start()
    try:
        block = sequential_select(model, 0.1, (c1,), 4, 3, stream=streams)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(o.termination == "round-cap"
               and o.per_arm_samples == [4 * 2 ** 14] for o in block)
    assert block == [sequential_select(model, 0.1, (c1,), 4, 3, stream=s)
                     for s in streams]
    assert peak <= 16 * 2 ** 20, peak


def test_sequential_row_groups_match_the_reference():
    # m_k = k * 2^13: groups of 8, 4 and then 2 rows, with rows stopping
    # in each round and some running to the cap
    model, delta = TwoPoint(1.0, 0.52), math.exp(-10.0)
    c1 = 2 ** 13 / 10.0
    block = sequential_select(model, delta, (c1,), 3, 11, stream=range(20))
    assert block == [_ref_sequential(model, delta, c1, 3, 11, s)
                     for s in range(20)]
    assert {(o.rounds, o.termination) for o in block} == {
        (1, "confidence-met"), (2, "confidence-met"), (3, "confidence-met"),
        (3, "round-cap")}


def _ref_elimination(models, delta, schedule, estimator, seed, pull_cap,
                     stream, rows=None):
    """One replication of successive elimination in 512-round blocks, each
    arm drawing chunks of max(256, drawn so far) from its own generator.
    rows, when given, collects each round's (m, alive, running means)."""
    d = len(models)
    rngs = [_fresh_rng(seed, stream, a) for a in range(d)]
    buffers = [np.empty(0)] * d

    def transformed(a, upto):
        while len(buffers[a]) < upto:
            lo = len(buffers[a])
            grow = max(256, lo)
            fresh = np.asarray(models[a].draw(rngs[a], grow), dtype=float)
            if estimator != "plain":
                j = np.arange(lo + 1, lo + grow + 1, dtype=float)
                bj = (schedule.K * j / math.log(1.0 / delta)) \
                    ** (1.0 / schedule.alpha)
                if estimator == "truncated":
                    fresh = np.where(np.abs(fresh) <= bj, fresh, 0.0)
                else:
                    fresh = np.sign(fresh) * np.minimum(np.abs(fresh), bj)
            buffers[a] = np.concatenate([buffers[a], fresh])
        return buffers[a]

    alive = np.ones(d, dtype=bool)
    sums = np.zeros(d)
    pulls = np.zeros(d, dtype=int)
    m = 0
    while alive.sum() > 1 and m < pull_cap:
        nb = min(512, pull_cap - m)
        idx = np.flatnonzero(alive)
        mat = np.stack([transformed(a, m + nb)[m:m + nb] for a in idx])
        cums = sums[idx, None] + np.cumsum(mat, axis=1)
        ms = np.arange(m + 1, m + nb + 1)
        means = cums / ms
        trig = (means.max(axis=0) - means) >= 2.0 * radius(schedule, ms)
        hit = trig.any(axis=0)
        j = int(np.argmax(hit)) if hit.any() else nb - 1
        for j2 in range(j + 1) if rows is not None else ():
            full = np.full(d, np.nan)
            full[idx] = means[:, j2]
            rows.append((int(ms[j2]), alive.copy(), full))
        m = int(ms[j])
        sums[idx] = cums[:, j]
        pulls[idx] = m
        if hit.any():
            alive[idx[trig[:, j]]] = False
    live = np.flatnonzero(alive)
    chosen = int(live[np.argmax(sums[live] / pulls[live])])
    true_means = [mo.mean() for mo in models]
    best = [a for a in range(d) if true_means[a] == max(true_means)]
    return SelectionOutcome(
        chosen, [int(p) for p in pulls], m,
        "confidence-met" if alive.sum() == 1 else "round-cap", None,
        None if len(best) > 1 else chosen != best[0])


ARMS = {
    "bernoulli": [Bernoulli(0.8), Bernoulli(0.5), Bernoulli(0.45)],
    "mixture": [GaussianMixture(0.4, 1.5), Gaussian(0.3, 1.0)],
    "pareto": [Pareto(3.0, 0.6), Pareto(3.0, 0.4), Pareto(2.5, 0.2)],
    "close": [Bernoulli(0.55), Bernoulli(0.5)],
}


@settings(max_examples=40, deadline=None)
@given(arms=st.sampled_from(sorted(ARMS)),
       rule=st.sampled_from([("bounded", "plain"), ("heavy", "plain"),
                             ("heavy", "truncated"), ("heavy", "capped")]),
       delta=st.sampled_from([0.05, 0.3]), seed=st.integers(0, 2 ** 63),
       start=st.integers(0, 2 ** 44 - 5), count=st.sampled_from([0, 1, 2, 5]),
       pull_cap=st.sampled_from([1, 300, 512, 700, 1024, 1536, 2600, 9000]))
@example(arms="bernoulli", rule=("bounded", "plain"), delta=0.3, seed=3,
         start=2 ** 44 - 5, count=5, pull_cap=9000)  # keys up to 2^64 - 1
def test_elimination_block_matches_reference(arms, rule, delta, seed, start,
                                             count, pull_cap):
    models = ARMS[arms]
    kind, estimator = rule
    schedule = (RadiusSchedule("bounded", len(models), delta, b=2.0)
                if kind == "bounded" else
                RadiusSchedule("heavy", len(models), delta, alpha=1.5, K=0.5))
    streams = range(start, start + count)
    block = successive_elimination(models, delta, schedule, estimator, seed,
                                   pull_cap, stream=streams)
    assert block == [_ref_elimination(models, delta, schedule, estimator,
                                      seed, pull_cap, s) for s in streams]
    if count:
        # the running means of every round, not only the outcome: they
        # show any change in the order the sums are added in
        rows, ref_rows = [], []
        one = successive_elimination(
            models, delta, schedule, estimator, seed, pull_cap, stream=start,
            on_round=lambda *row: rows.append(row))
        _ref_elimination(models, delta, schedule, estimator, seed, pull_cap,
                         start, ref_rows)
        assert one == block[0]
        assert len(rows) == len(ref_rows)
        for (m, alive, means), (ref_m, ref_alive, ref_means) in zip(
                rows, ref_rows):
            assert m == ref_m
            assert np.array_equal(alive, ref_alive)
            assert np.array_equal(means, ref_means, equal_nan=True)


class _Logged:
    """A model whose draws append (stream, arm, n) to a log, read off the
    Philox key stream * 2^20 + slot of the generator drawn from."""

    def __init__(self, model, log):
        self.model, self.log = model, log

    def mean(self):
        return self.model.mean()

    def draw(self, rng, n):
        key = int(rng.bit_generator.state["state"]["key"][1])
        self.log.append((key >> 20, key % 2 ** 20, n))
        return self.model.draw(rng, n)


def _elimination_draws(models, schedule, estimator, seed, pull_cap, streams):
    """The outcomes and draw logs of the policy on a block of streams and
    of the reference, one stream at a time."""
    log, ref_log = [], []
    block = successive_elimination(
        [_Logged(mo, log) for mo in models], schedule.delta, schedule,
        estimator, seed, pull_cap, stream=streams)
    ref = [_ref_elimination([_Logged(mo, ref_log) for mo in models],
                            schedule.delta, schedule, estimator, seed,
                            pull_cap, s) for s in streams]
    return block, ref, log, ref_log


@pytest.mark.parametrize("arms,rule", [
    ("pareto", ("heavy", "capped")), ("pareto", ("heavy", "truncated")),
    ("bernoulli", ("bounded", "plain"))])
def test_elimination_draws_match_reference(arms, rule):
    # every draw call, not only the outcomes: the same (stream, arm, n)
    # sequence pins the chunk rule max(256, drawn so far) of each arm
    kind, estimator = rule
    models = ARMS[arms]
    schedule = (RadiusSchedule("bounded", len(models), 0.3, b=2.0)
                if kind == "bounded" else
                RadiusSchedule("heavy", len(models), 0.3, alpha=1.5, K=0.5))
    block, ref, log, ref_log = _elimination_draws(
        models, schedule, estimator, 11, 9000, range(2 ** 40, 2 ** 40 + 6))
    assert block == ref
    assert log == ref_log


def test_elimination_block_reuses_its_buffer_over_many_streams():
    # 24 streams share one draw buffer: some replication draws past every
    # earlier one and regrows it mid-block, and a shorter one follows a
    # longer one over columns an earlier replication left behind
    models = ARMS["pareto"]
    # K = 0.07 ends the replications on either side of 1024 pulls, the
    # edge of a chunk, so they draw 1024 or 2048 pulls of an arm
    schedule = RadiusSchedule("heavy", len(models), 0.05, alpha=1.5, K=0.07)
    streams = range(5, 29)
    block, ref, log, ref_log = _elimination_draws(
        models, schedule, "capped", 7, 9000, streams)
    assert block == ref
    assert log == ref_log
    drawn = [max(sum(n for s2, a2, n in log if (s2, a2) == (s, a))
                 for a in range(len(models))) for s in streams]
    assert any(drawn[i] > max(drawn[:i]) for i in range(1, len(drawn)))
    assert any(drawn[i] < max(drawn[:i]) for i in range(1, len(drawn)))


def _spy_draws(monkeypatch):
    """A list that collects (model, sizes of its views) of every _draws
    call the policies make."""
    calls = []

    def draws(model, fills, out):
        sizes = []

        def seen():
            for g, view in fills:
                sizes.append(view.size)
                yield g, view
        got = _draws(model, seen(), out)
        calls.append((model, sizes))
        return got

    monkeypatch.setattr(selectors, "_draws", draws)
    return calls


@pytest.mark.parametrize("models,schedule,estimator,seed,reps,pulls,chunked", [
    # checks 08 and 09 at the benchmark's replication counts, with the
    # uniforms the chunk rule max(256, drawn so far) draws for them
    ([Bernoulli(0.9), Bernoulli(0.5), Bernoulli(0.5)],
     RadiusSchedule("bounded", 3, 0.05, b=1.0), "plain", 8, 320, 890_846,
     1_637_376),
    ([Pareto(3.0, 0.6), Pareto(3.0, 4.0 / 15.0)],
     RadiusSchedule("heavy", 2, 0.05, alpha=1.5, K=1.0), "capped", 9, 20,
     1_306_894, 1_638_400)], ids=["check08", "check09"])
def test_exact_arms_draw_the_windows_they_scan(monkeypatch, models, schedule,
                                               estimator, seed, reps, pulls,
                                               chunked):
    calls = _spy_draws(monkeypatch)
    block = successive_elimination(models, 0.05, schedule, estimator, seed,
                                   stream=range(reps))
    assert sum(sum(o.per_arm_samples) for o in block) == pulls
    # one random(out=) per arm and step, over the rounds not yet drawn
    assert all(len(sizes) == 1 for _, sizes in calls)
    drawn = sum(sum(sizes) for _, sizes in calls)
    assert pulls <= drawn < chunked


@pytest.mark.parametrize("rule", [("bounded", "plain"), ("heavy", "capped")])
def test_a_draw_only_arm_keeps_the_chunk_rule(monkeypatch, rule):
    # Gaussian has draw only, so the Pareto arm beside it draws in chunks
    # of max(256, drawn so far) too, as the reference draws every arm
    models = [Pareto(3.0, 0.6), Gaussian(0.3, 1.0)]
    kind, estimator = rule
    schedule = (RadiusSchedule("bounded", 2, 0.05, b=2.0) if kind == "bounded"
                else RadiusSchedule("heavy", 2, 0.05, alpha=1.5, K=0.5))
    streams = range(3, 9)
    calls = _spy_draws(monkeypatch)
    block = successive_elimination(models, 0.05, schedule, estimator, 4,
                                   stream=streams)
    assert block == [_ref_elimination(models, 0.05, schedule, estimator, 4,
                                      1_000_000, s) for s in streams]
    assert {type(model) for model, _ in calls} == {Pareto, Gaussian}
    sizes = [n for _, views in calls for n in views]
    assert all(n >= 256 and n & (n - 1) == 0 for n in sizes)
    assert any(len(views) > 1 for model, views in calls
               if isinstance(model, Pareto))


def _ref_budget(models, n, seed, stream, cap=None):
    """One replication of a fixed-budget minimum selection: a fresh
    generator and one 1-D mean per arm."""
    means = []
    for a, model in enumerate(models):
        x = model.draw(_fresh_rng(seed, stream, a), n)
        means.append(float(np.mean(x if cap is None else np.minimum(x, cap))))
    chosen = int(np.argmin(means))
    true_means = [mo.mean() for mo in models]
    best = [a for a in range(len(models)) if true_means[a] == min(true_means)]
    return SelectionOutcome(chosen, [n] * len(models), 1, "budget-exhausted",
                            None, None if len(best) > 1 else chosen != best[0])


BUDGET_ARMS = dict(ARMS, tied=[TwoPoint(1, 0.55), TwoPoint(1, 0.55)])


# n = 8 and 128 are the edges of numpy's pairwise summation (unrolled by
# 8, blocks of 128); 5000 splits 20 streams at _ELEMENTS // 5000 = 13 rows
@pytest.mark.parametrize("n", [1, 7, 8, 9, 127, 128, 129, 450, 5000])
@pytest.mark.parametrize("arms", sorted(BUDGET_ARMS))
def test_budget_block_matches_reference(arms, n):
    models = BUDGET_ARMS[arms]
    streams = range(2 ** 40, 2 ** 40 + 20)
    for cap in (None, 1.25):
        block = _budget_block(models, n, 9, cap)(streams)
        assert block == [_ref_budget(models, n, 9, s, cap) for s in streams]
        assert all(type(o.chosen) is int and type(o.false_selection)
                   in (bool, type(None)) for o in block)


def test_budget_block_holds_one_row_past_the_element_bound():
    models = ARMS["mixture"]
    n = _ELEMENTS + 3
    block = _budget_block(models, n, 5, 0.5)(range(2))
    assert block == [_ref_budget(models, n, 5, s, 0.5) for s in range(2)]


def test_fixed_budget_policies_run_the_block():
    models = ARMS["pareto"]
    streams = range(7, 30)
    block = hoeffding_select(models, 0.4, 0.1, 1.0, 3, stream=streams)
    n = block[0].per_arm_samples[0]
    assert n == math.ceil(2.0 / 0.4 ** 2 * math.log(2 / 0.1))
    assert block == [_ref_budget(models, n, 3, s) for s in streams]
    assert hoeffding_select(models, 0.4, 0.1, 1.0, 3, stream=7) == block[0]
    bounds = MomentBound(PowerSpec(2.0), [1.0, 1.0, 1.0])
    block = capped_select(models, 0.3, 0.1, bounds, 0.5, 3, stream=streams)
    u = capping_radius(bounds, 0.15)
    n = block[0].per_arm_samples[0]
    assert block == [_ref_budget(models, n, 3, s, u) for s in streams]
    assert capped_select(models, 0.3, 0.1, bounds, 0.5, 3,
                         stream=7) == block[0]


def test_one_stream_calls_match_the_engine_call():
    model = TwoPoint(1.0, 0.6)

    def policy(truth, delta, seed, streams):
        return two_phase_select(truth, delta, 1.0, 1.0, seed, stream=streams)

    def one_by_one(truth, delta, seed, streams):
        return [two_phase_select(truth, delta, 1.0, 1.0, seed, stream=s)
                for s in streams]

    reps = 259
    outcomes = replicate(policy, model, 0.05, 4, reps)
    assert outcomes == [_ref_two_phase(model, 0.05, 1.0, 1.0, 4, r)
                        for r in range(reps)]
    assert (fs_estimate(replicate(one_by_one, model, 0.05, 4, reps))
            == fs_estimate(outcomes))


def test_replicate_makes_one_policy_call():
    seen = []

    def policy(truth, delta, seed, streams):
        seen.append(streams)
        return two_phase_select(truth, delta, 1.0, 1.0, seed, stream=streams)

    outcomes = replicate(policy, TwoPoint(1.0, 0.6), 0.05, 4, 1000)
    assert seen == [range(1000)] and len(outcomes) == 1000


def test_two_phase_decides_a_row_group_before_the_next_pilots(monkeypatch):
    # m = 2^14 puts 4 pilots in a row group: each group's decision batches
    # are drawn before the next group's pilot matrix
    model, c1 = TwoPoint(1.0, 0.55), 2 ** 14 / math.log(10.0)
    kinds = []

    def draws(model, fills, out):
        kinds.append("pilots" if out.ndim == 2 else "decisions")
        return _draws(model, fills, out)

    monkeypatch.setattr(selectors, "_draws", draws)
    two_phase_select(model, 0.1, c1, 1e-3, 3, stream=range(10))
    runs = [k for i, k in enumerate(kinds) if i == 0 or kinds[i - 1] != k]
    assert runs == ["pilots", "decisions"] * 3


def test_engine_rejects_a_short_block():
    with pytest.raises(ValueError, match="one outcome per stream"):
        replicate(lambda t, d, s, streams: [], None, 0.1, 0, 3)


def test_empty_stream_range_gives_no_outcomes():
    model = TwoPoint(1.0, 0.6)
    assert two_phase_select(model, 0.1, 1.0, 1.0, 0, stream=range(0)) == []
    assert sequential_select(model, 0.1, (1.0,), 5, 0,
                             stream=range(3, 3)) == []
    schedule = RadiusSchedule("bounded", 2, 0.1, b=1.0)
    assert successive_elimination([model, model], 0.1, schedule,
                                  stream=range(0)) == []


def _source_tree(name):
    return ast.parse((Path(ordopt.__file__).parent / name).read_text())


def test_policies_take_blocks_and_share_one_generator():
    # the CLI hands every policy the engine's whole block of streams, and no
    # policy builds a Philox generator per stream through _rng
    loops = [
        f"cli.py:{node.lineno}" for node in ast.walk(_source_tree("cli.py"))
        if isinstance(node, (ast.For, ast.comprehension))
        and isinstance(node.iter, ast.Name) and node.iter.id == "streams"]
    assert loops == []
    policies = {"two_phase_select", "sequential_select", "hoeffding_select",
                "capped_select", "successive_elimination"}
    found = {node.name: node for node in _source_tree("selectors.py").body
             if isinstance(node, ast.FunctionDef) and node.name in policies}
    assert set(found) == policies
    calls = [f"{name}:{node.lineno}" for name, fn in sorted(found.items())
             for node in ast.walk(fn)
             if isinstance(node, ast.Name) and node.id == "_rng"]
    assert calls == []


def test_empirical_rate_searches_by_newton_only():
    tree = _source_tree("empirical_rate.py")
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {alias.name for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "newton_root" in names
    assert "falsi_root" not in names
