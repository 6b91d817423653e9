"""The batched replication engine against one-replication reference loops.

The references below are the per-replication algorithms written out with
scalar arithmetic only: a fresh Philox generator per (stream, slot), the
scalar bisect_root / expand_bracket path and math.log. The engine steps
whole blocks of replications in lock-step and re-keys one generator, and
must reproduce these outcomes and rate estimates exactly.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordopt._solve import bisect_root, expand_bracket
from ordopt.adversarial import fs_estimate, monte_carlo_fs
from ordopt.empirical_rate import (
    RateEstimate,
    estimate_rate_at_zero,
    estimate_rates_at_zero,
)
from ordopt.populations import (
    Empirical,
    Gaussian,
    Mirrored,
    ShiftedExponential,
    TwoPoint,
)
from ordopt.selectors import (
    _BLOCK,
    SelectionOutcome,
    replicate,
    sequential_select,
    two_phase_select,
)

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


def _ref_log_mgf(x, theta):
    t = theta * x
    hi = t.max()
    return float(hi + math.log(np.exp(t - hi).sum() / x.size))


def _ref_rate(x):
    """I_m(0) of one batch with scalar searches, as before batching."""
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

    def deriv(theta):
        return _ref_tilted_mean(x, theta)

    lo, dlo = expand_bracket(deriv, -1.0, -math.inf, 1, cap=2.0 ** 10)
    hi, dhi = expand_bracket(deriv, 1.0, math.inf, -1, cap=2.0 ** 10)
    if dlo > 0:
        return RateEstimate(max(-_ref_log_mgf(x, lo), 0.0), lo, "interior", 0)
    if dhi < 0:
        return RateEstimate(max(-_ref_log_mgf(x, hi), 0.0), hi, "interior", 0)
    tol = 1e-10 * max(1.0, float(np.abs(x).mean()))
    root = bisect_root(deriv, lo, hi, flo=dlo, fhi=dhi, xtol=1e-12,
                       ftol=tol, max_iter=199)
    return RateEstimate(max(-_ref_log_mgf(x, root.mid), 0.0), root.mid,
                        "interior", root.iterations)


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
        ref = _ref_rate(x)
        assert est == ref
        assert estimate_rate_at_zero(x) == ref
        assert type(est.value) is float
        assert est.theta_star is None or type(est.theta_star) is float
        assert type(est.iterations) is int


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


def test_engine_blocks_do_not_change_outcomes():
    model = TwoPoint(1.0, 0.6)
    seen = []

    def policy(truth, delta, seed, streams):
        seen.append(streams)
        return two_phase_select(truth, delta, 1.0, 1.0, seed, stream=streams)

    reps = _BLOCK + 3
    outcomes = replicate(policy, model, 0.05, 4, reps)
    assert seen == [range(0, _BLOCK), range(_BLOCK, reps)]
    assert outcomes == [_ref_two_phase(model, 0.05, 1.0, 1.0, 4, r)
                        for r in range(reps)]
    one_by_one = monte_carlo_fs(
        lambda t, d, s, r: two_phase_select(t, d, 1.0, 1.0, s, stream=r),
        model, 0.05, reps, 4)
    assert one_by_one == fs_estimate(outcomes)


def test_engine_rejects_a_short_block():
    with pytest.raises(ValueError, match="one outcome per stream"):
        replicate(lambda t, d, s, streams: [], None, 0.1, 0, 3)


def test_empty_stream_range_gives_no_outcomes():
    model = TwoPoint(1.0, 0.6)
    assert two_phase_select(model, 0.1, 1.0, 1.0, 0, stream=range(0)) == []
    assert sequential_select(model, 0.1, (1.0,), 5, 0,
                             stream=range(3, 3)) == []
