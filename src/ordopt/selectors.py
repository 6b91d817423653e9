"""Selection policies and their sample-complexity calculators.

Two families. The sign procedures (two_phase_select, sequential_select)
decide whether a single population has negative mean, spending samples
according to the empirical rate estimate. The comparison procedures
(hoeffding_select, capped_select, successive_elimination) pick one of d
populations: the first two by fixed per-arm budgets (argmin of means, the
cost-minimization convention), elimination by adaptive radii around running
means (argmax, the reward convention the radii were derived in).

Streams: replication-level reproducibility keys every draw by
(seed, stream); a policy derives its internal independent streams as
stream * 2^20 + slot. Seeds and derived keys must lie in [0, 2^64), so
stream indices stay below 2^44; anything outside raises ValueError.

Replications: replicate() runs replication r on stream r, in one policy
call on the range of all the streams. Every policy takes a range of
streams for `stream` and returns the list of outcomes, each identical to
its one-stream call, and draws through re-keyed generators: one per call,
or one per arm for successive elimination. Each policy bounds what it
holds itself. The sign procedures step row groups of at most about 2^16
draws in lock-step, stacking their batches into one matrix for the rate
estimate. The fixed-budget comparisons stack each arm's draws into
matrices of bounded size, one row-wise mean each, and one argmin over the
arms picks every stream's choice. Successive elimination runs the
replications one after another on radius, round and threshold tables
built once per call, each replication drawing into the one draw buffer of
the call. fs_estimate turns the outcomes into the false-selection rate
with its 99% Wilson score interval.

Block sampling: every draw site fills a preallocated block through
_draws(model, fills, out), one view of the block per generator. For a
model with from_uniform (populations), each generator writes its uniforms
into its view with Generator.random(out=view) and one from_uniform call
transforms the whole block in place, so each value is written once;
Philox is counter-based (Salmon et al., SC 2011), so a stream's j-th
uniform does not depend on how its draws are split, and the block holds
exactly what model.draw would give view by view. Any other model draws
into each view with model.draw, and its values may depend on the split,
which successive elimination therefore keeps fixed for such arms.
_draws takes the (generator, view) pairs lazily, one at a time: a
_Streams re-keys its one generator on every call, so a list of
keys(s, slot) built up front would leave every pair on the last key.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from ._solve import expand_bracket, falsi_root
from .empirical_rate import estimate_rates_at_zero
from .truncation import PowerSpec, solve_x_u

__all__ = [
    "SelectionOutcome", "MomentBound", "RadiusSchedule", "FsEstimate",
    "replicate", "fs_estimate", "two_phase_select", "sequential_select",
    "hoeffding_select",
    "capping_bias", "capping_radius", "capped_select", "optimal_beta",
    "radius", "successive_elimination", "expected_pulls_bound",
    "solve_log_fixed_point", "PullsBound",
    "concentration_constant", "capped_concentration_constant",
]

_C_NORM = 6.0 / math.pi ** 2
_SUBSTREAM = 1 << 20
_KEY_LIMIT = 1 << 64
_SAMPLE_CAP = 1 << 20  # two-phase decision batch ceiling; largest pilot
_DECISIONS = 1 << 12  # most draws consecutive decision batches share
_ELEMENTS = 2 ** 16  # most draws a fixed-budget policy stacks at once
_SEGMENT = 512  # elimination rounds per cumulative-sum segment
_MAX_SPAN = 8  # most segments one elimination step covers


@dataclass(frozen=True)
class SelectionOutcome:
    chosen: int
    per_arm_samples: list
    rounds: int
    # budget-exhausted | confidence-met | round-cap | sample-cap
    termination: str
    decided_sign: str | None = None  # positive | negative (sign problems)
    false_selection: bool | None = None


@dataclass(frozen=True)
class MomentBound:
    """Known per-population budgets E f(|X_i|) <= c_i."""

    f_spec: object
    c: list

    def __post_init__(self):
        f0 = self.f_spec.f(0.0)
        if not self.c or any(ci <= f0 for ci in self.c):
            raise ValueError("every c_i must exceed f(0)")


@dataclass(frozen=True)
class RadiusSchedule:
    """Elimination radius parameters; kind is 'bounded' or 'heavy'."""

    kind: str
    d: int
    delta: float
    b: float | None = None
    alpha: float | None = None
    K: float | None = None

    def __post_init__(self):
        if self.kind not in ("bounded", "heavy"):
            raise ValueError("kind must be 'bounded' or 'heavy'")
        if self.kind == "bounded" and (self.b is None or self.b <= 0):
            raise ValueError("bounded schedule needs b > 0")
        if self.kind == "heavy" and (
                self.alpha is None or self.alpha <= 1
                or self.K is None or self.K <= 0):
            raise ValueError("heavy schedule needs alpha > 1 and K > 0")
        if self.d < 2 or not 0 < self.delta < 1:
            raise ValueError("need d >= 2 and delta in (0, 1)")


def _key(seed, stream, slot):
    # operator.index: a numpy integer stream would wrap around in int64
    key = operator.index(stream) * _SUBSTREAM + slot
    if not (0 <= seed < _KEY_LIMIT and 0 <= key < _KEY_LIMIT):
        raise ValueError("seed and stream * 2^20 + slot must lie in "
                         "[0, 2^64)")
    return key


def _rng(seed, stream, slot):
    # a uint64 array keeps keys of 2^63 and above exact; a plain list goes
    # through float64 there and rounds distinct keys together
    return np.random.Generator(np.random.Philox(key=np.array(
        [seed, _key(seed, stream, slot)], dtype=np.uint64)))


class _Streams:
    """The generators _rng(seed, stream, slot), from one re-keyed Philox.

    Setting the key resets the bit generator to the state a new Philox
    keyed (seed, stream * 2^20 + slot) starts in, so the draws are the
    same, at a fraction of the cost of building one. Each call re-keys the
    one generator this object holds and returns it: finish drawing from a
    stream before asking for the next, or hold one _Streams per stream
    that is drawn from alongside others.
    """

    def __init__(self, seed):
        self._key = [seed, _key(seed, 0, 0)]
        self._state = {"bit_generator": "Philox",
                       "state": {"counter": [0, 0, 0, 0], "key": self._key},
                       "buffer": [0, 0, 0, 0], "buffer_pos": 4,
                       "has_uint32": 0, "uinteger": 0}
        self._bits = np.random.Philox(key=0)
        self._gen = np.random.Generator(self._bits)

    def __call__(self, stream, slot):
        self._key[1] = _key(self._key[0], stream, slot)
        self._bits.state = self._state
        return self._gen


def _draws(model, fills, out):
    """Draws of model for every (generator, view) pair of fills, where each
    view is a C-contiguous piece of the float64 array out; returns out,
    holding the draws.

    Each view holds the draws model.draw(generator, view.size) would make.
    A model with from_uniform takes each generator's uniforms into its
    view and transforms the whole of out in place at once; any other model
    draws into each view in turn. fills is consumed lazily, so its
    generators may come from one _Streams re-keyed pair by pair.
    """
    if not hasattr(model, "from_uniform"):
        for g, view in fills:
            view[...] = model.draw(g, view.size)
        return out
    for g, view in fills:
        g.random(out=view)
    return model.from_uniform(out)


def _over(stream, block):
    """block(streams) for a range of streams; its one outcome for one."""
    if isinstance(stream, range):
        return block(stream) if stream else []
    return block(range(stream, stream + 1))[0]


def replicate(policy, truth, delta: float, seed: int,
              replications: int) -> list:
    """Outcomes of replications 0, ..., replications - 1 of a policy.

    policy(truth, delta, seed, streams) runs the replications of a range
    of streams, replication r on stream r, and returns their outcomes in
    order. The engine calls it once, on range(replications); every policy
    of this module bounds the batches it holds at once.
    """
    if replications < 1:
        raise ValueError("replications must be at least 1")
    outcomes = list(policy(truth, delta, seed, range(replications)))
    if len(outcomes) != replications:
        raise ValueError("policy must return one outcome per stream")
    return outcomes


@dataclass(frozen=True)
class FsEstimate:
    fs_rate: float
    ci_low: float
    ci_high: float
    mean_samples: float


_Z99 = 2.576


def fs_estimate(outcomes) -> FsEstimate:
    """False-selection rate of a list of outcomes, its 99% Wilson score
    interval and the mean total sample count per outcome.

    The Wilson interval keeps a positive width at 0 (and at every) false
    selections: its upper end there is z^2 / (n + z^2). Every outcome must
    carry a false_selection flag; a tie in true means leaves it unset and
    is rejected here.
    """
    if not outcomes:
        raise ValueError("need at least one outcome")
    if any(o.false_selection is None for o in outcomes):
        raise ValueError("undefined truth: tied true means make the "
                         "false-selection rate meaningless")
    n = len(outcomes)
    k = sum(bool(o.false_selection) for o in outcomes)
    # the interval's ends are the roots in p of (k - n p)^2 = z^2 n p (1-p);
    # at k = 0 the lower one is exactly 0, as sqrt(z^2) = z in floats
    z2 = _Z99 * _Z99
    root = _Z99 * math.sqrt(z2 + 4.0 * k * (n - k) / n)
    low = (2.0 * k + z2 - root) / (2.0 * (n + z2))
    high = (2.0 * k + z2 + root) / (2.0 * (n + z2))
    return FsEstimate(k / n, max(low, 0.0), min(high, 1.0),
                      sum(sum(o.per_arm_samples) for o in outcomes) / n)


def _check_delta(delta):
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")


def _row_means(mat):
    """The mean of each row of a C-contiguous matrix, each exactly np.mean
    of the row alone: one row-wise pairwise sum."""
    return np.add.reduce(mat, axis=1) / mat.shape[1]


def _sign_outcome(mean, total, rounds, termination, truth_mean):
    sign = "negative" if mean < 0 else "positive"
    fs = None
    if truth_mean != 0:
        true_sign = "negative" if truth_mean < 0 else "positive"
        fs = sign != true_sign
    return SelectionOutcome(0, [total], rounds, termination, sign, fs)


def _runs(sizes, limit):
    """(lo, hi) of the runs of consecutive sizes, each summing to at most
    limit or holding one larger size alone."""
    lo, total = 0, 0
    for i, n in enumerate(sizes):
        if i > lo and total + n > limit:
            yield lo, i
            lo, total = i, 0
        total += n
    if sizes:
        yield lo, len(sizes)


def _decision_size(rate, m, c2):
    """Phase-two batch size and the termination it implies."""
    if math.isinf(rate):
        return m, "budget-exhausted"
    need = c2 * m / rate if rate > 0 else math.inf
    if need > _SAMPLE_CAP:  # a zero-rate pilot would ask for N = inf
        return _SAMPLE_CAP, "sample-cap"
    return math.ceil(need), "budget-exhausted"


def two_phase_select(model, delta: float, c1: float, c2: float,
                     seed: int, stream=0):
    """Estimate the rate on a pilot batch, then size the decision batch.

    Phase 1 draws m = ceil(c1 log(1/delta)) samples and computes the rate
    estimate at zero; phase 2 draws N = ceil(c2 m / I) fresh samples and
    decides by the sign of their mean. An infinite rate estimate (all pilot
    samples one-signed) collapses N to m. N never exceeds 2^20: a zero or
    tiny rate estimate that asks for more draws 2^20 and ends with
    termination "sample-cap" instead of "budget-exhausted".

    The pilot m may not exceed 2^20 (ValueError, before any draw).

    With a range of streams the pilots form row groups of at most 2^16
    draws (one row when m is larger), each with a lock-step rate estimate
    and taken through its decisions before the next group is drawn. The
    decision batches of consecutive replications share one buffer of at
    most 2^12 draws, and a larger batch has a buffer of its own; each mean
    is the pairwise sum of the replication's own draws over N, exactly
    np.mean of them. Returns the list of outcomes.
    """
    _check_delta(delta)
    if c1 <= 0 or c2 <= 0:
        raise ValueError("c1 and c2 must be positive")
    if c1 * math.log(1.0 / delta) > _SAMPLE_CAP:
        raise ValueError("the pilot m = ceil(c1 log(1/delta)) must not "
                         "exceed 2^20")
    m = math.ceil(c1 * math.log(1.0 / delta))
    keys = _Streams(seed)
    truth = model.mean()
    per = max(1, _ELEMENTS // m)

    def block(streams):
        outcomes = []
        for k in range(0, len(streams), per):
            chunk = streams[k:k + per]
            pilots = np.empty((len(chunk), m))
            pilots = _draws(model, ((keys(s, 0), row)
                                    for s, row in zip(chunk, pilots)), pilots)
            sizes = [_decision_size(est.value, m, c2)
                     for est in estimate_rates_at_zero(pilots)]
            batches = [n2 for n2, _ in sizes]
            for lo, hi in _runs(batches, _DECISIONS):
                ends = [0, *itertools.accumulate(batches[lo:hi])]
                spans = list(zip(ends, ends[1:]))
                draws = np.empty(ends[-1])
                draws = _draws(model, ((keys(s, 1), draws[a:b]) for s, (a, b)
                                       in zip(chunk[lo:hi], spans)), draws)
                for (a, b), (n2, termination) in zip(spans, sizes[lo:hi]):
                    # np.mean's own arithmetic: the pairwise sum over n2
                    mean = float(np.add.reduce(draws[a:b])) / n2
                    outcomes.append(_sign_outcome(mean, m + n2, 2,
                                                  termination, truth))
        return outcomes

    return _over(stream, block)


def sequential_select(model, delta: float, c_schedule, round_cap: int = 50,
                      seed: int = 0, stream=0):
    """Grow the sample until the rate estimate certifies the target level.

    Round k holds m_k = ceil((c_1 + ... + c_k) log(1/delta)) cumulative
    samples (the schedule repeats its last entry past the end); the
    procedure stops at the first round with m_k * I_{m_k}(0) >= log(1/delta)
    and decides by the sign of the cumulative mean. The first round's m_1
    may not exceed 2^20 (ValueError, before any draw).

    With a range of streams, each round estimates the rates of the
    replications still running as one matrix (m_k depends on k only), in
    groups of at most max(1, 2^16 // m_k) rows taken one at a time, each
    group on to the last round it runs before the next starts, so a call
    holds about 2^16 draws at once (or one replication's m_k, when more);
    returns the list of outcomes.
    """
    _check_delta(delta)
    c_schedule = list(c_schedule)
    if not c_schedule or any(c <= 0 for c in c_schedule):
        raise ValueError("c_schedule must be nonempty and positive")
    if round_cap < 1:
        raise ValueError("round_cap must be at least 1")
    log_inv = math.log(1.0 / delta)
    if c_schedule[0] * log_inv > _SAMPLE_CAP:
        raise ValueError("the first round's m_1 = ceil(c_1 log(1/delta)) "
                         "must not exceed 2^20")
    keys = _Streams(seed)
    truth = model.mean()

    def block(streams):
        outcomes = [None] * len(streams)
        # depth first, one group of rows at a time: (rows, their draws
        # before round k, k, c_1 + ... + c_k). A group of more than
        # _ELEMENTS // m_k rows splits, and the rows still running go on
        # to round k + 1 at once
        groups = [(np.arange(len(streams)), np.empty((len(streams), 0)), 1,
                   float(c_schedule[0]))]
        while groups:
            rows, values, k, total_c = groups.pop()
            m_k = max(math.ceil(total_c * log_inv), 1)
            per = max(1, _ELEMENTS // m_k)
            if rows.size > per:
                groups += [(rows[lo:lo + per], values[lo:lo + per], k,
                            total_c) for lo in range(0, rows.size, per)][::-1]
                continue
            if m_k > values.shape[1]:
                n, old = values.shape[1], values
                values = np.empty((rows.size, m_k))
                values[:, :n] = old
                fresh = values[:, n:]
                _draws(model, ((keys(streams[i], k - 1), row)
                               for i, row in zip(rows, fresh)), fresh)
            met = np.array([m_k * est.value >= log_inv
                            for est in estimate_rates_at_zero(values)])
            done = met | (k == round_cap)
            for i, mean, stop in zip(rows[done], _row_means(values[done]),
                                     met[done]):
                outcomes[i] = _sign_outcome(
                    mean, m_k, k, "confidence-met" if stop else "round-cap",
                    truth)
            if not done.all():
                c_next = c_schedule[min(k, len(c_schedule) - 1)]
                groups.append((rows[~done], values[~done], k + 1,
                               total_c + c_next))
        return outcomes

    return _over(stream, block)


def _budget_block(models, n, seed, cap=None):
    """block(streams) of a fixed-budget minimum selection: every arm's n
    draws on each stream, clamped above at cap when one is given, and the
    argmin of the means.

    Per arm, the streams' draws stack as the rows of one matrix of at most
    _ELEMENTS entries (one row when n is larger), reduced by one row-wise
    mean; each row's mean is exactly that of its 1-D draw.
    """
    d = len(models)
    keys = _Streams(seed)
    true_means = np.array([model.mean() for model in models])
    ties = np.flatnonzero(true_means == true_means.min()).tolist()
    best = ties[0] if len(ties) == 1 else None  # None: no false selection
    per = max(1, _ELEMENTS // n)

    def block(streams):
        means = np.empty((d, len(streams)))
        mat = np.empty((min(per, len(streams)), n))
        for a, model in enumerate(models):
            for k in range(0, len(streams), per):
                chunk = streams[k:k + per]
                rows = mat[:len(chunk)]
                rows = _draws(model, ((keys(s, a), row)
                                      for s, row in zip(chunk, rows)), rows)
                if cap is not None:
                    np.minimum(rows, cap, out=rows)
                means[a, k:k + len(chunk)] = _row_means(rows)
        chosen = np.argmin(means, axis=0).tolist()
        return [SelectionOutcome(c, [n] * d, 1, "budget-exhausted", None,
                                 None if best is None else c != best)
                for c in chosen]

    return block


def hoeffding_select(models, epsilon: float, delta: float, b: float,
                     seed: int, stream=0):
    """Fixed-budget minimum selection for populations in [0, b].

    A range of streams returns the list of their outcomes.
    """
    d = len(models)
    if d < 2:
        raise ValueError("need at least two populations")
    _check_delta(delta)
    if epsilon <= 0 or b <= 0:
        raise ValueError("epsilon and b must be positive")
    n = math.ceil((2.0 * b * b / epsilon ** 2) * math.log((d - 1) / delta))
    return _over(stream, _budget_block(models, n, seed))


def capping_bias(f_spec, c: float, u: float) -> float:
    """Two-point capping bias h(u) = (x_u - u)(c - f(0))/(f(x_u) - f(0)).

    An upper bound on the worst capping error at cap u under the budget
    E f(X) <= c; strictly decreasing in u, with the limit
    (c - f(0))/f'(0) at u = 0 (x_u -> 0 for strictly convex f).
    """
    f0 = f_spec.f(0.0)
    if u == 0.0:
        d0 = f_spec.df(0.0)
        return (c - f0) / d0 if d0 > 0 else math.inf
    x_u = solve_x_u(f_spec, u)
    return (x_u - u) * (c - f0) / (f_spec.f(x_u) - f0)


def capping_radius(bounds: MomentBound, x: float) -> float:
    """Smallest cap u with capping bias h(u) <= x, maximized over
    populations. Power budgets solve in closed form; other budgets invert
    the strictly decreasing h by regula falsi."""
    if x <= 0:
        raise ValueError("x must be positive")
    spec = bounds.f_spec
    radii = []
    for c_i in bounds.c:
        if isinstance(spec, PowerSpec):
            al = spec.alpha
            radii.append((c_i / x) ** (1.0 / (al - 1.0)) * (al - 1.0)
                         / al ** (al / (al - 1.0)))
            continue

        def excess(u):
            return capping_bias(spec, c_i, u) - x

        f_lo = excess(0.0)
        if f_lo <= 0:
            radii.append(0.0)
            continue
        hi, f_hi = expand_bracket(excess, 1.0, math.inf, 1)
        radii.append(falsi_root(excess, 0.0, hi, f_lo, f_hi,
                                xtol=1e-13).mid)
    return max(radii)


def capped_select(models, epsilon: float, delta: float,
                  bounds: MomentBound, beta: float, seed: int,
                  stream=0):
    """Minimum selection for non-negative heavy-tailed populations.

    Caps every draw at u = R(beta epsilon), spends
    n = ceil(2 u^2 / (epsilon^2 (1-beta)^2) log((d-1)/delta)) per
    population, and compares capped means; the cap keeps each mean within
    (1-beta) epsilon of the truth in the worst case, preserving the
    epsilon-gap guarantee. A range of streams returns the list of their
    outcomes.
    """
    d = len(models)
    if d < 2:
        raise ValueError("need at least two populations")
    _check_delta(delta)
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    u = capping_radius(bounds, beta * epsilon)
    n = math.ceil(2.0 * u * u / (epsilon ** 2 * (1.0 - beta) ** 2)
                  * math.log((d - 1) / delta))
    return _over(stream, _budget_block(models, n, seed, u))


def optimal_beta(bounds: MomentBound) -> float:
    """The cap fraction minimizing the capped budget: 1/alpha for power
    budgets (maximize beta^{2/(alpha-1)} (1-beta)^2)."""
    if isinstance(bounds.f_spec, PowerSpec):
        return 1.0 / bounds.f_spec.alpha
    raise ValueError("optimal beta has a closed form only for power "
                     "budgets; pick beta manually for other budgets")


def capped_concentration_constant(alpha: float) -> float:
    """p_hat(alpha): the deviation constant for capped means under an
    alpha-th absolute moment bound."""
    if alpha <= 1:
        raise ValueError("alpha must exceed 1")
    return ((alpha - 1.0) ** (alpha - 1.0) / alpha ** alpha) * (1.0 + alpha) \
        + math.sqrt(2.0) + 1.0 / 3.0


def concentration_constant(alpha: float) -> float:
    """p(alpha): the truncated-mean analogue of p_hat(alpha)."""
    if alpha <= 1:
        raise ValueError("alpha must exceed 1")
    return (1.0 + alpha) + math.sqrt(2.0) + 1.0 / 3.0


def radius(schedule: RadiusSchedule, m) -> float:
    """Round-m elimination radius; m may be a scalar or an array."""
    m_arr = np.asarray(m, dtype=float)
    if np.any(m_arr < 1):
        raise ValueError("m must be at least 1")
    d, delta, c = schedule.d, schedule.delta, _C_NORM
    if schedule.kind == "bounded":
        out = schedule.b * np.sqrt(
            (2.0 / m_arr) * np.log(d * m_arr ** 2 / (c * delta)))
    else:
        al = schedule.alpha
        out = (capped_concentration_constant(al)
               * schedule.K ** (1.0 / al)
               * (np.log(2.0 * m_arr ** 2 * d / (c * delta)) / m_arr)
               ** ((al - 1.0) / al))
    return float(out) if np.ndim(m) == 0 else out


def _estimator_thresholds(schedule, delta, lo, hi):
    """B_j for pulls j = lo + 1, ..., hi."""
    j = np.arange(lo + 1, hi + 1, dtype=float)
    return (schedule.K * j / math.log(1.0 / delta)) ** (1.0 / schedule.alpha)


def _table(entries):
    """upto(n): the first n or more entries of an elementwise table, where
    entries(lo, hi) computes entries lo, ..., hi - 1; the table doubles as
    it grows, computing only its new entries."""
    values = np.empty(0)

    def upto(n):
        nonlocal values
        if n > len(values):
            size = max(n, 2 * len(values))
            values = np.concatenate([values, entries(len(values), size)])
        return values

    return upto


def _chained_cumsum(start, mat):
    """start[:, None] + running sums of the rows of mat, added up the way
    a loop of _SEGMENT-round steps adds them: each segment is cumsummed on
    its own and offset by the running total at its start, and those totals
    chain by the same sequential additions."""
    rows, n = mat.shape
    if n <= _SEGMENT:
        sums = np.cumsum(mat, axis=1)
        sums += start[:, None]
        return sums
    segments = -(-n // _SEGMENT)
    if n % _SEGMENT:
        padded = np.zeros((rows, segments * _SEGMENT))
        padded[:, :n] = mat
        mat = padded
    within = np.cumsum(mat.reshape(rows, segments, _SEGMENT), axis=2)
    starts = np.cumsum(np.concatenate([start[:, None], within[:, :-1, -1]],
                                      axis=1), axis=1)
    within += starts[:, :, None]
    return within.reshape(rows, -1)[:, :n]


def successive_elimination(models, delta: float, schedule: RadiusSchedule,
                           estimator: str = "plain", seed: int = 0,
                           pull_cap: int = 1_000_000, stream=0,
                           on_round=None):
    """Round-robin elimination keeping arms within 2 alpha_m of the leader.

    Every surviving arm is pulled once per round; an arm leaves when the
    best running mean exceeds its own by at least twice the radius. The
    running mean is the plain average, or for heavy-tailed schedules a
    truncated (zero out |X_j| > B_j) or capped (clamp to +-B_j) average
    with B_j = (K j / log(1/delta))^(1/alpha) indexed by the pull number.
    delta must be the schedule's own. Maximization convention: the chosen
    arm is the surviving leader. on_round, for one stream only, is called
    before each round's eliminations with (m, alive mask, running means;
    nan for dead arms).

    A range of streams returns the list of their outcomes. Replications
    run one after another on tables of radii, round numbers and thresholds
    built once per call. Each arm draws from its own re-keyed generator,
    keyed once per replication, into its row of one draw buffer that every
    replication of the call reuses; the buffer grows only when a
    replication draws past all earlier ones. Each step of a replication
    covers a window of rounds that widens while no arm leaves. When every
    arm has from_uniform, each live arm draws the window's rounds not yet
    drawn in one Generator.random call, transformed in place; if any arm
    has draw only, every arm draws ahead in chunks of max(256, drawn so
    far), the split those arms' values depend on.
    """
    d = len(models)
    if d < 2:
        raise ValueError("need at least two populations")
    _check_delta(delta)
    if pull_cap < 1:
        raise ValueError("pull_cap must be at least 1")
    if estimator not in ("plain", "truncated", "capped"):
        raise ValueError("estimator must be plain, truncated, or capped")
    if estimator != "plain" and schedule.kind != "heavy":
        raise ValueError("truncated and capped estimators need the "
                         "heavy-tail schedule constants")
    if schedule.d != d:
        raise ValueError("schedule.d must match the number of populations")
    if delta != schedule.delta:
        raise ValueError("delta must match schedule.delta")
    if (on_round is not None and isinstance(stream, range)
            and len(stream) != 1):
        raise ValueError("on_round needs a single stream")

    arm_keys = [_Streams(seed) for _ in range(d)]
    rounds = _table(lambda lo, hi: np.arange(lo + 1, hi + 1, dtype=float))
    radii = _table(lambda lo, hi: 2.0 * radius(schedule, rounds(hi)[lo:hi]))
    thresholds = _table(
        lambda lo, hi: _estimator_thresholds(schedule, delta, lo, hi))
    floors = _table(lambda lo, hi: -thresholds(hi)[lo:hi])
    true_means = np.array([mo.mean() for mo in models])
    ties = np.flatnonzero(true_means == true_means.max())
    # every arm a transform of uniforms: draws do not depend on the split
    exact = all(hasattr(mo, "from_uniform") for mo in models)
    # row a: arm a's pulls, transformed; only the first `drawn` columns of
    # the live arms' rows belong to the replication running now
    buffer = np.empty((d, 0))

    def extend(rngs, idx, drawn, upto):
        """Draw the live arms idx from pull drawn to upto, in one piece
        when every arm is exact, else to at least upto in chunks of
        max(256, drawn so far), as a generator per arm draws them (a split
        or merged chunk gives other values for some models); returns the
        new count."""
        nonlocal buffer
        ends = [drawn, upto] if exact else [drawn]
        while ends[-1] < upto:
            ends.append(ends[-1] + max(256, ends[-1]))
        end = ends[-1]
        if end > buffer.shape[1]:
            grown = np.empty((d, max(end, 2 * buffer.shape[1])))
            grown[:, :drawn] = buffer[:, :drawn]
            buffer = grown
        for a in idx.tolist():
            fresh = _draws(models[a], ((rngs[a], buffer[a, lo:hi])
                                       for lo, hi in zip(ends, ends[1:])),
                           buffer[a, drawn:end])
            if estimator == "truncated":
                fresh[~(np.abs(fresh) <= thresholds(end)[drawn:end])] = 0.0
            elif estimator == "capped":
                # sign(x) min(|x|, B_j), except that a -0.0 stays -0.0:
                # no running sum, which starts at +0.0, tells them apart
                np.maximum(fresh, floors(end)[drawn:end], out=fresh)
                np.minimum(fresh, thresholds(end)[drawn:end], out=fresh)
        return end

    def one(s):
        rngs = [keys(s, a) for a, keys in enumerate(arm_keys)]
        alive = np.ones(d, dtype=bool)
        idx = np.arange(d)
        drawn = 0  # pulls drawn by every live arm
        sums = np.zeros(d)
        pulls = np.zeros(d, dtype=int)
        m = 0
        span = 1
        # a step covers the window of rounds m + 1, ..., m + n; its running
        # means locate the first round any elimination triggers, which is
        # exact because each arm's j-th pull is the j-th entry of its own
        # substream regardless of when other arms leave. The window widens
        # while no arm leaves and starts over at the round after one does.
        # Exact arms draw the window's rounds not yet drawn. Other arms
        # draw only when the window's first segment needs it, and then the
        # window keeps to the whole segments drawn, so no chunk is drawn
        # that a loop of single segments would not draw. A round triggers
        # when the spread of the live means reaches the radius: fl(M - x)
        # does not increase with x, so some arm's fl(M - mean) reaches it
        # exactly when fl(M - min) does.
        while idx.size > 1 and m < pull_cap:
            n = min(span * _SEGMENT, pull_cap - m)
            need = m + n if exact else m + min(n, _SEGMENT)
            if drawn < need:
                drawn = extend(rngs, idx, drawn, need)
            if drawn < m + n:
                n = (drawn - m) // _SEGMENT * _SEGMENT
            window = (buffer[:, m:m + n] if idx.size == d
                      else buffer[idx, m:m + n])
            cums = _chained_cumsum(sums[idx], window)
            means = cums / rounds(m + n)[m:m + n]
            top = means.max(axis=0)
            reach = radii(m + n)[m:m + n]
            hits = np.flatnonzero(top - means.min(axis=0) >= reach)
            j = int(hits[0]) if hits.size else n - 1
            if on_round is not None:
                for j2 in range(j + 1):
                    full = np.full(d, np.nan)
                    full[idx] = means[:, j2]
                    on_round(m + j2 + 1, alive.copy(), full)
            m += j + 1
            sums[idx] = cums[:, j]
            pulls[idx] = m
            if hits.size:
                alive[idx[top[j] - means[:, j] >= reach[j]]] = False
                idx = np.flatnonzero(alive)
                span = 1
            else:
                span = min(2 * span, _MAX_SPAN)

        chosen = int(idx[np.argmax(sums[idx] / pulls[idx])])
        termination = "confidence-met" if idx.size == 1 else "round-cap"
        fs = None if len(ties) > 1 else bool(chosen != ties[0])
        return SelectionOutcome(chosen, [int(p) for p in pulls], m,
                                termination, None, fs)

    return _over(stream, lambda streams: [one(s) for s in streams])


def solve_log_fixed_point(a: float, b: float):
    """Solve t = a + b log t for the upper root, with its closed bound.

    Returns (t_star, bound) where bound = a + b log a + (2 b^2 / a)
    log(a + b). Requires a >= e and b >= 1, under which h(t) = t - a - b
    log t has its upper root between h(a) < 0 and h((a + b)^2) > 0.
    """
    if a < math.e or b < 1.0:
        raise ValueError("need a >= e and b >= 1")
    t_star = falsi_root(lambda t: t - a - b * math.log(t), a,
                        (a + b) ** 2).mid
    bound = a + b * math.log(a) + (2.0 * b * b / a) * math.log(a + b)
    assert t_star <= bound * (1 + 1e-12)
    assert t_star <= (a + b) ** 2
    return t_star, bound


@dataclass(frozen=True)
class PullsBound:
    tau_star: list
    closed_form: list
    dominant_total: float


def _fixed_point_params(schedule, gap):
    d, delta, c = schedule.d, schedule.delta, _C_NORM
    if schedule.kind == "bounded":
        lead = 32.0 * schedule.b ** 2 / gap ** 2
        a = lead * math.log(d / (c * delta))
    else:
        al = schedule.alpha
        lead = (4.0 * capped_concentration_constant(al)
                * schedule.K ** (1.0 / al) / gap) ** (al / (al - 1.0))
        a = lead * math.log(2.0 * d / (c * delta))
    return a, 2.0 * lead


def expected_pulls_bound(gaps, schedule: RadiusSchedule) -> PullsBound:
    """Per-gap elimination times tau*_i = inf{m : 4 alpha_m <= gap_i}.

    tau* is found exactly by integer search (small m scanned directly, the
    monotone region bisected); closed_form carries the fixed-point bound
    when its preconditions hold (else the exact tau*), and dominant_total
    is the leading-order total pull count over the suboptimal arms, 2 a_i
    summed over the gaps with a_i the fixed point's constant term.
    """
    gaps = [float(g) for g in gaps]
    if not gaps or any(g <= 0 for g in gaps):
        raise ValueError("gaps must be positive")

    def ok(m, gap):
        return 4.0 * radius(schedule, m) <= gap

    taus, closed, dom = [], [], 0.0
    for gap in gaps:
        tau = None
        for m in range(1, 65):
            if ok(m, gap):
                tau = m
                break
        if tau is None:
            lo, hi = 64, 128
            while not ok(hi, gap):
                lo, hi = hi, hi * 2
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if ok(mid, gap):
                    hi = mid
                else:
                    lo = mid
            tau = hi
        taus.append(tau)
        a, b = _fixed_point_params(schedule, gap)
        if a >= math.e and b >= 1.0:
            closed.append(solve_log_fixed_point(a, b)[1])
        else:
            closed.append(float(tau))
        dom += 2.0 * a
    return PullsBound(taus, closed, dom)
