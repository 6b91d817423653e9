"""Acceptance gate: ten pinned end-to-end checks.

Each check prints exactly one PASS/FAIL line with the computed numbers and
its runtime (run this file directly to see all ten lines and get a nonzero
exit on any failure; under pytest the same checks run as ordinary tests).
Tolerances and time limits are fixed here on purpose; loosening them is not
a fix for a regression.

Check 02 verifies the shifted-exponential certificate, the minimum over
theta > 0 of J_{-theta}(e^{-1/c1}), along two routes: the certificate's
search of the `meta_rate` node table over x, and a direct integral over y
written out in this file with no ordopt code (E e^{aW} = int lam e^{-lam y}
exp(a e^{theta (y - K)}) dy with the Legendre sup found by a bounded
scalar search over a < 0). The expected minima come from the direct route,
computed when the check runs.

The three triples quoted for this certificate cannot be minima of that
objective. At the quoted theta the direct route gives J = 0.22146, 0.12718
and 0.01532: for c1 = 2 the quoted rate lies above the sup at that theta,
and for c1 = 5 and 100 it lies below the objective's minimum over theta.
Check 02 keeps the quoted triples, prints them, and asserts that they miss.
`ordopt reproduce --only certificate` still compares against them and
exits 1. Whether the paper computed some other objective is not settled by
anything in this repo; if it did, the certification at c1 = 100 (minimum
0.01483 above 1/c1, so not certified) is open as well.
"""

import math
import sys
import time

import numpy as np
from scipy import integrate, optimize

from ordopt.adversarial import lower_bound_samples, tilt
from ordopt.empirical_rate import estimate_rate_at, estimate_rate_at_zero
from ordopt.meta_rate import (
    inf_meta_rate,
    meta_rate,
    sequential_failure_certificate,
    two_phase_exponent,
)
from ordopt.populations import (
    Bernoulli,
    Mirrored,
    Pareto,
    ShiftedExponential,
    TwoPoint,
    rate_function,
    two_point_rate_law,
)
from ordopt.selectors import (
    MomentBound,
    RadiusSchedule,
    capped_concentration_constant,
    capped_select,
    concentration_constant,
    expected_pulls_bound,
    hoeffding_select,
    replicate,
    solve_log_fixed_point,
    successive_elimination,
    two_phase_select,
)
from ordopt.truncation import (
    ExponentialSpec,
    PowerSpec,
    worst_capping_error,
    worst_truncation_error,
)


def _check(name, conds, detail):
    bad = [label for label, ok in conds if not ok]
    line = f"{'PASS' if not bad else 'FAIL'}: {name} ({detail})"
    if bad:
        line += f" [failed: {', '.join(bad)}]"
    print(line, flush=True)
    assert not bad, line


def _ci99(rate, reps):
    return 2.576 * math.sqrt(rate * (1.0 - rate) / reps)


def test_01_two_phase_exponents():
    t0 = time.perf_counter()
    targets = {0.55: 0.105, 0.52: 0.047, 0.51: 0.025}
    conds, got = [], []
    for p, want in targets.items():
        vals = {b: two_phase_exponent(TwoPoint(b, p), 1.0, 1.0).exponent
                for b in (0.5, 1.0, 4.0)}
        got.append(vals[1.0])
        conds.append((f"p={p} within 0.002",
                      abs(vals[1.0] - want) <= 2e-3))
        conds.append((f"p={p} scale-free to 1e-6",
                      max(vals.values()) - min(vals.values()) <= 1e-6))
    dt = time.perf_counter() - t0
    conds.append(("runtime < 10 s", dt < 10.0))
    _check("01 two-phase exponents",
           conds,
           f"{got[0]:.4f}/{got[1]:.4f}/{got[2]:.4f} vs 0.105/0.047/0.025, "
           f"{dt:.1f} s")


def _se_log_mgf_w(model, theta, a):
    """log E e^{aW} for W = e^{-theta X}, X = K - Y, Y ~ Exp(lam), a < 0.

    The y-integral is taken directly, with the factor e^{a w_min} at y = 0
    pulled out so that nothing underflows for large |a|.
    """
    lam, k = model.lam, model.K
    w_min = math.exp(-theta * k)
    b = -a * w_min

    def f(y):
        return lam * math.exp(-lam * y - b * math.expm1(theta * y))

    # break where the double-exponential factor reaches e^{-1}; beyond
    # y_hi the integrand is below e^{-800}
    y_c = math.log1p(1.0 / b) / theta
    y_hi = min(math.log1p(800.0 / b) / theta, 800.0 / lam)
    edges = [0.0] + ([y_c] if y_c < y_hi else []) + [y_hi]
    total = sum(integrate.quad(f, lo, hi, epsabs=0.0, epsrel=1e-12,
                               limit=200)[0]
                for lo, hi in zip(edges[:-1], edges[1:]))
    return a * w_min + math.log(total)


def _se_direct_j(model, theta, nu):
    """(J_{-theta}(nu), maximizing a): bounded search over log(-a)."""
    def neg(u):
        a = -math.exp(u)
        return _se_log_mgf_w(model, theta, a) - a * nu

    res = optimize.minimize_scalar(neg, bounds=(-20.0, 10.0),
                                   method="bounded",
                                   options={"xatol": 1e-10})
    return -res.fun, -math.exp(res.x)


def _se_direct_minimum(model, c1):
    """Minimum over theta > 0 of J_{-theta}(e^{-1/c1}) by the direct route.

    J is finite only for theta > 1/(c1 K), where nu lies above ess inf W.
    Returns (theta, alpha in the solver's z-convention, value); with
    z = e^{theta Y} the maximizer a becomes alpha = -a e^{-theta K}.
    """
    nu = math.exp(-1.0 / c1)
    grid = np.geomspace(1.001 / (c1 * model.K), 64.0, 25)
    vals = [_se_direct_j(model, t, nu)[0] for t in grid]
    i = int(np.argmin(vals))
    res = optimize.minimize_scalar(
        lambda t: _se_direct_j(model, t, nu)[0],
        bounds=(grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]),
        method="bounded", options={"xatol": 1e-9})
    theta = float(res.x)
    value, a = _se_direct_j(model, theta, nu)
    return theta, -a * math.exp(-theta * model.K), value


def test_02_certificate_triples():
    # Expected minima come from the direct y-integral route above, not from
    # any stored output; the solver must match them to 1%/1%/0.5% and agree
    # on certification, and the generic meta_rate node table must give the
    # same value at the solver's theta. The quoted triples are kept and
    # checked to miss: the direct J at each quoted theta is more than 0.5%
    # from the quoted rate, so they are not values of the objective at
    # their own theta, let alone its minima. What objective the paper
    # computed is open here (PAPER.md holds only the abstract), and so is
    # c1 = 100: the faithful minimum 0.01483 is above 1/c1 and does not
    # certify, while the quoted 0.005425 would.
    t0 = time.perf_counter()
    quoted = {2.0: (2.133, 0.0607, 0.2231),
              5.0: (0.987, 0.201, 0.1259),
              100.0: (0.129, 1.1792, 0.005425)}
    model = ShiftedExponential(0.96, 1.0)
    conds, shows = [], []
    for c1, (th_q, al_q, i_q) in quoted.items():
        nu = math.exp(-1.0 / c1)
        th, al, val, certified = sequential_failure_certificate(model, c1)
        th_e, al_e, i_e = _se_direct_minimum(model, c1)
        via_quad = meta_rate(model, -th, nu).value
        at_quoted = _se_direct_j(model, th_q, nu)[0]
        shows.append(f"c1={c1:g}: ({th:.4f}, {al:.4f}, {val:.6f}) vs "
                     f"direct ({th_e:.4f}, {al_e:.4f}, {i_e:.6f}); quoted "
                     f"({th_q}, {al_q}, {i_q}) has J {at_quoted:.6f}")
        conds.append((f"c1={c1:g} theta within 1%",
                      abs(th / th_e - 1.0) <= 0.01))
        conds.append((f"c1={c1:g} alpha* within 1%",
                      abs(al / al_e - 1.0) <= 0.01))
        conds.append((f"c1={c1:g} rate within 0.5%",
                      abs(val / i_e - 1.0) <= 0.005))
        conds.append((f"c1={c1:g} certified iff rate < 1/c1",
                      certified == (i_e < 1.0 / c1)))
        conds.append((f"c1={c1:g} meta_rate at theta within 0.5%",
                      abs(via_quad / i_e - 1.0) <= 0.005))
        conds.append((f"c1={c1:g} quoted rate off its J by > 0.5%",
                      abs(at_quoted / i_q - 1.0) > 0.005))
    dt = time.perf_counter() - t0
    conds.append(("runtime < 30 s", dt < 30.0))
    _check("02 sequential failure certificate minima", conds,
           "; ".join(shows) + f", {dt:.1f} s")


def test_03_empirical_rate_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    exact_ok = True
    for m in range(1, 21):
        for k in range(m + 1):
            batch = np.concatenate([np.full(k, -1.0), np.full(m - k, 1.0)])
            est = estimate_rate_at_zero(batch).value
            if k in (0, m):
                exact_ok = exact_ok and math.isinf(est)
            else:
                want = math.log(m / (2.0 * math.sqrt(k * (m - k))))
                worst = max(worst, abs(est - want))
    rng = np.random.default_rng(20240117)
    worst_shift = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 41))
        batch = rng.normal(rng.uniform(-2, 2), rng.uniform(0.2, 3.0), n)
        lo, hi = batch.min(), batch.max()
        x = lo + rng.uniform(0.05, 0.95) * (hi - lo)
        a = estimate_rate_at(batch, x).value
        b = estimate_rate_at_zero(batch - x).value
        worst_shift = max(worst_shift, abs(a - b))
    dt = time.perf_counter() - t0
    conds = [("closed form to 1e-8 for all m <= 20", worst <= 1e-8),
             ("infinite at one-signed batches", exact_ok),
             ("shift identity to 1e-10", worst_shift <= 1e-10),
             ("runtime < 5 s", dt < 5.0)]
    _check("03 empirical rate closed form + shift identity", conds,
           f"max dev {worst:.2e}, max shift dev {worst_shift:.2e}, "
           f"{dt:.1f} s")


def test_04_tail_probability_slope():
    t0 = time.perf_counter()
    model = TwoPoint(1.0, 0.6)
    a = 2.0 * rate_function(model, 0.0).value
    y = {}
    for m in (500, 1000, 2000):
        law = two_point_rate_law(m, 0.6)
        p = sum(prob for _, prob, val in law if val >= a)
        y[m] = -math.log(p)
    # successive difference quotients carry a log-prefactor correction
    # that halves when m doubles; one Richardson step removes it
    d1 = (y[1000] - y[500]) / 500.0
    d2 = (y[2000] - y[1000]) / 1000.0
    slope = 2.0 * d2 - d1
    want = inf_meta_rate(model, a)[0]
    rel = abs(slope / want - 1.0)
    dt = time.perf_counter() - t0
    conds = [("slope within 2% of inf meta rate", rel <= 0.02),
             ("runtime < 20 s", dt < 20.0)]
    _check("04 exact tail probabilities match the meta rate", conds,
           f"slope {slope:.8f} vs {want:.8f}, rel {rel:.2%}, {dt:.1f} s")


def test_05_hoeffding_policy():
    t0 = time.perf_counter()
    models = [Bernoulli(0.3), Bernoulli(0.5), Bernoulli(0.5)]
    reps = 10_000
    fs = 0
    n_ok = True
    for r in range(reps):
        out = hoeffding_select(models, 0.2, 0.1, 1.0, seed=5, stream=r)
        fs += out.false_selection
        n_ok = n_ok and out.per_arm_samples == [150, 150, 150]
    rate = fs / reps
    probe = hoeffding_select([Bernoulli(0.4), Bernoulli(0.6)], 0.1, 0.05,
                             1.0, seed=5)
    dt = time.perf_counter() - t0
    conds = [("fs rate <= 0.1 + CI", rate <= 0.1 + _ci99(rate, reps)),
             ("n = 150 per arm in every replication", n_ok),
             ("formula case n = 600", probe.per_arm_samples[0] == 600),
             ("runtime < 60 s", dt < 60.0)]
    _check("05 bounded-range policy", conds,
           f"fs {rate:.4f} over {reps} reps, n 150/600, {dt:.1f} s")


def test_06_capped_policy():
    t0 = time.perf_counter()
    models = [Pareto(3.0, 0.55), Pareto(3.0, 0.2)]
    # second moment of Pareto(3, s) is 3 s^2; both fit the budget c = 1,
    # and the means 0.825 and 0.3 put the gap strictly above epsilon
    moments = [3.0 * m.scale ** 2 for m in models]
    gap = models[0].mean() - models[1].mean()
    bounds = MomentBound(PowerSpec(2.0), [1.0, 1.0])
    reps = 10_000
    fs = 0
    n_ok = True
    for r in range(reps):
        out = capped_select(models, 0.5, 0.1, bounds, 0.5, seed=6, stream=r)
        fs += out.false_selection
        n_ok = n_ok and out.per_arm_samples == [74, 74]
    rate = fs / reps
    dt = time.perf_counter() - t0
    conds = [("pair obeys the moment budget", max(moments) <= 1.0),
             ("true gap >= epsilon", gap >= 0.5),
             ("n = 74 per arm in every replication", n_ok),
             ("fs rate <= 0.1 + CI", rate <= 0.1 + _ci99(rate, reps)),
             ("runtime < 60 s", dt < 60.0)]
    _check("06 capped policy", conds,
           f"fs {rate:.4f} over {reps} reps, n 74, EX^2 "
           f"{moments[0]:.3f}/{moments[1]:.3f}, {dt:.1f} s")


def _closed_forms(spec, c, u):
    """Independent closed-form worst errors (truncation, capping)."""
    if isinstance(spec, PowerSpec):
        al = spec.alpha
        star = c ** (1.0 / al)
        trunc = c * u ** (1.0 - al) if u >= star else star
        ratio = (al - 1.0) ** (al - 1.0) / al ** al
        if u >= star * (al - 1.0) / al:
            cap = c * u ** (1.0 - al) * ratio
        else:
            cap = star - u
        return trunc, cap
    th = spec.theta
    star = math.log(c) / th
    trunc = u * (c - 1.0) / math.expm1(th * u) if u >= star else star
    x_u = optimize.brentq(
        lambda x: (x - u) * th * math.exp(th * x) - math.expm1(th * x),
        u + 1e-12, u + 60.0 / th, xtol=1e-13, rtol=8.9e-16)
    if x_u >= star:
        cap = (x_u - u) * (c - 1.0) / math.expm1(th * x_u)
    else:
        cap = star - u
    return trunc, cap


def _brute(spec, c, u, kind):
    """Two-atom grid search; the closed form must never lose by > 1e-6."""
    f0 = spec.f(0.0)
    best = 0.0
    x2 = np.geomspace(u + 1e-9, 40.0 * u + 40.0, 300)
    f2 = np.array([spec.f(x) for x in x2])
    for x1 in np.linspace(0.0, u, 30):
        f1 = spec.f(x1)
        if f1 >= c:
            continue
        p = np.minimum(1.0, (c - f1) / (f2 - f1))
        gain = p * (x2 if kind == "trunc" else x2 - u)
        best = max(best, float(gain.max()))
    return best


def test_07_truncation_capping_closed_forms():
    t0 = time.perf_counter()
    grids = [(PowerSpec(1.5), (0.5, 1.0, 2.0, 4.0)),
             (PowerSpec(2.0), (0.5, 1.0, 2.0, 4.0)),
             (PowerSpec(3.0), (0.5, 1.0, 2.0, 4.0)),
             (ExponentialSpec(1.0), (1.5, 3.0, 8.0, 20.0))]
    us = (0.2, 0.5, 1.0, 2.0, 4.0)
    worst = 0.0
    brute_excess = -math.inf
    for spec, cs in grids:
        for c in cs:
            for u in us:
                sol_t = worst_truncation_error(spec, c, u)
                sol_c = worst_capping_error(spec, c, u)
                want_t, want_c = _closed_forms(spec, c, u)
                worst = max(worst,
                            abs(sol_t.error / want_t - 1.0),
                            abs(sol_c.error / want_c - 1.0))
                brute_excess = max(
                    brute_excess,
                    _brute(spec, c, u, "trunc") - sol_t.error,
                    _brute(spec, c, u, "cap") - sol_c.error)
    r = (worst_capping_error(PowerSpec(2.0), 1.0, 3.0).error
         / worst_truncation_error(PowerSpec(2.0), 1.0, 3.0).error)
    dt = time.perf_counter() - t0
    conds = [("closed forms to 1e-10 on the 20-point grids", worst <= 1e-10),
             ("two-point capping/truncation ratio 1/4 at alpha=2",
              abs(r - 0.25) <= 1e-10),
             ("brute force never wins by > 1e-6", brute_excess <= 1e-6),
             ("runtime < 30 s", dt < 30.0)]
    _check("07 worst-case truncation and capping", conds,
           f"max rel dev {worst:.2e}, ratio {r:.12f}, brute excess "
           f"{brute_excess:.2e}, {dt:.1f} s")


def test_08_successive_elimination_bounded():
    t0 = time.perf_counter()
    arms = [Bernoulli(0.9), Bernoulli(0.5), Bernoulli(0.5)]
    sched = RadiusSchedule("bounded", d=3, delta=0.05, b=1.0)
    taus = expected_pulls_bound((0.4, 0.4), sched).tau_star
    reps = 1000
    correct = 0
    within = 0
    for r in range(reps):
        out = successive_elimination(arms, 0.05, sched, seed=8, stream=r)
        correct += out.chosen == 0
        within += (out.per_arm_samples[1] <= taus[0]
                   and out.per_arm_samples[2] <= taus[1])
    grid_ok = True
    for a in np.geomspace(math.e, 1e3, 10):
        for b in np.linspace(1.0, 50.0, 10):
            t_star, bound = solve_log_fixed_point(float(a), float(b))
            grid_ok = grid_ok and t_star <= bound * (1.0 + 1e-12)
    dt = time.perf_counter() - t0
    conds = [("best arm in >= 95%", correct >= 0.95 * reps),
             ("suboptimal pulls <= tau* in >= 99%", within >= 0.99 * reps),
             ("fixed point below its bound on the 100-point grid", grid_ok),
             ("runtime < 180 s", dt < 180.0)]
    _check("08 successive elimination, bounded radii", conds,
           f"correct {correct}/{reps}, within tau* {within}/{reps}, "
           f"tau* {taus[0]}, {dt:.1f} s")


def test_09_successive_elimination_heavy():
    t0 = time.perf_counter()
    p2 = concentration_constant(2.0)
    p2_hat = capped_concentration_constant(2.0)
    arms = [Pareto(3.0, 0.6), Pareto(3.0, 4.0 / 15.0)]
    # E|X|^1.5 for Pareto(3, s) is 2 s^1.5, within K = 1 for both arms
    moments = [2.0 * m.scale ** 1.5 for m in arms]
    sched = RadiusSchedule("heavy", d=2, delta=0.05, alpha=1.5, K=1.0)
    reps = 500
    correct = 0
    for r in range(reps):
        out = successive_elimination(arms, 0.05, sched, estimator="capped",
                                     seed=9, stream=r)
        correct += out.chosen == 0
    dt = time.perf_counter() - t0
    conds = [("p(2) to 1e-5", abs(p2 - 4.74754) <= 1e-5),
             ("p_hat(2) to 1e-5", abs(p2_hat - 2.49754) <= 1e-5),
             ("moment budget holds", max(moments) <= 1.0),
             ("gap is 0.5", abs(arms[0].mean() - arms[1].mean() - 0.5)
              <= 1e-12),
             ("best arm in >= 95%", correct >= 0.95 * reps),
             ("runtime < 180 s", dt < 180.0)]
    _check("09 successive elimination, heavy tails", conds,
           f"correct {correct}/{reps}, p(2) {p2:.5f}, p_hat(2) "
           f"{p2_hat:.5f}, {dt:.1f} s")


def test_10_negative_results():
    t0 = time.perf_counter()
    model = TwoPoint(1.0, 0.55)
    delta = 1e-3
    reps = 100_000

    def policy(truth, dlt, seed, streams):
        return two_phase_select(truth, dlt, 1.0, 1.0, seed, stream=streams)

    fs = sum(o.false_selection
             for o in replicate(policy, model, delta, 10, reps))
    rate = fs / reps
    lower = rate - _ci99(rate, reps)

    base = Mirrored(ShiftedExponential(0.96, 1.0))
    k = 10.0 * abs(base.mean()) + 10.0
    tilted = tilt(base, 0.01, k)
    kl = tilted.kl_from_base()
    floor = lower_bound_samples(base, tilted, delta)
    dt = time.perf_counter() - t0
    conds = [("fs rate exceeds delta at 99% confidence", lower > delta),
             ("tilt KL <= 0.01", kl <= 0.01),
             ("tilt mean >= 10|mu| + 10", tilted.mean() >= k),
             ("sample floor >= 230 at delta = 1e-3", floor >= 230.0),
             ("runtime < 300 s", dt < 300.0)]
    _check("10 negative results demonstrated", conds,
           f"fs {rate:.4f} (lower CI {lower:.4f} vs delta {delta}), "
           f"KL {kl:.4f}, mean {tilted.mean():.2f} >= {k}, floor "
           f"{floor:.0f}, {dt:.0f} s")


_ALL = [test_01_two_phase_exponents, test_02_certificate_triples,
        test_03_empirical_rate_oracle, test_04_tail_probability_slope,
        test_05_hoeffding_policy, test_06_capped_policy,
        test_07_truncation_capping_closed_forms,
        test_08_successive_elimination_bounded,
        test_09_successive_elimination_heavy, test_10_negative_results]

if __name__ == "__main__":
    failures = 0
    for fn in _ALL:
        try:
            fn()
        except AssertionError:
            failures += 1
    print(f"\n{len(_ALL) - failures}/{len(_ALL)} criteria passed")
    sys.exit(1 if failures else 0)
