"""The benchmark's workloads: the operations each pass runs, and their checks.

A pass is a fixed list of operations; the worker replays it until the run's
time is up, so every pass of one run does identical work.

mc-two-phase   One ``ordopt select`` of the two-phase policy on
               two-point:1,0.55 (acceptance check 10's configuration). The
               rate estimate on 7-value pilots dominates; per-replication
               overhead and a batched replication engine show here.
mc-policy-mix  One run of each other policy at its acceptance configuration,
               replication counts weighted so that each policy takes a
               comparable share of the pass. Sequential calls the rate
               estimate on batches of 7 to 350 values; the comparison
               policies carry the Philox-stream and draw costs; hoeffding
               runs through ``ordopt mc-fs``, the second replication loop.
analytic       No sampling: reproduce groups, two-phase exponents, a meta-rate
               supremum and pointwise values, truncation grids, tilt and
               lower bound, timed; certificate triples and meta-rate
               infima, checked and traced but untimed. It bypasses
               replication and the rate estimate entirely.

An op of an mc-* workload is one replication; an op of ``analytic`` is one
call. Each op is checked: pinned outputs must match ``expected.json``
(mc pins hold at seed offset 0 only, analytic pins at every seed), and
acceptance claims and invariants must hold on every seed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os

WORKLOADS = ("mc-two-phase", "mc-policy-mix", "analytic")
Z99 = 2.576


class Op:
    """One call into ordopt: a CLI argv, or a library call for the few
    functions the CLI does not expose.

    reps is the number of replications the call runs (1 for analytic ops);
    observe(result) gives the values pinned in expected.json and
    claims(result) the names of invariants that failed. An untimed op runs
    once per run outside the timed passes, and in every traced pass.
    """

    def __init__(self, name, argv=None, call=None, reps=1, out=None,
                 observe=None, claims=None, timed=True):
        self.name = name
        self.timed = timed
        self.argv = argv
        self.call = call
        self.reps = reps
        self.out = out
        self.observe = observe or (lambda r: {})
        self.claims = claims or (lambda r: [])


def _ci99(rate, n):
    return Z99 * math.sqrt(rate * (1.0 - rate) / n)


def _write_models(tmp, name, models):
    path = os.path.join(tmp, f"{name}.models.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(models, fh)
    return path


# ------------------------------------------------------------ mc workloads

def _replication_rows(result):
    rows = list(csv.reader(io.StringIO(result["csv"].decode("utf-8"))))
    return rows[0], rows[1:-1]


def _select_observe(result):
    """fs count, total samples and a digest of the per-replication rows.

    The digest covers only the outcome columns, so a later column (or a
    different confidence interval in the summary row) does not move it.
    """
    header, rows = _replication_rows(result)
    cols = [i for i, h in enumerate(header)
            if h in ("replication", "chosen", "samples_total", "fs_flag")
            or h.startswith("pulls_")]
    digest = hashlib.sha256()
    for row in rows:
        digest.update((",".join(row[i] for i in cols) + "\n").encode())
    return {"fs_count": sum(int(r[header.index("fs_flag")]) for r in rows),
            "samples_total": sum(int(r[header.index("samples_total")])
                                 for r in rows),
            "rows_sha256": digest.hexdigest()}


def _select_claims(reps, delta, claim):
    def claims(result):
        obs = _select_observe(result)
        rec = result["record"]
        bad = []
        if len(_replication_rows(result)[1]) != reps:
            bad.append("csv-row-count")
        if abs(rec["fs_rate"] - obs["fs_count"] / reps) > 1e-12:
            bad.append("fs-rate-matches-csv")
        if abs(rec["mean_samples"] * reps - obs["samples_total"]) > 1e-6 * (
                1.0 + obs["samples_total"]):
            bad.append("mean-samples-matches-csv")
        rate = obs["fs_count"] / reps
        if claim == "fs-above-delta" and not rate - _ci99(rate, reps) > delta:
            bad.append("fs-rate-exceeds-delta-at-99pct")
        if claim == "fs-within-delta" and not rate <= delta + _ci99(rate,
                                                                      reps):
            bad.append("fs-rate-within-delta-plus-ci")
        if claim == "best-arm-95" and not 1.0 - rate >= 0.95:
            bad.append("best-arm-in-95pct")
        return bad
    return claims


def _select_op(tmp, name, policy, models, params, reps, seed, delta, claim):
    out = os.path.join(tmp, f"{name}.csv")
    argv = ["select", "--policy", policy,
            "--models", _write_models(tmp, name, models),
            "--delta", repr(delta), *params, "--replications", str(reps),
            "--seed", str(seed), "--out", out, "--json"]
    return Op(name, argv=argv, reps=reps, out=out, observe=_select_observe,
              claims=_select_claims(reps, delta, claim))


def _mc_fs_op(tmp, name, policy, models, params, reps, seed, delta,
              samples_per_rep):
    out = os.path.join(tmp, f"{name}.csv")
    argv = ["mc-fs", "--policy", policy,
            "--models", _write_models(tmp, name, models),
            "--delta", repr(delta), *params, "--replications", str(reps),
            "--seed", str(seed), "--out", out, "--json"]

    def observe(result):
        rec = result["record"]
        return {"fs_count": round(rec["fs_rate"] * reps),
                "samples_total": round(rec["mean_samples"] * reps)}

    def claims(result):
        rate = result["record"]["fs_rate"]
        bad = []
        if not rate <= delta + _ci99(rate, reps):
            bad.append("fs-rate-within-delta-plus-ci")
        if result["record"]["mean_samples"] != samples_per_rep:
            bad.append("fixed-budget-in-every-replication")
        return bad

    return Op(name, argv=argv, reps=reps, out=out, observe=observe,
              claims=claims)


def mc_two_phase(offset, tmp):
    return [_select_op(tmp, "two-phase", "two-phase",
                       {"x": "two-point:1,0.55"}, ["--c1", "1", "--c2", "1"],
                       250, 10 + offset, 1e-3, "fs-above-delta")]


def mc_policy_mix(offset, tmp):
    bern = {"a": "bernoulli:0.3", "b": "bernoulli:0.5", "c": "bernoulli:0.5"}
    return [
        _select_op(tmp, "sequential", "sequential", {"x": "two-point:1,0.55"},
                   ["--c1", "1", "--round-cap", "50"], 8, 10 + offset,
                   1e-3, None),
        _mc_fs_op(tmp, "hoeffding", "hoeffding", bern,
                  ["--epsilon", "0.2", "--b", "1"], 1200, 5 + offset, 0.1,
                  450.0),
        _select_op(tmp, "capped", "capped",
                   {"a": "pareto:3,0.55", "b": "pareto:3,0.2"},
                   ["--epsilon", "0.5", "--beta", "0.5", "--alpha", "2",
                    "--K", "1"], 1600, 6 + offset, 0.1, "fs-within-delta"),
        _select_op(tmp, "succ-elim-bounded", "succ-elim",
                   {"a": "bernoulli:0.9", "b": "bernoulli:0.5",
                    "c": "bernoulli:0.5"},
                   ["--b", "1"], 320, 8 + offset, 0.05, "best-arm-95"),
        _select_op(tmp, "succ-elim-heavy", "succ-elim",
                   {"a": "pareto:3,0.6", "b": f"pareto:3,{4.0 / 15.0!r}"},
                   ["--alpha", "1.5", "--K", "1", "--estimator", "capped"],
                   20, 9 + offset, 0.05, "best-arm-95"),
    ]


# -------------------------------------------------------- analytic workload

def _record_observe(*keys):
    return lambda r: {k: r["record"][k] for k in keys}


def _finite_nonneg(key):
    def claims(result):
        v = result["record"][key]
        return [] if math.isfinite(v) and v >= 0 else [f"{key}-finite-nonneg"]
    return claims


def _phi(z):
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def _cdf(spec, x):
    name, _, rest = spec.partition(":")
    a, b = (float(t) for t in rest.split(","))
    if name == "gaussian":
        return _phi((x - a) / b)
    if name == "gaussian-mixture":
        return a * _phi(x) + (1.0 - a) * _phi(x - b)
    if name == "pareto":
        return 0.0 if x <= b else 1.0 - (b / x) ** a
    raise ValueError(spec)


def cramer_cap(spec, theta, nu):
    """-log P(W <= nu) for W = exp(theta X), from the model's own CDF."""
    x0 = math.log(nu) / theta
    p = _cdf(spec, x0) if theta > 0 else 1.0 - _cdf(spec, x0)
    return -math.log(p) if p > 0 else math.inf


def _pointwise_op(name, spec, theta, nu):
    def claims(result):
        v = result["record"]["value"]
        cap = cramer_cap(spec, theta, nu)
        ok = math.isfinite(v) and 0.0 <= v <= cap * (1.0 + 1e-9) + 1e-12
        return [] if ok else [f"cramer-bound J={v:.6g} cap={cap:.6g}"]
    return Op(name, argv=["meta-rate", "--model", spec, "--theta",
                          repr(theta), "--nu", repr(nu), "--json"],
              observe=_record_observe("value", "alpha_star"), claims=claims)


def _trunc_closed_form(f, c, u, kind):
    """Worst truncation / capping error from its closed form."""
    family, _, par = f.partition(":")
    par = float(par)
    if family == "power":
        star = c ** (1.0 / par)
        if kind == "truncation":
            return c * u ** (1.0 - par) if u >= star else star
        ratio = (par - 1.0) ** (par - 1.0) / par ** par
        if u >= star * (par - 1.0) / par:
            return c * u ** (1.0 - par) * ratio
        return star - u
    from scipy import optimize
    star = math.log(c) / par
    if kind == "truncation":
        return u * (c - 1.0) / math.expm1(par * u) if u >= star else star
    x_u = optimize.brentq(
        lambda x: (x - u) * par * math.exp(par * x) - math.expm1(par * x),
        u + 1e-12, u + 60.0 / par, xtol=1e-13, rtol=8.9e-16)
    if x_u >= star:
        return (x_u - u) * (c - 1.0) / math.expm1(par * x_u)
    return star - u


def _trunc_op(f, c, u, kind):
    def claims(result):
        want = _trunc_closed_form(f, c, u, kind)
        got = result["record"]["error"]
        return [] if abs(got / want - 1.0) <= 1e-9 else ["closed-form"]
    return Op(f"trunc-error {kind} {f} c={c:g} u={u:g}",
              argv=["trunc-error", "--f", f, "--c", repr(c), "--u", repr(u),
                    "--kind", kind, "--json"],
              observe=_record_observe("error"), claims=claims)


_EXPONENT_TARGETS = {"two-point:1,0.55": 0.105, "two-point:1,0.52": 0.047,
                     "two-point:1,0.51": 0.025, "two-point:4,0.55": 0.105}


def _exponent_op(spec):
    def claims(result):
        want = _EXPONENT_TARGETS.get(spec)
        got = result["record"]["exponent"]
        if want is not None and abs(got - want) > 2e-3:
            return [f"exponent {got:.4f} vs {want} within 0.002"]
        return _finite_nonneg("exponent")(result)
    return Op(f"exponent {spec}",
              argv=["meta-rate", "--model", spec, "--exponent", "--c1", "1",
                    "--c2", "1", "--json"],
              observe=_record_observe("exponent", "gamma_star", "theta_star",
                                      "alpha_star"), claims=claims)


def _is_gap(item):
    """An item whose computed value is a gap or residual checked against a
    bound near zero ("<= 0", "<= 1e-6"): round-off sets its digits, so its
    own pass flag is the check, not a pin."""
    bound = item["expected"]
    return (isinstance(bound, str) and bound.startswith("<=")
            and float(bound[2:]) < 1.0)


def _reproduce_op(group):
    def observe(result):
        return {it["name"]: it["computed"] for it in result["record"]["items"]
                if isinstance(it["computed"], float) and not _is_gap(it)}

    def claims(result):
        bad = [it["name"] for it in result["record"]["items"]
               if not it["pass"]]
        if result["rc"] != 0:
            bad.append(f"exit code {result['rc']}")
        for it in result["record"]["items"]:
            if it["name"].startswith("exponent at p_minus="):
                p = it["name"].rpartition("=")[2]
                want = _EXPONENT_TARGETS[f"two-point:1,{p}"]
                if abs(it["computed"] - want) > 2e-3:
                    bad.append(f"{it['name']} within 0.002")
        return bad
    return Op(f"reproduce {group}",
              argv=["reproduce", "--only", group, "--json"],
              observe=observe, claims=claims)


def _sup_op(a):
    def call():
        import importlib
        meta = importlib.import_module("ordopt.meta_rate")
        pop = importlib.import_module("ordopt.populations")
        value, theta, (lo, hi) = meta.sup_meta_rate_on_theta_a(
            pop.TwoPoint(1.0, 0.6), a)
        return {"value": float(value), "theta_star": theta, "lo": lo,
                "hi": hi}

    def claims(result):
        r = result["record"]
        bad = _finite_nonneg("value")(result)
        if not r["lo"] <= r["theta_star"] <= r["hi"]:
            bad.append("maximizer inside Theta_a")
        return bad
    return Op(f"sup_meta_rate_on_theta_a two-point:1,0.6 a={a:g}", call=call,
              observe=_record_observe("value", "theta_star"), claims=claims)


def _infimum_op(spec, a, prefix="", timed=True):
    return Op(f"{prefix}inf_meta_rate {spec} a={a:g}",
              argv=["meta-rate", "--model", spec, "--a", repr(a), "--json"],
              observe=_record_observe("value", "theta_star"),
              claims=_finite_nonneg("value"), timed=timed)


def _certificate_op(c1):
    # the quoted reference triples fail by design (see ROADMAP standing
    # notes); the benchmark pins the values this solver computes instead
    return Op(f"certificate shifted-exponential:0.96,1 c1={c1:g}",
              argv=["meta-rate", "--model", "shifted-exponential:0.96,1",
                    "--certificate", "--c1", repr(c1), "--json"],
              observe=_record_observe("theta", "alpha_star", "value",
                                      "certified"),
              claims=_finite_nonneg("value"), timed=False)


_TILT_MODEL = "mirrored:shifted-exponential:0.96,1"


def _tilt_ops():
    # acceptance check 10: KL budget 0.01, target mean 10|mu| + 10, where
    # mu = -(0.96 + 1) for the mirrored shifted exponential
    k = 10.0 * 1.96 + 10.0

    def tilt_claims(result):
        r = result["record"]
        bad = []
        if not r["kl"] <= 0.01 + 1e-12:
            bad.append("kl within budget")
        if not r["mean"] >= k:
            bad.append("mean reaches target")
        return bad

    def lb_claims(result):
        r = result["record"]
        want = math.log(1.0 / 1e-3) / (3.0 * r["kl"])
        bad = [] if abs(r["samples"] / want - 1.0) <= 1e-12 else [
            "samples = log(1/delta)/(3 KL)"]
        if not r["samples"] >= 230.0:
            bad.append("floor >= 230")
        return bad

    common = ["--model", _TILT_MODEL, "--alpha-target", "0.01", "--k",
              repr(k)]
    return [Op("tilt", argv=["tilt", *common, "--json"],
               observe=_record_observe("b", "gamma", "mean", "kl"),
               claims=tilt_claims),
            Op("lower-bound", argv=["lower-bound", *common, "--delta", "1e-3",
                                    "--json"],
               observe=_record_observe("kl", "samples"), claims=lb_claims)]


def analytic(offset, tmp):
    ops = [_reproduce_op(g) for g in ("two-phase", "capping", "beta",
                                      "fixed-point")]
    # the three certificate calls are the work of `reproduce --only
    # certificate`. They and the infima take 0.5 to 2 s each: timed, they
    # would leave a run only a few passes, too few for a steady median per
    # op, so they are checked once per run and traced in every traced pass,
    # but not timed.
    ops += [_certificate_op(c1) for c1 in (2.0, 5.0, 100.0)]
    ops += [_exponent_op(s) for s in ("two-point:1,0.55", "two-point:1,0.52",
                                      "two-point:1,0.51", "two-point:4,0.55",
                                      "two-point:1,0.6", "two-point:1,0.7")]
    ops += [_infimum_op("two-point:1,0.6", a, timed=False)
            for a in (0.03, 0.04, 0.06)]
    # one supremum and four pointwise values, one per sign of theta and
    # model: these quadrature calls take 0.1 to 0.2 s each and set most of
    # the pass, and a short pass lets a run hold enough passes for a
    # steady median per op
    ops += [_sup_op(0.01)]
    ops += [_pointwise_op(f"pointwise {spec} theta={t:g} nu={nu:g}", spec,
                          t, nu)
            for spec, t, nu in (("gaussian:-0.2,1", -0.5, 0.9),
                                ("gaussian:-0.2,1", 0.5, 0.8),
                                ("gaussian-mixture:0.3,5", -0.5, 0.3),
                                ("gaussian-mixture:0.3,5", 0.5, 8.0))]
    ops += [_trunc_op(f, c, u, kind)
            for f, c in (("power:1.5", 2.0), ("power:2", 1.0),
                         ("power:3", 1.0), ("exp:1", 3.0))
            for u in (0.5, 2.0) for kind in ("truncation", "capping")]
    ops += _tilt_ops()
    return ops


def probes():
    """Known defects, run once per analytic run outside the timed passes.

    Each is expected to fail until its defect is fixed; the inputs stay
    fixed so a fix shows as a drop in the failed count.
    """
    return [
        # density quadrature misses the Pareto peak: J = 498 above its
        # Cramer cap of 2.51
        _pointwise_op("probe pareto pointwise meta-rate", "pareto:3,0.6",
                      -0.5, 0.5),
        # t_mean(0) evaluates exp(log_mgf(theta)) on the +-64 theta grid
        _infimum_op("gaussian:-0.2,1", 0.1, "probe "),
        _infimum_op("gaussian-mixture:0.3,5", 1.5, "probe "),
    ]


BUILDERS = {"mc-two-phase": mc_two_phase, "mc-policy-mix": mc_policy_mix,
            "analytic": analytic}
