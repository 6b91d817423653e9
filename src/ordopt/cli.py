"""Command-line front end: subcommands, config files, CSV emission.

Seeding discipline: one run-level seed; replication r uses stream index r,
and sampling inside a replication offsets sub-streams by arm index (see the
selection module). Identical (config, seed) pairs therefore reproduce the
same draw counts and decisions on any machine. `select` and `mc-fs` run
their replications through one engine, `selectors.replicate`, which hands
each policy whole blocks of streams; no adapter loops over streams itself.

Experiment configs come either as a flat INI file with [model:NAME],
[policy] and [run] sections, or as a JSON object {"models": .., "policy":
.., "run": ..}. Models are also writable as compact strings, e.g.
"two-point:1,0.6", "bernoulli:0.3", "mirrored:shifted-exponential:0.96,1",
"empirical:0.2;0.8". CSV output is UTF-8 with a header row and 17
significant digits, written to a temp file and renamed so a failed run
never leaves a partial file. The per-replication `select` CSV ends each row
with the replication's rounds and termination.

Exit codes: 0 success, 1 reproduce found a failing item, 2 validation
error, 3 numerical (solver) failure.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import functools
import json
import math
import os
import re
import sys
import tempfile

import numpy as np

from . import adversarial, selectors, truncation
from .empirical_rate import estimate_rate_at
from .meta_rate import (
    inf_meta_rate,
    meta_rate,
    sequential_failure_certificate,
    two_phase_exponent,
)
from .populations import (
    _VARIANTS,
    Empirical,
    Mirrored,
    ShiftedExponential,
    TwoPoint,
)
from .selectors import MomentBound, RadiusSchedule, _rng
from .truncation import (
    ExponentialSpec,
    PowerSpec,
    TwoPointSupport,
    worst_capping_error,
    worst_truncation_error,
)

__all__ = ["ExperimentConfig", "main", "parse_model", "run_reproduce"]

def parse_model(spec: str):
    """Model from a compact string like "pareto:3,0.55"."""
    name, sep, rest = str(spec).strip().partition(":")
    name = name.strip().lower()
    if name == "mirrored":
        if not rest.strip():
            raise ValueError("model: mirrored needs a base model after ':'")
        return Mirrored(parse_model(rest))
    if name == "empirical":
        pts = [float(t) for t in re.split(r"[;,\s]+", rest.strip()) if t]
        if not pts:
            raise ValueError("model: empirical needs sample points")
        return Empirical(np.asarray(pts, dtype=float))
    if name not in _VARIANTS:
        raise ValueError(f"model: unknown type '{name}'")
    cls, fields = _VARIANTS[name]
    args = [float(t) for t in rest.split(",") if t.strip()] if sep else []
    if len(args) > len(fields):
        raise ValueError(
            f"model: '{name}' takes at most {len(fields)} parameters "
            f"({', '.join(fields)})")
    return cls(*args)


def _model_from_mapping(m, where):
    if "spec" in m:
        return parse_model(m["spec"])
    t = str(m.get("type", "")).strip().lower()
    if not t:
        raise ValueError(f"{where}: needs a 'type' or 'spec' entry")
    if t == "mirrored":
        base = m.get("base")
        if base is None:
            raise ValueError(f"{where}: mirrored needs a 'base' entry")
        inner = (parse_model(base) if isinstance(base, str)
                 else _model_from_mapping(base, where + ".base"))
        return Mirrored(inner)
    if t == "empirical":
        pts = m.get("points")
        if isinstance(pts, str):
            pts = [float(x) for x in re.split(r"[;,\s]+", pts.strip()) if x]
        if not pts:
            raise ValueError(f"{where}: empirical needs 'points'")
        return Empirical(np.asarray(pts, dtype=float))
    if t not in _VARIANTS:
        raise ValueError(f"{where}: unknown type '{t}'")
    cls, fields = _VARIANTS[t]
    extra = set(m) - {"type"} - set(fields)
    if extra:
        raise ValueError(f"{where}: unexpected fields {sorted(extra)}")
    kwargs = {f: float(m[f]) for f in fields if f in m}
    return cls(**kwargs)


class ExperimentConfig:
    """Resolved models plus policy and run blocks, validated up front."""

    def __init__(self, models, policy_name, policy_params, delta,
                 replications, seed, out):
        if not models:
            raise ValueError("models: at least one model block is required")
        if not 0.0 < delta < 1.0:
            raise ValueError("run.delta: must lie in (0, 1)")
        if replications < 1:
            raise ValueError("run.replications: must be at least 1")
        if seed < 0:
            raise ValueError("run.seed: must be a nonnegative integer")
        self.names = tuple(n for n, _ in models)
        self.models = tuple(m for _, m in models)
        self.policy_name = policy_name
        self.delta = float(delta)
        self.replications = int(replications)
        self.seed = int(seed)
        self.out = out
        # building the adapter runs every module-level parameter check
        # before any sampling begins
        self.policy = _build_adapter(policy_name, policy_params,
                                     len(self.models), self.delta)


def _fparam(params, key, where, default=None):
    raw = params.get(key, default)
    if raw is None:
        raise ValueError(f"{where}.{key}: required for this policy")
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise ValueError(f"{where}.{key}: not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{where}.{key}: must be finite, got {raw!r}")
    return value


def _build_adapter(name, params, d, delta):
    p = {k: v for k, v in params.items() if v is not None}
    if name == "two-phase":
        if d != 1:
            raise ValueError("policy: two-phase takes exactly one model")
        c1 = _fparam(p, "c1", "policy")
        c2 = _fparam(p, "c2", "policy")

        def policy(truth, dlt, seed, streams):
            return selectors.two_phase_select(truth[0], dlt, c1, c2, seed,
                                              stream=streams)
    elif name == "sequential":
        if d != 1:
            raise ValueError("policy: sequential takes exactly one model")
        c1 = _fparam(p, "c1", "policy")
        round_cap = int(_fparam(p, "round_cap", "policy", 50))

        def policy(truth, dlt, seed, streams):
            return selectors.sequential_select(truth[0], dlt, (c1,),
                                               round_cap=round_cap,
                                               seed=seed, stream=streams)
    elif name == "hoeffding":
        eps = _fparam(p, "epsilon", "policy")
        b = _fparam(p, "b", "policy")

        def policy(truth, dlt, seed, streams):
            return selectors.hoeffding_select(truth, eps, dlt, b, seed,
                                              stream=streams)
    elif name == "capped":
        eps = _fparam(p, "epsilon", "policy")
        beta = _fparam(p, "beta", "policy")
        alpha = _fparam(p, "alpha", "policy")
        budget = _fparam(p, "K", "policy")
        try:
            bounds = MomentBound(PowerSpec(alpha), (budget,) * d)
        except ValueError as e:
            raise ValueError(f"policy: {e}") from None

        def policy(truth, dlt, seed, streams):
            return selectors.capped_select(truth, eps, dlt, bounds, beta,
                                           seed, stream=streams)
    elif name == "succ-elim":
        estimator = str(p.get("estimator", "plain"))
        pull_cap = int(_fparam(p, "pull_cap", "policy", 1_000_000))
        try:
            if "alpha" in p or "K" in p:
                schedule = RadiusSchedule(
                    "heavy", d, delta, alpha=_fparam(p, "alpha", "policy"),
                    K=_fparam(p, "K", "policy"))
            elif "b" in p:
                schedule = RadiusSchedule("bounded", d, delta,
                                          b=_fparam(p, "b", "policy"))
            else:
                raise ValueError(
                    "succ-elim needs b (bounded) or alpha and K (heavy)")
        except ValueError as e:
            raise ValueError(f"policy: {e}") from None

        def policy(truth, dlt, seed, streams):
            return selectors.successive_elimination(
                truth, dlt, schedule, estimator=estimator, seed=seed,
                pull_cap=pull_cap, stream=streams)
    else:
        raise ValueError(f"policy: unknown policy '{name}'")
    return policy


# ---------------------------------------------------------------- config IO

def _read_sections(path):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return json.loads(text), True
    cp = configparser.ConfigParser()
    cp.read_string(text)
    return cp, False


def _load_experiment_file(path):
    raw, is_json = _read_sections(path)
    models, policy, run = [], {}, {}
    if is_json:
        for nm, entry in dict(raw.get("models", {})).items():
            models.append((nm, entry))
        policy = dict(raw.get("policy", {}))
        run = dict(raw.get("run", {}))
    else:
        for sec in raw.sections():
            if sec.startswith("model:"):
                models.append((sec[len("model:"):], dict(raw[sec])))
            elif sec == "policy":
                policy = dict(raw[sec])
            elif sec == "run":
                run = dict(raw[sec])
            else:
                raise ValueError(f"config: unknown section '{sec}'")
    return models, policy, run


def _load_models_file(path):
    raw, is_json = _read_sections(path)
    if is_json:
        return list(dict(raw).items())
    return [(sec, dict(raw[sec])) for sec in raw.sections()]


def _resolve_model(entry, where):
    if isinstance(entry, str):
        return parse_model(entry)
    return _model_from_mapping(entry, where)


def _experiment_from_args(args):
    models_raw, policy, run = [], {}, {}
    if args.config:
        models_raw, policy, run = _load_experiment_file(args.config)
    if args.models:
        models_raw = _load_models_file(args.models)
    models = [(nm, _resolve_model(entry, f"model:{nm}"))
              for nm, entry in models_raw]

    for key in ("epsilon", "c1", "c2", "beta", "alpha", "K", "b",
                "estimator", "pull_cap", "round_cap"):
        val = getattr(args, key, None)
        if val is not None:
            policy[key] = val
    if args.policy is not None:
        policy["name"] = args.policy
    name = policy.pop("name", None)
    if not name:
        raise ValueError("policy.name: required (use --policy)")

    delta = args.delta if args.delta is not None else run.get("delta")
    if delta is None:
        raise ValueError("run.delta: required (use --delta)")
    reps = (args.replications if args.replications is not None
            else int(run.get("replications", 0) or 0))
    seed = args.seed if args.seed is not None else int(run.get("seed", 0))
    out = args.out if args.out is not None else run.get("out")
    if args.d is not None and args.d != len(models):
        raise ValueError(
            f"models: got {len(models)} model blocks but --d {args.d}")
    return ExperimentConfig(models, name, policy, float(delta), reps,
                            seed, out)


# ------------------------------------------------------------------- output

def _fmt(v):
    return format(float(v), ".17g")


def _write_csv(path, header, rows):
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _strict(v):
    """v with each non-finite float, nested in dicts and lists too,
    written as the string "inf", "-inf" or "nan"."""
    if isinstance(v, dict):
        return {k: _strict(x) for k, x in v.items()}
    if isinstance(v, list):
        return [_strict(x) for x in v]
    if isinstance(v, float) and not math.isfinite(v):
        return str(float(v))
    return v


def _json(record):
    """Strict JSON text: no NaN or Infinity tokens."""
    return json.dumps(_strict(record), allow_nan=False)


def _emit(args, record, text):
    print(_json(record) if args.json else text)


def _kv(record):
    return " ".join(f"{k}={v:.10g}" if isinstance(v, float) else f"{k}={v}"
                    for k, v in record.items())


# -------------------------------------------------------------- subcommands

def _cmd_rate_estimate(args):
    if (args.values is None) == (args.model is None):
        raise ValueError(
            "rate-estimate: give exactly one of --values or --model")
    if args.values is not None:
        batch = np.asarray(
            [float(t) for t in re.split(r"[;,\s]+", args.values.strip())
             if t], dtype=float)
    else:
        if args.m is None or args.m < 1:
            raise ValueError("rate-estimate: --m must be a positive count")
        model = parse_model(args.model)
        batch = model.draw(_rng(args.seed or 0, 0, 0), args.m)
    est = estimate_rate_at(batch, args.x)
    record = {"value": est.value, "theta_star": est.theta_star,
              "status": est.status, "iterations": est.iterations}
    if args.out:
        _write_csv(args.out, ["value", "theta_star", "status", "iterations"],
                   [[_fmt(est.value),
                     "" if est.theta_star is None else _fmt(est.theta_star),
                     est.status, est.iterations]])
    _emit(args, record, _kv(record))
    return 0


def _cmd_meta_rate(args):
    model = parse_model(args.model)
    modes = [args.a is not None, args.theta is not None, args.exponent,
             args.certificate]
    if sum(bool(m) for m in modes) != 1:
        raise ValueError("meta-rate: give exactly one of --a, --theta "
                         "(with --nu), --exponent, or --certificate")
    if args.theta is not None:
        if args.nu is None:
            raise ValueError("meta-rate: --theta needs --nu")
        r = meta_rate(model, args.theta, args.nu)
        record = {"mode": "pointwise", "value": r.value,
                  "alpha_star": r.alpha_star, "theta": r.theta, "nu": r.nu,
                  "status": r.status}
    elif args.a is not None:
        value, theta_star = inf_meta_rate(model, args.a)
        record = {"mode": "infimum", "value": value,
                  "theta_star": theta_star, "a": args.a}
    elif args.exponent:
        if args.c1 is None or args.c2 is None:
            raise ValueError("meta-rate: --exponent needs --c1 and --c2")
        r = two_phase_exponent(model, args.c1, args.c2)
        record = {"mode": "exponent", "exponent": r.exponent,
                  "gamma_star": r.gamma_star, "theta_star": r.theta_star,
                  "alpha_star": r.alpha_star}
    else:
        if args.c1 is None:
            raise ValueError("meta-rate: --certificate needs --c1")
        theta, alpha_star, value, certified = (
            sequential_failure_certificate(model, args.c1))
        record = {"mode": "certificate", "theta": theta,
                  "alpha_star": alpha_star, "value": value,
                  "certified": bool(certified)}
    if args.out:
        keys = list(record)
        _write_csv(args.out, keys,
                   [[record[k] if isinstance(record[k], str)
                     else _fmt(record[k]) if isinstance(record[k], float)
                     else record[k] for k in keys]])
    _emit(args, record, _kv(record))
    return 0


def _replicate(cfg):
    outcomes = selectors.replicate(cfg.policy, cfg.models, cfg.delta,
                                   cfg.seed, cfg.replications)
    return outcomes, adversarial.fs_estimate(outcomes)


def _cmd_select(args):
    cfg = _experiment_from_args(args)
    outcomes, est = _replicate(cfg)
    if cfg.out:
        d = len(cfg.models)
        header = (["replication", "chosen", "samples_total"]
                  + [f"pulls_{nm}" for nm in cfg.names]
                  + ["fs_flag", "rounds", "termination"])
        rows = [[r, o.chosen, sum(o.per_arm_samples),
                 *[int(n) for n in o.per_arm_samples],
                 int(bool(o.false_selection)), o.rounds, o.termination]
                for r, o in enumerate(outcomes)]
        rows.append(["summary", _fmt(est.fs_rate), _fmt(est.mean_samples),
                     _fmt(est.ci_low), _fmt(est.ci_high)] + [""] * (d + 1))
        _write_csv(cfg.out, header, rows)
    record = {"fs_rate": est.fs_rate, "ci_low": est.ci_low,
              "ci_high": est.ci_high, "mean_samples": est.mean_samples,
              "replications": cfg.replications, "out": cfg.out}
    _emit(args, record, _kv(record))
    return 0


def _cmd_mc_fs(args):
    cfg = _experiment_from_args(args)
    _, est = _replicate(cfg)
    if cfg.out:
        _write_csv(cfg.out, ["fs_rate", "ci_low", "ci_high",
                             "mean_samples"],
                   [[_fmt(est.fs_rate), _fmt(est.ci_low), _fmt(est.ci_high),
                     _fmt(est.mean_samples)]])
    record = {"fs_rate": est.fs_rate, "ci_low": est.ci_low,
              "ci_high": est.ci_high, "mean_samples": est.mean_samples,
              "replications": cfg.replications}
    _emit(args, record, _kv(record))
    return 0


def _parse_f_spec(spec):
    name, _, rest = str(spec).strip().partition(":")
    name = name.strip().lower()
    if name == "power":
        return PowerSpec(float(rest))
    if name in ("exp", "exponential"):
        return ExponentialSpec(float(rest))
    raise ValueError(f"f-spec: unknown family '{name}' "
                     "(use power:ALPHA or exp:THETA)")


def _cmd_trunc_error(args):
    spec = _parse_f_spec(args.f)
    fn = (worst_truncation_error if args.kind == "truncation"
          else worst_capping_error)
    sol = fn(spec, args.c, args.u)
    if isinstance(sol.support, TwoPointSupport):
        support = {"branch": "two-point", "low": sol.support.low,
                   "high": sol.support.high, "p_high": sol.support.p_high}
    else:
        support = {"branch": "degenerate", "point": sol.support.point}
    record = {"kind": args.kind, "error": sol.error, "c": args.c,
              "u": args.u, **support}
    if args.out:
        keys = list(record)
        _write_csv(args.out, keys,
                   [[record[k] if isinstance(record[k], str) else
                     _fmt(record[k]) for k in keys]])
    _emit(args, record, _kv(record))
    return 0


def _cmd_tilt(args):
    model = parse_model(args.model)
    td = adversarial.tilt(model, args.alpha_target, args.k)
    record = {"b": td.b, "gamma": td.gamma, "beta_factor": td.beta_factor,
              "mean": td.mean(), "kl": td.kl_from_base()}
    if args.out:
        keys = list(record)
        _write_csv(args.out, keys, [[_fmt(record[k]) for k in keys]])
    _emit(args, record, _kv(record))
    return 0


def _cmd_lower_bound(args):
    g = parse_model(args.model)
    if (args.model2 is None) == (args.alpha_target is None):
        raise ValueError("lower-bound: give either --model2 or a tilt "
                         "request (--alpha-target with --k)")
    if args.model2 is not None:
        gt = parse_model(args.model2)
    else:
        if args.k is None:
            raise ValueError("lower-bound: --alpha-target needs --k")
        gt = adversarial.tilt(g, args.alpha_target, args.k)
    from .populations import kl_divergence
    kl = kl_divergence(g, gt)
    samples = adversarial.lower_bound_samples(g, gt, args.delta, kl=kl)
    record = {"kl": kl, "samples": samples, "delta": args.delta}
    if args.out:
        _write_csv(args.out, ["kl", "samples", "delta"],
                   [[_fmt(kl), _fmt(samples), _fmt(args.delta)]])
    _emit(args, record, _kv(record))
    return 0


def _cmd_quantile_gadget(args):
    qg = adversarial.quantile_gadget(args.p, args.epsilon, args.mu)
    record = {"kl_bound": qg.kl_bound, "quantile_gap": qg.quantile_gap,
              "p": args.p, "epsilon": args.epsilon, "mu": args.mu}
    if args.out:
        keys = list(record)
        _write_csv(args.out, keys, [[_fmt(record[k]) for k in keys]])
    _emit(args, record, _kv(record))
    return 0


# ---------------------------------------------------------------- reproduce

def _item(group, name, computed, expected, tol, passed):
    return {"group": group, "name": name, "computed": computed,
            "expected": expected, "tol": tol, "pass": bool(passed)}


def _items_two_phase():
    out = []
    for p, expected in ((0.55, 0.105), (0.52, 0.047), (0.51, 0.025)):
        r = two_phase_exponent(TwoPoint(1.0, p), 1.0, 1.0)
        out.append(_item("two-phase", f"exponent at p_minus={p}",
                         r.exponent, expected, "abs 0.002",
                         abs(r.exponent - expected) <= 2e-3))
    return out


_REPORTED_TRIPLES = (
    (2.0, (2.133, 0.0607, 0.2231)),
    (5.0, (0.987, 0.201, 0.1259)),
    (100.0, (0.129, 1.1792, 0.005425)),
)


def _items_certificate():
    out = []
    model = ShiftedExponential(0.96, 1.0)
    for c1, (te, ae, ie) in _REPORTED_TRIPLES:
        theta, alpha, value, _ = (
            sequential_failure_certificate(model, c1))
        ok = (abs(theta - te) <= 0.01 * te
              and abs(alpha - ae) <= 0.01 * ae
              and abs(value - ie) <= 0.005 * ie)
        out.append(_item(
            "certificate", f"triple at c1={c1:g}",
            f"({theta:.6g}, {alpha:.6g}, {value:.6g})",
            f"({te}, {ae}, {ie})", "rel 1%/1%/0.5%", ok))
    return out


def _brute_worst(spec, c, u, n=20001):
    """Worst (truncation, capping) bias on a grid, independent of the closed
    forms: over {mass q at x >= u, rest at 0}, the bias is q x (truncation)
    or q (x - u) (capping) subject to q f(x) + (1-q) f(0) <= c."""
    f0 = spec.f(0.0)
    if isinstance(spec, PowerSpec):
        hi = 10.0 * max(u, c ** (1.0 / spec.alpha), 1.0)
    else:
        hi = u + 80.0 / spec.theta
    xs = np.geomspace(max(u, 1e-9), hi, n)
    fx = (xs ** spec.alpha if isinstance(spec, PowerSpec)
          else np.exp(spec.theta * xs))
    with np.errstate(divide="ignore"):
        q = np.where(fx > f0, np.minimum(1.0, (c - f0) / (fx - f0)), 1.0)
    return float((q * xs).max()), float((q * (xs - u)).max())


def _items_capping():
    out = []
    specs = (("power alpha=1.5", PowerSpec(1.5), (1.0, 2.0)),
             ("power alpha=2", PowerSpec(2.0), (1.0, 2.0)),
             ("power alpha=3", PowerSpec(3.0), (1.0, 2.0)),
             ("exponential theta=1", ExponentialSpec(1.0), (1.5, 3.0)))
    for label, spec, cs in specs:
        excess = -math.inf
        for c in cs:
            for u in (0.3, 0.9):
                brute = _brute_worst(spec, c, u)
                for fn, worst in zip((worst_truncation_error,
                                      worst_capping_error), brute):
                    excess = max(excess, worst - fn(spec, c, u).error)
        out.append(_item("capping", f"grid never beats closed form, {label}",
                         excess, "<= 1e-6", "abs 1e-6", excess <= 1e-6))

    # on the two-point branch the capping/truncation ratio collapses to
    # (alpha-1)^(alpha-1)/alpha^alpha, which is 1/4 at alpha = 2
    spec = PowerSpec(2.0)
    ratio = None
    for u in (1.2, 1.5, 2.0, 3.0):
        t = worst_truncation_error(spec, 1.0, u)
        cp = worst_capping_error(spec, 1.0, u)
        if (isinstance(t.support, TwoPointSupport)
                and isinstance(cp.support, TwoPointSupport)):
            ratio = cp.error / t.error
            break
    ok = ratio is not None and abs(ratio - 0.25) <= 1e-10
    out.append(_item("capping", "capping/truncation ratio at alpha=2",
                     math.nan if ratio is None else ratio, 0.25,
                     "abs 1e-10", ok))
    return out


def _items_beta():
    out = []
    bounds = MomentBound(PowerSpec(2.0), (1.0,))
    ob = selectors.optimal_beta(bounds)
    out.append(_item("beta", "optimal beta equals 1/alpha at alpha=2",
                     ob, 0.5, "abs 1e-9", abs(ob - 0.5) <= 1e-9))
    eps = 0.5

    def budget_factor(beta):
        r = selectors.capping_radius(bounds, beta * eps)
        return r * r / ((1.0 - beta) ** 2)

    grid = np.linspace(0.05, 0.95, 181)
    gap = budget_factor(0.5) - min(budget_factor(b) for b in grid)
    out.append(_item("beta", "beta=1/2 minimizes the sample budget",
                     gap, "<= 0", "abs 1e-12", gap <= 1e-12))
    return out


def _items_fixed_point():
    ratio = resid = -math.inf
    for a in np.geomspace(math.e, 1e3, 10):
        for b in np.linspace(1.0, 50.0, 10):
            t, bound = selectors.solve_log_fixed_point(a, b)
            ratio = max(ratio, t / bound)
            resid = max(resid, abs(t - a - b * math.log(t)) / t)
    return [
        _item("fixed-point", "t* within closed bound on 10x10 grid",
              ratio, "<= 1", "rel 1e-12", ratio <= 1.0 + 1e-12),
        _item("fixed-point", "fixed-point residual on grid",
              resid, "<= 1e-9", "abs 1e-9", resid <= 1e-9),
    ]


_REPRODUCE_GROUPS = {
    "two-phase": _items_two_phase,
    "certificate": _items_certificate,
    "capping": _items_capping,
    "beta": _items_beta,
    "fixed-point": _items_fixed_point,
}


def run_reproduce(only=None):
    """All reproduction items (or one named group) as result records."""
    if only is not None and only not in _REPRODUCE_GROUPS:
        raise ValueError(
            f"--only: unknown group '{only}' (choose from "
            f"{', '.join(sorted(_REPRODUCE_GROUPS))})")
    groups = ([only] if only is not None else list(_REPRODUCE_GROUPS))
    items = []
    for g in groups:
        items.extend(_REPRODUCE_GROUPS[g]())
    return items


def _cmd_reproduce(args):
    items = run_reproduce(args.only)
    n_pass = sum(1 for it in items if it["pass"])
    if args.json:
        print(_json({"items": items, "pass": n_pass == len(items)}))
    else:
        for it in items:
            status = "PASS" if it["pass"] else "FAIL"
            comp = (f"{it['computed']:.8g}"
                    if isinstance(it["computed"], float) else it["computed"])
            print(f"{status} [{it['group']}] {it['name']}: "
                  f"computed={comp} expected={it['expected']} "
                  f"tol={it['tol']}")
        print(f"{n_pass}/{len(items)} items passed")
    if args.out:
        _write_csv(args.out,
                   ["group", "name", "computed", "expected", "tol", "pass"],
                   [[it["group"], it["name"],
                     _fmt(it["computed"]) if isinstance(it["computed"],
                                                        float)
                     else it["computed"],
                     it["expected"], it["tol"], int(it["pass"])]
                    for it in items])
    return 0 if n_pass == len(items) else 1


# ------------------------------------------------------------------- parser

def _finite(text):
    """argparse type of every float option: nan and +-inf exit 2."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads an argument made of a dash and then a
    digit, a point and a digit, "inf" or "nan" as a value, never as an
    option. Plain argparse reads only -5 and -.5 that way, so
    "--theta -5e-1", "--theta -inf" and "--values -1,1,1" stopped with
    "expected one argument" where "--theta=-5e-1" parsed. No option of
    the CLI is spelt like a negative number, so none is shadowed."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)",
                                                   re.IGNORECASE)


@functools.cache
def _build_parser():
    """The parser, built once per process; parse_args leaves it as it
    was, so main may be called any number of times."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="run-level RNG seed (default 0)")
    common.add_argument("--out", default=None, help="CSV output path")
    common.add_argument("--json", action="store_true",
                        help="print a JSON record instead of key=value")

    parser = _Parser(
        prog="ordopt",
        description="Mean-selection toolkit: rate estimators, selection "
                    "policies, truncation bounds, lower-bound gadgets.")
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("rate-estimate", parents=[common],
                       help="empirical rate of a batch at a level x")
    q.add_argument("--values", help="comma/space separated sample values")
    q.add_argument("--model", help="model spec to draw a batch from")
    q.add_argument("--m", type=int, help="batch size when drawing")
    q.add_argument("--x", type=_finite, default=0.0, help="evaluation level")

    q = sub.add_parser("meta-rate", parents=[common],
                       help="meta-rate values, exponents, certificates")
    q.add_argument("--model", required=True)
    q.add_argument("--theta", type=_finite)
    q.add_argument("--nu", type=_finite)
    q.add_argument("--a", type=_finite, help="level for the infimum mode")
    q.add_argument("--exponent", action="store_true")
    q.add_argument("--certificate", action="store_true")
    q.add_argument("--c1", type=_finite)
    q.add_argument("--c2", type=_finite)

    for cmd, help_text in (("select", "run a policy and write one CSV row "
                                      "per replication"),
                           ("mc-fs", "false-selection rate of a policy "
                                     "over replications")):
        q = sub.add_parser(cmd, parents=[common], help=help_text)
        q.add_argument("--policy", choices=["two-phase", "sequential",
                                            "hoeffding", "capped",
                                            "succ-elim"])
        q.add_argument("--config", help="experiment config (INI or JSON)")
        q.add_argument("--models", help="models config (INI or JSON)")
        q.add_argument("--delta", type=_finite)
        q.add_argument("--epsilon", type=_finite)
        q.add_argument("--c1", type=_finite)
        q.add_argument("--c2", type=_finite)
        q.add_argument("--beta", type=_finite)
        q.add_argument("--alpha", type=_finite)
        q.add_argument("--K", type=_finite)
        q.add_argument("--b", type=_finite)
        q.add_argument("--d", type=int)
        q.add_argument("--estimator", choices=["plain", "truncated",
                                               "capped"])
        q.add_argument("--pull-cap", dest="pull_cap", type=int)
        q.add_argument("--round-cap", dest="round_cap", type=int)
        q.add_argument("--replications", type=int)

    q = sub.add_parser("trunc-error", parents=[common],
                       help="worst-case truncation or capping bias")
    q.add_argument("--f", required=True, help="power:ALPHA or exp:THETA")
    q.add_argument("--c", type=_finite, required=True)
    q.add_argument("--u", type=_finite, required=True)
    q.add_argument("--kind", choices=["truncation", "capping"],
                   default="truncation")

    q = sub.add_parser("tilt", parents=[common],
                       help="KL-budgeted mean-lifting tilt of a model")
    q.add_argument("--model", required=True)
    q.add_argument("--alpha-target", dest="alpha_target", type=_finite,
                   required=True)
    q.add_argument("--k", type=_finite, required=True)

    q = sub.add_parser("lower-bound", parents=[common],
                       help="sample-count floor from a KL dichotomy")
    q.add_argument("--model", required=True)
    q.add_argument("--model2")
    q.add_argument("--alpha-target", dest="alpha_target", type=_finite)
    q.add_argument("--k", type=_finite)
    q.add_argument("--delta", type=_finite, required=True)

    q = sub.add_parser("quantile-gadget", parents=[common],
                       help="mixture pair with small KL, large quantile gap")
    q.add_argument("--p", type=_finite, required=True)
    q.add_argument("--epsilon", type=_finite, required=True)
    q.add_argument("--mu", type=_finite, required=True)

    q = sub.add_parser("reproduce", parents=[common],
                       help="re-derive the reported numbers, PASS/FAIL each")
    q.add_argument("--only", help="run a single item group")
    return parser


_COMMANDS = {
    "rate-estimate": _cmd_rate_estimate,
    "meta-rate": _cmd_meta_rate,
    "select": _cmd_select,
    "mc-fs": _cmd_mc_fs,
    "trunc-error": _cmd_trunc_error,
    "tilt": _cmd_tilt,
    "lower-bound": _cmd_lower_bound,
    "quantile-gadget": _cmd_quantile_gadget,
    "reproduce": _cmd_reproduce,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as e:
        print(f"error: validation: {e}", file=sys.stderr)
        return 2
    except RuntimeError as e:
        best = getattr(e, "best", None)
        suffix = f" (best iterate: {best!r})" if best is not None else ""
        print(f"error: numerical: {e}{suffix}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
