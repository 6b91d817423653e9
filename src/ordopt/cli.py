"""Command-line front end: subcommands, config files, CSV emission.

Seeding discipline: one run-level seed; replication r uses stream index r,
and sampling inside a replication offsets sub-streams by arm index (see the
selection module). Identical (config, seed) pairs therefore reproduce the
same draw counts and decisions on any machine. `select` and `mc-fs` run
their replications through one engine, `selectors.replicate`, which hands
the policy every stream in one call; no adapter loops over streams itself.

Experiment configs come either as a flat INI file with [model:NAME],
[policy] and [run] sections, or as a JSON object {"models": .., "policy":
.., "run": ..}. A policy takes its parameters out of one mapping of
[policy] keys and flags; one left over exits 2, as does a flag that the
chosen mode of a subcommand does not read. Counts and seeds take whole
numbers, such as 1000, 1e3 or 1000.0. parse_model decodes a model from a
compact string, e.g. "two-point:1,0.6", "bernoulli:0.3",
"mirrored:shifted-exponential:0.96,1", "empirical:0.2;0.8", or from a
mapping: {"spec": STRING}, or {"type": NAME} plus that type's fields, e.g.
{"type": "pareto", "alpha_tail": 3}. CSV output is UTF-8 with a header
row and 17 significant digits, written to a temp file and renamed so a
failed run never leaves a partial file. The per-replication `select` CSV
ends each row with the replication's rounds and termination.

Exit codes: 0 success, 1 reproduce found a failing item, 2 validation
error, 3 numerical (solver) failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import os
import re
import sys

import numpy as np

from .populations import (
    Bernoulli,
    Empirical,
    Gaussian,
    GaussianMixture,
    Mirrored,
    Pareto,
    ShiftedExponential,
    TwoPoint,
)

# Each command imports the library modules it runs on entry, and the
# config and CSV helpers import configparser, csv and tempfile, so a
# process loads only what its command uses.

__all__ = ["main", "parse_model", "run_reproduce"]

# the parametric models by the type names of model strings and files; a
# type's parameters are its dataclass fields, in order
_MODEL_TYPES = {
    "two-point": TwoPoint,
    "shifted-exponential": ShiftedExponential,
    "gaussian": Gaussian,
    "gaussian-mixture": GaussianMixture,
    "bernoulli": Bernoulli,
    "pareto": Pareto,
}


def _split(text):
    """The items of a list written with ';', ',' or white space between."""
    return [t for t in re.split(r"[;,\s]+", text.strip()) if t]


def parse_model(spec, where="model"):
    """Model from a compact string like "pareto:3,0.55", or from a models-file
    mapping: {"spec": STRING}, or {"type": NAME} plus that type's fields.

    A mirrored model's "base" is a string or a mapping; an empirical
    model's "points" are a list or a string. Every number must be finite.
    Each error message starts with `where`.
    """
    if isinstance(spec, dict) and "spec" in spec:
        return parse_model(spec["spec"], where)
    if isinstance(spec, dict):
        entry = dict(spec)
        kind = str(entry.pop("type", ""))
        if not kind.strip():
            raise ValueError(f"{where}: needs a 'type' or 'spec' entry")
    else:
        kind, _, rest = str(spec).strip().partition(":")
        entry = {"base": rest, "points": rest}  # mirrored, empirical
    kind = kind.strip().lower()
    if kind == "mirrored":
        if not entry.get("base"):
            raise ValueError(f"{where}: mirrored needs a base model")
        return Mirrored(parse_model(entry["base"], where + ".base"))
    if kind == "empirical":
        pts = entry.get("points", [])
        pts = dict(enumerate(_split(pts) if isinstance(pts, str)
                             else np.atleast_1d(pts).tolist()))
        if not pts:
            raise ValueError(f"{where}: empirical needs sample points")
        return Empirical(np.array([_fparam(pts, i, where + ".points")
                                   for i in pts]))
    if kind not in _MODEL_TYPES:
        raise ValueError(f"{where}: unknown type '{kind}'")
    cls = _MODEL_TYPES[kind]
    names = [f.name for f in dataclasses.fields(cls)]
    if not isinstance(spec, dict):
        args = [t for t in rest.split(",") if t.strip()]
        if len(args) > len(names):
            raise ValueError(f"{where}: '{kind}' takes at most {len(names)} "
                             f"parameters ({', '.join(names)})")
        entry = dict(zip(names, args))
    extra = set(entry) - set(names)
    if extra:
        raise ValueError(f"{where}: unexpected fields {sorted(extra)}")
    params = {k: _fparam(entry, k, where) for k in entry}
    try:
        return cls(**params)
    except ValueError as e:
        raise ValueError(f"{where}: {e}") from None


def _fparam(params, key, where, default=None):
    raw = params.get(key, default)
    if raw is None:
        raise ValueError(f"{where}.{key}: required")
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise ValueError(f"{where}.{key}: not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{where}.{key}: must be finite, got {raw!r}")
    return value


def _iparam(params, key, where, default=None):
    """params[key], or default, as an int: integer text exactly (a seed
    runs to 2^64 - 1), or any other finite whole number, such as 1e3."""
    raw = params.get(key, default)
    if isinstance(raw, (int, str)):
        with contextlib.suppress(ValueError):
            return int(raw)
    value = _fparam(params, key, where, default)
    if not value.is_integer():
        raise ValueError(f"{where}.{key}: not a whole number: {raw!r}")
    return int(value)


def _build_adapter(name, params, d, delta):
    """The policy(truth, delta, seed, streams) of a select/mc-fs policy,
    which takes its parameters out of params; a parameter left over exits
    2 with "does not read"."""
    from . import selectors
    from .selectors import MomentBound, RadiusSchedule
    from .truncation import PowerSpec

    p = {k: v for k, v in params.items() if v is not None}

    def take(key, default=None, parse=_fparam):
        return parse({key: p.pop(key, default)}, key, "policy")

    if name in ("two-phase", "sequential") and d != 1:
        raise ValueError(f"policy: {name} takes exactly one model")
    if name == "two-phase":
        c1 = take("c1")
        c2 = take("c2")

        def policy(truth, dlt, seed, streams):
            return selectors.two_phase_select(truth[0], dlt, c1, c2, seed,
                                              stream=streams)
    elif name == "sequential":
        c1 = take("c1")
        round_cap = take("round_cap", 50, _iparam)

        def policy(truth, dlt, seed, streams):
            return selectors.sequential_select(truth[0], dlt, (c1,),
                                               round_cap=round_cap,
                                               seed=seed, stream=streams)
    elif name == "hoeffding":
        eps = take("epsilon")
        b = take("b")

        def policy(truth, dlt, seed, streams):
            return selectors.hoeffding_select(truth, eps, dlt, b, seed,
                                              stream=streams)
    elif name == "capped":
        eps = take("epsilon")
        beta = take("beta")
        alpha = take("alpha")
        budget = take("K")
        try:
            bounds = MomentBound(PowerSpec(alpha), (budget,) * d)
        except ValueError as e:
            raise ValueError(f"policy: {e}") from None

        def policy(truth, dlt, seed, streams):
            return selectors.capped_select(truth, eps, dlt, bounds, beta,
                                           seed, stream=streams)
    elif name == "succ-elim":
        estimator = str(p.pop("estimator", "plain"))
        pull_cap = take("pull_cap", 1_000_000, _iparam)
        if "alpha" in p or "K" in p:
            kind, consts = "heavy", {"alpha": take("alpha"), "K": take("K")}
        elif "b" in p:
            kind, consts = "bounded", {"b": take("b")}
        else:
            raise ValueError("policy: succ-elim needs b (bounded) or alpha "
                             "and K (heavy)")
        try:
            schedule = RadiusSchedule(kind, d, delta, **consts)
        except ValueError as e:
            raise ValueError(f"policy: {e}") from None

        def policy(truth, dlt, seed, streams):
            return selectors.successive_elimination(
                truth, dlt, schedule, estimator=estimator, seed=seed,
                pull_cap=pull_cap, stream=streams)
    else:
        raise ValueError(f"policy: unknown policy '{name}'")
    if p:
        raise ValueError(f"policy: {name} does not read {', '.join(p)}")
    return policy


# ---------------------------------------------------------------- config IO

def _read_config(path, models_only=False):
    """(models, policy, run) of an experiment file, INI with [model:NAME],
    [policy] and [run] sections or JSON {"models", "policy", "run"}, or
    with models_only of a models file, one INI section or JSON key per
    model: a list of (name, entry) pairs and two mappings. A file that
    does not parse, or a part that is not a mapping, exits 2."""
    import configparser

    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    is_json = text.lstrip().startswith("{")
    try:
        if is_json:
            raw = json.loads(text)
        else:
            cp = configparser.ConfigParser()
            cp.read_string(text, source=path)
            raw = {sec: dict(cp[sec]) for sec in cp.sections()}
    except (ValueError, configparser.Error) as e:
        raise ValueError(f"config: {e}") from None
    if not is_json and not models_only:
        for sec in raw:
            if not sec.startswith("model:") and sec not in ("policy", "run"):
                raise ValueError(f"config: unknown section '{sec}'")
        raw["models"] = {sec[len("model:"):]: raw[sec] for sec in raw
                         if sec.startswith("model:")}
    if models_only:
        raw = {"models": raw}
    parts = {key: raw.get(key, {}) for key in ("models", "policy", "run")}
    for key, part in parts.items():
        if not isinstance(part, dict):
            raise ValueError(f"config: '{key}' must be a mapping, got "
                             f"{type(part).__name__}")
    return list(parts["models"].items()), parts["policy"], parts["run"]


def _experiment_from_args(args):
    """The population names, the outcomes and the CSV path of a select or
    mc-fs run: config files first, each flag given overriding them."""
    from .selectors import replicate

    models_raw, policy, run = [], {}, {}
    if args.config:
        models_raw, policy, run = _read_config(args.config)
    if args.models:
        models_raw = _read_config(args.models, models_only=True)[0]
    names = [nm for nm, _ in models_raw]
    models = [parse_model(entry, f"model:{nm}") for nm, entry in models_raw]

    for section, keys in ((policy, ("epsilon", "c1", "c2", "beta", "alpha",
                                    "K", "b", "estimator", "pull_cap",
                                    "round_cap")),
                          (run, ("delta", "replications", "seed", "out"))):
        for key in keys:
            if getattr(args, key) is not None:
                section[key] = getattr(args, key)
    if args.policy is not None:
        policy["name"] = args.policy
    name = policy.pop("name", None)
    if not name:
        raise ValueError("policy.name: required (use --policy)")

    delta = run.get("delta")
    if delta is None:
        raise ValueError("run.delta: required (use --delta)")
    reps = _iparam(run, "replications", "run", 0)
    seed = _iparam(run, "seed", "run", 0)
    if args.d is not None and args.d != len(models):
        raise ValueError(
            f"models: got {len(models)} model blocks but --d {args.d}")
    delta = float(delta)
    if not models:
        raise ValueError("models: at least one model block is required")
    if not 0.0 < delta < 1.0:
        raise ValueError("run.delta: must lie in (0, 1)")
    if reps < 1:
        raise ValueError("run.replications: must be at least 1")
    if seed < 0:
        raise ValueError("run.seed: must be a nonnegative integer")
    # building the policy runs every parameter check before any sampling
    policy = _build_adapter(name, policy, len(models), delta)
    return (names, replicate(policy, tuple(models), delta, seed, reps),
            run.get("out"))


# ------------------------------------------------------------------- output

def _fmt(v):
    return format(float(v), ".17g")


def _write_csv(path, header, rows):
    import csv
    import tempfile

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


def _emit(args, record):
    print(_json(record) if args.json else " ".join(
        f"{k}={v:.10g}" if isinstance(v, float) else f"{k}={v}"
        for k, v in record.items()))


def _emit_row(args, record):
    """The end of a one-row command: with --out, the record as a CSV of its
    keys and one row of its values (each float as %.17g, None as an empty
    cell); then the record printed. Returns the exit code 0."""
    if args.out:
        _write_csv(args.out, list(record),
                   [[_fmt(v) if isinstance(v, float) else v
                     for v in record.values()]])
    _emit(args, record)
    return 0


# -------------------------------------------------------------- subcommands

def _mode(args, command, usage, modes):
    """The one mode that args give of a command's modes, a mapping of each
    mode's flag to the value flags it needs and those it may also read.
    Any other count of modes, a value flag the mode does not read and one
    it needs but lacks each exit 2."""
    def given(flag):
        value = getattr(args, flag[2:].replace("-", "_"))
        return value is not None and value is not False

    chosen = [mode for mode in modes if given(mode)]
    if len(chosen) != 1:
        raise ValueError(f"{command}: give exactly one of {usage}")
    [mode] = chosen
    needs, reads = modes[mode]
    for flag in dict.fromkeys(f for n, r in modes.values() for f in n + r):
        if given(flag) != (flag in needs) and flag not in reads:
            verb = "does not read" if given(flag) else "needs"
            raise ValueError(f"{command}: {mode} {verb} {flag}")
    return mode


def _cmd_rate_estimate(args):
    from .empirical_rate import estimate_rate_at

    if _mode(args, "rate-estimate", "--values or --model",
             {"--values": ((), ()),
              "--model": (("--m",), ("--seed",))}) == "--values":
        batch = np.asarray([float(t) for t in _split(args.values)])
    else:
        if args.m < 1:
            raise ValueError("rate-estimate: --m must be a positive count")
        from .selectors import _rng
        model = parse_model(args.model)
        batch = model.draw(_rng(args.seed or 0, 0, 0), args.m)
    est = estimate_rate_at(batch, args.x)
    return _emit_row(args, {"value": est.value, "theta_star": est.theta_star,
                            "status": est.status,
                            "iterations": est.iterations})


def _cmd_meta_rate(args):
    from .meta_rate import (inf_meta_rate, meta_rate,
                            sequential_failure_certificate,
                            two_phase_exponent)

    model = parse_model(args.model)
    _mode(args, "meta-rate",
          "--a, --theta (with --nu), --exponent, or --certificate",
          {"--a": ((), ()), "--theta": (("--nu",), ()),
           "--exponent": (("--c1", "--c2"), ()),
           "--certificate": (("--c1",), ())})
    if args.theta is not None:
        r = meta_rate(model, args.theta, args.nu)
        record = {"mode": "pointwise", "value": r.value,
                  "alpha_star": r.alpha_star, "theta": r.theta, "nu": r.nu,
                  "status": r.status}
    elif args.a is not None:
        value, theta_star = inf_meta_rate(model, args.a)
        record = {"mode": "infimum", "value": value,
                  "theta_star": theta_star, "a": args.a}
    elif args.exponent:
        r = two_phase_exponent(model, args.c1, args.c2)
        record = {"mode": "exponent", "exponent": r.exponent,
                  "gamma_star": r.gamma_star, "theta_star": r.theta_star,
                  "alpha_star": r.alpha_star}
    else:
        theta, alpha_star, value, certified = (
            sequential_failure_certificate(model, args.c1))
        record = {"mode": "certificate", "theta": theta,
                  "alpha_star": alpha_star, "value": value,
                  "certified": bool(certified)}
    return _emit_row(args, record)


def _cmd_select(args):
    from .selectors import fs_estimate

    names, outcomes, out = _experiment_from_args(args)
    est = fs_estimate(outcomes)
    if out:
        header = (["replication", "chosen", "samples_total"]
                  + [f"pulls_{nm}" for nm in names]
                  + ["fs_flag", "rounds", "termination"])
        rows = [[r, o.chosen, sum(o.per_arm_samples),
                 *[int(n) for n in o.per_arm_samples],
                 int(bool(o.false_selection)), o.rounds, o.termination]
                for r, o in enumerate(outcomes)]
        rows.append(["summary", _fmt(est.fs_rate), _fmt(est.mean_samples),
                     _fmt(est.ci_low), _fmt(est.ci_high)]
                    + [""] * (len(names) + 1))
        _write_csv(out, header, rows)
    _emit(args, {**dataclasses.asdict(est), "replications": len(outcomes),
                 "out": out})
    return 0


def _cmd_mc_fs(args):
    from .selectors import fs_estimate

    _, outcomes, out = _experiment_from_args(args)
    fs = dataclasses.asdict(fs_estimate(outcomes))
    if out:
        _write_csv(out, list(fs), [[_fmt(v) for v in fs.values()]])
    _emit(args, {**fs, "replications": len(outcomes)})
    return 0


def _parse_f_spec(spec):
    from .truncation import ExponentialSpec, PowerSpec

    name, _, rest = str(spec).strip().partition(":")
    name = name.strip().lower()
    if name == "power":
        return PowerSpec(float(rest))
    if name in ("exp", "exponential"):
        return ExponentialSpec(float(rest))
    raise ValueError(f"f-spec: unknown family '{name}' "
                     "(use power:ALPHA or exp:THETA)")


def _cmd_trunc_error(args):
    from .truncation import (TwoPointSupport, worst_capping_error,
                             worst_truncation_error)

    spec = _parse_f_spec(args.f)
    fn = (worst_truncation_error if args.kind == "truncation"
          else worst_capping_error)
    sol = fn(spec, args.c, args.u)
    if isinstance(sol.support, TwoPointSupport):
        support = {"branch": "two-point", "low": sol.support.low,
                   "high": sol.support.high, "p_high": sol.support.p_high}
    else:
        support = {"branch": "degenerate", "point": sol.support.point}
    return _emit_row(args, {"kind": args.kind, "error": sol.error,
                            "c": args.c, "u": args.u, **support})


def _cmd_tilt(args):
    from . import adversarial

    model = parse_model(args.model)
    td = adversarial.tilt(model, args.alpha_target, args.k)
    return _emit_row(args, {"b": td.b, "gamma": td.gamma,
                            "beta_factor": td.beta_factor, "mean": td.mean(),
                            "kl": td.kl_from_base()})


def _cmd_lower_bound(args):
    from . import adversarial
    from .populations import kl_divergence

    g = parse_model(args.model)
    if _mode(args, "lower-bound", "--model2 or --alpha-target (with --k)",
             {"--model2": ((), ()),
              "--alpha-target": (("--k",), ())}) == "--model2":
        gt = parse_model(args.model2, "model2")
    else:
        gt = adversarial.tilt(g, args.alpha_target, args.k)
    kl = kl_divergence(g, gt)
    samples = adversarial.lower_bound_samples(g, gt, args.delta, kl=kl)
    return _emit_row(args, {"kl": kl, "samples": samples,
                            "delta": args.delta})


def _cmd_quantile_gadget(args):
    from .adversarial import quantile_gadget

    qg = quantile_gadget(args.p, args.epsilon, args.mu)
    return _emit_row(args, {"kl_bound": qg.kl_bound,
                            "quantile_gap": qg.quantile_gap, "p": args.p,
                            "epsilon": args.epsilon, "mu": args.mu})


# ---------------------------------------------------------------- reproduce

def _item(group, name, computed, expected, tol, passed):
    return {"group": group, "name": name, "computed": computed,
            "expected": expected, "tol": tol, "pass": bool(passed)}


def _items_two_phase():
    from .meta_rate import two_phase_exponent

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
    from .meta_rate import sequential_failure_certificate

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
    from .truncation import PowerSpec

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
    from .truncation import (ExponentialSpec, PowerSpec, TwoPointSupport,
                             worst_capping_error, worst_truncation_error)

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
    from .selectors import MomentBound, capping_radius, optimal_beta
    from .truncation import PowerSpec

    out = []
    bounds = MomentBound(PowerSpec(2.0), (1.0,))
    ob = optimal_beta(bounds)
    out.append(_item("beta", "optimal beta equals 1/alpha at alpha=2",
                     ob, 0.5, "abs 1e-9", abs(ob - 0.5) <= 1e-9))
    eps = 0.5

    def budget_factor(beta):
        r = capping_radius(bounds, beta * eps)
        return r * r / ((1.0 - beta) ** 2)

    grid = np.linspace(0.05, 0.95, 181)
    gap = budget_factor(0.5) - min(budget_factor(b) for b in grid)
    out.append(_item("beta", "beta=1/2 minimizes the sample budget",
                     gap, "<= 0", "abs 1e-12", gap <= 1e-12))
    return out


def _items_fixed_point():
    from .selectors import solve_log_fixed_point

    ratio = resid = -math.inf
    for a in np.geomspace(math.e, 1e3, 10):
        for b in np.linspace(1.0, 50.0, 10):
            t, bound = solve_log_fixed_point(a, b)
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
    common.add_argument("--out", default=None, help="CSV output path")
    common.add_argument("--json", action="store_true",
                        help="print a JSON record instead of key=value")
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=int, default=None,
                        help="run-level RNG seed (default 0)")

    parser = _Parser(
        prog="ordopt",
        description="Mean-selection toolkit: rate estimators, selection "
                    "policies, truncation bounds, lower-bound gadgets.")
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("rate-estimate", parents=[seeded],
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
        q = sub.add_parser(cmd, parents=[seeded], help=help_text)
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
