"""Run-time call tracing for the benchmark's traced runs.

Nothing under ``src/`` knows about this module. ``Tracer.install`` replaces
ordopt's public functions, at every module attribute that refers to them,
with wrappers that record one span per call: (name, group, outer, start,
end, parent span, op id, info). Spans stay in memory; the worker turns each
pass's spans into per-layer metrics and writes all of them out at the end.

A layer's self time is the time of its spans minus the time of their direct
child spans. Work done in a function that is not wrapped is charged to the
nearest wrapped caller.

Counters that would cost a span per call (integrand evaluations, solver
objective evaluations, log-MGF calls) are plain counts.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from collections import Counter

# layer name -> ordopt module; metric names use "solve" for "_solve"
LAYERS = ("cli", "selectors", "populations", "empirical_rate", "meta_rate",
          "_solve", "truncation", "adversarial")
POLICIES = ("two_phase_select", "sequential_select", "hoeffding_select",
            "capped_select", "successive_elimination")
# names whose repetition across runs of one seed is checked exactly
EXACT_COUNTERS = ("empirical_rate.iterations", "meta_rate.quad_calls",
                  "meta_rate.integrand_evals", "solve.objective_evals",
                  "selectors.rng_streams", "selectors.samples_drawn",
                  "selectors.rounds")

NAME, GROUP, OUTER, T0, T1, PARENT, OP, INFO = range(8)


def ordopt_modules():
    """The package and its layer modules, in LAYERS order after the package."""
    pkg = importlib.import_module("ordopt")
    return [pkg] + [importlib.import_module(f"ordopt.{m}") for m in LAYERS]


def patch_everywhere(fn, replacement, modules):
    """Point every module attribute that holds fn at replacement."""
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is fn:
                setattr(mod, key, replacement)


def public_functions(mod):
    return [(k, v) for k, v in vars(mod).items()
            if isinstance(v, types.FunctionType) and not k.startswith("_")
            and v.__module__ == mod.__name__]


class _IntegrateProxy:
    """Stands in for scipy.integrate inside ordopt.meta_rate only."""

    def __init__(self, real, quad):
        self._real = real
        self.quad = quad

    def __getattr__(self, key):
        return getattr(self._real, key)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.active = Counter()
        self.counts = Counter()
        self.op = -1

    # ---------------------------------------------------------- wrappers

    def span(self, name, fn, group=None, before=None, after=None):
        """Wrapper recording one span per call of fn.

        outer is True when no call of the same group is already running;
        before may rewrite the arguments, after returns the span's info.
        """
        spans, stack, active = self.spans, self.stack, self.active
        group = group or name
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = active[group] == 0
            if before is not None:
                args, kwargs = before(outer, args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            active[group] += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                active[group] -= 1
                stack.pop()
                spans[idx] = (name, group, outer, t0, t1, parent, self.op,
                              None)
            if after is not None:
                spans[idx] = (name, group, outer, t0, t1, parent, self.op,
                              after(args, kwargs, out))
            return out

        return traced

    def counted(self, key, fn):
        """Wrapper counting outermost calls of fn under key, no span."""
        active, counts = self.active, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if active[key] == 0:
                counts[key] += 1
            active[key] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                active[key] -= 1

        return wrapper

    def _count_calls(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------ install

    def install(self):
        modules = ordopt_modules()
        by_layer = dict(zip(LAYERS, modules[1:]))
        for layer, mod in by_layer.items():
            funcs = public_functions(mod)
            if layer == "selectors" and hasattr(mod, "_rng"):
                funcs.append(("_rng", mod._rng))
            for key, fn in funcs:
                wrapper = self._wrapper_for(layer, key, fn)
                patch_everywhere(fn, wrapper, modules)

        pop = by_layer["populations"]
        for cls in vars(pop).values():
            if not isinstance(cls, type) or cls.__module__ != pop.__name__:
                continue
            if "draw" in vars(cls):
                cls.draw = self.span(f"populations.{cls.__name__}.draw",
                                     vars(cls)["draw"], group="draw",
                                     after=_draw_info)
            if "log_mgf" in vars(cls):
                cls.log_mgf = self.counted("log_mgf", vars(cls)["log_mgf"])

        meta = by_layer["meta_rate"]
        real = getattr(meta, "integrate", None)
        if real is not None and hasattr(real, "quad"):
            meta.integrate = _IntegrateProxy(real, self.span(
                "meta_rate.quad", real.quad, before=self._count_integrand))

    def _wrapper_for(self, layer, key, fn):
        name = f"{layer}.{key}"
        if layer == "populations" and key == "log_mgf":
            return self.counted("log_mgf", fn)
        if layer == "_solve":
            return self.span(name, fn, group="solve",
                             before=self._count_objective)
        if layer == "truncation":
            return self.span(name, fn, group="truncation")
        if layer == "selectors" and key in POLICIES:
            return self.span(name, fn, group="policy", after=_policy_info)
        if layer == "empirical_rate" and key == "estimate_rate_at_zero":
            return self.span(name, fn, after=_estimate_info)
        return self.span(name, fn)

    def _count_objective(self, outer, args, kwargs):
        # only the outermost solver call counts its objective, so nested
        # grid_then_golden -> golden_min calls count each evaluation once
        if outer:
            if args:
                args = (self._count_calls("objective", args[0]),) + args[1:]
            else:
                for k in ("f", "g"):
                    if k in kwargs:
                        kwargs = {**kwargs, k: self._count_calls(
                            "objective", kwargs[k])}
        return args, kwargs

    def _count_integrand(self, outer, args, kwargs):
        if args:
            args = (self._count_calls("integrand", args[0]),) + args[1:]
        return args, kwargs


def _draw_info(args, kwargs, out):
    return int(kwargs.get("n", args[2] if len(args) > 2 else 0))


def _policy_info(args, kwargs, out):
    return (getattr(out, "rounds", 0), getattr(out, "termination", ""))


def _estimate_info(args, kwargs, out):
    batch = args[0] if args else kwargs.get("batch")
    size = len(getattr(batch, "values", batch))
    return (size, int(getattr(out, "iterations", 0)))


# ------------------------------------------------------------ aggregation

def _layer(name):
    return name.split(".", 1)[0]


def pass_metrics(spans, counts, warnings_caught):
    """Per-layer metrics of one traced pass (times in seconds)."""
    counts = Counter(counts)
    n = len(spans)
    child = [0.0] * n
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[T1] - s[T0]
    self_s = Counter()
    for i, s in enumerate(spans):
        self_s[_layer(s[NAME])] += (s[T1] - s[T0]) - child[i]

    def total(pred):
        return sum(s[T1] - s[T0] for s in spans if pred(s))

    def count(pred):
        return sum(1 for s in spans if pred(s))

    def named(name, outer_only=True):
        return lambda s: s[NAME] == name and (s[OUTER] or not outer_only)

    rate_fn = named("populations.rate_function")
    policies = [s for s in spans if s[GROUP] == "policy" and s[INFO]]
    sequential = [s for s in policies
                  if s[NAME] == "selectors.sequential_select"]
    draws = [s for s in spans if s[GROUP] == "draw" and s[OUTER]]
    estimates = [s for s in spans
                 if s[NAME] == "empirical_rate.estimate_rate_at_zero"
                 and s[INFO]]
    small = [s[T1] - s[T0] for s in estimates if s[INFO][0] <= 16]
    large = [s[T1] - s[T0] for s in estimates if s[INFO][0] > 16]
    iterations = sum(s[INFO][1] for s in estimates)
    rng = [s for s in spans if s[NAME] == "selectors._rng"]

    def mean_us(xs):
        return 1e6 * sum(xs) / len(xs) if xs else 0.0

    m = {
        "cli.self_s": self_s["cli"],
        "selectors.calls": len(policies),
        "selectors.self_s": self_s["selectors"],
        "selectors.rng_streams": len(rng),
        "selectors.rng_s": sum(s[T1] - s[T0] for s in rng),
        "selectors.samples_drawn": sum(
            s[INFO] for s in draws
            if s[PARENT] >= 0 and _layer(spans[s[PARENT]][NAME])
            == "selectors"),
        "selectors.rounds": sum(s[INFO][0] for s in policies),
        "selectors.round_cap_frac": (
            sum(1 for s in sequential if s[INFO][1] == "round-cap")
            / len(sequential) if sequential else 0.0),
        "populations.draw_calls": len(draws),
        "populations.draw_s": sum(s[T1] - s[T0] for s in draws),
        "populations.rate_function_calls": count(rate_fn),
        "populations.rate_function_s": total(rate_fn),
        "populations.log_mgf_calls": counts["log_mgf"],
        "empirical_rate.calls": len(estimates),
        "empirical_rate.self_s": self_s["empirical_rate"],
        "empirical_rate.iterations": iterations,
        "empirical_rate.iters_per_call": (
            iterations / len(estimates) if estimates else 0.0),
        "empirical_rate.us_per_call.small": mean_us(small),
        "empirical_rate.us_per_call.large": mean_us(large),
        "empirical_rate.closed_frac": (
            sum(1 for s in estimates if s[INFO][1] == 0) / len(estimates)
            if estimates else 0.0),
        "meta_rate.meta_rate_calls": count(named("meta_rate.meta_rate",
                                                 outer_only=False)),
        "meta_rate.meta_rate_s": total(named("meta_rate.meta_rate")),
        "meta_rate.inf_s": total(named("meta_rate.inf_meta_rate")),
        "meta_rate.sup_s": total(named("meta_rate.sup_meta_rate_on_theta_a")),
        "meta_rate.exponent_s": total(named("meta_rate.two_phase_exponent")),
        "meta_rate.certificate_s": total(
            named("meta_rate.sequential_failure_certificate")),
        "meta_rate.quad_calls": count(named("meta_rate.quad",
                                            outer_only=False)),
        "meta_rate.quad_s": total(named("meta_rate.quad")),
        "meta_rate.integrand_evals": counts["integrand"],
        "meta_rate.warnings": warnings_caught,
        "solve.calls": count(lambda s: s[GROUP] == "solve" and s[OUTER]),
        "solve.objective_evals": counts["objective"],
        "solve.self_s": self_s["_solve"],
        "truncation.calls": count(
            lambda s: s[GROUP] == "truncation" and s[OUTER]),
        "truncation.s": total(
            lambda s: s[GROUP] == "truncation" and s[OUTER]),
        "adversarial.monte_carlo_fs_s": total(
            named("adversarial.monte_carlo_fs")),
        "adversarial.tilt_s": total(named("adversarial.tilt")),
        "adversarial.lower_bound_s": total(
            named("adversarial.lower_bound_samples")),
    }
    return m, dict(self_s)
