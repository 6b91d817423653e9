"""Workload process: runs one workload in a fresh interpreter.

run.py starts it with PYTHONPATH pointing at the checkout's ``src`` and the
BLAS thread variables set to 1, in two forms:

  worker.py --setup-probe --workload W --tmp DIR
      imports ordopt, builds the workload's inputs, prints the monotonic
      clock, the reference bursts' time and the host speed, and exits:
      one sample of set-up time.
  worker.py --workload W --seed N --seconds S --trace 0|1 --tmp DIR
            --result FILE --spawned-at T
      replays the workload's pass until S seconds are used (half untraced
      and half traced when --trace 1), then writes raw results to FILE.
      Untraced runs start a set-up probe between passes every S/10 seconds.

A pass is timed op by op: only the calls into ordopt count, not the checks
made on their output. Replications are timed one by one by wrapping the
selection policies, which costs three clock reads per replication.

The host is shared, and its speed changes by a factor of two within
milliseconds and drifts for minutes. So while set-up and untraced passes
run, a timer signal runs a fixed reference burst every REF_EVERY_S, and
every time is scaled to nominal speed: divided by the bursts' mean time
around it over REF_BURST_S. The bursts' own time is left out.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import warnings

import numpy

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
SETUP_PROBES = 5  # set-up probes per untraced run, spread over its passes
REF_BURST_S = 2.5e-4  # nominal time of reference_burst()
REF_EVERY_S = 2.5e-3  # wall time between two reference bursts
REF_NEAR_S = 2 * REF_EVERY_S  # bursts this close gauge a latency's speed
# a burst longer than this was preempted: it counts as this long, so one
# stall cannot rescale a whole pass
REF_CLIP_S = 4 * REF_BURST_S

sys.path.insert(0, HERE)
_write_bytecode = sys.dont_write_bytecode
sys.dont_write_bytecode = True  # leave no generated files in perfbench/
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402
sys.dont_write_bytecode = _write_bytecode
_REF_ARRAY = numpy.linspace(0.0, 1.0, 64)


def tail_percentile(ops_per_pass):
    """The highest percentile with ten of a pass's ops beyond it (p50 for
    passes under twenty ops). It depends only on the workload."""
    return max(50.0, 100.0 * (1.0 - 10.0 / ops_per_pass))


def source_digest():
    h = hashlib.sha256()
    for base in (os.path.join(ROOT, "src", "ordopt"), HERE):
        for name in sorted(os.listdir(base)):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def reference_burst(n=400):
    """Fixed work in the interpreter and in numpy, about 0.25 ms on a
    2.0 GHz Xeon. Its time gauges how fast the host runs Python just then."""
    s = 0.0
    for i in range(n):
        x = i * 1e-3
        s += math.log1p(x * x) + math.exp(-x)
        if i % 8 == 0:
            s += float(numpy.dot(_REF_ARRAY, _REF_ARRAY))
    return s


class HostGauge:
    """While started, a timer signal runs reference_burst() every
    REF_EVERY_S of wall time, inside whatever op is running. now() is a
    clock that leaves the bursts out, so no timed figure contains them."""

    def __init__(self):
        self.samples = []
        self.ends = []
        self.spent = 0.0
        self._busy = False

    def _on_alarm(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        reference_burst()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.ends.append(t1)
        self.spent += t1 - t0
        self._busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def now(self):
        return time.perf_counter() - self.spent


class OpClock:
    """Per-replication latencies, from wrappers on the selection policies."""

    def __init__(self, modules, gauge):
        self.lat = []
        self.ends = []
        self.gauge = gauge
        self.tracer = None
        sel = modules[tr.LAYERS.index("selectors") + 1]
        for name in tr.POLICIES:
            fn = getattr(sel, name, None)
            if fn is not None:
                tr.patch_everywhere(fn, self._timed(fn), modules)

    def _timed(self, fn):
        lat, ends, clock = self.lat, self.ends, self.gauge.now

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if self.tracer is not None:
                self.tracer.op += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                lat.append(clock() - t0)
                ends.append(time.perf_counter())

        return timed


def compare(observed, pinned, tol):
    bad = []
    for key, want in pinned.items():
        got = observed.get(key)
        if isinstance(want, float) and isinstance(got, (int, float)):
            ok = math.isclose(got, want, rel_tol=tol["rel"],
                              abs_tol=tol["abs"])
        else:
            ok = got == want
        if not ok:
            bad.append(f"pinned {key}: got {got!r}, want {want!r}")
    return bad


class Runner:
    def __init__(self, cli, ops, pins, tol, clock):
        self.cli = cli
        self.ops = ops
        self.pins = pins
        self.tol = tol
        self.clock = clock
        self.tracer = None
        self.failures = {}

    def execute(self, op):
        """Run op once; returns (result, seconds, error text or None)."""
        buf = io.StringIO()
        result = {"rc": 0, "record": None, "csv": None}
        err = None
        now = self.clock.gauge.now
        t0 = now()
        try:
            with contextlib.redirect_stdout(buf):
                if op.argv is not None:
                    result["rc"] = self.cli.main(list(op.argv))
                else:
                    result["record"] = op.call()
        except (Exception, SystemExit) as e:  # a raising op fails, run goes on
            err = f"{type(e).__name__}: {e}"
        dt = now() - t0
        result["end"] = time.perf_counter()
        if op.argv is not None and err is None:
            lines = buf.getvalue().strip().splitlines()
            try:
                result["record"] = json.loads(lines[-1])
            except (IndexError, ValueError):
                err = f"no JSON record (exit code {result['rc']})"
        if op.out is not None and err is None:
            with open(op.out, "rb") as fh:
                result["csv"] = fh.read()
        return result, dt, err

    def check(self, op, result, err):
        if err is not None:
            return [err], {}
        try:
            observed = op.observe(result)
            bad = op.claims(result)
        except Exception as e:  # malformed output fails the op only
            return [f"check raised {type(e).__name__}: {e}"], {}
        if op.name in self.pins:
            bad += compare(observed, self.pins[op.name], self.tol)
        return bad, observed

    def run_pass(self, timed=True):
        """One pass over the timed ops (timed=True), or over the untimed
        ops; traced passes run every op, so their counts cover all."""
        p = {"wall": 0.0, "timed_wall": 0.0, "op_s": {}, "lat": {}, "end": {},
             "ops": 0, "completed": 0, "csv_bytes": 0, "warnings": 0,
             "observed": {}}
        gauge = self.clock.gauge
        n_ref = len(gauge.samples)
        run = self.execute
        if self.tracer is not None:
            run = self.tracer.span("bench.op", self.execute)
        for i, op in enumerate(self.ops):
            if self.tracer is None and op.timed != timed:
                continue
            n0 = len(self.clock.lat)
            if self.tracer is not None:
                from scipy.integrate import IntegrationWarning
                self.tracer.op += 1
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    result, dt, err = run(op)
                p["warnings"] += sum(
                    1 for w in caught if issubclass(w.category, (
                        RuntimeWarning, IntegrationWarning)))
            else:
                result, dt, err = run(op)
            lat, ends = self.clock.lat[n0:], self.clock.ends[n0:]
            if op.reps > 1 and len(lat) != op.reps:
                lat = [dt / op.reps] * op.reps  # replications not separable
                ends = [result["end"]] * op.reps
            elif op.reps == 1:
                lat, ends = [dt], [result["end"]]
            del self.clock.lat[n0:], self.clock.ends[n0:]
            bad, observed = self.check(op, result, err)
            for b in bad:
                key = f"{op.name}: {b}"
                self.failures[key] = self.failures.get(key, 0) + 1
            p["wall"] += dt
            if op.timed:
                p["timed_wall"] += dt
                p["op_s"][i] = dt
                p["lat"][i] = lat
                p["end"][i] = ends
            p["ops"] += op.reps
            p["completed"] += 0 if bad else op.reps
            p["observed"][op.name] = observed
            if result["csv"] is not None:
                p["csv_bytes"] += len(result["csv"])
        p["ref"] = gauge.samples[n_ref:]
        p["ref_end"] = gauge.ends[n_ref:]
        return p


def setup_probe(workload, tmp):
    """Scaled seconds from starting a fresh interpreter to its first op."""
    t0 = time.monotonic()
    out = subprocess.run([sys.executable, os.path.abspath(__file__),
                          "--setup-probe", "--workload", workload, "--tmp",
                          tmp], capture_output=True, text=True, check=True,
                         timeout=60)
    ready, spent, speed = json.loads(out.stdout.strip().splitlines()[-1])
    return (ready - t0 - spent) / speed


def run_for(run_pass, seconds, min_passes, probe=None, gauge=None):
    """Passes until the next one would end more than half a pass late.

    With a probe, one probe runs before the first pass and then between
    passes whenever seconds/SETUP_PROBES have gone by since the last, so
    the set-up samples see the host at as many moments as the passes do.
    Probe time counts toward the run's seconds. With a gauge, it samples
    the host's speed during the passes only. Returns (passes, samples).
    """
    passes, samples = [], []
    start = time.perf_counter()
    next_probe = start
    last = 0.0
    while (len(passes) < min_passes
           or time.perf_counter() - start + 0.5 * last < seconds):
        if probe is not None and time.perf_counter() >= next_probe:
            samples.append(probe())
            next_probe = time.perf_counter() + seconds / SETUP_PROBES
        gc.collect()  # every pass meets the collector at the same points
        t0 = time.perf_counter()
        if gauge is not None:
            gauge.start()
        try:
            passes.append(run_pass())
        finally:
            if gauge is not None:
                gauge.stop()
        last = time.perf_counter() - t0
    return passes, samples


def counters_repeat(workload, seed, counters, traced):
    """Exact-repeat check of the named counters, within this run and
    against the last run of the same seed on the same sources."""
    bad = []
    for name in tr.EXACT_COUNTERS:
        values = {m[name] for m in traced}
        if len(values) > 1:
            bad.append(f"counter {name} differs between passes: "
                       f"{sorted(values)}")
    path = os.path.join(OUT_DIR, f"counters-{workload}-seed{seed}-"
                                 f"{source_digest()}.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            before = json.load(fh)
        bad += [f"counter {k} differs from an earlier run: {before[k]} vs "
                f"{counters[k]}" for k in before if before[k] != counters[k]]
    else:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(counters, fh)
    return bad


def write_spans(workload, tracer_passes):
    """All spans of the traced passes, one CSV line each."""
    import gzip
    path = os.path.join(OUT_DIR, f"trace-{workload}.csv.gz")
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write("pass,span,name,outer,start_s,end_s,parent,op\n")
        for i, spans in enumerate(tracer_passes):
            t_base = spans[0][tr.T0] if spans else 0.0
            for j, s in enumerate(spans):
                fh.write(f"{i},{j},{s[tr.NAME]},{int(s[tr.OUTER])},"
                         f"{s[tr.T0] - t_base:.9f},{s[tr.T1] - t_base:.9f},"
                         f"{s[tr.PARENT]},{s[tr.OP]}\n")
    return path


def host_speed(samples):
    """Mean reference burst over nominal: 1.5 means the host ran the burst
    half again as slowly as nominal."""
    return float(numpy.minimum(samples, REF_CLIP_S).mean()) / REF_BURST_S


def local_speed(p, lat, ends):
    """Each latency's host speed: the mean reference burst that ended
    within REF_NEAR_S of the interval it timed, over nominal."""
    ref = numpy.minimum(p["ref"], REF_CLIP_S)
    t = numpy.asarray(p["ref_end"])
    cum = numpy.concatenate(([0.0], numpy.cumsum(ref)))
    lat, ends = numpy.asarray(lat), numpy.asarray(ends)
    lo = numpy.searchsorted(t, ends - lat - REF_NEAR_S)
    hi = numpy.searchsorted(t, ends + REF_NEAR_S, "right")
    n = hi - lo
    mean = numpy.where(n > 0, (cum[hi] - cum[lo]) / numpy.maximum(n, 1),
                       ref.mean())
    return mean / REF_BURST_S


def end_to_end(passes, ops_per_pass):
    """Times scaled to nominal host speed, as medians over the passes.

    A pass's time is divided by its speed, the mean reference burst during
    the pass over REF_BURST_S; wall_s is the median of these over the run.
    Each latency is divided by its local speed (local_speed), and each op's
    latency is its median over the passes; solve_p50_ms and solve_tail_ms
    are percentiles of those per-op medians."""
    walls, lat, part = [], {}, {}
    for p in passes:
        speed = host_speed(p["ref"])
        walls.append(p["timed_wall"] / speed)
        for i, xs in p["lat"].items():
            lat.setdefault(i, []).append(
                numpy.asarray(xs) / local_speed(p, xs, p["end"][i]))
            part.setdefault(i, []).append(p["op_s"][i] / speed)
    wall = statistics.median(walls)
    per_op = numpy.concatenate([numpy.median(numpy.vstack(xs), axis=0)
                                for xs in lat.values()])
    done = sum(p["completed"] for p in passes) / sum(p["ops"] for p in passes)
    tail = tail_percentile(ops_per_pass)
    return {
        "wall_s": wall,
        "ops_per_s": ops_per_pass * done / wall,
        "solve_p50_ms": 1e3 * float(numpy.percentile(per_op, 50.0)),
        "solve_tail_ms": 1e3 * float(numpy.percentile(per_op, tail)),
    }, {"tail_percentile": tail, "latency_samples": len(per_op),
        "wall_part": {i: statistics.median(v) for i, v in part.items()},
        "pass_speed": statistics.median(host_speed(p["ref"])
                                        for p in passes)}


def op_times(ops, passes, wall_part):
    """Each timed op's scaled median time, its share of their sum, and its
    unscaled median time across the run's passes."""
    wall = sum(wall_part.values())
    return [{"name": op.name, "reps": op.reps, "s": wall_part[i],
             "share": wall_part[i] / wall,
             "raw_s": statistics.median(p["op_s"][i] for p in passes)}
            for i, op in enumerate(ops) if op.timed]


def per_layer(passes, untraced, tracer_passes):
    traced = []
    self_s = []
    for p, spans in zip(passes, tracer_passes):
        m, s = tr.pass_metrics(spans["spans"], spans["counts"],
                               p["warnings"])
        m["cli.csv_bytes"] = p["csv_bytes"]
        traced.append(m)
        self_s.append(s)
    metrics = {k: statistics.median(m[k] for m in traced) for k in traced[0]}
    for k in tr.EXACT_COUNTERS:
        metrics[k] = traced[0][k]
    metrics["trace.overhead_s"] = (
        statistics.median(p["timed_wall"] for p in passes)
        - statistics.median(p["timed_wall"] for p in untraced))
    layers = sorted({k for s in self_s for k in s})
    self_med = {k: statistics.median(s.get(k, 0.0) for s in self_s)
                for k in layers}
    return metrics, traced, self_med


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--setup-probe", action="store_true")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result")
    ap.add_argument("--spawned-at", type=float)
    args = ap.parse_args(argv)

    gauge = HostGauge()  # set-up time is scaled like every other time
    gauge.start()
    import ordopt
    import ordopt.cli as cli
    src = os.path.join(ROOT, "src", "ordopt")
    if os.path.dirname(os.path.abspath(ordopt.__file__)) != src:
        sys.exit(f"ordopt imported from {ordopt.__file__}, not {src}")
    offset = args.seed % 2 ** 31
    ops = wl.BUILDERS[args.workload](offset, args.tmp)
    for op in ops:  # the CLI's model parsing is part of set-up
        argv = op.argv or []
        if "--model" in argv:
            cli.parse_model(argv[argv.index("--model") + 1])
        if "--models" in argv:
            with open(argv[argv.index("--models") + 1],
                      encoding="utf-8") as fh:
                for spec in json.load(fh).values():
                    cli.parse_model(spec)
    ready = time.monotonic()
    gauge.stop()
    setup = (ready, gauge.spent, host_speed(gauge.samples))
    if args.setup_probe:
        print(json.dumps(setup))
        return 0

    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    pins = expected["pins"].get(args.workload, {})
    if args.workload != "analytic" and offset != 0:
        pins = {}  # sampled outputs are pinned at the acceptance seeds only
    modules = tr.ordopt_modules()
    clock = OpClock(modules, gauge)
    runner = Runner(cli, ops, pins, expected["tolerance"], clock)

    os.makedirs(OUT_DIR, exist_ok=True)
    budget = args.seconds / 2.0 if args.trace else args.seconds
    probe = (None if args.trace else
             functools.partial(setup_probe, args.workload, args.tmp))
    untraced, setup_samples = run_for(runner.run_pass, budget, 1, probe,
                                      gauge)
    untimed = ([runner.run_pass(timed=False)]
               if not all(op.timed for op in ops) else [])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ops_per_pass = sum(op.reps for op in ops if op.timed)
    out = {
        "setup_samples": [(ready - args.spawned_at - setup[1]) / setup[2]]
                         + setup_samples,
        "ops_per_pass": ops_per_pass,
        "op_calls_per_pass": sum(1 for op in ops if op.timed),
        "untimed_calls": sum(1 for op in ops if not op.timed),
        "passes_untraced": len(untraced),
        "provenance": {
            "python": platform.python_version(),
            "numpy": __import__("numpy").__version__,
            "scipy": __import__("scipy").__version__,
            "source_digest": source_digest(),
        },
    }
    counter_failures = []
    if args.trace:
        tracer = tr.Tracer()
        tracer.install()
        clock.tracer = runner.tracer = tracer
        tracer_passes = []

        def traced_pass():
            p = runner.run_pass()
            tracer_passes.append({"spans": list(tracer.spans),
                                  "counts": dict(tracer.counts)})
            tracer.spans.clear()
            tracer.counts.clear()
            return p

        traced, _ = run_for(traced_pass, budget, 2)
        metrics, per_pass, self_med = per_layer(traced, untraced,
                                                tracer_passes)
        counter_failures = counters_repeat(
            args.workload, offset, {k: metrics[k] for k in tr.EXACT_COUNTERS},
            per_pass)
        out["trace_file"] = os.path.relpath(
            write_spans(args.workload, [t["spans"] for t in tracer_passes]),
            ROOT)
        out["passes_traced"] = len(traced)
        out["self_s"] = self_med
        out["wall_traced"] = statistics.median(p["wall"] for p in traced)
        out["wall_untraced"] = statistics.median(p["timed_wall"]
                                                 for p in untraced)
        all_passes = untraced + untimed + traced
    else:
        metrics, info = end_to_end(untraced, ops_per_pass)
        metrics["peak_rss_mb"] = rss_mb
        metrics["setup_s"] = statistics.median(out["setup_samples"])
        out["op_times"] = op_times(ops, untraced, info.pop("wall_part"))
        out.update(info)
        all_passes = untraced + untimed

    probe_results = []
    if args.workload == "analytic":
        probe_runner = Runner(cli, [], {}, expected["tolerance"], clock)
        for op in wl.probes():
            result, _, err = probe_runner.execute(op)
            bad, _ = probe_runner.check(op, result, err)
            probe_results.append({"name": op.name, "failures": bad})

    out["pass_walls"] = [p["wall"] for p in all_passes]
    out["raw_pass_s"] = statistics.median(p["timed_wall"] for p in untraced)
    out["metrics"] = metrics
    out["attempted"] = sum(p["ops"] for p in all_passes)
    out["failed"] = sum(p["ops"] - p["completed"] for p in all_passes)
    out["failures"] = runner.failures
    out["counter_failures"] = counter_failures
    out["probes"] = probe_results
    out["observed"] = {k: v for p in all_passes
                       for k, v in p["observed"].items()}
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
