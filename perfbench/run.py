"""ordopt benchmark: one workload per run, checked outputs, one JSON line.

  python3 perfbench/run.py --workload mc-two-phase|mc-policy-mix|analytic
                           [--seed N] [--seconds S] [--trace 0|1]

Run from a checkout's root (any directory works: paths are resolved from
this file). The workload runs in a fresh single-threaded process; with
--trace 0 the last line of output holds the end-to-end metrics listed in
BENCHMARK.json, with --trace 1 the per-layer ones. Lines above it are the
human-readable report. See perfbench/README.md for how to read both.

Everything the benchmark writes goes under <checkout>/.perfbench-out.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
WORKER = os.path.join(HERE, "worker.py")
DEADLINE_S = 170.0


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv, timeout):
    """Run a worker to completion; never leaves it running."""
    proc = subprocess.Popen([sys.executable, WORKER, *argv], env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, cwd=ROOT)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"perfbench: worker {argv[:3]} timed out")
    if proc.returncode != 0:
        sys.stderr.write(err[-4000:])
        raise SystemExit(f"perfbench: worker {argv[:3]} exited with "
                         f"{proc.returncode}")
    return out


def git_revision():
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def report(args, spec, res):
    prov = res["provenance"]
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"provenance: git={git_revision()} source={prov['source_digest']} "
          f"nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
          f"python={prov['python']} numpy={prov['numpy']} "
          f"scipy={prov['scipy']}")
    print(f"pass: {res['op_calls_per_pass']} calls, {res['ops_per_pass']} "
          f"ops, {res['untimed_calls']} untimed calls; untraced passes: "
          f"{res['passes_untraced']}"
          + (f"; traced passes: {res['passes_traced']}" if args.trace
             else ""))
    units = {m["name"]: m["unit"] for m in spec}
    for name, unit in units.items():
        note = ""
        if name == "setup_s":
            setup = res["setup_samples"]
            note = (f"  (median of {len(setup)} fresh processes, scaled; "
                    f"fastest {min(setup):.3f})")
        elif name == "solve_tail_ms":
            note = (f"  (p{res['tail_percentile']:.4g} of "
                    f"{res['latency_samples']} ops, each its median over "
                    f"{res['passes_untraced']} passes)")
        print(f"  {name:34s} {fmt(res['metrics'][name]):>12s} {unit}{note}")
    probes = res["probes"]
    p_failed = sum(1 for p in probes if p["failures"])
    frac = ((res["failed"] + p_failed)
            / (res["attempted"] + len(probes)))
    print(f"  {'ops_failed_frac':34s} {fmt(frac):>12s} 1  ({res['failed']} "
          f"of {res['attempted']} ops, {p_failed} of {len(probes)} "
          f"known-defect probes)")
    if not args.trace:
        print(f"unscaled median pass {res['raw_pass_s']:.6g} s; median pass "
              f"reference burst took {res['pass_speed']:.3f} x its nominal time. Each op: "
              "scaled median (s), share, unscaled median (s)")
        for t in res["op_times"]:
            print(f"  {t['s']:10.6f} {100 * t['share']:6.2f}% "
                  f"{t['raw_s']:10.6f}  {t['name']} ({t['reps']} ops)")
    if args.trace:
        print("self time per traced pass, by layer (s): "
              + ", ".join(f"{k}={v:.4f}" for k, v in res["self_s"].items()))
        print(f"median traced pass {res['wall_traced']:.4f} s, sum of self "
              f"times {sum(res['self_s'].values()):.4f} s; untraced median pass "
              f"{res['wall_untraced']:.4f} s; spans in {res['trace_file']}")
    for name, n in sorted(res["failures"].items()):
        print(f"FAILED ({n}x) {name}")
    for name in res["counter_failures"]:
        print(f"FAILED {name}")
    for p in probes:
        state = "fails" if p["failures"] else "passes"
        print(f"probe {state}: {p['name']}"
              + (f": {'; '.join(p['failures'])}" if p["failures"] else ""))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0,
                    help="offset added to each acceptance seed (default 0)")
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "ordopt", "__init__.py")):
        sys.exit("perfbench: no ordopt sources under src/ in this checkout")
    with open(bench_path, encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        sys.exit(f"perfbench: unknown workload {args.workload!r} "
                 f"(choose from {', '.join(names)})")
    seconds = args.seconds if args.seconds is not None else bench[
        "run_seconds"]
    args.seconds = seconds
    spec = bench["per_layer"] if args.trace else bench["end_to_end"]

    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        result_path = os.path.join(tmp, "result.json")
        run_child(["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", repr(seconds), "--trace", str(args.trace),
                   "--tmp", tmp, "--result", result_path,
                   "--spawned-at", repr(time.monotonic())],
                  deadline - time.monotonic())
        with open(result_path, encoding="utf-8") as fh:
            res = json.load(fh)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    missing = [m["name"] for m in spec if m["name"] not in res["metrics"]]
    if missing:
        sys.exit(f"perfbench: metrics not produced: {', '.join(missing)}")
    report(args, spec, res)
    with open(os.path.join(OUT_DIR, f"last-{args.workload}-trace"
                                    f"{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(res, fh, indent=1)
    print(json.dumps({
        "correct": res["failed"] == 0 and not res["counter_failures"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": res["metrics"][m["name"]],
                                "unit": m["unit"]} for m in spec},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
