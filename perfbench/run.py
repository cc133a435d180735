"""galbim benchmark runner.

    python3 perfbench/run.py --workload quartic --seed 1 --seconds 5 --trace 0

Run from the root of a checkout.  One caller, closed loop, one process
at a time: each pass is a fresh interpreter (solve_pass.py) that imports
galbim, builds the workload's inputs and solves every problem once,
checking each answer against its frozen value.  Passes repeat until
``--seconds`` have elapsed (at least one pass), so caches inside galbim
never make a repeat free and memory never grows with the pass count.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json:
``solve_s`` and ``peak_rss_mb`` are medians over the passes, ``setup_s``
the median over SETUP_PROBES set-up-only interpreters plus the passes.
Both times are seconds at a fixed reference speed: each pass samples
the host's speed while it runs and scales its wall time by it (see
hostspeed.py), because the shared host's own speed swings far more
than a bound could absorb.  The details line keeps the wall times.
``--trace 1`` runs traced passes instead and reports the per-layer
metrics (low medians over the passes, so counts stay whole) with the
traced ``solve_s`` as ``trace.solve_s``; its excess over the untraced
``solve_s`` is the tracing overhead.

The first line holds the run's details (seed, Python version, nproc,
commit, every sample, fail_ratio); the last line is the result.  A
wrong answer, or a call counted on a layer the workload should bypass,
makes ``correct`` false.  The run exits with 1, printing no result, when
a pass cannot run, tracing wrappers are left behind, or BENCHMARK.json
declares a per-layer metric that the tracer does not emit.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import layertrace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 7
TIME_LIMIT_S = 170           # every run must end within 180 s
BYPASS = {                   # workload -> layers its problems never reach
    "quartic": ("derivations.",),
    "numfield": ("derivations.",),
    "coaction": ("derivations.", "morphisms.apply."),
    "radical": (),
}


class BenchError(Exception):
    pass


def run_pass(workload, seed, mode, deadline):
    cmd = [sys.executable, os.path.join(HERE, "solve_pass.py"),
           workload, str(seed), mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("a %s pass did not finish within %d s"
                         % (mode, TIME_LIMIT_S))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError("%s pass exited with %d" % (mode, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_id():
    """The git commit when the checkout is a repository, and always a
    digest of src/galbim, which identifies the code in either case."""
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "galbim")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return commit, digest.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise BenchError("unknown workload %r" % args.workload)
    commit, digest = source_id()

    began = time.monotonic()
    limit = began + TIME_LIMIT_S
    stop = began + args.seconds
    probes = [] if args.trace else [
        run_pass(args.workload, args.seed, "setup", limit)["setup_s"]
        for _ in range(SETUP_PROBES)]
    passes = []
    mode = "traced" if args.trace else "plain"
    while not passes or time.monotonic() < stop:
        out = run_pass(args.workload, args.seed, mode, limit)
        if out["wrappers_left"]:
            raise BenchError("%d tracing wrappers left in galbim after a %s "
                             "pass" % (out["wrappers_left"], mode))
        passes.append(out)

    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    solve_s = statistics.median(p["solve_s"] for p in passes)
    checks = []
    if args.trace:
        declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {"trace.solve_s": {"value": solve_s, "unit": "s"}}
        for name, unit in layertrace.metric_names():
            value = statistics.median_low(p["metrics"][name]
                                          for p in passes)
            metrics[name] = {"value": value, "unit": unit}
        missing = sorted(set(declared) - set(metrics))
        if missing:
            raise BenchError("per-layer metrics declared in BENCHMARK.json "
                             "but not emitted: %s" % ", ".join(missing))
        metrics = {k: v for k, v in metrics.items() if k in declared}
        for name, m in metrics.items():
            if (name.endswith(".calls") and m["value"]
                    and name.startswith(BYPASS[args.workload])):
                checks.append("%s is %s; %s should bypass it"
                              % (name, m["value"], args.workload))
    else:
        setups = probes + [p["setup_s"] for p in passes]
        metrics = {
            "solve_s": {"value": solve_s, "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(
                p["peak_rss_mb"] for p in passes), "unit": "MB"},
        }

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "source_sha256": digest,
        "passes": [{k: p[k] for k in (
            "setup_s", "setup_wall_s", "setup_speed", "solve_s",
            "solve_wall_s", "solve_speed", "solve_cpu_s", "peak_rss_mb")}
            for p in passes],
        "setup_probes": probes,
        "fail_ratio": len(failures) / attempted,
        "failures": failures[:10],
        "bypass_violations": checks,
        "wall_s": time.monotonic() - began,
    }
    print(json.dumps(info))
    for name, m in metrics.items():
        if "." not in name:
            print("%-12s %12.4f %s" % (name, m["value"], m["unit"]))
    print("%-12s %12.4f (%d of %d problems failed)"
          % ("fail_ratio", info["fail_ratio"], len(failures), attempted))
    print(json.dumps({
        "correct": not failures and not checks,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    try:
        main()
    except (BenchError, OSError, ValueError, KeyError) as err:
        print("perfbench: %s" % err, file=sys.stderr)
        sys.exit(1)
