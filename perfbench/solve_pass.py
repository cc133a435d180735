"""One pass of a workload, in its own interpreter.

    python3 perfbench/solve_pass.py WORKLOAD SEED MODE

MODE is ``setup`` (import galbim and build the inputs, nothing more),
``plain`` (set up, then solve every problem untraced) or ``traced`` (the
same with the wrappers of layertrace.py installed before the inputs are
built).  Prints one JSON object.  run.py starts one of these per pass,
so caches inside galbim never carry over from one pass to the next.

A ``hostspeed.Sampler`` runs from the first line on.  ``setup_s`` and
``solve_s`` are seconds at reference speed (see hostspeed.py); the wall
times they were scaled from are ``setup_wall_s`` and ``solve_wall_s``,
and the host's relative speed over each is ``setup_speed`` and
``solve_speed``.
"""

import json
import os
import resource
import sys
import time
import traceback

import hostspeed
import layertrace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def main():
    name, seed, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    sampler = hostspeed.Sampler()
    sampler.start()
    try:
        out = run(sampler, name, seed, mode)
    finally:
        sampler.stop()
    print(json.dumps(out))


def run(sampler, name, seed, mode):
    mark = sampler.mark()
    import workloads
    import galbim

    src = os.path.join(ROOT, "src", "galbim")
    if os.path.dirname(os.path.abspath(galbim.__file__)) != src:
        raise SystemExit("galbim was imported from %s, not %s"
                         % (galbim.__file__, src))
    tracer = None
    if mode == "traced":
        tracer = layertrace.Tracer(sampler.clock)
        tracer.install()
    problems = workloads.build(name, seed)
    out = dict(zip(("setup_s", "setup_wall_s", "setup_speed"),
                   sampler.scaled(mark)))
    if mode == "setup":
        return out

    failures = []
    mark, cpu = sampler.mark(), time.process_time()
    for pname, solve in problems:
        try:
            solve()
        except Exception as err:  # counted; the pass goes on
            failures.append("%s: %s: %s" % (pname, type(err).__name__, err))
            traceback.print_exc(file=sys.stderr)
    out.update(zip(("solve_s", "solve_wall_s", "solve_speed"),
                   sampler.scaled(mark)))
    out["solve_cpu_s"] = time.process_time() - cpu
    if tracer is not None:
        tracer.uninstall()
        out["metrics"] = tracer.metrics()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["peak_rss_mb"] = rss_kb / 1024
    out["attempted"] = len(problems)
    out["failures"] = failures
    out["wrappers_left"] = len(layertrace.installed_wrappers())
    return out


if __name__ == "__main__":
    main()
