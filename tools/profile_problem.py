"""Profile one benchmark problem in-process under cProfile.

    python3 tools/profile_problem.py coaction taft_field --seed 1 \\
        --sort tottime --top 30

Builds WORKLOAD's inputs with ``perfbench/workloads.py`` (the same
``build(name, seed)`` that a benchmark pass calls, with galbim imported
from this checkout's ``src``), then runs PROBLEM's ``solve()`` once under
cProfile and prints the ``--top`` rows of the statistics sorted by
``--sort``.  Building the inputs is not profiled.  A wrong answer
raises the workload's ``Mismatch`` as in a pass.  Nothing under
``perfbench/`` is changed, wrapped or compiled to a cache file: the
per-layer wrappers of ``--trace 1`` are not installed.  Standard
library only.
"""

import argparse
import cProfile
import os
import pstats
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload", help="a workload of BENCHMARK.json")
    ap.add_argument("problem", help="a problem name of that workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--sort", choices=("cumulative", "tottime"),
                    default="cumulative")
    ap.add_argument("--top", type=int, default=25)
    args = ap.parse_args()

    sys.path[:0] = [os.path.join(ROOT, d) for d in ("src", "perfbench")]
    sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/
    import workloads

    if args.workload not in workloads.BUILDERS:
        ap.error("unknown workload %r; choose from %s"
                 % (args.workload, ", ".join(sorted(workloads.BUILDERS))))
    problems = dict(workloads.build(args.workload, args.seed))
    if args.problem not in problems:
        ap.error("workload %s has no problem %r; choose from %s"
                 % (args.workload, args.problem, ", ".join(problems)))
    profile = cProfile.Profile()
    profile.runcall(problems[args.problem])
    print("%s %s, seed %d" % (args.workload, args.problem, args.seed))
    pstats.Stats(profile).sort_stats(args.sort).print_stats(args.top)


if __name__ == "__main__":
    main()
