"""Where one workload's set-up goes, in in-process milliseconds.

    python3 tools/setup_cost.py numfield --seed 1

Does in-process what a benchmark pass times as ``setup_s``: imports
``perfbench/workloads.py`` (and through it galbim, from this checkout's
``src``), then calls ``workloads.build(WORKLOAD, SEED)``.  Prints three
parts:

* for each galbim module, in the order of import, the ``compile`` of
  its source and the ``exec`` of its code object; the exec excludes the
  galbim modules it imports, whose rows carry their own cost, and
  includes every other module it imports first (``fractions``, say);
* the rest of importing the workloads module;
* ``workloads.build(WORKLOAD, SEED)``.

Every galbim module is compiled from source, as in a checkout with no
bytecode cache and ``PYTHONDONTWRITEBYTECODE`` set, and nothing is
written to a cache.  These are wall times of one interpreter, so they
swing with the host's speed; compare two checkouts by alternating runs.
Nothing under ``perfbench/`` is changed.  Standard library only.
"""

import argparse
import importlib.machinery
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class _TimedLoader(importlib.machinery.SourceFileLoader):
    """Compiles and executes a galbim module, timing each step."""

    rows = {}           # module name -> [compile ms, exec ms]
    nested = [0.0]      # per open import: ms spent importing galbim inside

    def exec_module(self, module):
        row = self.rows[module.__name__] = [0.0, 0.0]
        start = time.perf_counter()
        code = compile(self.get_data(self.path), self.path, "exec",
                       dont_inherit=True)
        compiled = time.perf_counter()
        self.nested.append(0.0)
        try:
            exec(code, vars(module))
        finally:
            done = time.perf_counter()
            inner = self.nested.pop()
            self.nested[-1] += (done - start) * 1000
            row[:] = ((compiled - start) * 1000,
                      (done - compiled) * 1000 - inner)


class _GalbimFinder:
    """Hands galbim's modules to a ``_TimedLoader``."""

    @staticmethod
    def find_spec(name, path=None, target=None):
        if name.partition(".")[0] != "galbim":
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is not None:
            spec.loader = _TimedLoader(name, spec.origin)
        return spec


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload", help="a workload of BENCHMARK.json")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    sys.path[:0] = [os.path.join(ROOT, d) for d in ("src", "perfbench")]
    sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/
    sys.meta_path.insert(0, _GalbimFinder)
    start = time.perf_counter()
    import workloads
    imported = time.perf_counter()
    if args.workload not in workloads.BUILDERS:
        ap.error("unknown workload %r; choose from %s"
                 % (args.workload, ", ".join(sorted(workloads.BUILDERS))))
    built = time.perf_counter()
    workloads.build(args.workload, args.seed)
    end = time.perf_counter()

    rows = _TimedLoader.rows
    width = max(map(len, rows)) + 2
    line = "%-*s %9s %9s"
    print("%s, seed %d: set-up in ms" % (args.workload, args.seed))
    print(line % (width, "module", "compile", "exec"))
    for name, (comp, run) in rows.items():
        print(line % (width, name, "%.2f" % comp, "%.2f" % run))
    comp, run = (sum(col) for col in zip(*rows.values()))
    print(line % (width, "all of galbim", "%.2f" % comp, "%.2f" % run))
    rest = (imported - start) * 1000 - comp - run
    print("import workloads, outside galbim: %.2f" % rest)
    print("workloads.build(%r, %d): %.2f"
          % (args.workload, args.seed, (end - built) * 1000))
    print("total: %.2f" % ((imported - start + end - built) * 1000))


if __name__ == "__main__":
    main()
