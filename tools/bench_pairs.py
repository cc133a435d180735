"""Alternating parent/change benchmark pairs, summarised as BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workloads coaction,radical --seeds 31 --pairs 10 --seconds 5 \\
        --claim coaction:solve_s --trace-seed 1 --out BENCH_11.json

Each checkout must hold ``perfbench/run.py`` and ``BENCHMARK.json``; each
run is ``run.py --workload W --seed S --seconds T --trace 0`` started in
that checkout.  Pair i runs both sides back to back, the parent first on
even i and the change first on odd i, so a drift in host speed does not
favour one side.  For every end-to-end metric of BENCHMARK.json the file
records each side's median and quartiles (statistics.quantiles, method
'inclusive'), the number of pairs the change wins (ties count for
neither) and the change of the median in percent.  A metric whose
median reads worse on the change than on the parent by more than the
parent's IQR is a regression: it is printed as a ``regressed`` line on
stderr and listed under ``regressions``, for every seed and workload in
the file.  With ``--claim W:M`` the change claims a gain on metric M of
workload W: it must read better in at least CLAIM_SHARE of the pairs,
and its median must beat the parent's by more than the parent's IQR.
The verdict is printed on stderr and recorded under ``claim.verdicts``
for every seed in the file, with the pair wins, the margin and the
parent's IQR.

``--trace-seed S`` adds one ``run.py --seed S --seconds 0 --trace 1``
pass per side and workload and records, under ``trace_seed_S``, each
side's ``correct``, every count (``.calls``, ``.raised``) that differs
between the sides, and every ``.self_s`` (with ``trace.solve_s``) that
moves by at least SELF_S_MIN_DELTA seconds, as [parent, change] pairs.
``--pairs 0`` runs the trace passes alone.

An existing ``--out`` file is updated in place: the header is rewritten
and each measured seed and workload replaces its old entry, so keys
added by hand (notes) survive.  Standard library only.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

SELF_S_MIN_DELTA = 0.01     # seconds; smaller self-time moves are noise
CLAIM_SHARE = 0.9           # share of pairs a claimed gain must win


def run_once(checkout, workload, seed, seconds, trace=0):
    """The details and result lines of one run.py run in ``checkout``."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit("run.py failed in %s (%s, seed %d):\n%s"
                 % (checkout, workload, seed, proc.stderr))
    lines = proc.stdout.strip().splitlines()
    details, result = json.loads(lines[0]), json.loads(lines[-1])
    return details, result


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4),
            "q3": round(q3, 4), "iqr": round(q3 - q1, 4)}


def compare(parent, change, lower_is_better):
    sign = 1 if lower_is_better else -1
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    out = {"parent": summary(parent), "change": summary(change),
           "change_better_pairs": wins}
    base = out["parent"]["median"]
    out["median_delta_pct"] = round(
        100 * (statistics.median(change) - statistics.median(parent)) / base,
        1)
    return out


def margin(got, lower_is_better):
    """How much better the change's median reads than the parent's."""
    sign = 1 if lower_is_better else -1
    return sign * (got["parent"]["median"] - got["change"]["median"])


def regressions(pairs, metrics):
    """(seed, workload, metric) entries whose change median is worse
    than the parent's by more than the parent's IQR."""
    out = []
    for seed_key, workloads in sorted(pairs.items()):
        for workload, entry in sorted(workloads.items()):
            for m, lower in metrics.items():
                got = entry.get(m)
                if got and -margin(got, lower) > got["parent"]["iqr"]:
                    out.append({
                        "seed": int(seed_key[len("seed_"):]),
                        "workload": workload, "metric": m,
                        "parent_median": got["parent"]["median"],
                        "change_median": got["change"]["median"],
                        "parent_iqr": got["parent"]["iqr"]})
    return out


def claim_verdicts(pairs, workload, metric, lower_is_better):
    """Per seed key: whether the change met its claimed gain on the
    workload's metric, with the numbers that decided it."""
    out = {}
    for seed_key, workloads in sorted(pairs.items()):
        if workload not in workloads:
            continue
        entry = workloads[workload]
        got = entry[metric]
        gain = margin(got, lower_is_better)
        out[seed_key] = {
            "met": bool(got["change_better_pairs"]
                        >= CLAIM_SHARE * entry["pairs"]
                        and gain > got["parent"]["iqr"]),
            "change_better_pairs": got["change_better_pairs"],
            "pairs": entry["pairs"],
            "margin": round(gain, 4),
            "parent_iqr": got["parent"]["iqr"],
        }
    return out


def measure(args, workload, seed, metrics):
    sides = {"parent": args.parent, "change": args.change}
    samples = {side: {m: [] for m in metrics} for side in sides}
    correct, failed, commits = True, 0, {}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            details, result = run_once(sides[side], workload, seed,
                                       args.seconds)
            commits[side] = (details["commit"] or "")[:7] or \
                details["source_sha256"]
            correct = correct and result["correct"]
            failed += result["failed"]
            for m in metrics:
                samples[side][m].append(result["metrics"][m]["value"])
        print("%s seed %d pair %d/%d: %s" % (
            workload, seed, i + 1, args.pairs, ", ".join(
                "%s %.4f/%.4f" % (m, samples["parent"][m][-1],
                                  samples["change"][m][-1])
                for m in metrics)), file=sys.stderr)
    entry = {"pairs": args.pairs, "correct": correct, "failed": failed}
    for m, lower in metrics.items():
        entry[m] = compare(samples["parent"][m], samples["change"][m], lower)
    return entry, commits


def trace_diff(args, workload, seed):
    """One traced pass per side: the per-layer metrics that moved."""
    results = {side: run_once(path, workload, seed, 0, trace=1)[1]
               for side, path in (("parent", args.parent),
                                  ("change", args.change))}
    parent = results["parent"]["metrics"]
    change = results["change"]["metrics"]
    self_s, counts = {}, {}
    for name in sorted(parent):
        p, c = parent[name]["value"], change[name]["value"]
        if name == "trace.solve_s" or (name.endswith(".self_s") and abs(
                c - p) >= SELF_S_MIN_DELTA):
            self_s[name] = [round(p, 3), round(c, 3)]
        elif name.endswith((".calls", ".raised")) and p != c:
            counts[name] = [p, c]
    print("%s trace seed %d: %d counts and %d self times moved"
          % (workload, seed, len(counts), len(self_s)), file=sys.stderr)
    return {"correct": [results["parent"]["correct"],
                        results["change"]["correct"]],
            "self_s_parent_change": self_s,
            "counts_that_changed_parent_change": counts}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="parent checkout")
    ap.add_argument("--change", required=True, help="changed checkout")
    ap.add_argument("--workloads", required=True,
                    help="comma-separated workload names")
    ap.add_argument("--seeds", required=True,
                    help="comma-separated workload seeds")
    ap.add_argument("--pairs", type=int, default=10,
                    help="alternating pairs per seed and workload; 0 runs "
                         "only the --trace-seed passes")
    ap.add_argument("--trace-seed", type=int, default=None,
                    help="also record one traced pass per side and "
                         "workload at this seed")
    ap.add_argument("--seconds", type=float, default=5)
    ap.add_argument("--claim", default=None,
                    help="WORKLOAD:METRIC the change claims to improve; "
                         "without it no gain is claimed")
    ap.add_argument("--description", default=None,
                    help="one line saying what the change does")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    metrics = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    claim_workload, claim_metric = \
        args.claim.split(":") if args.claim else (None, None)

    bench = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            bench = json.load(fh)
    pairs = bench.pop("pairs", {})
    commits = {}
    seeds = [int(s) for s in args.seeds.split(",")] if args.pairs else []
    for seed in seeds:
        for workload in args.workloads.split(","):
            entry, commits = measure(args, workload, seed, metrics)
            pairs.setdefault("seed_%d" % seed, {})[workload] = entry
            for r in regressions({"seed_%d" % seed: {workload: entry}},
                                 metrics):
                print("regressed %s on %s, seed %d: median %.4f -> %.4f, "
                      "parent IQR %.4f" % (
                          r["metric"], workload, seed, r["parent_median"],
                          r["change_median"], r["parent_iqr"]),
                      file=sys.stderr)
            if workload == claim_workload:
                verdict, = claim_verdicts(
                    {seed: {workload: entry}}, workload, claim_metric,
                    metrics[claim_metric]).values()
                print("claim %s on %s, seed %d: %s (%d/%d pairs, margin "
                      "%.4f, parent IQR %.4f)" % (
                          claim_metric, workload, seed,
                          "met" if verdict["met"] else "not met",
                          verdict["change_better_pairs"], verdict["pairs"],
                          verdict["margin"], verdict["parent_iqr"]),
                      file=sys.stderr)

    header = {
        "change": args.description or bench.get("change"),
        "parent": commits.get("parent", bench.get("parent")),
        "host": "%d-CPU %s, Python %s; times are seconds at the harness's "
                "reference host speed" % (
                    len(os.sched_getaffinity(0)), platform.system(),
                    platform.python_version()),
        "command": "python3 perfbench/run.py --workload W --seed S "
                   "--seconds %g --trace 0" % args.seconds,
        "method": "%d pairs per workload, parent and change each run from "
                  "its own checkout; the side that runs first alternates "
                  "from pair to pair; quartiles by statistics.quantiles("
                  "method='inclusive'); change_better_pairs counts pairs "
                  "where the change reads better, ties counting for "
                  "neither" % args.pairs,
        "claim": args.claim and {
            "metric": claim_metric,
            "workload": claim_workload,
            "rule": "change better in >= %d%% of pairs and the median "
                    "gain larger than the parent's IQR"
                    % round(100 * CLAIM_SHARE),
            "verdicts": claim_verdicts(pairs, claim_workload, claim_metric,
                                       metrics[claim_metric]),
        },
    }
    if not args.pairs:   # a trace-only run keeps the pairs' header
        header = {k: bench.get(k, v) for k, v in header.items()}
    if args.trace_seed is not None:
        bench["trace_seed_%d" % args.trace_seed] = {
            workload: trace_diff(args, workload, args.trace_seed)
            for workload in args.workloads.split(",")}
    bench["regressions"] = regressions(pairs, metrics)
    bench = {**header, **{k: v for k, v in bench.items()
                          if k not in header}, "pairs": pairs}
    with open(args.out, "w") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
