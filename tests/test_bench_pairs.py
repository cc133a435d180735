"""The verdict routines of ``tools/bench_pairs.py`` on hand-made samples:
``summary``'s inclusive quartiles, ``compare``'s pair count (ties count
for neither side), ``regressions`` (an entry only beyond the parent's
IQR, and ``beyond_bound`` against the metric's share) and
``claim_verdicts`` (at least CLAIM_SHARE of the pairs won and a median
gain larger than the parent's IQR).  No benchmark run is started."""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_summary_uses_inclusive_quartiles():
    # exclusive quartiles would read 1.25 and 3.75
    assert bench_pairs.summary([4, 1, 3, 2]) == {
        "median": 2.5, "q1": 1.75, "q3": 3.25, "iqr": 1.5}
    assert bench_pairs.summary([5, 1, 4, 2, 3]) == {
        "median": 3, "q1": 2, "q3": 4, "iqr": 2}
    assert bench_pairs.summary([0.123456, 0.2, 0.3]) == {
        "median": 0.2, "q1": 0.1617, "q3": 0.25, "iqr": 0.0883}


def test_compare_counts_no_tie():
    parent, change = [1, 2, 3, 4], [1, 1, 1, 5]
    lower = bench_pairs.compare(parent, change, True)
    assert lower["change_better_pairs"] == 2     # pair 1 ties
    assert lower["parent"] == bench_pairs.summary(parent)
    assert lower["change"] == bench_pairs.summary(change)
    assert lower["median_delta_pct"] == -60.0
    higher = bench_pairs.compare(parent, change, False)
    assert higher["change_better_pairs"] == 1
    assert bench_pairs.compare(parent, parent, True)[
        "change_better_pairs"] == 0


PARENT = [0.9, 1.0, 1.0, 1.1]     # median 1.0, IQR 1.025 - 0.975 = 0.05


def _entry(change, lower=True, parent=PARENT):
    return {"pairs": len(change),
            "solve_s": bench_pairs.compare(parent, change, lower)}


@pytest.mark.parametrize("median, listed", [
    (0.9, False),      # better
    (1.03, False),     # worse, within the parent's IQR
    (1.08, True),      # worse, beyond it
])
def test_regression_only_beyond_the_parent_iqr(median, listed):
    change = [median - 0.01, median, median, median + 0.01]
    pairs = {"seed_3": {"radical": _entry(change)}}
    got = bench_pairs.regressions(pairs, {"solve_s": True},
                                  {"solve_s": 0.25})
    assert bool(got) == listed
    if listed:
        assert got == [{
            "seed": 3, "workload": "radical", "metric": "solve_s",
            "parent_median": 1.0, "change_median": median,
            "parent_iqr": 0.05, "bound": 0.25, "beyond_bound": False}]


@pytest.mark.parametrize("bound, beyond", [(0.05, True), (0.1, False)])
def test_beyond_bound_reads_the_share_of_the_parent_median(bound, beyond):
    # 0.16 s worse than a parent median of 2.0 s is 8% worse
    pairs = {"seed_3": {"radical": _entry([2.15, 2.16, 2.16, 2.17],
                                          parent=[1.8, 2.0, 2.0, 2.2])}}
    entry, = bench_pairs.regressions(pairs, {"solve_s": True},
                                     {"solve_s": bound})
    assert entry["beyond_bound"] is beyond


def test_regression_of_a_higher_is_better_metric():
    pairs = {"seed_1": {"quartic": _entry([0.8, 0.9, 0.9, 0.95], False)},
             "seed_2": {"quartic": _entry([1.1, 1.2, 1.2, 1.3], False)}}
    entry, = bench_pairs.regressions(pairs, {"solve_s": False},
                                     {"solve_s": 0.05})
    assert (entry["seed"], entry["beyond_bound"]) == (1, True)


def _claim(parent, change):
    pairs = {"seed_5": {"numfield": _entry(change, parent=parent)},
             "seed_6": {"radical": _entry(parent, parent=parent)}}
    verdicts = bench_pairs.claim_verdicts(pairs, "numfield", "solve_s",
                                          True)
    assert list(verdicts) == ["seed_5"]      # seed 6 has no numfield
    return verdicts["seed_5"]


@pytest.mark.parametrize("wins, ties, met", [
    (10, 0, True), (9, 0, True), (9, 1, True), (8, 0, False),
    (8, 1, False)])
def test_claim_needs_the_share_of_pairs(wins, ties, met):
    assert bench_pairs.CLAIM_SHARE == 0.9
    change = [1.0] * wins + [10.0] * ties
    change += [20.0] * (10 - len(change))
    verdict = _claim([10.0] * 10, change)
    assert verdict["met"] is met
    assert verdict["change_better_pairs"] == wins
    assert verdict["pairs"] == 10
    assert verdict["margin"] == 9.0 and verdict["parent_iqr"] == 0


@pytest.mark.parametrize("change, met", [
    (0.5, False),      # margin 1.0, equal to the parent's IQR
    (0.25, True),      # margin 1.25
])
def test_claim_needs_a_margin_beyond_the_parent_iqr(change, met):
    parent = [1.0, 1.0, 2.0, 2.0]          # median 1.5, IQR 1.0
    verdict = _claim(parent, [change] * 4)
    assert verdict["change_better_pairs"] == 4
    assert verdict["parent_iqr"] == 1.0
    assert verdict["margin"] == 1.5 - change
    assert verdict["met"] is met
