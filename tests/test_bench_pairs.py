"""The verdict rules of `scripts/bench_pairs.summarize` on synthetic pairs.

A claimed metric must improve in at least nine tenths of the pairs, ties
counting for neither side, and its median must move by more than the
parent's interquartile spread. Every metric's median must stay inside its
bound, read the right way round for lower-better and higher-better metrics,
and a metric whose parent spread is wider than its bound is unresolved
unless every change run beats every parent run.
"""

import importlib.util
from pathlib import Path

import pytest

BENCH_PAIRS_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"

SOLVE = {"name": "solve_s", "unit": "s", "better": "lower", "bound": 0.24}
RATE = {"name": "pivots_per_s", "unit": "1/s", "better": "higher", "bound": 0.24}


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", BENCH_PAIRS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pairs(name, parent, change):
    """Pair records in the shape `run_once` returns, for one metric."""
    return [{side: {"metrics": {name: {"value": value}}} for side, value in
             (("parent", p), ("change", c))} for p, c in zip(parent, change)]


# ten parent runs with quartiles 10.25 and 10.75 (inclusive method), so an
# interquartile spread of 0.5 round a median of 10.5
PARENT = [10.0, 10.1, 10.2, 10.4, 10.5, 10.5, 10.6, 10.8, 10.9, 11.0]


def claim(bench_pairs, spec, parent, change):
    report, lines = bench_pairs.summarize(pairs(spec["name"], parent, change), [spec],
                                          spec["name"])
    assert len(lines) == 1 and ("claim met" in lines[0]) == report[spec["name"]]["claim_met"]
    return report[spec["name"]]


def test_parent_spread_is_the_distance_between_its_quartiles(bench_pairs):
    assert bench_pairs.quartiles(PARENT) == pytest.approx((10.25, 10.75))
    row = claim(bench_pairs, SOLVE, PARENT, [p - 1.0 for p in PARENT])
    assert row["parent_iqr"] == pytest.approx(0.5)
    assert row["wins"] == 10 and row["claim_met"]


@pytest.mark.parametrize("losses,ties,met", [
    (0, 1, True),   # nine wins and a tie
    (1, 0, True),   # nine wins and a loss
    (0, 2, False),  # eight wins: ties count for neither side
    (2, 0, False),
    (1, 1, False),
])
def test_claim_needs_nine_wins_in_ten(bench_pairs, losses, ties, met):
    change = [p - 1.0 for p in PARENT]
    for i in range(losses):
        change[i] = PARENT[i] + 0.05
    for i in range(losses, losses + ties):
        change[i] = PARENT[i]
    row = claim(bench_pairs, SOLVE, PARENT, change)
    assert row["wins"] == 10 - losses - ties
    assert row["claim_met"] is met


@pytest.mark.parametrize("gain,met", [(0.75, False), (1.0, False), (1.25, True)])
def test_claim_needs_a_median_gain_beyond_the_parent_spread(bench_pairs, gain, met):
    # quartiles 8 and 9; every pair is won by the same gain, so the medians
    # differ by exactly it, and quarters keep every difference exact
    parent = [8.0, 8.0, 8.0, 8.0, 8.5, 8.5, 9.0, 9.0, 9.0, 9.0]
    row = claim(bench_pairs, SOLVE, parent, [p - gain for p in parent])
    assert row["parent_iqr"] == 1.0 and row["wins"] == 10
    assert row["claim_met"] is met


def test_claim_on_a_higher_better_metric_reads_a_rise_as_a_gain(bench_pairs):
    rise = claim(bench_pairs, RATE, PARENT, [p + 1.0 for p in PARENT])
    assert rise["wins"] == 10 and rise["claim_met"]
    fall = claim(bench_pairs, RATE, PARENT, [p - 1.0 for p in PARENT])
    assert fall["wins"] == 0 and not fall["claim_met"]


@pytest.mark.parametrize("spec,factor,within", [
    (SOLVE, 1.23, True),   # 23 % slower: inside a 24 % bound
    (SOLVE, 1.25, False),  # 25 % slower
    (SOLVE, 0.5, True),    # faster
    (RATE, 0.77, True),    # 23 % fewer pivots per second
    (RATE, 0.75, False),   # 25 % fewer
    (RATE, 2.0, True),     # more
])
def test_bound_check_reads_each_metric_in_its_own_direction(bench_pairs, spec, factor, within):
    name = spec["name"]
    change = [p * factor for p in PARENT]
    report, lines = bench_pairs.summarize(pairs(name, PARENT, change), [spec], None)
    row = report[name]
    assert row["parent_median"] == pytest.approx(10.5)
    assert row["change_median"] == pytest.approx(10.5 * factor)
    assert row["within_bound"] is within
    assert row["status"] == ("ok" if within else "EXCEEDED")
    assert ("EXCEEDED" in lines[0]) is not within
    assert "claim_met" not in row


# ten parent runs with quartiles 8 and 12 round a median of 10: a spread of
# 40 % of the median, wider than either metric's 24 % bound
WIDE = [6.0, 7.0, 8.0, 8.0, 10.0, 10.0, 12.0, 12.0, 13.0, 14.0]


@pytest.mark.parametrize("spec,shift,status", [
    (SOLVE, 0.0, "unresolved"),   # the same runs: the spread hides any change
    (SOLVE, 5.0, "unresolved"),   # 50 % slower, yet unresolved, not EXCEEDED
    (SOLVE, -3.0, "unresolved"),  # faster in the median, not in every run
    (SOLVE, -9.0, "ok"),          # every change run beats every parent run
    (RATE, 0.0, "unresolved"),
    (RATE, -5.0, "unresolved"),
    (RATE, 3.0, "unresolved"),
    (RATE, 9.0, "ok"),
])
def test_a_parent_spread_wider_than_the_bound_leaves_the_metric_unresolved(
        bench_pairs, spec, shift, status):
    name = spec["name"]
    change = [p + shift for p in WIDE]
    report, lines = bench_pairs.summarize(pairs(name, WIDE, change), [spec], None)
    assert bench_pairs.quartiles(WIDE) == pytest.approx((8.0, 12.0))
    assert report[name]["status"] == status
    assert lines[0].endswith(f"bound 24% {status}")

