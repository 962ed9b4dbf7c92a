"""The summary that tools/bench_pairs.py writes from paired runs."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _run(value, correct=True, failed=0):
    metrics = {"scaled_cpu_s": {"value": value, "unit": "s"}, "rate": {"value": 1.0 / value, "unit": "1/s"}}
    return {"result": {"correct": correct, "attempted": 10, "failed": failed, "metrics": metrics}}


BETTER = {"scaled_cpu_s": "lower", "rate": "higher"}
BOUNDS = {"scaled_cpu_s": 0.1, "rate": 0.1}


def test_spread_is_median_and_quartile_distance():
    s = bench_pairs.spread([4.0, 1.0, 3.0, 2.0, 5.0])
    assert s == {"median": 3.0, "iqr": 2.0, "min": 1.0, "max": 5.0, "runs": 5}
    assert bench_pairs.spread([7.0])["iqr"] == 0.0


def test_pairs_are_won_in_the_declared_direction():
    runs = {"parent": [_run(v) for v in (2.0, 2.0, 2.0)], "change": [_run(v) for v in (1.0, 3.0, 2.0)]}
    summary = bench_pairs.summarize(runs, BETTER, BOUNDS)
    assert summary["all_correct"]
    # a tie counts for neither side
    assert summary["scaled_cpu_s"]["change_better_pairs"] == 1
    assert summary["rate"]["change_better_pairs"] == 1
    assert summary["scaled_cpu_s"]["pairs"] == 3
    assert summary["scaled_cpu_s"]["change"]["median"] == pytest.approx(2.0)


def test_a_failed_run_drops_its_pair_and_marks_the_workload():
    runs = {"parent": [_run(2.0), _run(2.0, failed=1)], "change": [{"result": None}, _run(1.0, correct=False)]}
    summary = bench_pairs.summarize(runs, {"scaled_cpu_s": "lower"}, BOUNDS)
    assert not summary["all_correct"]
    assert summary["failed"] == {"parent": 1, "change": 0}
    assert summary["scaled_cpu_s"]["pairs"] == 1
    assert summary["scaled_cpu_s"]["parent"]["runs"] == 2
    assert summary["scaled_cpu_s"]["change"]["runs"] == 1


PARENT = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.0]  # median 10.0, IQR 0.175


def test_gain_wins_nine_pairs_by_more_than_the_parents_iqr():
    change = [v - 1.0 for v in PARENT[:9]] + [10.5]
    assert bench_pairs.verdict(PARENT, change, "lower", 0.1) == "gain"
    assert bench_pairs.verdict([-v for v in PARENT], [-v for v in change], "higher", 0.1) == "gain"
    # eight wins of ten are no gain, however large the lead
    assert bench_pairs.verdict(PARENT, change[:8] + [10.5, 10.5], "lower", 0.1) == "unchanged"


def test_regression_is_a_median_worse_by_more_than_the_bound():
    change = [1.2 * v for v in PARENT]
    assert bench_pairs.verdict(PARENT, change, "lower", 0.1) == "regression"
    assert bench_pairs.verdict(PARENT, change, "lower", 0.25) == "unchanged"


def test_unresolved_when_the_parents_spread_is_wider_than_the_bound():
    parent = [5.0, 15.0] * 5  # median 10, IQR 10 against a slack of 1
    assert bench_pairs.verdict(parent, parent[::-1], "lower", 0.1) == "unresolved"
    # unless every change run beats every parent run
    parent = [10.0] * 5 + [30.0] * 5
    assert bench_pairs.verdict(parent, [9.5] * 10, "lower", 0.1) == "unchanged"


def test_unchanged_within_the_bound():
    change = PARENT[1:] + PARENT[:1]
    assert bench_pairs.verdict(PARENT, change, "lower", 0.1) == "unchanged"


def test_summary_carries_a_verdict_for_each_metric():
    runs = {"parent": [_run(v) for v in PARENT], "change": [_run(1.2 * v) for v in PARENT]}
    summary = bench_pairs.summarize(runs, BETTER, BOUNDS)
    assert summary["scaled_cpu_s"]["verdict"] == "regression"
    assert summary["rate"]["verdict"] == "regression"


def test_no_gain_while_the_change_fails_more_operations():
    faster = [v - 1.0 for v in PARENT]
    runs = {"parent": [_run(v) for v in PARENT], "change": [_run(v) for v in faster]}
    assert bench_pairs.summarize(runs, BETTER, BOUNDS)["scaled_cpu_s"]["verdict"] == "gain"
    runs["change"][0] = _run(faster[0], failed=1)
    summary = bench_pairs.summarize(runs, BETTER, BOUNDS)
    assert summary["scaled_cpu_s"]["verdict"] == summary["rate"]["verdict"] == "unchanged"
    # as many failures on both sides leave the gain
    runs["parent"][0] = _run(PARENT[0], failed=1)
    assert bench_pairs.summarize(runs, BETTER, BOUNDS)["scaled_cpu_s"]["verdict"] == "gain"
