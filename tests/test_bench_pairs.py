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


def test_spread_is_median_and_quartile_distance():
    s = bench_pairs.spread([4.0, 1.0, 3.0, 2.0, 5.0])
    assert s == {"median": 3.0, "iqr": 2.0, "min": 1.0, "max": 5.0, "runs": 5}
    assert bench_pairs.spread([7.0])["iqr"] == 0.0


def test_pairs_are_won_in_the_declared_direction():
    runs = {"parent": [_run(v) for v in (2.0, 2.0, 2.0)], "change": [_run(v) for v in (1.0, 3.0, 2.0)]}
    summary = bench_pairs.summarize(runs, {"scaled_cpu_s": "lower", "rate": "higher"})
    assert summary["all_correct"]
    # a tie counts for neither side
    assert summary["scaled_cpu_s"]["change_better_pairs"] == 1
    assert summary["rate"]["change_better_pairs"] == 1
    assert summary["scaled_cpu_s"]["pairs"] == 3
    assert summary["scaled_cpu_s"]["change"]["median"] == pytest.approx(2.0)


def test_a_failed_run_drops_its_pair_and_marks_the_workload():
    runs = {"parent": [_run(2.0), _run(2.0, failed=1)], "change": [{"result": None}, _run(1.0, correct=False)]}
    summary = bench_pairs.summarize(runs, {"scaled_cpu_s": "lower"})
    assert not summary["all_correct"]
    assert summary["failed"] == {"parent": 1, "change": 0}
    assert summary["scaled_cpu_s"]["pairs"] == 1
    assert summary["scaled_cpu_s"]["parent"]["runs"] == 2
    assert summary["scaled_cpu_s"]["change"]["runs"] == 1
