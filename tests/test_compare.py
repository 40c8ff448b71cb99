"""The parent/change comparison in ``benchmarks/compare.py``, on canned runs.

The script itself spends minutes running ``e2ebench/run.py``; these tests
feed its summary functions the values those runs would report.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("compare", ROOT / "benchmarks" / "compare.py")
compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)


def test_quartiles_of_ten_runs():
    assert compare.quartiles([float(v) for v in range(1, 11)]) == (3.25, 5.5, 7.75)
    assert compare.quartiles([4.0]) == (4.0, 4.0, 4.0)


def test_higher_is_better_gain():
    parent = [100.0, 102.0, 98.0, 101.0]
    change = [130.0, 99.0, 128.0, 131.0]
    row = compare.compare_metric(parent, change, "higher", 0.25)
    assert row["wins"] == 3 and row["pairs"] == 4
    assert row["rel"] == pytest.approx(129.0 / 100.5 - 1.0)
    assert row["within_bound"] and row["gain_beyond_iqr"]


def test_lower_is_better_direction_and_bound():
    parent = [1.0, 1.0, 1.0]
    # 20% more is a loss on every pair but inside a 0.25 bound...
    row = compare.compare_metric(parent, [1.2, 1.2, 1.2], "lower", 0.25)
    assert row["wins"] == 0 and row["within_bound"] and not row["gain_beyond_iqr"]
    # ...and outside a 0.15 one.
    assert not compare.compare_metric(parent, [1.2, 1.2, 1.2], "lower", 0.15)["within_bound"]
    # Less is a win for a lower-is-better metric.
    row = compare.compare_metric(parent, [0.5, 0.5, 0.5], "lower", 0.15)
    assert row["wins"] == 3 and row["within_bound"] and row["gain_beyond_iqr"]


def test_gain_inside_the_parents_spread_is_not_clear():
    parent = [80.0, 100.0, 120.0, 90.0, 110.0]
    change = [91.0, 111.0, 121.0, 101.0, 115.0]
    row = compare.compare_metric(parent, change, "higher", 0.25)
    assert row["wins"] == 5
    assert not row["gain_beyond_iqr"]


def _run(rps, correct=True, failed=0):
    metrics = {
        "replay_records_per_s": {"value": rps},
        "setup_s": {"value": 0.05},
        "peak_rss_mb": {"value": 80.0},
    }
    return {"correct": correct, "attempted": 100, "failed": failed, "metrics": metrics}


METRICS = [
    {"name": "replay_records_per_s", "better": "higher", "bound": 0.25},
    {"name": "setup_s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.15},
]


def test_workload_problems(capsys):
    ok = {"parent": [_run(100.0)] * 2, "change": [_run(120.0)] * 2}
    assert compare._print_workload("w", ok, METRICS) == []
    slow = {"parent": [_run(100.0)] * 2, "change": [_run(70.0)] * 2}
    assert [p.split(":")[0] for p in compare._print_workload("w", slow, METRICS)] == [
        "w replay_records_per_s"
    ]
    failing = {"parent": [_run(100.0)] * 2, "change": [_run(100.0, failed=3)] * 2}
    assert compare._print_workload("w", failing, METRICS) == [
        "w change: 6 failed ops, correct=True"
    ]
    wrong = {"parent": [_run(100.0)] * 2, "change": [_run(100.0, correct=False)] * 2}
    assert compare._print_workload("w", wrong, METRICS) == ["w change: 0 failed ops, correct=False"]
    assert "WORSE than 25%" in capsys.readouterr().out
