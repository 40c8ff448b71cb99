"""The e2ebench gate's comparison, on canned ``run.py`` output.

``benchmarks/e2e_gate.py`` spends ~20 s running the benchmark; these
tests feed its parser and comparison the header and JSON lines that
``e2ebench/run.py`` prints, so they take milliseconds.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("e2e_gate", ROOT / "benchmarks" / "e2e_gate.py")
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)

WORK = {
    "work.calls_per_record": 277.33795588556455,
    "work.boundary_calls_per_record": 13.030847346582224,
    "work.engine_events_per_record": 0.030028390478270366,
    "work.device_ops_per_record": 8.639550120113562,
}


def _stdout(workload, seed, fingerprint, work=None, correct=True, failed=0):
    metrics = {key: {"value": value, "unit": "count"} for key, value in (work or {}).items()}
    result = {"correct": correct, "attempted": 100, "failed": failed, "metrics": metrics}
    return "\n".join([
        f"e2ebench workload={workload} seed={seed} reps=3 records=100 "
        f"fingerprint={fingerprint}",
        " simulated (identical on every repetition):",
        "  sim_write_p50_ms                                    0.0410 ms         n=9",
        json.dumps(result),
    ]) + "\n"


def _runs(overrides=()):
    """Parsed runs for two workloads at seeds 0 (traced) and 1."""
    canned = {
        ("office", "0"): dict(fingerprint="07c15b5ae1b09c55", work=WORK),
        ("office", "1"): dict(fingerprint="c05a03b0f44b7c4a"),
        ("disk", "0"): dict(fingerprint="1fddd46c60aab964", work=WORK),
        ("disk", "1"): dict(fingerprint="4b71a65f650671df"),
    }
    for (workload, seed), change in dict(overrides).items():
        canned[(workload, seed)] = {**canned[(workload, seed)], **change}
    results = {}
    for (workload, seed), kwargs in canned.items():
        results.setdefault(workload, {})[seed] = gate.parse_run(_stdout(workload, seed, **kwargs))
    return results


PINS = gate.fresh_pins(_runs(), "3.11")


def test_parse_run_reads_header_and_json_lines():
    run = gate.parse_run(_stdout("office", 0, "abc", work=WORK))
    assert run == {"correct": True, "failed": 0, "pin": {"fingerprint": "abc", **WORK}}
    assert gate.parse_run(_stdout("office", 1, "abc"))["pin"] == {"fingerprint": "abc"}
    with pytest.raises(ValueError):
        gate.parse_run("Traceback (most recent call last):\n")


def test_identical_runs_pass():
    assert gate.check(PINS, _runs(), "3.11") == ([], [])


@pytest.mark.parametrize(
    "overrides, expected",
    [
        ({("office", "1"): {"fingerprint": "0000000000000000"}},
         "office seed 1: fingerprint pinned c05a03b0f44b7c4a, got 0000000000000000"),
        ({("disk", "0"): {"work": {**WORK, "work.device_ops_per_record": 9.0}}},
         "disk seed 0: work.device_ops_per_record pinned 8.639550120113562, got 9.0"),
        ({("office", "0"): {"correct": False}}, "office seed 0: correct is false"),
        ({("disk", "1"): {"failed": 3}}, "disk seed 1: 3 operations failed"),
    ],
    ids=["fingerprint", "work_count", "incorrect", "failed_ops"],
)
def test_each_kind_of_change_fails_naming_workload_and_seed(overrides, expected):
    failures, _notes = gate.check(PINS, _runs(overrides), "3.11")
    assert len(failures) == 1
    assert failures[0].startswith(expected)


def test_missing_workload_fails():
    results = _runs()
    del results["disk"]
    failures, _notes = gate.check(PINS, results, "3.11")
    assert failures == ["disk seed 0: pinned but not run", "disk seed 1: pinned but not run"]


def test_other_interpreter_skips_only_the_call_count():
    slower = {**WORK, "work.calls_per_record": 999.0}
    failures, notes = gate.check(PINS, _runs({("office", "0"): {"work": slower}}), "3.12")
    assert failures == []
    assert notes and "work.calls_per_record not compared" in notes[0]
    changed = {**slower, "work.engine_events_per_record": 1.0}
    failures, _notes = gate.check(PINS, _runs({("office", "0"): {"work": changed}}), "3.12")
    assert [f.split(":")[1].split()[0] for f in failures] == ["work.engine_events_per_record"]


def test_committed_pins_cover_every_benchmark_workload():
    pins = json.loads(gate.PINS.read_text())
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(pins["runs"]) == sorted(w["name"] for w in benchmark["workloads"])
    for seeds in pins["runs"].values():
        assert set(seeds["0"]) == {"fingerprint", *gate.WORK_KEYS}
        assert set(seeds["1"]) == {"fingerprint"}
