"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest e2ebench/tests -q

They check that the benchmark replays what ``run_workload`` replays for
the same config (at seed 0 and at a seed held out from tuning), that
each workload exercises the layers it was chosen for, that the read-back
check catches a corrupted file, and that the command line keeps the
output contract in ``BENCHMARK.json``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.core.hierarchy import MobileComputer  # noqa: E402

from e2ebench.harness import run_once  # noqa: E402
from e2ebench.layers import TARGETS, traced_reps  # noqa: E402
from e2ebench.workloads import WORKLOADS  # noqa: E402

HELD_OUT_SEED = 11
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _machine_outputs(machine: MobileComputer, records: int) -> dict:
    now = machine.clock.now
    return {
        "records": records,
        "flash_bytes": machine.flash.stats.bytes_written if machine.flash else 0,
        "flash_erases": machine.flash.stats.erases if machine.flash else 0,
        "disk_bytes": machine.disk.stats.bytes_written if machine.disk else 0,
        "energy_j": machine.power.breakdown(now).total,
        "gc_bytes_copied": (
            machine.store.cleaning_stats.live_bytes_copied if machine.store else 0
        ),
        "launches": machine.hub.counter_value("machine", "launches"),
        "root": machine.fs.listdir("/"),
    }


def _bench_outputs(name: str, seed: int) -> dict:
    captured = {}

    def capture(machine, due, run):
        run()
        captured.update(_machine_outputs(machine, len(due.samples)))

    rep = run_once(WORKLOADS[name], seed, instrument=capture)
    assert rep.mismatches == []
    assert rep.error is None
    assert rep.served == rep.generated
    return captured


@pytest.mark.parametrize("seed", [0, HELD_OUT_SEED])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_matches_run_workload_and_purpose(name, seed):
    workload = WORKLOADS[name]
    got = _bench_outputs(name, seed)
    machine = MobileComputer(workload.config.with_changes(seed=seed))
    report, metrics = machine.run_workload(
        workload.trace, seed=seed, duration_s=workload.duration_s,
        clients=workload.clients,
    )
    want = _machine_outputs(machine, report.records)
    assert want["records"] == metrics.records
    assert want["flash_bytes"] == metrics.flash_bytes_programmed
    assert want["flash_erases"] == metrics.flash_erases
    assert want["disk_bytes"] == metrics.disk_bytes_written
    assert want["energy_j"] == metrics.energy_joules
    assert got == want

    if name == "ss_database_gc":
        assert got["gc_bytes_copied"] > 0
    if name == "ss_office_2c":
        assert got["root"] == ["c0", "c1"]
    assert (got["launches"] > 0) == (name == "disk_exec")


@pytest.fixture(scope="module")
def layers(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("spans")
    out = {}
    for name, workload in WORKLOADS.items():
        untraced = [run_once(workload, 0)]
        metrics, extra = traced_reps(workload, 0, untraced, outdir)
        out[name] = (metrics, untraced + extra)
    return out


def test_traced_runs_leave_simulated_outputs_unchanged(layers):
    for name, (_metrics, reps) in layers.items():
        assert len({r.fingerprint for r in reps}) == 1, name
        assert all(r.mismatches == [] for r in reps), name


def test_per_layer_names_match_benchmark_json(layers):
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert set(TARGETS) == set(declared)
    for name, (metrics, _reps) in layers.items():
        assert {k: v[1] for k, v in metrics.items()} == declared, name


def test_layer_split_matches_each_workloads_purpose(layers):
    office = layers["ss_office_2c"][0]
    database = layers["ss_database_gc"][0]
    disk = layers["disk_exec"][0]

    assert database["storage.gc.bytes_copied"][0] > 0
    assert database["storage.gc.copy_frac"][0] > 0
    # Waiting for the other client and for syncs dominates service time.
    assert office["sim.sched.wait_p99_ms"][0] > office["fs.service_write_p99_ms"][0]
    assert office["storage.writebuffer.absorbed_frac"][0] > database[
        "storage.writebuffer.absorbed_frac"][0]

    # The disk control never reaches the storage package or flash-data.
    for metric, (value, _unit, samples) in disk.items():
        if metric.startswith(("storage.", "devices.flash.")) or metric == (
                "devices.energy_j.flash-data"):
            assert value == 0 and (samples == 0 or not metric.endswith("_s")), metric
    assert disk["devices.disk.ops"][0] > 0

    for name, (metrics, _reps) in layers.items():
        assert (metrics["mem.launches"][0] > 0) == (name == "disk_exec"), name
        assert metrics["work.calls_per_record"][0] > metrics[
            "work.boundary_calls_per_record"][0] > 0


def test_work_counts_repeat_exactly(tmp_path):
    workload = dataclasses.replace(WORKLOADS["ss_database_gc"], duration_s=60.0)
    untraced = [run_once(workload, 3)]
    first, _ = traced_reps(workload, 3, untraced, tmp_path)
    second, _ = traced_reps(workload, 3, untraced, tmp_path)
    for metric in first:
        if metric.startswith(("work.", "sim.engine.events", "devices.energy_j.")):
            assert first[metric] == second[metric], metric


def test_read_back_catches_a_corrupted_file():
    workload = dataclasses.replace(WORKLOADS["ss_office_2c"], duration_s=30.0)

    def corrupt(machine, due, run):
        run()
        victim = "/c1/d1/" + machine.fs.listdir("/c1/d1")[0]
        size = machine.fs.stat(victim).size
        machine.fs.write(victim, size // 2, b"\x00corrupt")

    assert run_once(workload, 0).mismatches == []
    assert run_once(workload, 0, instrument=corrupt).mismatches != []


def test_read_back_catches_a_flipped_flash_bit():
    workload = dataclasses.replace(WORKLOADS["ss_database_gc"], duration_s=30.0)

    def flip(machine, due, run):
        run()
        store = machine.store
        key = sorted(store.keys(), key=repr)[0]
        offset = store.location_of(key).absolute(store.allocator.sector_bytes)
        machine.flash.fault_flip_bit(offset, 3)

    assert run_once(workload, 0, instrument=flip).mismatches != []


def _run_cli(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "e2ebench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_cli_prints_declared_end_to_end_metrics():
    done = _run_cli(ROOT, "--workload", "disk_exec", "--seed", "2",
                    "--seconds", "0", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name in ("sim_write_p99_ms", "sim_late_frac", "ops_failed_frac", "fingerprint"):
        assert name in done.stdout


def test_cli_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "e2ebench", tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run_cli(tmp_path, "--workload", "disk_exec", "--seed", "0",
                    "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
