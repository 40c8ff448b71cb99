"""Per-layer metrics from one traced replay and one profiled replay.

Host times come from the spans in :mod:`e2ebench.spans`; counts and
simulated figures come from the machine's own statistics, which the
spans do not change (the traced replay's fingerprint must equal the
untraced one).  :data:`TARGETS` says, for every metric, which
end-to-end metric it should move and on which workload.
"""

from __future__ import annotations

import cProfile
import pstats
import statistics
import time
from pathlib import Path
from typing import Dict, List, Tuple

from repro.trace import replay as replay_module

from e2ebench.harness import Rep, percentile, run_once
from e2ebench.spans import SpanRecorder

Metric = Tuple[float, str, int]

ENERGY_DEVICES = ("dram", "cpu", "flash-data", "flash-programs", "disk")

_ALL = "all workloads"
_OFFICE = "ss_office_2c"
_DB = "ss_database_gc"
_DISK = "disk_exec"
_FLASH = f"sim_late_frac on {_OFFICE}; replay_records_per_s on {_DB}"
_DISK_DEV = f"sim_read_p99_ms, sim_late_frac, sim_avg_power_mw on {_DISK}"
_GC = f"device_write_bytes_per_app_byte, sim_write_p99_ms on {_DB}"
_LAUNCH = f"sim_late_frac, replay_records_per_s on {_DISK}"
_WAIT = f"sim_write_p99_ms, sim_late_frac on {_OFFICE}, {_DB}"

#: Per-layer metric -> the end-to-end metric it should move, and where.
TARGETS: Dict[str, str] = {
    "trace.synth.host_s": f"setup_s on {_ALL}",
    "trace.overhead_frac": "none (cost of the traced run itself)",
    "trace.replay.host_self_s": f"replay_records_per_s on {_ALL}",
    "sim.engine.events": f"replay_records_per_s on {_OFFICE}",
    "sim.engine.host_self_s": f"replay_records_per_s on {_OFFICE}",
    "sim.sched.wait_p50_ms": _WAIT,
    "sim.sched.wait_p99_ms": _WAIT,
    "fs.apply.calls": f"replay_records_per_s on {_ALL}",
    "fs.apply.host_self_s": f"replay_records_per_s on {_ALL}",
    "fs.service_write_p99_ms": f"sim_write_p99_ms (service part) on {_ALL}",
    "fs.service_read_p99_ms": f"sim_read_p99_ms (service part) on {_ALL}",
    "fs.cache.hit_frac": f"sim_read_p99_ms on {_DISK}",
    "fs.cache.writebacks": f"sim_write_p99_ms, sim_avg_power_mw on {_DISK}",
    "fs.cache.host_self_s": f"replay_records_per_s on {_DISK}",
    "storage.manager.host_self_s": f"replay_records_per_s on {_OFFICE}",
    "storage.writebuffer.absorbed_frac": (
        f"device_write_bytes_per_app_byte: high on {_OFFICE}, low on {_DB}"),
    "storage.writebuffer.flushes_watermark": f"sim_write_p99_ms, sim_late_frac on {_OFFICE}",
    "storage.writebuffer.flushes_sync": f"sim_write_p99_ms, sim_late_frac on {_OFFICE}",
    "storage.flashstore.host_self_s": f"replay_records_per_s on {_DB}",
    "storage.flashstore.write_amplification": _GC,
    "storage.gc.bytes_copied": _GC,
    "storage.gc.forced_cleanings": _GC,
    "storage.gc.copy_frac": _GC,
    "devices.flash.programs": _FLASH,
    "devices.flash.erases": _FLASH,
    "devices.flash.busy_frac": _FLASH,
    "devices.flash.host_s": _FLASH,
    "devices.disk.ops": _DISK_DEV,
    "devices.disk.busy_frac": _DISK_DEV,
    "devices.disk.wait_s": _DISK_DEV,
    "devices.disk.host_s": _DISK_DEV,
    "devices.dram.busy_frac": f"replay_records_per_s on {_ALL}",
    "devices.dram.host_s": f"replay_records_per_s on {_ALL}",
    **{f"devices.energy_j.{d}": f"sim_avg_power_mw on {_ALL}" for d in ENERGY_DEVICES},
    "mem.launches": _LAUNCH,
    "mem.launch_p50_ms": _LAUNCH,
    "mem.host_s": _LAUNCH,
    "work.boundary_calls_per_record": f"replay_records_per_s on {_ALL} (exact count)",
    "work.engine_events_per_record": f"replay_records_per_s on {_ALL} (exact count)",
    "work.device_ops_per_record": f"replay_records_per_s on {_ALL} (exact count)",
    "work.calls_per_record": f"replay_records_per_s on {_ALL} (exact count)",
}


def _ms(values: List[float], q: float) -> float:
    return percentile(sorted(values), q) * 1e3


def layer_metrics(machine, records: int, recorder: SpanRecorder) -> Dict[str, Metric]:
    """Per-layer metrics of a traced replay, as ``name -> (value, unit,
    samples)``; read before anything else touches the machine."""
    now = machine.clock.now
    comp = recorder.by_component()

    def host(component: str, key: str) -> Metric:
        row = comp.get(component, {})
        return (row.get(key, 0.0), "s", int(row.get("calls", 0)))

    def busy(device) -> float:
        return device.stats.busy_time / now if device is not None and now > 0 else 0.0

    waits = [start - due for due, start, _op in recorder.apply_entries]
    writes = recorder.sim_durations("fs.api.apply", "write")
    reads = recorder.sim_durations("fs.api.apply", "read")
    launches = recorder.sim_durations("mem.launch.launch_program")

    out: Dict[str, Metric] = {
        "trace.replay.host_self_s": host("trace.replay", "self_s"),
        "sim.engine.events": (float(machine.engine.events_run), "count", 1),
        "sim.engine.host_self_s": host("sim.engine", "self_s"),
        "sim.sched.wait_p50_ms": (_ms(waits, 0.50), "ms", len(waits)),
        "sim.sched.wait_p99_ms": (_ms(waits, 0.99), "ms", len(waits)),
        "fs.apply.calls": (float(comp.get("fs.api", {}).get("calls", 0)), "count", 1),
        "fs.apply.host_self_s": host("fs.api", "self_s"),
        "fs.service_write_p99_ms": (_ms(writes, 0.99), "ms", len(writes)),
        "fs.service_read_p99_ms": (_ms(reads, 0.99), "ms", len(reads)),
    }

    # hub.counter_value reads without creating counters, so the metrics
    # leave the MetricsHub snapshot (and the fingerprint) untouched.
    counter = machine.hub.counter_value
    hits = counter("buffercache", "hits")
    lookups = hits + counter("buffercache", "misses")
    out["fs.cache.hit_frac"] = (hits / lookups if lookups else 0.0, "frac", int(lookups))
    out["fs.cache.writebacks"] = (
        counter("buffercache", "sync_writebacks") + counter("buffercache", "dirty_evictions"),
        "count", 1)
    out["fs.cache.host_self_s"] = host("fs.cache", "self_s")

    out["storage.manager.host_self_s"] = host("storage.manager", "self_s")
    bytes_in = counter("writebuffer", "bytes_in")
    absorbed = counter("writebuffer", "died_bytes") + counter("writebuffer", "overwritten_bytes")
    out["storage.writebuffer.absorbed_frac"] = (
        absorbed / bytes_in if bytes_in else 0.0, "frac", int(bytes_in))
    out["storage.writebuffer.flushes_watermark"] = (
        counter("writebuffer", "flushed_watermark"), "count", 1)
    out["storage.writebuffer.flushes_sync"] = (counter("writebuffer", "flushed_sync"), "count", 1)
    out["storage.flashstore.host_self_s"] = host("storage.flashstore", "self_s")
    user = counter("flashstore", "user_bytes_written")
    copied = counter("flashstore", "gc_bytes_copied")
    erased = machine.flash.stats.erases * machine.flash.sector_bytes if machine.store else 0
    out["storage.flashstore.write_amplification"] = (
        (user + copied) / user if user else 0.0, "B/B", int(user))
    out["storage.gc.bytes_copied"] = (copied, "B", 1)
    forced = machine.store.cleaning_stats.forced_cleanings if machine.store else 0
    out["storage.gc.forced_cleanings"] = (float(forced), "count", 1)
    out["storage.gc.copy_frac"] = (copied / erased if erased else 0.0, "frac", int(erased))

    flash = machine.flash
    disk = machine.disk
    out["devices.flash.programs"] = (float(flash.stats.writes if flash else 0), "count", 1)
    out["devices.flash.erases"] = (float(flash.stats.erases if flash else 0), "count", 1)
    out["devices.flash.busy_frac"] = (busy(flash), "frac", 1)
    out["devices.flash.host_s"] = host("devices.flash", "host_s")
    out["devices.disk.ops"] = (
        float(disk.stats.reads + disk.stats.writes if disk else 0), "count", 1)
    out["devices.disk.busy_frac"] = (busy(disk), "frac", 1)
    out["devices.disk.wait_s"] = (disk.stats.wait_time if disk else 0.0, "s", 1)
    out["devices.disk.host_s"] = host("devices.disk", "host_s")
    out["devices.dram.busy_frac"] = (busy(machine.dram), "frac", 1)
    out["devices.dram.host_s"] = host("devices.dram", "host_s")
    machine.power.settle(now)
    energy = {d.name: d.total_energy_joules for d in machine.power.devices}
    for name in ENERGY_DEVICES:
        out[f"devices.energy_j.{name}"] = (energy.get(name, 0.0), "J", 1)

    out["mem.launches"] = (counter("machine", "launches"), "count", 1)
    out["mem.launch_p50_ms"] = (_ms(launches, 0.50), "ms", len(launches))
    out["mem.host_s"] = host("mem.launch", "host_s")

    device_ops = sum(
        d.stats.reads + d.stats.writes + d.stats.erases
        for d in (machine.dram, flash, disk, machine.program_flash)
        if d is not None
    )
    per = float(max(1, records))
    out["work.boundary_calls_per_record"] = (len(recorder.spans) / per, "count", records)
    out["work.engine_events_per_record"] = (machine.engine.events_run / per, "count", records)
    out["work.device_ops_per_record"] = (device_ops / per, "count", records)
    return out


def traced_reps(workload, seed: int, untraced: List[Rep], outdir: Path):
    """Run one traced and one profiled replay; returns the per-layer
    metrics and the two extra repetitions (for the correctness checks)."""
    holder = {}

    def traced(machine, due, run):
        recorder = SpanRecorder(machine.clock, due)
        recorder.attach(machine)
        start = time.perf_counter()
        try:
            run()
            holder["traced_s"] = time.perf_counter() - start
        finally:
            recorder.detach()
        holder["layers"] = layer_metrics(machine, len(due.samples), recorder)
        outdir.mkdir(parents=True, exist_ok=True)
        recorder.write_jsonl(outdir / f"{workload.name}.spans.jsonl")

    rep = run_once(workload, seed, instrument=traced)

    def profiled(machine, due, run):
        # Payload memos are process-wide; start them cold so the call
        # count does not depend on what ran earlier in this process.
        replay_module._payload.cache_clear()
        replay_module._pattern_unit.cache_clear()
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            run()
        finally:
            profiler.disable()
        holder["calls"] = pstats.Stats(profiler).total_calls

    profiled_rep = run_once(workload, seed, instrument=profiled)
    records = max(1, profiled_rep.served)
    metrics = {
        "trace.synth.host_s": (statistics.median(r.synth_s for r in untraced), "s", len(untraced)),
        # Traced replay host time over the untraced median, minus 1.
        "trace.overhead_frac": (
            holder["traced_s"] / statistics.median(r.replay_s for r in untraced) - 1.0, "frac", 1),
        **holder["layers"],
        "work.calls_per_record": (holder["calls"] / records, "count", records),
    }
    return metrics, [rep, profiled_rep]
