"""One benchmark repetition: build the machine, replay, measure, check.

The harness measures two clocks from outside every layer:

- host time, with ``time.perf_counter`` around machine build plus trace
  generation (set-up) and around ``MobileComputer.run_streams`` (replay
  plus the final sync);
- simulated time, from the stream iterator the replayer pulls records
  from.  A record completes when the replayer pulls that client's next
  record (or finds the stream exhausted), so each record's due-time
  latency is that clock minus its trace timestamp.  This counts the
  time a record waited behind syncs, flushes and other clients, which
  per-operation service times hide.

After each replay the harness reads back every file the trace leaves
and compares it with a logical model built from the records.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.hierarchy import MobileComputer
from repro.fs.api import FSError
from repro.storage.manager import StorageReadOnlyError
from repro.trace.model import OpType, TraceRecord
from repro.trace.replay import payload_for

from e2ebench.workloads import Workload

#: A non-sync record that completes later than this after its due time
#: misses the latency limit.
LATE_LIMIT_S = 0.100


class DueTimes:
    """Completion clock of every record, observed from the stream iterator.

    ``current[client]`` holds ``(op_id, due_time)`` of the record each
    client is being served; the traced run reads it to attribute spans
    and dispatch waits to records.
    """

    def __init__(self, clock) -> None:
        self.clock = clock
        # (client, record, completion sim time), in completion order.
        self.samples: List[Tuple[int, TraceRecord, float]] = []
        self.current: Dict[Optional[int], Tuple[int, float]] = {}

    def wrap(self, client: int, key: Optional[int], records: List[TraceRecord]):
        """Yield ``records``, stamping each one's completion on the next pull.

        ``key`` is the id the scheduler runs the client under (None for a
        single client); op ids are ``client * 10**7 + index``.
        """
        clock = self.clock
        samples = self.samples
        current = self.current
        base = client * 10_000_000
        prev = None
        for index, record in enumerate(records):
            if prev is not None:
                samples.append((client, prev, clock.now))
            current[key] = (base + index, record.time)
            prev = record
            yield record
        if prev is not None:
            samples.append((client, prev, clock.now))


@dataclass
class Rep:
    """What one repetition measured."""

    build_s: float
    synth_s: float
    replay_s: float
    generated: int
    served: int
    error: Optional[str]
    sim: Dict[str, float]
    counts: Dict[str, int]
    fingerprint: str
    mismatches: List[str]

    @property
    def setup_s(self) -> float:
        return self.build_s + self.synth_s


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def simulated_metrics(
    machine: MobileComputer, due: DueTimes, streams: List[List[TraceRecord]]
) -> Tuple[Dict[str, float], Dict[str, int]]:
    """The simulated end-to-end metrics and the sample count behind each."""
    lat: Dict[OpType, List[float]] = {OpType.WRITE: [], OpType.READ: []}
    late = 0
    timed = 0
    app_written = 0
    for _client, record, done in due.samples:
        op = record.op
        delay = done - record.time
        if op in lat:
            lat[op].append(delay)
        if op is OpType.WRITE:
            app_written += record.nbytes
        if op is not OpType.SYNC:
            timed += 1
            if delay > LATE_LIMIT_S:
                late += 1
    generated = sum(len(s) for s in streams)
    unserved_timed = sum(
        1 for s in streams for r in s if r.op is not OpType.SYNC
    ) - timed
    writes = sorted(lat[OpType.WRITE])
    reads = sorted(lat[OpType.READ])
    now = machine.clock.now
    machine.power.settle(now)
    device_written = 0
    if machine.flash is not None:
        device_written += machine.flash.stats.bytes_written
    if machine.disk is not None:
        device_written += machine.disk.stats.bytes_written
    sim = {
        "sim_write_p50_ms": percentile(writes, 0.50) * 1e3,
        "sim_write_p99_ms": percentile(writes, 0.99) * 1e3,
        "sim_read_p50_ms": percentile(reads, 0.50) * 1e3,
        "sim_read_p99_ms": percentile(reads, 0.99) * 1e3,
        # Records never served count as late.
        "sim_late_frac": (late + unserved_timed) / max(1, timed + unserved_timed),
        "device_write_bytes_per_app_byte": device_written / max(1, app_written),
        "sim_avg_power_mw": machine.power.average_power_watts(now) * 1e3,
        "ops_failed_frac": (generated - len(due.samples)) / max(1, generated),
    }
    counts = {
        "sim_write_p50_ms": len(writes),
        "sim_write_p99_ms": len(writes),
        "sim_read_p50_ms": len(reads),
        "sim_read_p99_ms": len(reads),
        "sim_late_frac": timed + unserved_timed,
        "device_write_bytes_per_app_byte": app_written,
        "sim_avg_power_mw": 1,
        "ops_failed_frac": generated,
    }
    return sim, counts


def fingerprint(machine: MobileComputer, sim: Dict[str, float]) -> str:
    """Digest of the MetricsHub snapshot plus the simulated metrics."""
    blob = json.dumps(
        {"hub": machine.hub.snapshot(machine.clock.now), "sim": sim},
        sort_keys=True,
        default=str,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def expected_tree(
    streams: List[List[TraceRecord]], served: List[int]
) -> Tuple[set, Dict[str, bytearray]]:
    """Directories and file contents the served records should leave.

    Applies ``payload_for`` writes in trace order under each client's
    ``/c<N>`` prefix, with the replayer's tolerant semantics
    (idempotent mkdir/create, create on first write).
    """
    multi = len(streams) > 1
    dirs = {"/"}
    files: Dict[str, bytearray] = {}
    for client, records in enumerate(streams):
        prefix = f"/c{client}" if multi else ""
        if multi and served[client]:
            dirs.add(prefix)
        for record in records[: served[client]]:
            op = record.op
            path = prefix + record.path
            if op is OpType.MKDIR:
                dirs.add(path)
            elif op is OpType.CREATE:
                files.setdefault(path, bytearray())
            elif op is OpType.WRITE:
                buf = files.setdefault(path, bytearray())
                if len(buf) < record.offset:
                    buf.extend(bytes(record.offset - len(buf)))
                end = record.offset + record.nbytes
                buf[record.offset : end] = payload_for(path, record.offset, record.nbytes)
            elif op is OpType.TRUNCATE:
                buf = files[path]
                if record.nbytes < len(buf):
                    del buf[record.nbytes :]
                else:
                    buf.extend(bytes(record.nbytes - len(buf)))
            elif op is OpType.DELETE:
                del files[path]
            elif op is OpType.RENAME:
                files[prefix + record.new_path] = files.pop(path)
    return dirs, files


def read_back(machine: MobileComputer, dirs: set, files: Dict[str, bytearray]) -> List[str]:
    """Compare the file system's tree and contents with the model."""
    fs = machine.fs
    seen_dirs = set()
    seen_files: Dict[str, int] = {}
    pending = ["/"]
    while pending:
        path = pending.pop()
        seen_dirs.add(path)
        for name in fs.listdir(path):
            child = path.rstrip("/") + "/" + name
            st = fs.stat(child)
            if st.is_dir:
                pending.append(child)
            else:
                seen_files[child] = st.size
    problems = []
    for path in sorted(dirs ^ seen_dirs):
        problems.append(f"directory {path}: model={path in dirs} fs={path in seen_dirs}")
    for path in sorted(set(files) ^ set(seen_files)):
        problems.append(f"file {path}: model={path in files} fs={path in seen_files}")
    for path in sorted(set(files) & set(seen_files)):
        want = files[path]
        if seen_files[path] != len(want):
            problems.append(f"file {path}: size {seen_files[path]} != {len(want)}")
        elif fs.read(path, 0, len(want)) != want:
            problems.append(f"file {path}: contents differ")
    return problems


def run_once(workload: Workload, seed: int, instrument=None) -> Rep:
    """Build, replay and check ``workload`` once.

    ``instrument``, when given, is called as ``instrument(machine, due,
    run)`` and must call ``run()`` (the replay) itself; the traced and
    profiled runs use it to wrap the replay and to read the machine's
    statistics before the read-back check touches them.
    """
    gc.collect()
    t0 = time.perf_counter()
    machine = MobileComputer(workload.config.with_changes(seed=seed))
    programs = workload.programs()
    if programs:
        machine.register_programs(programs)
    t1 = time.perf_counter()
    streams = workload.streams(seed)
    t2 = time.perf_counter()

    due = DueTimes(machine.clock)
    multi = len(streams) > 1
    wrapped = [
        due.wrap(i, i if multi else None, records) for i, records in enumerate(streams)
    ]
    error: Optional[str] = None

    def run() -> None:
        # A failed record aborts the replay (strict, as run_workload
        # replays); every record left unserved counts as failed.
        nonlocal error
        try:
            machine.run_streams(wrapped)
        except (FSError, StorageReadOnlyError) as exc:
            error = f"{type(exc).__name__}: {exc}"

    t3 = time.perf_counter()
    if instrument is None:
        run()
    else:
        instrument(machine, due, run)
    t4 = time.perf_counter()

    sim, counts = simulated_metrics(machine, due, streams)
    digest = fingerprint(machine, sim)
    served = [0] * len(streams)
    for client, _record, _done in due.samples:
        served[client] += 1
    dirs, files = expected_tree(streams, served)
    mismatches = read_back(machine, dirs, files)
    return Rep(
        build_s=t1 - t0,
        synth_s=t2 - t1,
        replay_s=t4 - t3,
        generated=sum(len(s) for s in streams),
        served=len(due.samples),
        error=error,
        sim=sim,
        counts=counts,
        fingerprint=digest,
        mismatches=mismatches,
    )
