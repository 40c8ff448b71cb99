"""The benchmark's workloads and why each one is in the set.

Every workload replays timestamped trace records open loop in simulated
time: each client issues its records in sequence at their trace
timestamps, whether or not the machine has kept up.  Streams are built
exactly as :meth:`repro.core.hierarchy.MobileComputer.run_workload`
builds them, so the benchmark and ``run_workload`` replay the same
records for the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.config import Organization, SystemConfig
from repro.sim.rand import substream
from repro.trace.model import TraceRecord
from repro.trace.workloads import WORKLOADS as PROFILES
from repro.trace.workloads import generate_workload

MB = 1024 * 1024


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a machine shape plus a trace to replay."""

    name: str
    why: str
    config: SystemConfig
    trace: str
    clients: int
    duration_s: float

    def programs(self):
        """Program (name, size) pairs the trace launches, if any."""
        return PROFILES[self.trace](duration_s=self.duration_s).programs

    def streams(self, seed: int) -> List[List[TraceRecord]]:
        """Client streams for ``seed``, built as ``run_workload`` builds them."""
        if self.clients == 1:
            return [generate_workload(self.trace, seed=seed, duration_s=self.duration_s)]
        return [
            generate_workload(
                self.trace,
                seed=substream(seed, f"client{i}").seed,
                duration_s=self.duration_s,
            )
            for i in range(self.clients)
        ]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # The paper's organization under two-client contention, in the
        # E14 machine shape.  Office traffic is overwrite-heavy, so the
        # DRAM write buffer absorbs a large share of the bytes, while
        # capacity and sync flushes stall the other client's stream.
        # The busy layers are the scheduler, the memory-resident FS, the
        # write buffer and storage manager, and the flash device.  There
        # is no flash cleaning at this length.
        Workload(
            name="ss_office_2c",
            why=(
                "solid_state office, 2 clients, E14 shape: write buffer "
                "absorbs overwrites while flushes and syncs stall the "
                "other client"
            ),
            config=SystemConfig(
                organization=Organization.SOLID_STATE,
                dram_bytes=6 * MB,
                flash_bytes=32 * MB,
                disk_bytes=48 * MB,
            ),
            trace="office",
            clients=2,
            duration_s=600.0,
        ),
        # Uniform random 512-byte record updates with frequent syncs: the
        # write buffer absorbs almost nothing, and the flash store starts
        # empty and cleans continuously from a few hundred seconds in.
        # 900 s is long enough that the cleaner copies live data on
        # every seed.  The same write buffer is used the opposite way
        # from ss_office_2c, so a flush-policy gain that costs this
        # workload shows.
        Workload(
            name="ss_database_gc",
            why=(
                "solid_state database, 1 client, 16 MB flash: random "
                "updates defeat the buffer and the flash cleaner copies "
                "live data"
            ),
            config=SystemConfig(organization=Organization.SOLID_STATE),
            trace="database",
            clients=1,
            duration_s=900.0,
        ),
        # The conventional baseline the paper argues against: a block FS
        # and buffer cache on a magnetic disk, read-mostly with program
        # launches (seek, spin-up, load-to-DRAM).  It never touches the
        # storage package or flash-data, so it is the control on which a
        # storage or flash optimisation must show no change.  1200 s
        # gives more than 1,000 write samples behind the write p99.
        Workload(
            name="disk_exec",
            why=(
                "disk organization, exec_heavy, 1 client: the disk "
                "baseline with launches; bypasses storage and flash, the "
                "control"
            ),
            config=SystemConfig(organization=Organization.DISK),
            trace="exec_heavy",
            clients=1,
            duration_s=1200.0,
        ),
    )
}
