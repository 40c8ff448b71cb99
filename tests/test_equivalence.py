"""Golden digests of whole-machine runs.

Per organization, the MetricsHub snapshot and the canonical trace byte
stream of a 12 s office replay at seed 42 are pinned to recorded sha256
digests, for one client and for two clients on solid_state.  A 12 s
``exec_heavy`` replay is pinned the same way: the office runs launch no
programs, and its 13 launches (more than ``MAX_RESIDENT_PROCESSES``)
cover the XIP and load-before-execute paths and process teardown.  One
power-loss cycle (office, battery failure, reboot, idle timers, office
again) is pinned the same way for every organization that can reboot.  A
change that claims "same behaviour" must leave every digest untouched.  A
hypothesis property then pins the multi-client invariant: per-client op
counts are conserved under any interleaving.
"""

from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import Organization, SystemConfig
from repro.core.hierarchy import MAX_RESIDENT_PROCESSES, MobileComputer
from repro.obs import runtime
from repro.obs.tracer import Tracer
from repro.sim.rand import substream
from repro.trace.workloads import WORKLOADS, generate_workload

DURATION = 12.0
SEED = 42

# (hub snapshot sha256, canonical trace sha256) per organization, 1 client.
GOLDEN = {
    Organization.SOLID_STATE: (
        "329e7e623bc9fe54adac6891b2a9a128bfcfb91b9916383991fd61b9affe0345",
        "5bb0a56cc4453c5e3203fbfc3bb3be53c78e516f7efba842087872711f9f2420",
    ),
    Organization.DISK: (
        "8cf8d0c0939949de2bcc271a7f3178b374c76fbc7ba71898e57b64bfb3562b5b",
        "22b7f7593d9c19e1b2e2ecadffdc6afc353fbb91ba3edfade47a6128b6ef2110",
    ),
    Organization.FLASH_DISK: (
        "4735e4e2d249cd135cf96fd562fb4a865a56aa1003367859d35c66ffa31a0f94",
        "d03c7980ef28c13dd5eb199ea7872ae0ecc7857c8bce6c7cc57a3aa2ea45c77a",
    ),
    Organization.FLASH_EIP: (
        "164db91634a0c267bb51fde799f00aec6fc886fd0385366a59f241cc3f66c96f",
        "da8b9fecebb4c7833ee7f7b76949b3360271aa7641f09a72ebd81ceb938e59e1",
    ),
    Organization.NAIVE_FLASH: (
        "4ab6cb9ae02e4d57b299424a14270038752bf0a1401b0093a4b03373ec9f3120",
        "3e537c196ee93196b29295abaedfc7405c77014aab6d619d5981a809a1bb2c80",
    ),
}
# The same two digests for solid_state with 2 concurrent clients.
GOLDEN_SOLID_STATE_2C = (
    "d01e7eb2f1f523ed2da2d0099a4e60748128bd96553cf75ca6f4d911716ec2ac",
    "609737fb9f5274853ab79bf540ef8ac32108dc1882a6977fd419ea2eb8c9bd02",
)
# The same two digests per organization for the exec_heavy workload.
GOLDEN_EXEC = {
    Organization.SOLID_STATE: (
        "bff6a3f4bf303c6ff7ea896db3b73ede1c2fd7f2895be9cb396a526d23146d7b",
        "12540dbcc633e32b3dc6b84444ea9cb86a2cf498ce71d14c6a66ea9790bc105b",
    ),
    Organization.DISK: (
        "da93c024c214c54dba8ee5640a3ff3f589e7034c2c5e724455cb7a4b9fe6e652",
        "60b5408f3b59815b9c6a7bf66067df84fd3e13a44711718422c425d17bb285fc",
    ),
    Organization.FLASH_DISK: (
        "72e4c7a12e2b277546753f33e6a02bfd02fa6f45205882d8522d73d2c4476027",
        "021ac8f1e6e020745fbc0df322b42c7ac4f28caa4323da0020349b06afec2c58",
    ),
    Organization.FLASH_EIP: (
        "bee52506ca495c2e0ee9b43987616148a7ab821d474a47787d0b60a47762c92e",
        "4e25852885e1fdeb4de13475447beb11aecdab0177587ed2b1ce96de07551d8b",
    ),
    Organization.NAIVE_FLASH: (
        "c90d144c27a6aecc70c5ffce7e2c84fd49f22163781d3743b06d1828191fbc40",
        "636f5a6a64335510452b6a906fd95ed283ef32873b8ef6fad3ca609f0819b8d7",
    ),
}

# The same two digests per organization for one power-loss cycle; the
# naive in-place store cannot reboot.
GOLDEN_REBOOT = {
    Organization.SOLID_STATE: (
        "6c27065d0374af161bc4f2343785f2a5057f2ea5013f22d954525ce214daeeff",
        "32ec0f9d3ae0b91d05c6454ad1cf793fc0a17e7df9c89d2818a1988efadf6b6b",
    ),
    Organization.DISK: (
        "0664038db7535c461cd5b93b0a1cbebb2fcd53df1d8f129dc4446aa411b8d109",
        "ba0ea6308227bf2dfb9c5c33bdd7462975b50dd4c8a53215a1f7c9025be106e8",
    ),
    Organization.FLASH_DISK: (
        "9a10b4f4751ade7d87e96f3b96b48a592efb7748fe33e2895dad11921a0458ff",
        "ae238cb16e24e015dad4f361fdf895c7d67728b98a9ceed5360a7d685a582c70",
    ),
    Organization.FLASH_EIP: (
        "11bdf849550d445d6823b7350b89549d2cc47fa53ed266bb464f8ad0f2233816",
        "081596bce0fa5fd5c8a782b92e3e8de1fc23b09f90f8ce8f77d74f2eec468a3c",
    ),
}


def _machine(org: Organization) -> MobileComputer:
    return MobileComputer(SystemConfig(organization=org, seed=SEED))


def _digests(machine: MobileComputer, tracer: Tracer, tmp_path):
    snap = json.dumps(machine.hub.snapshot(), sort_keys=True, default=str)
    path = tmp_path / "trace.jsonl"
    tracer.to_canonical_jsonl(str(path))
    return (
        hashlib.sha256(snap.encode()).hexdigest(),
        hashlib.sha256(path.read_bytes()).hexdigest(),
    )


def _run(org: Organization, tmp_path, clients: int = 1, workload: str = "office"):
    """``run_workload`` under a fresh tracer; returns (digests, report)."""
    tracer = Tracer()
    previous = runtime.set_tracer(tracer)
    try:
        machine = _machine(org)
        report, _metrics = machine.run_workload(
            workload, seed=SEED, duration_s=DURATION, clients=clients
        )
    finally:
        runtime.set_tracer(previous)
    return _digests(machine, tracer, tmp_path), report


@pytest.mark.parametrize("org", list(Organization), ids=lambda o: o.value)
def test_single_client_golden_equivalence(org, tmp_path):
    """Hub snapshot and trace bytes match the recorded digests."""
    digests, report = _run(org, tmp_path)
    assert digests == GOLDEN[org]
    # Single-client reports carry no multi-client extras.
    assert report.per_client == {}
    assert report.scheduler is None


def test_two_client_golden_equivalence(tmp_path):
    digests, report = _run(Organization.SOLID_STATE, tmp_path, clients=2)
    assert digests == GOLDEN_SOLID_STATE_2C
    assert set(report.per_client) == {0, 1}


@pytest.mark.parametrize("org", list(Organization), ids=lambda o: o.value)
def test_exec_heavy_golden_equivalence(org, tmp_path):
    """Program launch and teardown leave the recorded digests."""
    digests, report = _run(org, tmp_path, workload="exec_heavy")
    assert digests == GOLDEN_EXEC[org]
    assert report.op_counts.get("exec", 0) > MAX_RESIDENT_PROCESSES


def _power_loss_cycle(machine: MobileComputer) -> None:
    """Office, total battery failure with dirty state, reboot, 30 s of
    idle timers, then office again at the next seed."""
    machine.run_workload("office", seed=SEED, duration_s=DURATION, sync_at_end=False)
    machine.inject_battery_failure()
    machine.reboot_after_power_loss()
    machine.engine.run_until(machine.clock.now + 30.0)
    machine.run_workload("office", seed=SEED + 1, duration_s=DURATION)


@pytest.mark.parametrize("org", list(GOLDEN_REBOOT), ids=lambda o: o.value)
def test_reboot_golden_equivalence(org, tmp_path):
    """A power-loss cycle leaves the recorded digests."""
    tracer = Tracer()
    previous = runtime.set_tracer(tracer)
    try:
        machine = _machine(org)
        _power_loss_cycle(machine)
    finally:
        runtime.set_tracer(previous)
    assert _digests(machine, tracer, tmp_path) == GOLDEN_REBOOT[org]


def test_naive_flash_cannot_reboot():
    machine = _machine(Organization.NAIVE_FLASH)
    machine.run_workload("office", seed=SEED, duration_s=DURATION, sync_at_end=False)
    machine.inject_battery_failure()
    with pytest.raises(NotImplementedError):
        machine.reboot_after_power_loss()


def test_single_client_report_latency_identical(tmp_path):
    """``run_trace`` on the generated trace reports what ``run_workload``
    reports."""
    _, workload_report = _run(Organization.SOLID_STATE, tmp_path)
    machine = _machine(Organization.SOLID_STATE)
    profile = WORKLOADS["office"](duration_s=DURATION)
    if profile.programs:
        machine.register_programs(profile.programs)
    trace_report = machine.run_trace(
        generate_workload("office", seed=SEED, duration_s=DURATION)
    )
    assert trace_report.snapshot() == workload_report.snapshot()


def test_multi_client_totals_and_attribution(tmp_path):
    _, report = _run(Organization.SOLID_STATE, tmp_path, clients=3)
    assert set(report.per_client) == {0, 1, 2}
    assert sum(d["records"] for d in report.per_client.values()) == report.records
    # Every client's stream is the full workload for its derived seed.
    for idx, stats in report.per_client.items():
        expected = sum(
            1
            for _ in generate_workload(
                "office",
                seed=substream(SEED, f"client{idx}").seed,
                duration_s=DURATION,
            )
        )
        assert stats["records"] == expected
    assert report.scheduler is not None
    assert report.scheduler["steps_run"] == report.records


@settings(max_examples=10, deadline=None)
@given(
    nclients=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=2**16),
    duration=st.floats(min_value=2.0, max_value=8.0),
)
def test_property_per_client_op_counts_conserved(nclients, seed, duration):
    """Any interleaving conserves each client's op counts exactly.

    The merged report must equal the element-wise sum of the per-client
    op counts, and each client's counts must equal what its stream
    contains -- contention may reorder and delay, never drop or
    duplicate.
    """
    machine = MobileComputer(
        SystemConfig(organization=Organization.SOLID_STATE, seed=seed)
    )
    report, _metrics = machine.run_workload(
        "office", seed=seed, duration_s=duration, clients=nclients
    )
    merged = {}
    for idx in range(nclients):
        stream_counts = {}
        for record in generate_workload(
            "office",
            seed=substream(seed, f"client{idx}").seed,
            duration_s=duration,
        ):
            op = record.op.value
            stream_counts[op] = stream_counts.get(op, 0) + 1
        assert report.per_client[idx]["op_counts"] == stream_counts
        for op, n in stream_counts.items():
            merged[op] = merged.get(op, 0) + n
    assert report.op_counts == merged
    assert report.records == sum(merged.values())
