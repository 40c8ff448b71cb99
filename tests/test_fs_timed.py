"""Per-op counting and timing of file-system calls (``FileSystem._timed``).

Every timed call adds one to ``<op>_ops`` and one sample to
``<op>_latency`` in the file system's stats, and under the multi-client
scheduler to ``client<N>_<op>_ops``/``_latency`` as well.  A call that
raises records nothing.  Both organizations share the one timer, so every
check runs on the memory-resident and the conventional file system.
"""

from __future__ import annotations

import pytest

from repro.devices import DRAM, FlashMemory, MagneticDisk
from repro.fs import BufferCache, ConventionalFileSystem, DiskBlockDevice, MemoryFileSystem, mkfs
from repro.fs.api import FileNotFoundFSError
from repro.sim import Engine, SimClock
from repro.storage import StorageManager
from repro.trace import TraceReplayer
from repro.trace.model import OpType, TraceRecord

MB = 1024 * 1024


def _memfs():
    engine = Engine()
    dram = DRAM(4 * MB)
    manager = StorageManager.build(
        engine.clock, FlashMemory(16 * MB, banks=2), dram=dram, buffer_bytes=MB
    )
    return MemoryFileSystem(manager, dram=dram), engine


def _diskfs():
    clock = SimClock()
    device = DiskBlockDevice(MagneticDisk(16 * MB), clock)
    cache = BufferCache(device, clock, capacity_blocks=64, dram=DRAM(1 * MB))
    return ConventionalFileSystem(cache, mkfs(cache, ninodes=128)), Engine(clock)


@pytest.fixture(params=[_memfs, _diskfs], ids=["memfs", "diskfs"])
def fs_engine(request):
    return request.param()


def _count(fs, name):
    counter = fs.stats.counters.get(name)
    return None if counter is None else counter.value


def _samples(fs, name):
    histogram = fs.stats.histograms.get(name)
    return None if histogram is None else histogram.count


class TestFailedCalls:
    def test_failing_first_call_creates_no_metric(self, fs_engine):
        fs, _engine = fs_engine
        with pytest.raises(FileNotFoundFSError):
            fs.write("/missing/f", 0, b"data")
        assert _count(fs, "write_ops") is None
        assert _samples(fs, "write_latency") is None

    def test_failing_call_adds_no_count_and_no_sample(self, fs_engine):
        fs, _engine = fs_engine
        fs.create("/f")
        fs.write("/f", 0, b"data")
        assert (_count(fs, "write_ops"), _samples(fs, "write_latency")) == (1, 1)
        assert (_count(fs, "create_ops"), _samples(fs, "create_latency")) == (1, 1)
        with pytest.raises(FileNotFoundFSError):
            fs.write("/missing/f", 0, b"data")
        with pytest.raises(FileNotFoundFSError):
            fs.create("/missing/f")
        assert (_count(fs, "write_ops"), _samples(fs, "write_latency")) == (1, 1)
        assert (_count(fs, "create_ops"), _samples(fs, "create_latency")) == (1, 1)
        # The timer is still usable after a failure.
        fs.write("/f", 4, b"more")
        assert (_count(fs, "write_ops"), _samples(fs, "write_latency")) == (2, 2)

    def test_latency_sample_is_the_simulated_call_time(self, fs_engine):
        fs, _engine = fs_engine
        fs.create("/f")
        start = fs.clock.now
        fs.write("/f", 0, b"x" * 5000)
        histogram = fs.stats.histograms["write_latency"]
        assert histogram.maximum == fs.clock.now - start > 0.0

    def test_single_client_calls_carry_no_client_label(self, fs_engine):
        fs, _engine = fs_engine
        fs.create("/f")
        fs.write("/f", 0, b"data")
        names = set(fs.stats.counters) | set(fs.stats.histograms)
        assert not any(name.startswith("client") for name in names)


def _client_stream(offset: float):
    """One client's records; every create and mkdir names a fresh path,
    so each trace op is exactly one timed file-system call."""
    times = iter(offset + step for step in range(100))
    return [
        TraceRecord(next(times), OpType.MKDIR, "/d"),
        TraceRecord(next(times), OpType.CREATE, "/d/a"),
        TraceRecord(next(times), OpType.WRITE, "/d/a", 0, 6000),
        TraceRecord(next(times), OpType.WRITE, "/d/a", 100, 50),
        TraceRecord(next(times), OpType.READ, "/d/a", 0, 4096),
        TraceRecord(next(times), OpType.TRUNCATE, "/d/a", 0, 10),
        TraceRecord(next(times), OpType.RENAME, "/d/a", new_path="/d/b"),
        TraceRecord(next(times), OpType.CREATE, "/tmp"),
        TraceRecord(next(times), OpType.DELETE, "/tmp"),
        TraceRecord(next(times), OpType.SYNC, ""),
    ]


class TestPerClientAttribution:
    def test_client_op_counts_equal_the_clients_ops(self, fs_engine):
        fs, engine = fs_engine
        streams = [_client_stream(1.0), _client_stream(1.5)[:7]]
        report = TraceReplayer(fs, engine=engine).replay_scheduled(streams)
        for client, stats in report.per_client.items():
            op_counts = dict(stats["op_counts"])
            # The replayer's own mkdir of the client's /c<N> subtree is a
            # timed call under the client's label too.
            op_counts["mkdir"] += 1
            for op, count in op_counts.items():
                assert _count(fs, f"client{client}_{op}_ops") == count, (client, op)
                assert _samples(fs, f"client{client}_{op}_latency") == count, (client, op)
        for op in report.op_counts:
            total = sum(
                _count(fs, f"client{client}_{op}_ops") or 0 for client in report.per_client
            )
            assert _count(fs, f"{op}_ops") == total
            assert _samples(fs, f"{op}_latency") == total
