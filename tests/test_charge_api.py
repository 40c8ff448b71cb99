"""Accounting-only charge APIs must be indistinguishable from real I/O.

The buffer cache, write buffer, and metadata paths replaced ghost-buffer
device accesses with ``charge_read``/``charge_write``.  That substitution
is only legitimate if, for every device, a charge produces the *same*
AccessResult and the *same* stats deltas as the data-moving operation it
stands in for -- while leaving stored bytes untouched.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dataclasses

from repro.devices.base import AccessResult, DeviceStats
from repro.devices.catalog import DRAM_NEC_LOW_POWER
from repro.devices.disk import MagneticDisk
from repro.devices.dram import DRAM
from repro.devices.errors import OutOfRangeError, PowerLossError
from repro.devices.flash import FlashMemory

MB = 1024 * 1024


def _results_equal(a, b):
    return a.latency == b.latency and a.energy == b.energy and a.wait == b.wait


class TestDramCharges:
    def test_charge_read_matches_read(self):
        real, ghost = DRAM(1 * MB), DRAM(1 * MB)
        _, r = real.read(4096, 8192, now=0.0)
        c = ghost.charge_read(8192, now=0.0, offset=4096)
        assert _results_equal(r, c)
        assert real.stats.snapshot() == ghost.stats.snapshot()

    def test_charge_write_matches_write(self):
        real, ghost = DRAM(1 * MB), DRAM(1 * MB)
        r = real.write(0, b"\xaa" * 4096, now=0.0)
        c = ghost.charge_write(4096, now=0.0)
        assert _results_equal(r, c)
        assert real.stats.snapshot() == ghost.stats.snapshot()

    def test_charge_leaves_contents_untouched(self):
        dram = DRAM(64 * 1024)
        dram.write(0, b"\x55" * 128, now=0.0)
        dram.charge_write(128, now=0.0, offset=0)
        data, _ = dram.read(0, 128, now=0.0)
        assert data == b"\x55" * 128

    def test_read_view_is_zero_copy_and_timed(self):
        dram = DRAM(64 * 1024)
        dram.write(256, b"\x11" * 64, now=0.0)
        view, r = dram.read_view(256, 64, now=0.0)
        assert isinstance(view, memoryview)
        assert bytes(view) == b"\x11" * 64
        # Zero-copy: the view aliases the live array, so a later write
        # through the device shows up in the existing view.
        dram.write(256, b"\x22" * 64, now=0.0)
        assert bytes(view) == b"\x22" * 64
        # Timing and stats identical to a copying read.
        other = DRAM(64 * 1024)
        _, r2 = other.read(256, 64, now=0.0)
        assert _results_equal(r, r2)


def _fresh_dram_result(dram, write, nbytes):
    """The AccessResult a DRAM access of ``nbytes`` is defined to return."""
    spec = dram.spec
    if write:
        latency = spec.write_overhead_s + spec.write_per_byte_s * nbytes
        return AccessResult(latency=latency, energy=spec.active_write_power_w * latency)
    latency = spec.read_overhead_s + spec.read_per_byte_s * nbytes
    return AccessResult(latency=latency, energy=spec.active_read_power_w * latency)


def _dram_access(dram, kind, nbytes, offset):
    if kind == "read":
        return dram.read(offset, nbytes, now=0.0)[1]
    if kind == "write":
        return dram.write(offset, b"\x5a" * nbytes, now=0.0)
    if kind == "read_view":
        return dram.read_view(offset, nbytes, now=0.0)[1]
    return getattr(dram, kind)(nbytes, now=0.0, offset=offset)


_DRAM_KINDS = ["read", "read_view", "charge_read", "write", "charge_write"]
DRAM_BYTES = 64 * 1024
# Reads and writes cost the same on the catalog part; this variant makes
# them differ so a result stored for one kind cannot pass for the other.
ASYMMETRIC_DRAM = dataclasses.replace(
    DRAM_NEC_LOW_POWER,
    name="asymmetric test DRAM",
    write_overhead_s=300e-9,
    write_per_byte_s=40e-9,
    active_write_power_w=0.45,
)


class TestDramResultReuse:
    """DRAM stores one AccessResult per access size and kind; every
    access must still return what a fresh build returns, account the
    same stats, and run every check."""

    @settings(max_examples=60, deadline=None)
    @given(
        accesses=st.lists(
            st.tuples(
                st.sampled_from(_DRAM_KINDS),
                st.integers(min_value=0, max_value=8192),
                st.integers(min_value=0, max_value=DRAM_BYTES - 8192),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_results_and_stats_match_fresh_builds(self, accesses):
        dram = DRAM(DRAM_BYTES, spec=ASYMMETRIC_DRAM)
        # Each access twice: once to store its result, once to reuse it.
        for kind, nbytes, offset in accesses + accesses:
            write = kind.endswith("write")
            fresh = _fresh_dram_result(dram, write, nbytes)
            expected = DeviceStats(**vars(dram.stats))
            if write:
                expected.record_write(nbytes, fresh)
            else:
                expected.record_read(nbytes, fresh)
            assert _dram_access(dram, kind, nbytes, offset) == fresh
            assert dram.stats == expected

    @pytest.mark.parametrize("kind", _DRAM_KINDS)
    def test_checks_run_after_result_is_stored(self, kind):
        dram = DRAM(DRAM_BYTES)
        _dram_access(dram, kind, 4096, 0)
        before = dram.stats.snapshot()
        with pytest.raises(OutOfRangeError):
            _dram_access(dram, kind, 4096, DRAM_BYTES - 4095)
        dram.power_loss()
        with pytest.raises(PowerLossError):
            _dram_access(dram, kind, 4096, 0)
        assert dram.stats.snapshot() == before
        dram.power_restore()
        assert _dram_access(dram, kind, 4096, 0) == _fresh_dram_result(
            dram, kind.endswith("write"), 4096
        )


class TestFlashCharges:
    def test_charge_read_matches_read(self):
        real, ghost = FlashMemory(1 * MB, banks=2), FlashMemory(1 * MB, banks=2)
        _, r = real.read(0, 4096, now=0.0)
        c = ghost.charge_read(4096, now=0.0, offset=0)
        assert _results_equal(r, c)
        assert real.stats.snapshot() == ghost.stats.snapshot()

    def test_charge_write_matches_program(self):
        real, ghost = FlashMemory(1 * MB, banks=2), FlashMemory(1 * MB, banks=2)
        r = real.write(0, b"\xab" * 4096, now=0.0)
        c = ghost.charge_write(4096, now=0.0, offset=0)
        assert _results_equal(r, c)
        assert real.stats.snapshot() == ghost.stats.snapshot()

    def test_charge_write_does_not_consume_erased_bytes(self):
        flash = FlashMemory(1 * MB, banks=2)
        flash.charge_write(4096, now=0.0, offset=0)
        # The range was never programmed, so a real program still works.
        flash.write(0, b"\xcd" * 4096, now=10.0)
        data, _ = flash.read(0, 4096, now=20.0)
        assert data == b"\xcd" * 4096

    def test_charge_occupies_bank(self):
        flash = FlashMemory(1 * MB, banks=2)
        first = flash.charge_write(4096, now=0.0, offset=0)
        # Immediately issuing against the same bank queues behind it.
        second = flash.charge_write(4096, now=0.0, offset=4096)
        assert second.wait > 0.0
        assert second.latency >= first.latency


class TestDiskCharges:
    def test_charge_read_matches_read(self):
        real, ghost = MagneticDisk(8 * MB), MagneticDisk(8 * MB)
        _, r = real.read(1 * MB, 4096, now=0.0)
        c = ghost.charge_read(4096, now=0.0, offset=1 * MB)
        assert _results_equal(r, c)
        assert real.stats.snapshot() == ghost.stats.snapshot()

    def test_charge_write_matches_write(self):
        real, ghost = MagneticDisk(8 * MB), MagneticDisk(8 * MB)
        r = real.write(2 * MB, b"\x77" * 4096, now=0.0)
        c = ghost.charge_write(4096, now=0.0, offset=2 * MB)
        assert _results_equal(r, c)
        assert real.stats.snapshot() == ghost.stats.snapshot()

    def test_charge_moves_the_head(self):
        # Accounting-only accesses still update mechanical state: two
        # identical disks issued the same offsets must agree on the
        # latency of the *next* access whether the first was real or not.
        real, ghost = MagneticDisk(8 * MB), MagneticDisk(8 * MB)
        real.read(4 * MB, 4096, now=0.0)
        ghost.charge_read(4096, now=0.0, offset=4 * MB)
        _, r = real.read(0, 4096, now=1.0)
        c = ghost.charge_read(4096, now=1.0, offset=0)
        assert _results_equal(r, c)
