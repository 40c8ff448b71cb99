"""Battery-backed DRAM primary storage.

DRAM in this model is what the paper assumes: uniform random-access
read/write with symmetric latency, effectively unlimited endurance, and
contents that survive exactly as long as some battery keeps refresh
running.  The volatility is modelled explicitly -- :meth:`DRAM.power_loss`
destroys contents, and the battery model decides when that is invoked --
because the paper's central stability argument (Section 3.1) is about
*when* battery-backed DRAM may safely hold the only copy of file data.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.devices.base import AccessResult, StorageDevice
from repro.devices.catalog import MB, DRAM_NEC_LOW_POWER, DeviceSpec
from repro.devices.errors import OutOfRangeError, PowerLossError


class DRAM(StorageDevice):
    """A byte-addressable DRAM array."""

    def __init__(
        self,
        capacity_bytes: int,
        spec: DeviceSpec = DRAM_NEC_LOW_POWER,
        name: str = "dram",
        battery_backed: bool = True,
    ) -> None:
        if spec.kind != "dram":
            raise ValueError(f"spec {spec.name!r} is not a DRAM spec")
        super().__init__(
            name,
            capacity_bytes,
            idle_power_watts=spec.idle_power_w_per_mb * (capacity_bytes / MB),
        )
        self.spec = spec
        self.battery_backed = battery_backed
        self.powered = True
        self._data = bytearray(capacity_bytes)
        # Number of times contents have been lost to power failure.
        self.content_losses = 0
        # One AccessResult per access size, for reads and for writes.  A
        # result depends only on the frozen spec and the size, so a
        # stored one equals a freshly built one.
        self._read_results: Dict[int, AccessResult] = {}
        self._write_results: Dict[int, AccessResult] = {}

    def _access(self, offset: int, nbytes: int, now: float, write: bool, op: str) -> AccessResult:
        """Timing, energy, stats and trace record of one access.

        DRAM has no internal contention: latency is overhead plus a
        per-byte cost, symmetric up to the spec's read/write figures.
        Every read, write and charge runs this one body; the power and
        range checks come first, so a refused access records nothing.
        """
        if not self.powered:
            raise PowerLossError(self.name, "DRAM is unpowered")
        if offset < 0 or nbytes < 0 or offset + nbytes > self.capacity_bytes:
            raise OutOfRangeError(self.name, offset, nbytes, self.capacity_bytes)
        if write:
            result = self._write_results.get(nbytes)
            if result is None:
                spec = self.spec
                latency = spec.write_overhead_s + spec.write_per_byte_s * nbytes
                result = AccessResult(latency=latency, energy=spec.active_write_power_w * latency)
                self._write_results[nbytes] = result
            self.stats.record_write(nbytes, result)
        else:
            result = self._read_results.get(nbytes)
            if result is None:
                spec = self.spec
                latency = spec.read_overhead_s + spec.read_per_byte_s * nbytes
                result = AccessResult(latency=latency, energy=spec.active_read_power_w * latency)
                self._read_results[nbytes] = result
            self.stats.record_read(nbytes, result)
        if self.tracer is not None:
            self.tracer.emit(self.name, op, now, nbytes, result.latency)
        return result

    def read(self, offset: int, nbytes: int, now: float) -> Tuple[bytes, AccessResult]:
        result = self._access(offset, nbytes, now, False, "read")
        return bytes(self._data[offset : offset + nbytes]), result

    def read_view(self, offset: int, nbytes: int, now: float) -> Tuple[memoryview, AccessResult]:
        """Timed read returning a zero-copy view of the array.

        Same latency/energy/stats as :meth:`read`; the caller gets a
        ``memoryview`` into the live array instead of a copied ``bytes``
        (cache fills and page installs copy into their own buffer anyway,
        so the intermediate allocation is pure overhead).  The view is
        only valid until the next write to the range.
        """
        result = self._access(offset, nbytes, now, False, "read")
        return memoryview(self._data)[offset : offset + nbytes], result

    def charge_read(self, nbytes: int, now: float, offset: int = 0) -> AccessResult:
        """Latency+energy of a read, no data movement (accounting only)."""
        return self._access(offset, nbytes, now, False, "charge_read")

    def charge_write(self, nbytes: int, now: float, offset: int = 0) -> AccessResult:
        """Latency+energy of a write, contents untouched (accounting only)."""
        return self._access(offset, nbytes, now, True, "charge_write")

    def write(self, offset: int, data: bytes, now: float) -> AccessResult:
        result = self._access(offset, len(data), now, True, "write")
        self._data[offset : offset + len(data)] = data
        return result

    def power_loss(self) -> None:
        """All refresh power is gone: contents are destroyed.

        The battery model calls this when both primary and backup
        batteries are exhausted (or on an injected abrupt failure).
        """
        self.powered = False
        self.content_losses += 1
        # A fresh power-up starts with undefined (zeroed) contents.
        self._data[:] = bytes(len(self._data))

    def power_restore(self) -> None:
        """Power returns; contents remain whatever power_loss left them."""
        self.powered = True
