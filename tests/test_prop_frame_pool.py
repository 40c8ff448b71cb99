"""Property test: the set-backed frame pool behaves as a plain free list.

:class:`repro.mem.paging.PageFrameAllocator` mirrors its free list in a
set so the double-free check is O(1).  It must hand out exactly the
frames, report exactly the counts, and reject exactly the calls that the
list-only pool it replaced does, under any interleaving of allocations,
frees, double frees, foreign addresses and unaligned addresses.
:class:`_ListFramePool` is that pool, kept here as the oracle.
"""

from __future__ import annotations

from typing import List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.paging import PAGE_SIZE, OutOfFramesError, PageFrameAllocator


class _ListFramePool:
    """Reference: LIFO free list, double-free check by list scan."""

    def __init__(self, region_base: int, region_size: int) -> None:
        if region_size % PAGE_SIZE:
            raise ValueError("DRAM region must be page aligned")
        self.region_base = region_base
        self.region_size = region_size
        self.total_frames = region_size // PAGE_SIZE
        self._free: List[int] = [
            region_base + i * PAGE_SIZE for i in range(self.total_frames - 1, -1, -1)
        ]

    @property
    def free_frames(self) -> int:
        return len(self._free)

    @property
    def used_frames(self) -> int:
        return self.total_frames - len(self._free)

    def allocate(self) -> int:
        if not self._free:
            raise OutOfFramesError("DRAM frame pool exhausted")
        return self._free.pop()

    def free(self, phys_addr: int) -> None:
        offset = phys_addr - self.region_base
        if offset < 0 or offset >= self.region_size or offset % PAGE_SIZE:
            raise ValueError(f"address {phys_addr:#x} is not a frame of this pool")
        if phys_addr in self._free:
            raise ValueError(f"double free of frame {phys_addr:#x}")
        self._free.append(phys_addr)


def _call(fn, *args):
    """(value, None) on return, (None, exception type) on raise."""
    try:
        return fn(*args), None
    except Exception as exc:  # noqa: BLE001 -- the type is the result
        return None, type(exc)


_OPS = st.lists(
    st.tuples(
        st.sampled_from(["allocate", "free", "double_free", "foreign", "unaligned"]),
        st.integers(min_value=0, max_value=10**6),
    ),
    min_size=1,
    max_size=120,
)


@settings(max_examples=200, deadline=None)
@given(
    base_page=st.integers(min_value=0, max_value=64),
    nframes=st.integers(min_value=1, max_value=12),
    ops=_OPS,
)
def test_frame_pool_matches_list_oracle(base_page, nframes, ops):
    base = base_page * PAGE_SIZE
    size = nframes * PAGE_SIZE
    pool = PageFrameAllocator(base, size)
    oracle = _ListFramePool(base, size)
    held: List[int] = []  # frames currently allocated, in allocation order
    for kind, pick in ops:
        if kind == "allocate":
            got, want = _call(pool.allocate), _call(oracle.allocate)
            if want[1] is None:
                held.append(want[0])
        elif kind == "free" and held:
            frame = held.pop(pick % len(held))
            got, want = _call(pool.free, frame), _call(oracle.free, frame)
        elif kind in ("free", "double_free"):
            # A frame that is free right now (every frame when none are held).
            free_now = oracle._free
            if not free_now:
                continue
            frame = free_now[pick % len(free_now)]
            got, want = _call(pool.free, frame), _call(oracle.free, frame)
        elif kind == "foreign":
            # Below the pool, at its end, or beyond it.
            frame = [base - PAGE_SIZE, base + size, base + size + pick * PAGE_SIZE][pick % 3]
            got, want = _call(pool.free, frame), _call(oracle.free, frame)
        else:
            frame = base + (pick % nframes) * PAGE_SIZE + 1 + pick % (PAGE_SIZE - 1)
            got, want = _call(pool.free, frame), _call(oracle.free, frame)
        assert got == want
        assert pool.free_frames == oracle.free_frames
        assert pool.used_frames == oracle.used_frames
    # Draining both pools yields the same frames in the same order.
    drained = [pool.allocate() for _ in range(pool.free_frames)]
    assert drained == [oracle.allocate() for _ in range(oracle.free_frames)]
    assert _call(pool.allocate)[1] is _call(oracle.allocate)[1] is OutOfFramesError


def test_unaligned_pool_rejected_like_oracle():
    assert _call(PageFrameAllocator, 0, PAGE_SIZE + 1)[1] is ValueError
    assert _call(_ListFramePool, 0, PAGE_SIZE + 1)[1] is ValueError
