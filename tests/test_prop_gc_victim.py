"""Property tests: the bounded oldest-first victim walk == a full scan.

:func:`repro.storage.gc.choose_victim` walks the allocator's seal-time
index oldest first and stops once no remaining sector's score bound can
reach the best score.  It must pick exactly the sector a scan that
scores every sealed sector picks -- highest score, ties to the lowest
index -- for every policy, bank subset, exclusion set and clock value,
under arbitrary take/append/invalidate/seal/erase/retire interleavings
with seal times that repeat and go backwards.  :func:`_scan_victim` is
that scan, kept here as the oracle.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices import FlashMemory
from repro.devices.catalog import FLASH_PAPER_NOMINAL
from repro.sim import SimClock
from repro.storage import FlashStore, SectorAllocator
from repro.storage.allocator import SectorState
from repro.storage.gc import _SCORERS, CleaningPolicy, choose_victim

KB = 1024

FLASH_4K = dataclasses.replace(
    FLASH_PAPER_NOMINAL, name="test 4K-sector flash", erase_sector_bytes=4 * KB
)


def _scan_victim(allocator, policy, now, banks=None, exclude=None):
    """Reference: score every sealed sector in index order."""
    scorer = _SCORERS[policy]
    best = None
    best_score = 0.0
    for info in allocator.sectors:
        if info.state is not SectorState.SEALED:
            continue
        if banks is not None and info.bank not in banks:
            continue
        if exclude and info.index in exclude:
            continue
        if info.dead_bytes <= 0:
            continue
        score = scorer(info, allocator.sector_bytes, now)
        if best is None or score > best_score:
            best = info.index
            best_score = score
    return best


def _assert_agree(allocator, pick):
    all_banks = list(range(allocator.flash.num_banks))
    sealed = sorted(s for _, s in allocator.sealed_oldest_first())
    seal_times = [t for t, _ in allocator.sealed_oldest_first()]
    # One clock value earlier than some seal times exercises the age clamp.
    nows = [0.0, 15.0, 50.0, 500.0, 2000.0]
    if seal_times:
        nows.append((seal_times[0] + seal_times[-1]) / 2)
    for policy in CleaningPolicy:
        for banks in (None, all_banks, all_banks[1::2]):
            for exclude in (set(), set(sealed[pick % 2 :: 2])):
                for now in nows:
                    assert choose_victim(allocator, policy, now, banks, exclude) == (
                        _scan_victim(allocator, policy, now, banks, exclude)
                    ), (policy, banks, exclude, now)


def _in_state(allocator, state):
    return [s.index for s in allocator.sectors if s.state is state]


def _empty(allocator, sector, live):
    """Invalidate every live block in ``sector`` (as relocation would)."""
    for loc in [loc for loc in live if loc.sector == sector]:
        allocator.invalidate(loc)
        live.remove(loc)


# Few distinct seal times so they repeat; drawn in any order so they go
# backwards.  Straddles the generational policy's 30 s young/old split.
SEAL_TIMES = st.sampled_from([0.0, 1.0, 10.0, 29.5, 30.0, 100.0, 250.0, 1000.0])

OPS = st.lists(
    st.tuples(
        st.sampled_from(["take", "append", "invalidate", "seal", "erase", "retire"]),
        st.integers(min_value=0, max_value=63),
        SEAL_TIMES,
    ),
    min_size=20,
    max_size=80,
)


@settings(max_examples=50, deadline=None)
@given(ops=OPS)
def test_walk_matches_scan_under_random_operations(ops):
    flash = FlashMemory(64 * KB, spec=FLASH_4K, banks=4)
    allocator = SectorAllocator(flash)
    live = []
    for kind, pick, when in ops:
        if kind == "take":
            erased = _in_state(allocator, SectorState.ERASED)
            if erased:
                allocator.take_erased(erased[pick % len(erased)])
        elif kind == "append":
            opened = _in_state(allocator, SectorState.OPEN)
            if opened:
                sector = opened[pick % len(opened)]
                length = 256 * (1 + pick % 5)
                if allocator.fits(sector, length):
                    live.append(allocator.append(sector, ("k", len(live), pick), length))
        elif kind == "invalidate":
            if live:
                allocator.invalidate(live.pop(pick % len(live)))
        elif kind == "seal":
            opened = _in_state(allocator, SectorState.OPEN)
            if opened:
                allocator.seal(opened[pick % len(opened)], when)
        elif kind == "erase":
            sealed = _in_state(allocator, SectorState.SEALED)
            if sealed:
                sector = sealed[pick % len(sealed)]
                _empty(allocator, sector, live)
                allocator.mark_erased(sector)
        elif kind == "retire":
            in_service = [s.index for s in allocator.sectors if s.state is not SectorState.BAD]
            if in_service:
                sector = in_service[pick % len(in_service)]
                _empty(allocator, sector, live)
                allocator.retire(sector)
        allocator.check_invariants()
        _assert_agree(allocator, pick)


def _seal_with(allocator, sector, live, dead, when):
    allocator.take_erased(sector)
    if live:
        allocator.append(sector, f"live{sector}", live)
    loc = allocator.append(sector, f"dead{sector}", dead)
    allocator.seal(sector, when)
    allocator.invalidate(loc)


def test_equal_scores_go_to_lower_index_even_if_younger():
    flash = FlashMemory(64 * KB, spec=FLASH_4K, banks=2)
    allocator = SectorAllocator(flash)
    # Sector 3 is sealed first (older); sector 1 later.  Both score the
    # same under greedy (equal dead bytes) and generational (both young
    # and under 25% live), so the lower index must win.
    _seal_with(allocator, 3, live=512, dead=3584, when=5.0)
    _seal_with(allocator, 1, live=512, dead=3584, when=20.0)
    assert [s for _, s in allocator.sealed_oldest_first()] == [3, 1]
    for policy in (CleaningPolicy.GREEDY, CleaningPolicy.GENERATIONAL):
        assert choose_victim(allocator, policy, now=25.0) == 1
        assert _scan_victim(allocator, policy, now=25.0) == 1


def test_sectors_recovered_at_one_time_are_all_candidates():
    clock = SimClock()
    flash = FlashMemory(1024 * KB, banks=2)
    store = FlashStore(flash, clock)
    for version in range(3):
        for i in range(40):
            store.write_block(("data", i), bytes([version]) * (4 * KB + i))
    clock.advance(7.0)
    recovered = FlashStore.recover(flash, clock)
    allocator = recovered.allocator
    allocator.check_invariants()
    index = allocator.sealed_oldest_first()
    assert index and all(t == clock.now for t, _ in index)
    assert [s for _, s in index] == sorted(s for _, s in index)
    dirty = {s for _, s in index if allocator.info(s).dead_bytes > 0}
    assert len(dirty) > 1
    for policy in CleaningPolicy:
        # Excluding each pick in turn must reach every dirty sector.
        picked = set()
        while True:
            victim = choose_victim(allocator, policy, clock.now + 100.0, exclude=picked)
            assert victim == _scan_victim(allocator, policy, clock.now + 100.0, exclude=picked)
            if victim is None:
                break
            picked.add(victim)
        assert picked == dirty, policy
