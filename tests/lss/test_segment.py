"""Segment pool slot bookkeeping."""

import pytest

from repro.common.errors import CapacityError
from repro.lss.segment import (
    NO_LBA,
    SEG_FREE,
    SEG_OPEN,
    SEG_SEALED,
    SegmentPool,
)


@pytest.fixture
def pool():
    return SegmentPool(num_segments=4, segment_blocks=8)


def test_allocate_and_free_counts(pool):
    assert pool.free_segments == 4
    seg = pool.allocate(group=0, now_seq=0)
    assert pool.free_segments == 3
    assert pool.state[seg] == SEG_OPEN
    assert pool.group[seg] == 0


def test_append_block_assigns_sequential_slots(pool):
    seg = pool.allocate(0, 0)
    locs = [pool.append_block(seg, lba) for lba in (10, 20, 30)]
    assert locs == [seg * 8, seg * 8 + 1, seg * 8 + 2]
    assert pool.valid_count[seg] == 3
    assert list(pool.valid_lbas(seg)) == [10, 20, 30]


def test_padding_consumes_dead_slots(pool):
    seg = pool.allocate(0, 0)
    pool.append_block(seg, 1)
    pool.append_padding(seg, 3)
    assert pool.fill[seg] == 4
    assert pool.valid_count[seg] == 1  # padding is dead on arrival


def test_invalidate(pool):
    seg = pool.allocate(0, 0)
    loc = pool.append_block(seg, 42)
    pool.invalidate(loc)
    assert pool.valid_count[seg] == 0
    with pytest.raises(ValueError):
        pool.invalidate(loc)


def test_seal_requires_full(pool):
    seg = pool.allocate(0, 0)
    with pytest.raises(ValueError):
        pool.seal(seg, 0)
    for i in range(8):
        pool.append_block(seg, i)
    pool.seal(seg, 99)
    assert pool.state[seg] == SEG_SEALED
    assert pool.sealed_seq[seg] == 99


def test_reclaim_requires_sealed_and_empty(pool):
    seg = pool.allocate(0, 0)
    for i in range(8):
        pool.append_block(seg, i)
    with pytest.raises(ValueError):
        pool.reclaim(seg)  # not sealed
    pool.seal(seg, 1)
    with pytest.raises(ValueError):
        pool.reclaim(seg)  # still valid blocks
    for slot in range(8):
        pool.invalidate(seg * 8 + slot)
    pool.reclaim(seg)
    assert pool.state[seg] == SEG_FREE
    assert pool.free_segments == 4
    assert (pool.slot_lba[seg] == NO_LBA).all()


def test_segment_overflow_raises(pool):
    seg = pool.allocate(0, 0)
    for i in range(8):
        pool.append_block(seg, i)
    with pytest.raises(CapacityError):
        pool.append_block(seg, 99)
    with pytest.raises(CapacityError):
        pool.append_padding(seg, 1)


def test_pool_exhaustion_raises(pool):
    for _ in range(4):
        pool.allocate(0, 0)
    with pytest.raises(CapacityError):
        pool.allocate(0, 0)


def test_sealed_segments_listing(pool):
    a = pool.allocate(0, 0)
    for i in range(8):
        pool.append_block(a, i)
    pool.seal(a, 1)
    assert list(pool.sealed_segments()) == [a]


def test_utilization(pool):
    seg = pool.allocate(0, 0)
    pool.append_block(seg, 1)
    pool.append_block(seg, 2)
    assert pool.utilization(seg) == 0.25


def test_check_invariants_detects_corruption(pool):
    seg = pool.allocate(0, 0)
    pool.append_block(seg, 1)
    pool.check_invariants()
    pool.valid_count[seg] = 5  # corrupt the cache
    with pytest.raises(AssertionError):
        pool.check_invariants()


def test_invalid_dimensions():
    with pytest.raises(ValueError):
        SegmentPool(0, 8)
    with pytest.raises(ValueError):
        SegmentPool(4, 0)


def test_reserved_slots_filled_in_bulk_equal_per_block_appends():
    """reserve_slot + fill_slots, with padding in between and slots in
    two segments, leaves every plane where append_block would."""
    import numpy as np
    lbas = [7, 3, 9, 4, 11]

    def layout(pool, append):
        a, b = pool.allocate(0, 0), pool.allocate(1, 0)
        locs = [append(a, lbas[0]), append(b, lbas[1]), append(a, lbas[2])]
        pool.append_padding(a, 2)  # a dead hole between reserved slots
        locs += [append(a, lbas[3]), append(b, lbas[4])]
        return locs

    eager = SegmentPool(num_segments=4, segment_blocks=8)
    eager_locs = layout(eager, eager.append_block)
    lazy = SegmentPool(num_segments=4, segment_blocks=8)
    lazy_locs = layout(lazy, lambda seg, lba: lazy.reserve_slot(seg))
    assert lazy_locs == eager_locs
    assert lazy.valid_count.sum() == 0 and not lazy.slot_valid.any()
    lazy.fill_slots(np.array(lazy_locs), np.array(lbas))
    for plane in ("slot_lba", "slot_valid", "slot_seq", "fill",
                  "valid_count"):
        assert np.array_equal(getattr(eager, plane), getattr(lazy, plane))
    assert lazy._append_seq == eager._append_seq == len(lbas)
    lazy.check_invariants()


def test_reserve_slot_overflow(pool):
    seg = pool.allocate(0, 0)
    for _ in range(8):
        pool.reserve_slot(seg)
    with pytest.raises(CapacityError):
        pool.reserve_slot(seg)
