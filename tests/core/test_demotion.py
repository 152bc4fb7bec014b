"""Proactive demotion placement and its cascaded RA discriminator."""

import numpy as np
import pytest

from repro.core.demotion import CascadedDiscriminator, ProactiveDemotion


def migrate(d, lba, from_group, to_group):
    """One GC-migrated block, as a victim's ``gc_blocks`` of one."""
    d.gc_blocks(np.array([lba]), from_group, np.array([to_group]))


def test_same_group_gc_migrations_build_score():
    d = ProactiveDemotion([2, 3, 4, 5], score_threshold=2,
                          num_filters=4, capacity=2)
    assert d.demotion_target(7) is None
    migrate(d, 7, 3, 3)
    assert d.demotion_target(7) is None      # score 1 < threshold
    migrate(d, 99, 3, 3)  # fills filter 1
    migrate(d, 7, 3, 3)   # filter 2
    assert d.demotion_target(7) == (3, 2)
    assert d.demotions == 1


def test_cross_group_migrations_ignored():
    d = ProactiveDemotion([2, 3], score_threshold=1, capacity=4)
    migrate(d, 7, 2, 3)
    assert d.demotion_target(7) is None


def test_non_gc_groups_ignored():
    d = ProactiveDemotion([2, 3], score_threshold=1, capacity=4)
    migrate(d, 7, 0, 0)  # user group
    assert d.demotion_target(7) is None


def test_best_scoring_group_wins():
    d = ProactiveDemotion([2, 3], score_threshold=1, capacity=1)
    migrate(d, 7, 2, 2)
    migrate(d, 7, 3, 3)
    migrate(d, 7, 3, 3)  # group 3 scores 2, group 2 scores 1
    assert d.demotion_target(7) == (3, 2)


def test_lookup_counter():
    d = ProactiveDemotion([2], score_threshold=1)
    d.demotion_target(1)
    d.demotion_target(2)
    assert d.lookups == 2


def test_memory_accounting():
    d = ProactiveDemotion([2, 3], capacity=1024)
    assert d.memory_bytes() > 0


def test_validation():
    with pytest.raises(ValueError):
        ProactiveDemotion([])
    with pytest.raises(ValueError):
        ProactiveDemotion([1], score_threshold=0)


def test_bulk_gc_blocks_equal_per_block_inserts():
    """One victim's migrations in bulk leave each cascade — members,
    counts, evictions — where a per-block loop leaves it."""
    rng = np.random.default_rng(5)
    lbas = rng.integers(0, 40, size=300)
    dests = rng.integers(2, 5, size=300)
    bulk = ProactiveDemotion([2, 3, 4], num_filters=3, capacity=7)
    single = ProactiveDemotion([2, 3, 4], num_filters=3, capacity=7)
    for lo in range(0, 300, 50):
        bulk.gc_blocks(lbas[lo:lo + 50], 3, dests[lo:lo + 50])
        for lba, dest in zip(lbas[lo:lo + 50], dests[lo:lo + 50]):
            migrate(single, int(lba), 3, int(dest))
    for gid in (2, 3, 4):
        a, b = bulk.discriminators[gid], single.discriminators[gid]
        assert (a._members, a._counts, a.evictions) == \
            (b._members, b._counts, b.evictions)
    assert bulk.discriminators[3].evictions > 0


def test_cascade_score_counts_filters():
    d = CascadedDiscriminator(num_filters=4, capacity=2)
    d.insert_many([1])      # filter A
    d.insert_many([2])      # filter A full
    d.insert_many([1])      # filter B
    assert d.score(1) == 2
    assert d.score(2) == 1
    assert d.score(99) == 0


def test_cascade_fifo_eviction():
    d = CascadedDiscriminator(num_filters=2, capacity=1)
    d.insert_many([1])   # filter 1
    d.insert_many([2])   # filter 2
    d.insert_many([3])   # filter 3, evicts filter 1
    assert d.evictions == 1
    assert d.score(1) == 0
    assert d.score(2) == 1
    assert d.score(3) == 1


def test_cascade_validation():
    with pytest.raises(ValueError):
        CascadedDiscriminator(num_filters=0)
    with pytest.raises(ValueError):
        CascadedDiscriminator(capacity=0)
    for fp_rate in (0.0, 1.0, 1.5, -0.1):
        with pytest.raises(ValueError):
            CascadedDiscriminator(capacity=10, fp_rate=fp_rate)


#: Bytes per filter of a real Bloom filter sized for ``capacity`` keys at
#: each false-positive rate (``max(8, int(-n·ln p / ln²2))`` bits, rounded
#: up to bytes), as the bit-array implementation allocated them.  Indexed
#: by capacity 1..16, then 128, 1024 and 4096 (the AdaptConfig default).
BLOOM_BYTES = {
    0.001: [2, 4, 6, 8, 9, 11, 13, 15, 17, 18, 20, 22, 24, 26, 27, 29,
            230, 1841, 7362],
    0.01: [2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 14, 15, 16, 17, 18, 20,
           154, 1227, 4908],
    0.1: [1, 2, 2, 3, 3, 4, 5, 5, 6, 6, 7, 8, 8, 9, 9, 10,
          77, 614, 2454],
}
CAPACITIES = list(range(1, 17)) + [128, 1024, 4096]


def test_cascade_memory_is_the_bloom_budget():
    """Memory is the Bloom budget per filter times the live filters: one
    filter when empty, ``num_filters`` once the cascade has rotated."""
    for fp_rate, sizes in BLOOM_BYTES.items():
        for capacity, per_filter in zip(CAPACITIES, sizes):
            shape = (capacity, fp_rate)
            d = CascadedDiscriminator(3, capacity, fp_rate)
            assert d.memory_bytes() == per_filter, shape
            d.insert_many(list(range(capacity + 1)))
            assert d.memory_bytes() == 2 * per_filter, shape
            d.insert_many(list(range(4 * capacity)))
            assert d.memory_bytes() == 3 * per_filter, shape
    assert CascadedDiscriminator().memory_bytes() == 4908
