"""Proactive demotion placement."""

import numpy as np
import pytest

from repro.core.demotion import ProactiveDemotion


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
