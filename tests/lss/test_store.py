"""Store end-to-end behaviour with the simplest policy (SepGC)."""

import numpy as np
import pytest

from repro.lss.store import UNMAPPED, LogStructuredStore
from repro.placement.sepgc import SepGCPolicy
from repro.trace.model import OP_READ, OP_WRITE, Trace

from tests.conftest import make_write_trace


def make_store(cfg):
    return LogStructuredStore(cfg, SepGCPolicy(cfg))


def test_write_maps_block(tiny_config):
    store = make_store(tiny_config)
    store.process_request(0, OP_WRITE, 5, 1)
    assert store.mapping[5] != UNMAPPED
    assert store.read_block(5)
    assert not store.read_block(6)
    assert store.stats.user_blocks_requested == 1


def test_overwrite_invalidates_old_location(tiny_config):
    store = make_store(tiny_config)
    store.process_request(0, OP_WRITE, 5, 1)
    first = int(store.mapping[5])
    store.process_request(10, OP_WRITE, 5, 1)
    second = int(store.mapping[5])
    assert first != second
    seg, slot = divmod(first, tiny_config.segment_blocks)
    assert not store.pool.slot_valid[seg, slot]
    store.check_invariants()


def test_multi_block_request(tiny_config):
    store = make_store(tiny_config)
    store.process_request(0, OP_WRITE, 0, 10)
    assert store.stats.user_blocks_requested == 10
    assert all(store.mapping[i] != UNMAPPED for i in range(10))


def test_request_outside_address_space_rejected(tiny_config):
    store = make_store(tiny_config)
    with pytest.raises(ValueError):
        store.process_request(0, OP_WRITE, 4095, 2)
    with pytest.raises(ValueError):
        store.process_request(0, OP_WRITE, -1, 1)


@pytest.mark.parametrize("engine", ["scalar", "auto"])
def test_replay_rejects_bad_request_before_touching_store(tiny_config,
                                                           engine):
    """A bad request at position k fails the whole replay up front on
    both loops; none of the k good requests before it is applied."""
    rows = [(i * 10, OP_WRITE, i, 1) for i in range(5)]
    rows.append((50, OP_WRITE, tiny_config.logical_blocks - 1, 2))
    store = make_store(tiny_config)
    with pytest.raises(ValueError, match="outside logical space"):
        store.replay(Trace.from_rows(rows), engine=engine)
    assert store.user_seq == 0
    assert store.stats.write_requests == 0
    assert store.replay_engine is None


def test_reads_do_not_write(tiny_config):
    store = make_store(tiny_config)
    store.process_request(0, OP_READ, 0, 4)
    assert store.stats.user_blocks_requested == 0
    assert store.stats.read_requests == 1
    assert store.stats.flash_blocks_written == 0


def test_deadline_padding_on_sparse_stream(tiny_config):
    store = make_store(tiny_config)
    # Two writes 1 ms apart: the first chunk (4 blocks) must be padded.
    store.process_request(0, OP_WRITE, 0, 1)
    store.process_request(1000, OP_WRITE, 1, 1)
    assert store.stats.padding_blocks_written == 3
    g = store.stats.groups[SepGCPolicy.USER_GROUP]
    assert g.deadline_flushes == 1


def test_dense_stream_never_pads(tiny_config):
    store = make_store(tiny_config)
    tr = make_write_trace(range(64), gap_us=10)
    store.replay(tr, finalize=False)
    assert store.stats.padding_blocks_written == 0


def test_finalize_flushes_tail(tiny_config):
    store = make_store(tiny_config)
    store.process_request(0, OP_WRITE, 0, 1)
    store.finalize()
    assert store.stats.user_blocks_written == 1
    assert store.stats.padding_blocks_written == 3
    g = store.stats.groups[SepGCPolicy.USER_GROUP]
    assert g.forced_flushes == 1


def test_wa_of_aligned_stream_without_gc_is_one(tiny_config):
    store = make_store(tiny_config)
    tr = make_write_trace(range(1024), gap_us=5)
    store.replay(tr)
    assert store.stats.write_amplification() == pytest.approx(1.0)


def test_gc_triggers_and_reclaims(tiny_config):
    store = make_store(tiny_config)
    rng = np.random.default_rng(0)
    lbas = rng.integers(0, 2048, size=12_000)
    store.replay(make_write_trace(lbas, gap_us=5))
    assert store.stats.gc_segments_reclaimed > 0
    assert store.stats.gc_blocks_written > 0
    assert store.pool.free_segments > tiny_config.gc_free_low
    store.check_invariants()


def test_wa_at_least_one_under_gc(tiny_config):
    store = make_store(tiny_config)
    rng = np.random.default_rng(1)
    store.replay(make_write_trace(rng.integers(0, 2048, size=8_000),
                                  gap_us=5))
    assert store.stats.write_amplification() >= 1.0


def test_mapping_consistent_after_heavy_churn(tiny_config):
    store = make_store(tiny_config)
    rng = np.random.default_rng(2)
    lbas = rng.integers(0, 1024, size=10_000)
    # Mixed gaps: some sparse (padding), some dense.
    gaps = rng.choice([5, 500], size=10_000)
    ts = np.cumsum(gaps)
    tr = Trace(ts, np.ones(10_000, dtype=np.uint8), lbas,
               np.ones(10_000, dtype=np.int64))
    store.replay(tr)
    store.check_invariants()
    # Every written LBA is still readable.
    for lba in set(lbas.tolist()):
        assert store.read_block(int(lba))


def test_raid_accounting_tracks_chunk_flushes(tiny_config):
    store = make_store(tiny_config)
    store.replay(make_write_trace(range(64), gap_us=5))
    assert store.stats.raid.data_chunks == \
        sum(g.chunk_flushes for g in store.stats.groups)
    assert store.stats.raid.parity_chunks > 0


def test_group_occupancy_sums_to_mapped_blocks(tiny_config):
    store = make_store(tiny_config)
    rng = np.random.default_rng(3)
    store.replay(make_write_trace(rng.integers(0, 2048, size=6_000),
                                  gap_us=5))
    occ = store.group_occupancy()
    mapped = int(np.count_nonzero(store.mapping != UNMAPPED))
    assert occ.sum() == mapped


def test_policy_without_groups_rejected(tiny_config):
    class NoGroups(SepGCPolicy):
        def group_specs(self):
            return []
    with pytest.raises(Exception):
        LogStructuredStore(tiny_config, NoGroups(tiny_config))
