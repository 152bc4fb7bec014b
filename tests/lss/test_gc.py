"""GC engine: migration correctness and victim separation."""

import numpy as np
import pytest

from repro.lss.segment import SEG_SEALED
from repro.lss.store import LogStructuredStore
from repro.placement.sepgc import SepGCPolicy

from tests.conftest import make_write_trace


def churn(store, unique, writes, seed=0, gap_us=5):
    rng = np.random.default_rng(seed)
    store.replay(make_write_trace(rng.integers(0, unique, size=writes),
                                  gap_us=gap_us), finalize=False)
    return store


def test_gc_moves_user_blocks_to_gc_group(tiny_config):
    store = churn(LogStructuredStore(tiny_config, SepGCPolicy(tiny_config)),
                  2048, 12_000)
    gc_traffic = store.stats.groups[SepGCPolicy.GC_GROUP]
    assert gc_traffic.gc_blocks > 0
    assert gc_traffic.user_blocks == 0
    assert gc_traffic.padding_blocks == 0  # bulk GC writes never pad


def test_gc_preserves_all_data(tiny_config):
    store = LogStructuredStore(tiny_config, SepGCPolicy(tiny_config))
    rng = np.random.default_rng(7)
    lbas = rng.integers(0, 2048, size=15_000)
    store.replay(make_write_trace(lbas, gap_us=5))
    store.check_invariants()
    written = set(int(x) for x in lbas)
    assert all(store.read_block(lba) for lba in written)


def test_gc_counts_match(tiny_config):
    store = churn(LogStructuredStore(tiny_config, SepGCPolicy(tiny_config)),
                  2048, 12_000)
    st = store.stats
    assert st.gc_passes == st.gc_segments_reclaimed
    # All migrated blocks were either flushed or are still pending in the
    # GC group's open chunk.
    from repro.lss.group import APPEND_GC
    pending_gc = sum(g.buffer.pending[APPEND_GC] for g in store.groups)
    assert st.gc_blocks_migrated == st.gc_blocks_written + pending_gc


def test_gc_respects_watermarks(tiny_config):
    store = churn(LogStructuredStore(tiny_config, SepGCPolicy(tiny_config)),
                  2048, 20_000)
    assert store.pool.free_segments >= tiny_config.gc_free_low


def test_clean_segment_rejects_unsealed(tiny_config):
    store = LogStructuredStore(tiny_config, SepGCPolicy(tiny_config))
    store.process_request(0, 1, 0, 1)
    open_seg = store.groups[0].open_seg
    with pytest.raises(ValueError):
        store.gc.clean_segment(store, open_seg, 0)


def test_gc_only_selects_sealed(tiny_config):
    store = churn(LogStructuredStore(tiny_config, SepGCPolicy(tiny_config)),
                  2048, 12_000)
    # After heavy churn every reclaimed segment must have been sealed;
    # open segments of the groups must still be intact.
    for g in store.groups:
        if g.open_seg is not None:
            assert store.pool.state[g.open_seg] != SEG_SEALED
