"""Cross-group dynamic aggregation."""

import pytest

from repro.core.aggregation import CrossGroupAggregator, GroupWriteMonitor
from repro.core.config import AdaptConfig
from repro.core.policy import AdaptPolicy
from repro.lss.store import LogStructuredStore


@pytest.fixture
def adapt_store(tiny_config):
    # Aggregation on; demotion/threshold off so tests isolate §3.3.
    ac = AdaptConfig(enable_demotion=False,
                     enable_threshold_adaptation=False)
    return LogStructuredStore(tiny_config, AdaptPolicy(tiny_config, adapt=ac))


# ----------------------------------------------------------------------
# GroupWriteMonitor / Eq. 1
# ----------------------------------------------------------------------
def test_eq1_average_unfilled_chunk_size():
    mon = GroupWriteMonitor(chunk_blocks=16)
    mon.on_flush(16, 0)   # one full chunk
    mon.on_flush(6, 10)   # one padded chunk holding 6 blocks
    mon.on_flush(4, 12)   # another with 4
    # C_i = (V - S_ck * filled) / P = (26 - 16) / 2 = 5
    assert mon.avg_unfilled_chunk_blocks() == 5.0


def test_eq1_no_padding_events_means_full_chunks():
    mon = GroupWriteMonitor(chunk_blocks=16)
    mon.on_flush(16, 0)
    assert mon.avg_unfilled_chunk_blocks() == 16.0


def test_dead_space_budget_counts_shadows():
    mon = GroupWriteMonitor(chunk_blocks=16)
    mon.segments_sealed = 2
    mon.on_flush(10, 6, shadow_blocks=4)
    assert mon.avg_padding_per_segment_blocks() == 5.0  # (6 + 4) / 2


# ----------------------------------------------------------------------
# shadow append via the policy hook
# ----------------------------------------------------------------------
def test_hot_deadline_triggers_shadow_append(adapt_store, tiny_config):
    store = adapt_store
    pol = store.policy
    hot, cold = store.groups[pol.HOT], store.groups[pol.COLD]
    # Force a block into the hot group: write it twice quickly.
    store.process_request(0, 1, 5, 1)
    store.process_request(10, 1, 5, 1)
    assert hot.buffer.pending_blocks > 0
    pending_before = hot.buffer.pending_blocks
    # Advance past the SLA deadline: tick should shadow, not pad.
    store.tick(10_000)
    assert hot.buffer.pending_blocks == pending_before  # lazy append kept
    assert hot.traffic.padding_blocks == 0
    assert cold.traffic.shadow_blocks + cold.buffer.pending_blocks > 0
    assert pol.aggregator.shadow_appends >= 1


def test_shadowed_blocks_not_reshadowed(adapt_store):
    store = adapt_store
    pol = store.policy
    store.process_request(0, 1, 5, 1)
    store.process_request(10, 1, 5, 1)
    store.tick(10_000)
    first = pol.aggregator.shadow_blocks
    store.tick(20_000)  # deadline again; everything already shadowed
    assert pol.aggregator.shadow_blocks == first


def test_combined_flush_carries_both_streams(adapt_store):
    store = adapt_store
    pol = store.policy
    pol.threshold = 2.0  # force: rewrites hot, first-writes (>2 seen) cold
    hot, cold = store.groups[pol.HOT], store.groups[pol.COLD]
    store.process_request(0, 1, 100, 1)
    store.process_request(1, 1, 101, 1)   # cold (unique_seen past thr)
    store.process_request(2, 1, 5, 1)     # cold
    store.process_request(3, 1, 5, 1)     # quick rewrite -> hot pending
    assert cold.buffer.pending_blocks >= 1
    assert hot.unshadowed_pending >= 1
    store.tick(50_000)
    # Hot never padded; its pending blocks were substituted into the cold
    # chunk, which flushed at its own deadline carrying both streams.
    assert hot.traffic.padding_blocks == 0
    assert hot.buffer.pending_blocks >= 1          # lazy append kept
    assert cold.traffic.shadow_blocks >= 1
    assert cold.buffer.pending_blocks == 0         # combined chunk flushed


def test_aggregation_decision_log():
    agg = CrossGroupAggregator(chunk_blocks=4)
    mon = agg.monitor_for(0)
    assert isinstance(mon, GroupWriteMonitor)
    assert agg.monitor_for(0) is mon  # cached


def test_aggregation_stops_when_budget_exhausted(adapt_store, tiny_config):
    store = adapt_store
    pol = store.policy
    cold = store.groups[pol.COLD]
    mon = pol.aggregator.monitor_for(pol.COLD)
    # Fabricate history: cold sealed segments with tiny padding budget.
    mon.segments_sealed = 10
    mon.padding_blocks = 1        # 0.1 blocks/segment budget
    cold.segment_shadow_bytes = 10 * tiny_config.chunk.block_bytes
    store.process_request(0, 1, 5, 1)
    store.process_request(10, 1, 5, 1)
    store.tick(10_000)
    hot = store.groups[pol.HOT]
    # Budget exhausted: the hot chunk was padded instead of shadowed.
    assert pol.aggregator.declined >= 1
    assert hot.traffic.padding_blocks > 0
