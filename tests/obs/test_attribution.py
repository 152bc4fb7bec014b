"""Attribution recorder: hooks, snapshot shape, publish, merge, export."""

from __future__ import annotations

import json

import pytest

from repro.lss.store import LogStructuredStore
from repro.obs.attribution import (
    ATTRIBUTION_SCHEMA,
    CAUSE_MAX_BLOCKS,
    CAUSE_SCALAR_FALLBACK,
    CHUNK_CAUSES,
    NULL_ATTRIBUTION,
    AttributionRecorder,
    NullAttribution,
    invariant_view,
    merge_attribution_snapshots,
    width_bucket,
    write_attribution_json,
)
from repro.obs.metrics import MetricsRegistry
from repro.placement.registry import make_policy
from repro.validate.differential import (default_workloads,
                                         differential_config)


def _replayed_recorder(policy_name="sepgc", engine="auto"):
    cfg = differential_config()
    attr = AttributionRecorder()
    store = LogStructuredStore(cfg, make_policy(policy_name, cfg),
                               attribution=attr)
    trace = default_workloads(num_requests=800)[0]
    store.replay(trace, engine=engine)
    return store, attr


def test_width_bucket_power_of_two_ceiling():
    assert width_bucket(0) == 0
    assert width_bucket(-3) == 0
    assert width_bucket(1) == 1
    assert width_bucket(2) == 2
    assert width_bucket(3) == 4
    assert width_bucket(17) == 32
    assert width_bucket(64) == 64


def test_null_attribution_is_inert():
    assert not NULL_ATTRIBUTION.enabled
    NULL_ATTRIBUTION.on_chunk(CAUSE_MAX_BLOCKS, 3, 12)
    NULL_ATTRIBUTION.on_gc_victim(0, 10, 4, 16, 3, 1)
    NULL_ATTRIBUTION.publish(MetricsRegistry())
    assert NULL_ATTRIBUTION.snapshot() is None


def test_store_defaults_to_null_attribution():
    cfg = differential_config()
    store = LogStructuredStore(cfg, make_policy("sepgc", cfg))
    assert isinstance(store.attribution, NullAttribution)
    assert not store.attribution.enabled
    assert store.pool.slot_origin is None  # provenance plane never built


def test_chunk_hooks_aggregate():
    attr = AttributionRecorder()
    attr.on_chunk(CAUSE_MAX_BLOCKS, 3, 12)
    attr.on_chunk(CAUSE_MAX_BLOCKS, 5, 20)
    attr.on_scalar_burst(2, 2)
    assert attr.chunk_causes[CAUSE_MAX_BLOCKS] == [2, 8, 32]
    assert attr.chunk_causes[CAUSE_SCALAR_FALLBACK] == [1, 2, 2]
    assert attr.chunk_requests_hist == {4: 1, 8: 1, 2: 1}
    snap = attr.snapshot()
    assert snap["chunk_bounds"]["chunks"] == 3
    assert snap["chunk_bounds"]["causes"][CAUSE_MAX_BLOCKS] == {
        "chunks": 2, "requests": 8, "blocks": 32}


def test_gc_victim_hook_aggregates_and_running_totals():
    attr = AttributionRecorder()
    attr.on_gc_victim(1, 100, 4, 16, 3, 1)
    attr.on_gc_victim(1, 200, 8, 16, 8, 0)
    attr.on_gc_victim(0, 50, 0, 16, 0, 0)
    assert attr.gc_groups[1] == [2, 12, 20, 300, 11, 1]
    assert attr.total_victims == 3
    assert attr.total_migrated_user_origin == 11
    assert attr.total_migrated_gc_origin == 1
    snap = attr.snapshot()
    # No bound store: groups fall back to gid names, totals still sum.
    assert snap["gc_provenance"]["groups"]["gid1"]["victims"] == 2
    assert snap["gc_provenance"]["totals"]["victims"] == 3
    assert snap["gc_provenance"]["totals"]["age_seq_sum"] == 350


def test_snapshot_ledger_conserves_store_totals():
    store, attr = _replayed_recorder("adapt")
    snap = attr.snapshot()
    totals = snap["ledger"]["totals"]
    stats = store.stats
    assert totals["user_blocks"] == stats.user_blocks_requested
    assert totals["user_blocks_requested"] == stats.user_blocks_requested
    assert totals["gc_blocks"] == stats.gc_blocks_written
    assert totals["shadow_blocks"] == stats.shadow_blocks_written
    assert totals["padding_blocks"] == stats.padding_blocks_written
    assert totals["total_blocks"] == stats.flash_blocks_written
    # Per-group entries sum to the totals.
    groups = snap["ledger"]["groups"].values()
    for key in ("user_blocks", "gc_blocks", "padding_blocks"):
        assert sum(g[key] for g in groups) == totals[key]
    assert snap["schema"] == ATTRIBUTION_SCHEMA
    # Every observed cause is a known one.
    assert set(snap["chunk_bounds"]["causes"]) <= set(CHUNK_CAUSES)


def test_publish_is_idempotent():
    store, attr = _replayed_recorder(engine="batched")
    registry = MetricsRegistry()
    attr.publish(registry)
    first = registry.snapshot()
    attr.publish(registry)
    assert registry.snapshot() == first
    counters = first["counters"]
    assert any(name.startswith("attr_chunks_") for name in counters)
    assert any(name.startswith("attr_group_user_blocks_total_")
               for name in counters)


def test_finalize_publishes_into_obs_registry():
    from repro.obs.recorder import ObsRecorder
    cfg = differential_config()
    attr = AttributionRecorder()
    rec = ObsRecorder()
    store = LogStructuredStore(cfg, make_policy("sepgc", cfg),
                               recorder=rec, attribution=attr)
    trace = default_workloads(num_requests=800)[0]
    store.replay(trace, engine="batched")
    counters = rec.registry.snapshot()["counters"]
    assert any(name.startswith("attr_") for name in counters)


def test_invariant_view_drops_engine_section():
    store, attr = _replayed_recorder()
    snap = attr.snapshot()
    view = invariant_view(snap)
    assert "chunk_bounds" not in view
    assert set(view) == {"schema", "ledger", "gc_provenance"}


def test_merge_none_and_sums():
    assert merge_attribution_snapshots([]) is None
    assert merge_attribution_snapshots([None, None]) is None
    _, a = _replayed_recorder("sepgc")
    _, b = _replayed_recorder("adapt")
    sa, sb = a.snapshot(), b.snapshot()
    merged = merge_attribution_snapshots([sa, None, sb])
    assert merged["volumes"] == 2
    assert merged["ledger"]["totals"]["user_blocks"] == \
        sa["ledger"]["totals"]["user_blocks"] + \
        sb["ledger"]["totals"]["user_blocks"]
    assert merged["chunk_bounds"]["chunks"] == \
        sa["chunk_bounds"]["chunks"] + sb["chunk_bounds"]["chunks"]
    # Merge is order-independent byte-for-byte.
    flipped = merge_attribution_snapshots([sb, sa])
    assert json.dumps(merged, sort_keys=True) == \
        json.dumps(flipped, sort_keys=True)


def test_write_attribution_json_atomic_and_stable(tmp_path):
    _, attr = _replayed_recorder("sepgc")
    snap = attr.snapshot()
    path = str(tmp_path / "deep" / "a.json")
    assert write_attribution_json(snap, path) == path
    with open(path, encoding="utf-8") as f:
        assert json.load(f) == snap
    again = str(tmp_path / "again.json")
    write_attribution_json(snap, again)
    assert open(path).read().splitlines()[1:] == \
        open(again).read().splitlines()[1:]
    assert not [n for n in (tmp_path).iterdir() if "tmp" in n.name]


def test_unknown_gc_cause_still_counts():
    attr = AttributionRecorder()
    with pytest.raises(TypeError):
        attr.on_chunk()  # hooks take explicit positional values
