"""Attribution recorder: hooks, snapshot shape, publish, merge, export."""

from __future__ import annotations

import json

import pytest

from repro.common.observer import EVENTS, StoreEvents
from repro.lss.store import LogStructuredStore
from repro.obs.attribution import (
    ATTRIBUTION_SCHEMA,
    NULL_ATTRIBUTION,
    AttributionRecorder,
    NullAttribution,
    merge_attribution_snapshots,
    write_attribution_json,
)
from repro.obs.metrics import MetricsRegistry
from repro.placement.registry import make_policy
from repro.validate.differential import (default_workloads,
                                         differential_config)


def _replayed_recorder(policy_name="sepgc"):
    cfg = differential_config()
    attr = AttributionRecorder()
    store = LogStructuredStore(cfg, make_policy(policy_name, cfg),
                               attribution=attr)
    trace = default_workloads(num_requests=800)[0]
    store.replay(trace)
    return store, attr


def test_null_attribution_is_inert():
    assert not NULL_ATTRIBUTION.enabled
    NULL_ATTRIBUTION.gc_victim(0, 1, 10, 4, 0)
    NULL_ATTRIBUTION.publish(MetricsRegistry())
    assert NULL_ATTRIBUTION.snapshot() is None
    # It overrides no store event, so a store never calls it.
    assert all(not getattr(StoreEvents([NULL_ATTRIBUTION]), event)
               for event in EVENTS)


def test_store_defaults_to_null_attribution():
    cfg = differential_config()
    store = LogStructuredStore(cfg, make_policy("sepgc", cfg))
    assert isinstance(store.attribution, NullAttribution)
    assert not store.attribution.enabled
    # The provenance planes live in the attribution recorder only.
    assert not hasattr(store.pool, "slot_origin")
    assert not hasattr(store.attribution, "slot_origin")


def test_gc_victim_hook_aggregates_and_running_totals():
    store, attr = _replayed_recorder("adapt")
    stats = store.stats
    rows = list(attr.gc_groups.values())
    assert attr.total_victims == sum(r[0] for r in rows) == stats.gc_passes
    assert sum(r[1] for r in rows) == stats.gc_blocks_migrated
    assert attr.total_migrated_user_origin == sum(r[4] for r in rows)
    assert attr.total_migrated_gc_origin == sum(r[5] for r in rows) > 0
    assert attr.total_migrated_user_origin + \
        attr.total_migrated_gc_origin == stats.gc_blocks_migrated
    seg = store.config.segment_blocks
    assert all(r[1] + r[2] == r[0] * seg for r in rows)
    attr = AttributionRecorder()
    attr.gc_groups = {1: [2, 12, 20, 300, 11, 1], 0: [1, 0, 16, 50, 0, 0]}
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
    assert set(snap) == {"schema", "ledger", "gc_provenance"}


def test_publish_is_idempotent():
    store, attr = _replayed_recorder()
    registry = MetricsRegistry()
    attr.publish(registry)
    first = registry.snapshot()
    attr.publish(registry)
    assert registry.snapshot() == first
    counters = first["counters"]
    assert any(name.startswith("attr_gc_victims_total_")
               for name in counters)
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
    store.replay(trace)
    counters = rec.registry.snapshot()["counters"]
    assert any(name.startswith("attr_") for name in counters)


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
    assert merged["gc_provenance"]["totals"]["victims"] == \
        sa["gc_provenance"]["totals"]["victims"] + \
        sb["gc_provenance"]["totals"]["victims"]
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
        attr.gc_victim()  # events take explicit positional values
