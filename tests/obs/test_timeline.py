"""Replay timelines: sampling cadence, final-row exactness, exports."""

import csv
import json

import numpy as np
import pytest

from repro.lss.config import LSSConfig
from repro.lss.store import LogStructuredStore
from repro.obs.exporters import write_timeline_csv
from repro.obs.recorder import ObsRecorder
from repro.obs.timeline import BASE_COLUMNS, ReplayTimeline
from repro.placement.registry import make_policy
from repro.trace.synthetic.ycsb import DensityPreset, generate_ycsb_a


def _replay(policy="adapt", every=512, per_block=False):
    cfg = LSSConfig(logical_blocks=4096, segment_blocks=64)
    rec = ObsRecorder(every)
    timeline = rec.timeline
    store = LogStructuredStore(cfg, make_policy(policy, cfg), recorder=rec)
    trace = generate_ycsb_a(4096, 12_000, density=DensityPreset.LIGHT,
                            read_ratio=0.0, seed=3)
    if per_block:
        for row in trace.iter_requests():
            store.process_request(*row)
        store.finalize()
    else:
        store.replay(trace)
    return store, timeline


def test_rows_monotone_and_shaped():
    store, tl = _replay()
    assert len(tl) > 2
    assert tl.rows.shape == (len(tl), len(tl.columns))
    arrays = tl.to_arrays()
    blocks = arrays["user_blocks"]
    assert (np.diff(blocks) > 0).all()
    assert (np.diff(arrays["time_us"]) >= 0).all()


def test_final_row_matches_stats_exactly():
    store, tl = _replay()
    final = dict(zip(tl.columns, tl.rows[-1]))
    stats = store.stats
    assert tl.columns[:len(BASE_COLUMNS)] == BASE_COLUMNS
    assert final["user_blocks"] == stats.user_blocks_requested
    assert final["flash_blocks"] == stats.flash_blocks_written
    assert final["gc_blocks"] == stats.gc_blocks_written
    assert final["padding_blocks"] == stats.padding_blocks_written
    assert final["shadow_blocks"] == stats.shadow_blocks_written
    assert final["gc_passes"] == stats.gc_passes
    assert final["write_amplification"] == stats.write_amplification()
    assert final["padding_ratio"] == stats.padding_traffic_ratio()
    assert final["gc_ratio"] == stats.gc_traffic_ratio()
    assert final["free_segments"] == store.pool.free_segments


def test_occupancy_columns_match_store():
    store, tl = _replay()
    occ_cols = [c for c in tl.columns if c.startswith("occ_")]
    assert len(occ_cols) == len(store.groups)
    final = dict(zip(tl.columns, tl.rows[-1]))
    for g, occ in zip(store.groups, store.group_occupancy()):
        assert final[f"occ_{g.spec.name}"] == occ


def test_threshold_column():
    store, tl = _replay(policy="adapt")
    # ADAPT has a live threshold: every sample must record a finite one.
    assert np.isfinite(tl.to_arrays()["threshold"]).all()
    _, tl2 = _replay(policy="sepgc")
    # sepgc has no threshold attribute: NaN throughout.
    assert np.isnan(tl2.to_arrays()["threshold"]).all()


def test_batched_final_row_equals_scalar_final_row():
    s_store, s_tl = _replay(policy="sepgc", per_block=True)
    b_store, b_tl = _replay(policy="sepgc")
    # The replay loop settles exactly where the timeline samples, so
    # every row — not only the finalize row — equals the per-block
    # path's (sepgc has no threshold: that column is NaN on both sides).
    assert len(b_tl) > 2
    assert np.array_equal(s_tl.rows, b_tl.rows, equal_nan=True)


def test_every_blocks_validation():
    with pytest.raises(ValueError):
        ReplayTimeline(every_blocks=0)
    with pytest.raises(ValueError):
        ObsRecorder(0)


def test_csv_export_roundtrip(tmp_path):
    _, tl = _replay(policy="sepgc")
    path = str(tmp_path / "sub" / "timeline.csv")
    n = write_timeline_csv(tl, path)
    with open(path, encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    assert tuple(rows[0]) == tl.columns
    assert len(rows) == n + 1 == len(tl) + 1
    # NaN thresholds render as empty fields, numbers round-trip.
    first = dict(zip(tl.columns, rows[1]))
    assert first["threshold"] == ""
    assert float(first["user_blocks"]) == tl.rows[0][0]


def test_attribution_columns_track_recorder_totals():
    from repro.obs.attribution import AttributionRecorder
    from repro.obs.timeline import ATTR_COLUMNS
    cfg = LSSConfig(logical_blocks=4096, segment_blocks=64)
    rec = ObsRecorder(512)
    timeline = rec.timeline
    attr = AttributionRecorder()
    store = LogStructuredStore(cfg, make_policy("adapt", cfg),
                               recorder=rec, attribution=attr)
    trace = generate_ycsb_a(4096, 12_000, density=DensityPreset.LIGHT,
                            read_ratio=0.0, seed=3)
    store.replay(trace)
    assert set(ATTR_COLUMNS) <= set(timeline.columns)
    arrays = timeline.to_arrays()
    victims = arrays["attr_gc_victims"]
    assert (np.diff(victims) >= 0).all()  # cumulative
    final = dict(zip(timeline.columns, timeline.rows[-1]))
    rows = list(attr.gc_groups.values())
    assert final["attr_gc_victims"] == sum(r[0] for r in rows) > 0
    assert final["attr_migrated_user_origin"] == sum(r[4] for r in rows)
    assert final["attr_migrated_gc_origin"] == sum(r[5] for r in rows)


def test_no_attribution_columns_without_recorder():
    from repro.obs.timeline import ATTR_COLUMNS
    _, tl = _replay()
    assert not set(ATTR_COLUMNS) & set(tl.columns)


def test_recorder_snapshot_reports_timeline_rows():
    store, tl = _replay(policy="sepgc", every=256)
    snap = store.obs.snapshot()
    assert snap["timeline_rows"] == len(tl)
    # The final row rides the snapshot as valid JSON: integral values as
    # ints, sepgc's NaN threshold as null.
    final = json.loads(json.dumps(snap["final"], allow_nan=False))
    assert list(final) == list(tl.columns)
    assert final["threshold"] is None
    assert final["user_blocks"] == store.stats.user_blocks_requested
    assert isinstance(final["flash_blocks"], int)
    assert final["write_amplification"] == \
        store.stats.write_amplification()
