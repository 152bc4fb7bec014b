"""Fleet orchestration: sharding identity, resume identity, reporting."""

from __future__ import annotations

import json
import os

import pytest

from repro.fleet import (
    FleetSpec,
    aggregate_fleet,
    fleet_summary,
    render_fleet,
    run_fleet,
    run_shard,
)
from repro.fleet.report import SUMMARY_SCHEMA

TINY = FleetSpec(num_volumes=6, volume_blocks=2048, volume_requests=1200,
                 chunk_requests=256)


class TestFleetSpec:
    def test_tenant_ids_stable(self):
        assert TINY.tenant_id(0) == "ali-0000"
        assert TINY.tenant_ids()[-1] == "ali-0005"
        with pytest.raises(IndexError):
            TINY.tenant_id(6)

    def test_shard_partition_is_exact(self):
        for shards in (1, 2, 3, 4, 7):
            combined = [t for s in range(shards)
                        for t in TINY.shard_tenants(s, shards)]
            assert sorted(combined) == TINY.tenant_ids()
            assert len(combined) == len(set(combined))

    def test_store_seed_order_independent(self):
        """The store seed depends only on (fleet seed, tenant name), so
        resizing the fleet never reseeds existing tenants."""
        bigger = FleetSpec(num_volumes=60, volume_blocks=2048,
                           volume_requests=1200, chunk_requests=256)
        assert TINY.store_seed("ali-0003") == bigger.store_seed("ali-0003")

    def test_fleet_key_tracks_content(self):
        same = FleetSpec(num_volumes=6, volume_blocks=2048,
                         volume_requests=1200, chunk_requests=256)
        other = FleetSpec(num_volumes=7, volume_blocks=2048,
                          volume_requests=1200, chunk_requests=256)
        assert TINY.fleet_key() == same.fleet_key()
        assert TINY.fleet_key() != other.fleet_key()

    @pytest.mark.parametrize("field", ["profile", "scheme", "victim"])
    def test_unknown_name_rejected_at_construction(self, field):
        """A typo fails when the spec is built, not as a traceback from
        a shard worker's ``make_policy``/``make_victim_policy``."""
        with pytest.raises(ValueError, match="nope"):
            FleetSpec(**{field: "nope"})

    def test_validation(self):
        with pytest.raises(ValueError):
            FleetSpec(num_volumes=0)
        with pytest.raises(TypeError):
            FleetSpec(engine="auto")  # one replay loop, no engine field
        with pytest.raises(ValueError):
            FleetSpec(chunk_requests=0)


def shard_volumes(spec, num_shards):
    vols = []
    for s in range(num_shards):
        r = run_shard(spec, s, num_shards)
        assert not r["interrupted"]
        vols.extend(r["completed"])
    return sorted(vols, key=lambda v: v["volume"])


@pytest.mark.slow
def test_sharded_replay_bit_identical_to_serial_64_volumes():
    """The acceptance bar: a 64-volume fleet replayed across shards is
    bit-identical — per-volume stats and all — to serial replay."""
    spec = FleetSpec(num_volumes=64, volume_blocks=2048,
                     volume_requests=500, chunk_requests=256)
    serial = run_fleet(spec, workers=1)
    assert serial.complete and len(serial.volumes) == 64
    assert shard_volumes(spec, 5) == serial.volumes


def test_sharded_replay_bit_identical_to_serial_small():
    serial = run_fleet(TINY, workers=1)
    assert serial.complete
    for shards in (2, 3):
        assert shard_volumes(TINY, shards) == serial.volumes


def test_metrics_snapshots_identical_across_sharding():
    spec = FleetSpec(num_volumes=4, volume_blocks=2048,
                     volume_requests=900, chunk_requests=256,
                     collect_metrics=True)
    serial = run_fleet(spec, workers=1)
    sharded = shard_volumes(spec, 2)
    assert serial.volumes == sharded
    assert all(v["metrics"] is not None for v in sharded)


def test_metrics_final_row_is_strict_json(tmp_path):
    """A snapshot's ``final`` is the timeline's last row; sepgc's NaN
    threshold lands in the summary as null, never as a bare NaN."""
    spec = FleetSpec(scheme="sepgc", num_volumes=2, volume_blocks=2048,
                     volume_requests=900, chunk_requests=256,
                     collect_metrics=True)
    result = run_fleet(spec, workers=1, out_dir=str(tmp_path))

    def refuse(token):
        raise ValueError(f"non-JSON constant {token}")
    with open(result.summary_path, encoding="utf-8") as f:
        summary = json.load(f, parse_constant=refuse)
    for volume in summary["volumes"]:
        final = volume["metrics"]["final"]
        assert final["threshold"] is None
        assert final["user_blocks"] == \
            volume["stats"]["user_blocks_requested"]
        assert final["write_amplification"] == \
            volume["stats"]["write_amplification"]


def test_attribution_snapshots_identical_across_sharding():
    """Attribution rides the volume reports: serial and sharded runs
    carry identical snapshots, and the aggregate's merged sections are
    identical JSON (the determinism contract the summary depends on)."""
    spec = FleetSpec(num_volumes=4, volume_blocks=2048,
                     volume_requests=900, chunk_requests=256,
                     collect_metrics=True, collect_attribution=True)
    serial = run_fleet(spec, workers=1)
    sharded = shard_volumes(spec, 3)
    assert serial.volumes == sharded
    assert all(v["attribution"] is not None for v in sharded)
    agg_serial = aggregate_fleet(serial.volumes)
    agg_sharded = aggregate_fleet(sharded)
    assert json.dumps(agg_serial, sort_keys=True) == \
        json.dumps(agg_sharded, sort_keys=True)
    attribution = agg_serial["attribution"]
    assert attribution["volumes"] == 4
    ledger = attribution["ledger"]
    assert ledger["totals"]["user_blocks_requested"] == sum(
        v["stats"]["user_blocks_requested"] for v in serial.volumes)
    assert agg_serial["metrics_totals"]["volumes"] == 4
    assert "metrics_counter_totals" not in agg_serial
    assert agg_serial["metrics_totals"]["counters"][
        "lss_user_blocks_total"] == \
        ledger["totals"]["user_blocks_requested"]


def test_attribution_absent_without_opt_in():
    spec = FleetSpec(num_volumes=2, volume_blocks=2048,
                     volume_requests=600, chunk_requests=256)
    result = run_fleet(spec, workers=1)
    assert all(v["attribution"] is None for v in result.volumes)
    assert "attribution" not in aggregate_fleet(result.volumes)


def test_process_pool_matches_inline(tmp_path):
    pool = run_fleet(TINY, workers=2, checkpoint_every=2,
                     out_dir=str(tmp_path / "pool"))
    serial = run_fleet(TINY, workers=1)
    assert pool.complete
    assert pool.volumes == serial.volumes
    assert os.path.exists(pool.summary_path)


def test_graceful_interrupt_then_resume_byte_identical(tmp_path):
    out_a = str(tmp_path / "interrupted")
    part = run_fleet(TINY, workers=1, checkpoint_every=1, out_dir=out_a,
                     stop_after_chunks=9)
    assert not part.complete
    assert part.interrupted_shards == [0]
    assert part.summary is None
    resumed = run_fleet(TINY, workers=1, checkpoint_every=1,
                        out_dir=out_a, resume=True)
    assert resumed.complete
    out_b = str(tmp_path / "clean")
    clean = run_fleet(TINY, workers=1, checkpoint_every=1, out_dir=out_b)
    with open(resumed.summary_path, "rb") as f:
        a = f.read()
    with open(clean.summary_path, "rb") as f:
        b = f.read()
    assert a == b
    # Resume skipped already-replayed chunks.
    assert resumed.chunks_replayed < clean.chunks_replayed


def test_resume_with_wrong_worker_count_is_loud(tmp_path):
    from repro.common.errors import CheckpointError
    out = str(tmp_path / "geom")
    run_fleet(TINY, workers=1, checkpoint_every=1, out_dir=out,
              stop_after_chunks=3)
    with pytest.raises(CheckpointError, match="geometry"):
        run_fleet(TINY, workers=2, checkpoint_every=1, out_dir=out,
                  resume=True)


def test_checkpoint_requires_out_dir():
    with pytest.raises(ValueError, match="out_dir"):
        run_fleet(TINY, workers=1, checkpoint_every=2)
    with pytest.raises(ValueError, match="out_dir"):
        run_fleet(TINY, workers=1, resume=True)


def test_summary_shape_and_determinism(tmp_path):
    result = run_fleet(TINY, workers=1, out_dir=str(tmp_path))
    s = result.summary
    assert s["schema"] == SUMMARY_SCHEMA == 5
    assert s["fleet_key"] == TINY.fleet_key()
    assert [v["volume"] for v in s["volumes"]] == TINY.tenant_ids()
    agg = s["aggregate"]
    assert agg["volumes"] == 6
    wa = agg["percentiles"]["write_amplification"]
    assert wa["p50"] <= wa["p95"] <= wa["p99"] <= wa["max"]
    assert agg["overall"]["write_amplification"] > 1.0
    # On-disk JSON round-trips to the in-memory summary.
    with open(result.summary_path) as f:
        assert json.load(f) == s
    # The runinfo sidecar carries the wall-clock facts instead.
    with open(os.path.join(str(tmp_path), "fleet_runinfo.json")) as f:
        info = json.load(f)
    assert info["workers"] == 1
    assert info["volumes"] == 6
    assert "seconds" not in s["fleet"]


def test_aggregate_empty():
    assert aggregate_fleet([]) == {"volumes": 0}


def test_render_fleet_mentions_headline_numbers():
    result = run_fleet(FleetSpec(num_volumes=2, volume_blocks=2048,
                                 volume_requests=600, chunk_requests=256))
    text = render_fleet(fleet_summary(result.spec, 1, result.volumes))
    assert "WA" in text and "p99" in text and "GC passes" in text


def test_timeline_export(tmp_path):
    spec = FleetSpec(num_volumes=2, volume_blocks=2048,
                     volume_requests=900, chunk_requests=256,
                     timeline_every=512)
    result = run_fleet(spec, workers=1, out_dir=str(tmp_path))
    assert result.complete
    tdir = os.path.join(str(tmp_path), "timelines")
    names = sorted(os.listdir(tdir))
    assert names == ["ali-0000.csv", "ali-0001.csv"]


@pytest.mark.slow
def test_hard_kill_then_resume_byte_identical(tmp_path, monkeypatch):
    """A worker process dying mid-chunk (os._exit via the kill hook)
    breaks the pool; resuming completes to the same summary bytes."""
    from repro.fleet import KILL_ENV
    out_a = str(tmp_path / "killed")
    monkeypatch.setenv(KILL_ENV, "4")
    killed = run_fleet(TINY, workers=2, checkpoint_every=1, out_dir=out_a)
    monkeypatch.delenv(KILL_ENV)
    assert not killed.complete
    resumed = run_fleet(TINY, workers=2, checkpoint_every=1,
                        out_dir=out_a, resume=True)
    assert resumed.complete
    clean = run_fleet(TINY, workers=2, checkpoint_every=1,
                      out_dir=str(tmp_path / "clean"))
    with open(resumed.summary_path, "rb") as f:
        a = f.read()
    with open(clean.summary_path, "rb") as f:
        b = f.read()
    assert a == b
