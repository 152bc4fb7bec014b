"""Shard checkpoints: a JSON fragment of the fleet summary, loud on load.

``tests/fleet/data/shard-0000-of-0001.ckpt`` is a checkpoint of ``SPEC``
written by ``run_fleet(SPEC, out_dir=..., stop_after_chunks=6)``: the
first tenant finished, the second two chunks in.  A change that moves a
volume report or the summary schema must regenerate it, with
``PYTHONPATH=src python -m tests.fleet.test_checkpoint``.
"""

from __future__ import annotations

import json
import os
import pickle
import shutil

import pytest

from repro.common.errors import CheckpointError
from repro.fleet import CHECKPOINT_DIRNAME, SUMMARY_NAME, run_fleet
from repro.fleet.checkpoint import (
    checkpoint_path,
    encode_report,
    load_shard_checkpoint,
    write_shard_checkpoint,
)
from repro.fleet.report import SUMMARY_SCHEMA
from repro.fleet.spec import FleetSpec

SPEC = FleetSpec(num_volumes=2, volume_blocks=2048, volume_requests=800,
                 chunk_requests=256)
KEY = SPEC.fleet_key()
TENANTS = SPEC.shard_tenants(0, 1)
DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
FIXTURE = checkpoint_path(DATA, 0, 1)


def load(path, fleet_key=KEY, shard=0, num_shards=1, tenants=TENANTS):
    return load_shard_checkpoint(path, fleet_key=fleet_key, shard=shard,
                                 num_shards=num_shards, tenants=tenants)


def write(path, volumes=()):
    return write_shard_checkpoint(
        path, fleet_key=KEY, shard=0, num_shards=1,
        volumes=[encode_report(v) for v in volumes])


def test_path_encodes_geometry(tmp_path):
    p = checkpoint_path(str(tmp_path), 3, 16)
    assert p.endswith("shard-0003-of-0016.ckpt")


def test_missing_checkpoint_is_none(tmp_path):
    assert load(checkpoint_path(str(tmp_path), 0, 1)) is None


def test_roundtrip_completed_only(tmp_path):
    """A checkpoint is the canonical JSON of the finished reports and
    the fleet and shard they belong to, nothing else."""
    p = checkpoint_path(str(tmp_path), 0, 1)
    reports = [{"volume": "ali-0000", "stats": {"write_amplification":
                                                1.5, "gc_passes": 3}},
               {"volume": "ali-0001", "metrics": None, "groups": []}]
    write(p, reports)
    assert load(p) == reports
    with open(p) as f:
        assert f.read() == json.dumps(
            {"schema": SUMMARY_SCHEMA, "fleet_key": KEY, "shard": 0,
             "num_shards": 1, "volumes": reports},
            sort_keys=True, separators=(",", ":"))


def test_wrong_fleet_key_rejected(tmp_path):
    p = write(checkpoint_path(str(tmp_path), 0, 1))
    with pytest.raises(CheckpointError, match="different fleet"):
        load(p, fleet_key="0" * 64)


def test_wrong_geometry_rejected(tmp_path):
    p = write(checkpoint_path(str(tmp_path), 0, 1))
    with pytest.raises(CheckpointError, match="geometry"):
        load(p, num_shards=2)


def test_corrupt_checkpoint_rejected(tmp_path):
    """Bytes that are not JSON, and a pickled checkpoint of the kind
    older releases wrote, are refused rather than resumed."""
    p = checkpoint_path(str(tmp_path), 0, 1)
    for blob in (b"definitely not json",
                 pickle.dumps({"version": 11, "fleet_key": KEY,
                               "completed": {}, "inflight": None})):
        with open(p, "wb") as f:
            f.write(blob)
        with pytest.raises(CheckpointError, match="unreadable"):
            load(p)


def test_torn_checkpoint_rejected(tmp_path):
    p = write(checkpoint_path(str(tmp_path), 0, 1),
              [{"volume": "ali-0000", "stats": {}}])
    with open(p, "rb") as f:
        blob = f.read()
    with open(p, "wb") as f:
        f.write(blob[:len(blob) // 2])
    with pytest.raises(CheckpointError, match="unreadable"):
        load(p)


def test_failed_rewrite_keeps_the_previous_checkpoint(
        tmp_path, disk_fills_mid_write):
    """A rewrite that fails halfway (a full disk) leaves the previous
    checkpoint loadable, byte for byte, and no temporary behind."""
    finished = load(FIXTURE)
    p = checkpoint_path(str(tmp_path), 0, 1)
    with open(FIXTURE, "rb") as f:
        previous = f.read()
    with open(p, "wb") as f:
        f.write(previous)
    with pytest.raises(OSError):
        write(p, finished + [dict(finished[0], volume=TENANTS[1])])
    with open(p, "rb") as f:
        assert f.read() == previous
    assert load(p) == finished
    assert os.listdir(tmp_path) == [os.path.basename(p)]


def test_version_mismatch_rejected(tmp_path):
    """The summary schema versions a checkpoint: any other is refused."""
    p = checkpoint_path(str(tmp_path), 0, 1)
    for schema in (SUMMARY_SCHEMA - 1, SUMMARY_SCHEMA + 1, None):
        with open(p, "w") as f:
            json.dump({"schema": schema, "fleet_key": KEY, "shard": 0,
                       "num_shards": 1, "volumes": []}, f)
        with pytest.raises(CheckpointError, match="schema"):
            load(p)


@pytest.mark.parametrize("report", [{"volume": "ali-0002"}, {},
                                    "ali-0000"],
                         ids=["other-volume", "no-volume", "not-a-dict"])
def test_foreign_tenant_rejected(tmp_path, report):
    """A report for a volume this shard does not own (or no volume at
    all) means the checkpoint is not this shard's."""
    p = write(checkpoint_path(str(tmp_path), 0, 1), [report])
    with pytest.raises(CheckpointError, match="not a tenant"):
        load(p)


def test_stopped_shard_checkpoints_its_finished_volumes(tmp_path):
    """A stop mid-volume leaves exactly the finished reports: the volume
    in flight has no trace in the checkpoint."""
    out = str(tmp_path)
    part = run_fleet(SPEC, out_dir=out, stop_after_chunks=6)
    assert not part.complete
    assert [v["volume"] for v in part.volumes] == ["ali-0000"]
    ckpt = checkpoint_path(os.path.join(out, CHECKPOINT_DIRNAME), 0, 1)
    assert load(ckpt) == json.loads(json.dumps(part.volumes))


def test_resume_from_committed_checkpoint_is_byte_identical(tmp_path):
    """Resuming from the committed JSON checkpoint replays only the
    unfinished tenant and writes a clean run's summary bytes."""
    resumed_dir = str(tmp_path / "resumed")
    ckpt_dir = os.path.join(resumed_dir, CHECKPOINT_DIRNAME)
    os.makedirs(ckpt_dir)
    shutil.copy(FIXTURE, checkpoint_path(ckpt_dir, 0, 1))
    resumed = run_fleet(SPEC, out_dir=resumed_dir, resume=True)
    clean = run_fleet(SPEC, out_dir=str(tmp_path / "clean"))
    assert resumed.complete
    assert resumed.chunks_replayed == SPEC.volume_stream(
        "ali-0001").num_chunks
    with open(resumed.summary_path, "rb") as a, \
            open(clean.summary_path, "rb") as b:
        assert a.read() == b.read(), (
            "a volume report or the summary schema moved: regenerate "
            "the fixture (see the module docstring)")


def _regenerate_fixture(work_dir: str) -> None:
    run_fleet(SPEC, out_dir=work_dir, stop_after_chunks=6)
    os.makedirs(DATA, exist_ok=True)
    shutil.copy(checkpoint_path(os.path.join(work_dir, CHECKPOINT_DIRNAME),
                                0, 1), FIXTURE)
    assert not os.path.exists(os.path.join(work_dir, SUMMARY_NAME))


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        _regenerate_fixture(tmp)
    print(f"wrote {FIXTURE}")
