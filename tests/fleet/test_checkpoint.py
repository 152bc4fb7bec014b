"""Shard checkpoints: atomicity, validation, recovery cross-check."""

from __future__ import annotations

import dataclasses
import enum
import io
import pickle

import pytest

import repro.fleet.worker as worker

from repro.common.errors import CheckpointError
from repro.fleet.checkpoint import (
    CHECKPOINT_VERSION,
    checkpoint_path,
    load_shard_checkpoint,
    write_shard_checkpoint,
)
from repro.fleet.spec import FleetSpec
from repro.fleet.worker import run_shard

SPEC = FleetSpec(num_volumes=2, volume_blocks=2048, volume_requests=800,
                 chunk_requests=256)
KEY = SPEC.fleet_key()


def midstream_store(tenant="ali-0000", chunks=2):
    """A store halfway through its tenant's stream, plus resume cursor."""
    from repro.experiments.runner import store_config_for
    from repro.lss.store import LogStructuredStore
    from repro.placement.registry import make_policy
    stream = SPEC.volume_stream(tenant)
    cfg = store_config_for(SPEC.volume_blocks, seed=SPEC.store_seed(tenant))
    store = LogStructuredStore(cfg, make_policy(SPEC.scheme, cfg))
    state = stream.initial_state()
    for index, tr, state in stream.chunks(0, state):
        store.replay(tr, finalize=False)
        if index + 1 >= chunks:
            break
    return store, index + 1, state


def test_path_encodes_geometry(tmp_path):
    p = checkpoint_path(str(tmp_path), 3, 16)
    assert p.endswith("shard-0003-of-0016.ckpt")


def test_missing_checkpoint_is_none(tmp_path):
    p = checkpoint_path(str(tmp_path), 0, 1)
    assert load_shard_checkpoint(p, fleet_key=KEY, shard=0,
                                 num_shards=1) is None


def test_roundtrip_completed_only(tmp_path):
    p = checkpoint_path(str(tmp_path), 0, 2)
    completed = {"ali-0000": {"volume": "ali-0000", "stats": {}}}
    write_shard_checkpoint(p, fleet_key=KEY, shard=0, num_shards=2,
                           completed=completed, inflight=None)
    payload = load_shard_checkpoint(p, fleet_key=KEY, shard=0,
                                    num_shards=2)
    assert payload["completed"] == completed
    assert payload["inflight"] is None
    assert payload["version"] == CHECKPOINT_VERSION


def test_roundtrip_inflight_store_resumes_identically(tmp_path):
    """A store restored from a checkpoint finishes the volume with
    bit-identical stats to one that was never interrupted."""
    store, next_chunk, state = midstream_store()
    p = checkpoint_path(str(tmp_path), 0, 1)
    write_shard_checkpoint(
        p, fleet_key=KEY, shard=0, num_shards=1, completed={},
        inflight={"tenant": "ali-0000", "next_chunk": next_chunk,
                  "stream_state": state, "store": store,
                  "recorder": None})
    # The original store object keeps working after the write
    # (profiler detach must be restored).
    stream = SPEC.volume_stream("ali-0000")
    payload = load_shard_checkpoint(p, fleet_key=KEY, shard=0,
                                    num_shards=1)
    restored = payload["inflight"]["store"]
    for original in (store, restored):
        for _, tr, _ in stream.chunks(payload["inflight"]["next_chunk"],
                                      payload["inflight"]["stream_state"]):
            original.replay(tr, finalize=False)
        original.finalize()
    assert store.stats.summary() == restored.stats.summary()


def test_wrong_fleet_key_rejected(tmp_path):
    p = checkpoint_path(str(tmp_path), 0, 1)
    write_shard_checkpoint(p, fleet_key=KEY, shard=0, num_shards=1,
                           completed={}, inflight=None)
    with pytest.raises(CheckpointError, match="different fleet"):
        load_shard_checkpoint(p, fleet_key="0" * 64, shard=0,
                              num_shards=1)


def test_wrong_geometry_rejected(tmp_path):
    p = checkpoint_path(str(tmp_path), 0, 1)
    write_shard_checkpoint(p, fleet_key=KEY, shard=0, num_shards=1,
                           completed={}, inflight=None)
    with pytest.raises(CheckpointError, match="geometry"):
        load_shard_checkpoint(p, fleet_key=KEY, shard=0, num_shards=2)


def test_corrupt_checkpoint_rejected(tmp_path):
    p = checkpoint_path(str(tmp_path), 0, 1)
    with open(p, "wb") as f:
        f.write(b"definitely not a pickle")
    with pytest.raises(CheckpointError, match="unreadable"):
        load_shard_checkpoint(p, fleet_key=KEY, shard=0, num_shards=1)


def test_version_mismatch_rejected(tmp_path):
    p = checkpoint_path(str(tmp_path), 0, 1)
    with open(p, "wb") as f:
        pickle.dump({"version": CHECKPOINT_VERSION + 1}, f)
    with pytest.raises(CheckpointError, match="version"):
        load_shard_checkpoint(p, fleet_key=KEY, shard=0, num_shards=1)


def test_tampered_store_fails_recovery_crosscheck(tmp_path):
    """A checkpoint whose mapping disagrees with the segment pool's
    slot metadata must be rejected, not resumed."""
    store, next_chunk, state = midstream_store()
    # Corrupt the derived mapping so the recovery scan disagrees.
    valid = [i for i in range(SPEC.volume_blocks) if store.mapping[i] >= 0]
    a, b = valid[0], valid[1]
    store.mapping[a], store.mapping[b] = \
        int(store.mapping[b]), int(store.mapping[a])
    p = checkpoint_path(str(tmp_path), 0, 1)
    write_shard_checkpoint(
        p, fleet_key=KEY, shard=0, num_shards=1, completed={},
        inflight={"tenant": "ali-0000", "next_chunk": next_chunk,
                  "stream_state": state, "store": store,
                  "recorder": None})
    with pytest.raises(CheckpointError, match="recovery"):
        load_shard_checkpoint(p, fleet_key=KEY, shard=0, num_shards=1)


class _DictFinder(pickle.Pickler):
    """Pickles into nothing, visiting every object a pickle of the input
    visits: records each ``repro`` class met and names those whose
    instances carry a ``__dict__`` (enum members aside, which pickle by
    value)."""

    def __init__(self) -> None:
        super().__init__(io.BytesIO(), protocol=pickle.HIGHEST_PROTOCOL)
        self.seen: set[str] = set()
        self.with_dict: set[str] = set()

    def reducer_override(self, obj):
        cls = type(obj)
        if cls.__module__.split(".")[0] == "repro" \
                and not isinstance(obj, enum.Enum):
            self.seen.add(cls.__name__)
            if hasattr(obj, "__dict__"):
                self.with_dict.add(f"{cls.__module__}.{cls.__qualname__}")
        return NotImplemented

    def walk(self, obj) -> "_DictFinder":
        self.dump(obj)
        return self


@pytest.mark.parametrize("scheme,policy_cls",
                         [("adapt", "AdaptPolicy"),
                          ("sepbit", "SepBITPolicy")])
def test_checkpointed_replay_state_has_no_instance_dict(
        scheme, policy_cls, tmp_path, monkeypatch):
    """Everything an in-flight shard checkpoint pickles is slotted.

    Pickling reads an object's ``__dict__``, and on CPython 3.11 that
    permanently costs the live object its fast attribute access, so a
    store that was checkpointed replays the rest of its volume slower.
    A slotted object has no ``__dict__`` to read.  The graph a load
    returns is checked too: resumed tenants replay on it.
    """
    spec = dataclasses.replace(SPEC, scheme=scheme, collect_metrics=True,
                               collect_attribution=True)
    written = []
    write = worker.write_shard_checkpoint

    def recording_write(path, **payload):
        written.append(payload)
        return write(path, **payload)

    monkeypatch.setattr(worker, "write_shard_checkpoint", recording_write)
    result = run_shard(spec, 0, 1, checkpoint_dir=str(tmp_path),
                       checkpoint_every=1, stop_after_chunks=2)
    assert result["interrupted"] and written[-1]["inflight"] is not None
    loaded = load_shard_checkpoint(checkpoint_path(str(tmp_path), 0, 1),
                                   fleet_key=spec.fleet_key(), shard=0,
                                   num_shards=1)
    for graph in (written[-1], loaded):
        finder = _DictFinder().walk(graph)
        assert {"LogStructuredStore", policy_cls, "ObsRecorder",
                "EventTracer", "AttributionRecorder", "SegmentPool",
                "Group", "StoreEvents"} <= finder.seen
        assert finder.with_dict == set()
