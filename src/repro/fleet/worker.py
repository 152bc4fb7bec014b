"""Shard worker: replay one shard's volumes chunk-by-chunk.

``run_shard`` is the unit the orchestrator distributes across a process
pool (and calls inline for serial runs): it walks its round-robin share
of the fleet's tenants, streams each tenant's trace through a fresh
store one bounded chunk at a time (memory O(chunk), never O(trace)),
and — when checkpointing is enabled — snapshots its progress every
``checkpoint_every`` chunks and after every finished volume, so a kill
at any instant loses at most one checkpoint interval of work.

Interruption testing hooks: ``stop_after_chunks`` returns gracefully
after N chunk replays (unit tests), and the
``ADAPT_REPRO_FLEET_KILL_AFTER_CHUNKS`` environment variable hard-kills
the worker process with ``os._exit`` right after the next checkpoint —
the CI fleet-smoke job uses it to prove a real mid-flight kill resumes
to a byte-identical summary.
"""

from __future__ import annotations

import os

from repro.fleet.checkpoint import (
    checkpoint_path,
    load_shard_checkpoint,
    write_shard_checkpoint,
)
from repro.fleet.report import volume_report
from repro.fleet.spec import FleetSpec

#: Hard-kill env hook (see module docstring); parsed once per shard run.
KILL_ENV = "ADAPT_REPRO_FLEET_KILL_AFTER_CHUNKS"


def _fresh_store(spec: FleetSpec, tenant_id: str):
    """A new store + optional recorder for one tenant volume."""
    from repro.experiments.runner import store_config_for
    from repro.lss.store import LogStructuredStore
    from repro.placement.registry import make_policy
    cfg = store_config_for(spec.volume_blocks, victim=spec.victim,
                           seed=spec.store_seed(tenant_id))
    recorder = None
    if spec.collect_metrics or spec.timeline_every:
        from repro.obs.recorder import ObsRecorder
        from repro.obs.timeline import TIMELINE_EVERY
        recorder = ObsRecorder(spec.timeline_every or TIMELINE_EVERY)
    attribution = None
    if spec.collect_attribution:
        from repro.obs.attribution import AttributionRecorder
        attribution = AttributionRecorder()
    policy = make_policy(spec.scheme, cfg)
    store = LogStructuredStore(cfg, policy, recorder=recorder,
                               attribution=attribution)
    return store, recorder


def _export_timeline(recorder, tenant_id: str,
                     timeline_dir: str | None) -> None:
    if recorder is None or timeline_dir is None:
        return
    from repro.obs.exporters import write_timeline_csv
    write_timeline_csv(recorder.timeline,
                       os.path.join(timeline_dir, f"{tenant_id}.csv"))


def run_shard(spec: FleetSpec, shard: int, num_shards: int,
              checkpoint_dir: str | None = None,
              checkpoint_every: int = 0,
              resume: bool = False,
              stop_after_chunks: int | None = None,
              timeline_dir: str | None = None) -> dict:
    """Replay shard ``shard`` of ``num_shards``; returns the shard result.

    Returns ``{"shard", "completed": [volume report dicts in tenant
    order], "interrupted": bool, "chunks_replayed": int}``.  With
    ``resume=True`` the shard picks up from its checkpoint (fresh start
    when none exists); finished tenants are never replayed again.
    """
    kill_after = int(os.environ.get(KILL_ENV, "0") or "0")
    ckpt = None
    if checkpoint_dir is not None:
        ckpt = checkpoint_path(checkpoint_dir, shard, num_shards)
    fleet_key = spec.fleet_key()
    completed: dict[str, dict] = {}
    inflight: dict | None = None
    if resume and ckpt is not None:
        payload = load_shard_checkpoint(ckpt, fleet_key=fleet_key,
                                        shard=shard,
                                        num_shards=num_shards)
        if payload is not None:
            completed = payload["completed"]
            inflight = payload["inflight"]

    tenants = spec.shard_tenants(shard, num_shards)
    chunks_replayed = 0
    checkpointing = ckpt is not None and checkpoint_every > 0
    since_ckpt = 0

    def _write(current: dict | None) -> None:
        if ckpt is not None:
            write_shard_checkpoint(ckpt, fleet_key=fleet_key, shard=shard,
                                   num_shards=num_shards,
                                   completed=completed, inflight=current)

    def _result(interrupted: bool) -> dict:
        return {"shard": shard,
                "completed": [completed[t] for t in tenants
                              if t in completed],
                "interrupted": interrupted,
                "chunks_replayed": chunks_replayed}

    for tenant in tenants:
        if tenant in completed:
            continue
        stream = spec.volume_stream(tenant)
        if inflight is not None and inflight["tenant"] == tenant:
            store = inflight["store"]
            recorder = inflight["recorder"]
            start_chunk = inflight["next_chunk"]
            state = inflight["stream_state"]
        else:
            store, recorder = _fresh_store(spec, tenant)
            start_chunk, state = 0, stream.initial_state()
        inflight = None

        for index, chunk, state in stream.chunks(start_chunk, state):
            store.replay(chunk, finalize=False)
            chunks_replayed += 1
            since_ckpt += 1
            current = {"tenant": tenant, "next_chunk": index + 1,
                       "stream_state": state, "store": store,
                       "recorder": recorder}
            if checkpointing and since_ckpt >= checkpoint_every:
                _write(current)
                since_ckpt = 0
            if kill_after and chunks_replayed >= kill_after:
                _write(current)
                os._exit(42)
            if stop_after_chunks is not None \
                    and chunks_replayed >= stop_after_chunks:
                _write(current)
                return _result(True)

        store.finalize()
        completed[tenant] = volume_report(spec, tenant, store, recorder)
        _export_timeline(recorder, tenant, timeline_dir)
        if checkpointing:
            _write(None)
            since_ckpt = 0

    if ckpt is not None:
        _write(None)
    return _result(False)


__all__ = ["KILL_ENV", "run_shard"]
