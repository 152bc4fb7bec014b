"""Shard worker: replay one shard's volumes chunk-by-chunk.

``run_shard`` is the unit the orchestrator distributes across a process
pool (and calls inline for serial runs): it walks its round-robin share
of the fleet's tenants, streams each tenant's trace through a fresh
store one bounded chunk at a time (memory O(chunk), never O(trace)),
and — given a checkpoint directory — rewrites its checkpoint after every
finished volume, so a kill at any instant loses at most the volume in
flight, which a resume replays from its first chunk.

Interruption testing hooks: ``stop_after_chunks`` returns gracefully
after N chunk replays (unit tests), and the
``ADAPT_REPRO_FLEET_KILL_AFTER_CHUNKS`` environment variable hard-kills
the worker process with ``os._exit`` after N chunk replays — the CI
fleet-smoke job uses it to prove a real mid-flight kill resumes to a
byte-identical summary.  Both write the checkpoint before stopping.
"""

from __future__ import annotations

import os

from repro.fleet.checkpoint import (
    checkpoint_path,
    encode_report,
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
              resume: bool = False,
              stop_after_chunks: int | None = None,
              timeline_dir: str | None = None) -> dict:
    """Replay shard ``shard`` of ``num_shards``; returns the shard result.

    Returns ``{"shard", "completed": [volume report dicts in tenant
    order], "interrupted": bool, "chunks_replayed": int}``.  With
    ``resume=True`` the shard skips the tenants its checkpoint lists as
    finished (fresh start when there is none) and replays the rest from
    chunk 0.
    """
    kill_after = int(os.environ.get(KILL_ENV, "0") or "0")
    tenants = spec.shard_tenants(shard, num_shards)
    ckpt = None
    if checkpoint_dir is not None:
        ckpt = checkpoint_path(checkpoint_dir, shard, num_shards)
    fleet_key = spec.fleet_key()
    completed: dict[str, dict] = {}
    encoded: dict[str, str] = {}   # completed reports as checkpoint text

    def _finish(report: dict) -> None:
        completed[report["volume"]] = report
        if ckpt is not None:
            encoded[report["volume"]] = encode_report(report)

    if resume and ckpt is not None:
        for report in load_shard_checkpoint(
                ckpt, fleet_key=fleet_key, shard=shard,
                num_shards=num_shards, tenants=tenants) or ():
            _finish(report)
    chunks_replayed = 0

    def _checkpoint() -> None:
        if ckpt is not None:
            write_shard_checkpoint(
                ckpt, fleet_key=fleet_key, shard=shard,
                num_shards=num_shards,
                volumes=[encoded[t] for t in tenants if t in encoded])

    def _result(interrupted: bool) -> dict:
        return {"shard": shard,
                "completed": [completed[t] for t in tenants
                              if t in completed],
                "interrupted": interrupted,
                "chunks_replayed": chunks_replayed}

    for tenant in tenants:
        if tenant in completed:
            continue
        store, recorder = _fresh_store(spec, tenant)
        for chunk in spec.volume_stream(tenant).chunks():
            store.replay(chunk, finalize=False)
            chunks_replayed += 1
            if kill_after and chunks_replayed >= kill_after:
                _checkpoint()
                os._exit(42)
            if stop_after_chunks is not None \
                    and chunks_replayed >= stop_after_chunks:
                _checkpoint()
                return _result(True)
        store.finalize()
        _finish(volume_report(spec, tenant, store, recorder))
        _export_timeline(recorder, tenant, timeline_dir)
        _checkpoint()
    return _result(False)


__all__ = ["KILL_ENV", "run_shard"]
