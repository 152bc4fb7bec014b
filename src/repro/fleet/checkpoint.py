"""Per-shard fleet checkpoints: interruption-proof, integrity-checked.

A shard checkpoint captures everything a worker needs to resume exactly
where it stopped: the completed volumes' report dicts, plus — when a
volume is mid-replay — the live store object, its recorder, the stream
cursor (next chunk index) and the stream's carried generation state.
Checkpoints are single pickled payloads written atomically
(:func:`repro.obs.atomicio.atomic_write_bytes`), so a kill during the
write leaves the previous complete checkpoint in place, never a torn one.

Restored state is *not* trusted blindly: the store's derived tables
(LBA mapping, slot validity, valid counts) are rebuilt from the segment
pool's on-media metadata by the crash-recovery scan
(:func:`repro.lss.recovery.verify_recovery`) and cross-checked against
the unpickled tables — a checkpoint that fails the scan raises
:class:`~repro.common.errors.CheckpointError` instead of silently
resuming from corrupt state.  The fleet key (a content hash of the
:class:`~repro.fleet.spec.FleetSpec`) and the shard geometry are
validated the same way, so a checkpoint can never be replayed under a
different fleet definition.
"""

from __future__ import annotations

import os
import pickle

from repro.common.errors import CheckpointError
from repro.obs import profile as obs_profile
from repro.obs.atomicio import atomic_write_bytes

#: Bump on incompatible checkpoint layout changes.
#: v2: pickled stores carry the engine that ran; v1's engine mode flag
#: is gone.  v3: stores lost their flush-path flags, buffers their
#: recorder reference.  v4: the batched engine is gone — ``FleetSpec``
#: (so every ``fleet_key``) lost ``engine``, stores their two
#: engine-only attributes, demotion its probe cache.  v5: one replay
#: route — stores lost their recorder mode flag, recorders the two
#: attributes that picked the per-request route, and series/timeline
#: rows are no longer settle-granular, so an older run's booked rows
#: would not match.  v6: scalar views — pickled segment pools keep
#: ``fill`` as a list and count ``garbage_seals``, WARCIP's centroids are
#: a list, and pools and policies rebuild their ``*_mv`` views on load.
#: v7: one event seam — stores hold a ``StoreEvents`` instead of their
#: listener lists and auditor slot, the slot provenance planes moved from
#: the segment pool into the attribution recorder, and ADAPT's
#: aggregator and demotion lost their recorder reference.  v8: one
#: time series — recorders own their timeline and lost ``series`` and
#: their flush-shape flag, tracers their ratio sampling.  v9: slotted
#: replay state — every pickled object keeps its fields in ``__slots__``
#: (no instance ``__dict__``), tracers hold ``(seq, time_us, type,
#: values)`` records and only with a spill path, and lost ``dropped``.
CHECKPOINT_VERSION = 9


def checkpoint_path(checkpoint_dir: str, shard: int,
                    num_shards: int) -> str:
    return os.path.join(checkpoint_dir,
                        f"shard-{shard:04d}-of-{num_shards:04d}.ckpt")


def write_shard_checkpoint(path: str, *, fleet_key: str, shard: int,
                           num_shards: int, completed: dict,
                           inflight: dict | None) -> str:
    """Atomically persist one shard's progress.

    ``completed`` maps tenant id -> finished volume report dict;
    ``inflight`` is ``None`` or ``{"tenant", "next_chunk",
    "stream_state", "store", "recorder"}`` with the live store/recorder
    objects.  The store's profiler handle is detached around pickling
    (profilers are process-local and not part of replay state) and
    restored before returning, so the caller keeps replaying the same
    store object.
    """
    payload = {
        "version": CHECKPOINT_VERSION,
        "fleet_key": fleet_key,
        "shard": shard,
        "num_shards": num_shards,
        "completed": completed,
        "inflight": inflight,
    }
    store = inflight["store"] if inflight else None
    profiler = None
    if store is not None:
        profiler, store.profiler = store.profiler, None
    try:
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    finally:
        if store is not None:
            store.profiler = profiler
    with atomic_write_bytes(path) as f:
        f.write(blob)
    return path


def load_shard_checkpoint(path: str, *, fleet_key: str, shard: int,
                          num_shards: int) -> dict | None:
    """Load and validate a shard checkpoint; ``None`` when absent.

    Raises :class:`CheckpointError` on any mismatch or corruption —
    resuming from a wrong or damaged checkpoint must be loud, never a
    silently different fleet.
    """
    try:
        with open(path, "rb") as f:
            payload = pickle.load(f)
    except FileNotFoundError:
        return None
    except Exception as exc:  # torn file, wrong pickle, bad import
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") \
            from exc
    if not isinstance(payload, dict) \
            or payload.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: checkpoint version "
            f"{payload.get('version') if isinstance(payload, dict) else '?'}"
            f", expected {CHECKPOINT_VERSION}")
    if payload.get("fleet_key") != fleet_key:
        raise CheckpointError(
            f"{path}: checkpoint belongs to a different fleet "
            f"(key {payload.get('fleet_key')!r})")
    if (payload.get("shard"), payload.get("num_shards")) \
            != (shard, num_shards):
        raise CheckpointError(
            f"{path}: shard geometry {payload.get('shard')}/"
            f"{payload.get('num_shards')} does not match requested "
            f"{shard}/{num_shards} (resume with the same worker count)")
    inflight = payload.get("inflight")
    if inflight is not None:
        store = inflight["store"]
        store.profiler = obs_profile.current()
        from repro.lss.recovery import verify_recovery
        try:
            verify_recovery(store)
        except AssertionError as exc:
            raise CheckpointError(
                f"{path}: restored store failed the recovery-scan "
                f"cross-check: {exc}") from exc
    return payload


__all__ = ["CHECKPOINT_VERSION", "checkpoint_path",
           "load_shard_checkpoint", "write_shard_checkpoint"]
