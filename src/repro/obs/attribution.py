"""Causal attribution: the GC provenance ledger.

The phase profiler says *where* replay time goes; this module says
*which groups* the write amplification comes from.  The recorder owns
the slot provenance planes: it tags every appended data block with its
origin (user write vs GC migration) and birth epoch (``user_seq`` at
first write, preserved across migrations), and books every GC victim
(group, segment age, valid ratio, origin mix of the migrated blocks).
Rolled up with the per-group traffic breakdown this yields a per-group
WA ledger: user/GC/shadow/padding writes per group plus where GC'd
blocks were born.  Both sections describe the *simulated store state*,
so they are equal under the replay loop and its per-block specification
and merge deterministically serial-vs-sharded.

Both classes are store observers (:mod:`repro.common.observer`): the
default :data:`NULL_ATTRIBUTION` overrides no event, so a store without
attribution never calls it and allocates no provenance plane.  The
module imports nothing from the simulator layers it observes, keeping
the import graph acyclic.
"""

from __future__ import annotations

import json
import re
from typing import Any

import numpy as np

from repro.common.observer import StoreObserver
from repro.obs.atomicio import atomic_write

#: Attribution snapshot schema version.  v2: the batched engine's
#: chunk-termination section is gone with the engine.
ATTRIBUTION_SCHEMA = 2

#: Slot origins in :attr:`AttributionRecorder.slot_origin`.
ORIGIN_NONE: int = 0
ORIGIN_USER: int = 1
ORIGIN_GC: int = 2


class NullAttribution(StoreObserver):
    """No-op attribution sink: subscribes to no store event."""

    __slots__ = ()

    enabled = False

    def publish(self, registry: Any) -> None:
        """Mirror the aggregates into a metrics registry (no-op here)."""

    def snapshot(self) -> dict | None:
        """Picklable attribution summary (``None`` here)."""
        return None


#: Shared default sink: one immutable no-op instance for the process.
NULL_ATTRIBUTION = NullAttribution()


class AttributionRecorder(NullAttribution):
    """Live attribution sink: the provenance planes plus plain-int
    aggregates, no per-event storage.

    The planes are flat — one entry per encoded location (``segment *
    segment_blocks + slot``) — so they pickle as they are.  The
    structured snapshot (and the optional :meth:`publish` into a
    :class:`~repro.obs.metrics.MetricsRegistry`) is built on demand from
    the aggregates plus the bound store's per-group traffic breakdown.
    """

    __slots__ = ("_store", "slot_origin", "slot_epoch", "gc_groups",
                 "total_victims", "total_migrated_user_origin",
                 "total_migrated_gc_origin")

    enabled = True

    def __init__(self) -> None:
        self._store: Any = None
        #: Per location: who wrote the slot (``ORIGIN_*``) and its birth
        #: epoch; allocated by :meth:`bind`.
        self.slot_origin: np.ndarray | None = None
        self.slot_epoch: np.ndarray | None = None
        #: victim gid -> [victims, valid_blocks, free_blocks,
        #:               age_seq_sum, user_origin, gc_origin]
        self.gc_groups: dict[int, list[int]] = {}
        # Running totals for timeline columns.
        self.total_victims = 0
        self.total_migrated_user_origin = 0
        self.total_migrated_gc_origin = 0

    # -- store events ---------------------------------------------------
    def bind(self, store: Any) -> None:
        self._store = store
        slots = store.pool.num_segments * store.pool.segment_blocks
        self.slot_origin = np.full(slots, ORIGIN_NONE, dtype=np.uint8)
        self.slot_epoch = np.zeros(slots, dtype=np.int64)

    def user_writes(self, lbas, locs, start_seq: int, now_us: int) -> None:
        # Birth epoch = each block's pre-increment user_seq.
        self.slot_origin[locs] = ORIGIN_USER
        self.slot_epoch[locs] = np.arange(start_seq, start_seq + len(locs),
                                          dtype=np.int64)

    def gc_victim(self, seg: int, group_id: int, created_seq: int,
                  valid_blocks: int, now_us: int) -> None:
        pool = self._store.pool
        sb = pool.segment_blocks
        origin = self.slot_origin[seg * sb:(seg + 1) * sb]
        gc_origin = int(np.count_nonzero(
            origin[pool.slot_valid[seg]] == ORIGIN_GC))
        user_origin = valid_blocks - gc_origin
        age_seq = self._store.user_seq - created_seq
        agg = self.gc_groups.get(group_id)
        if agg is None:
            agg = self.gc_groups[group_id] = [0, 0, 0, 0, 0, 0]
        agg[0] += 1
        agg[1] += valid_blocks
        agg[2] += sb - valid_blocks
        agg[3] += age_seq
        agg[4] += user_origin
        agg[5] += gc_origin
        self.total_victims += 1
        self.total_migrated_user_origin += user_origin
        self.total_migrated_gc_origin += gc_origin

    def gc_blocks(self, lbas, from_group: int, to_groups, old_locs,
                  new_locs) -> None:
        # Old slots live in the victim and new ones outside it, so the
        # gather and the scatter never alias.
        self.slot_origin[new_locs] = ORIGIN_GC
        self.slot_epoch[new_locs] = self.slot_epoch[old_locs]

    def segment_reclaimed(self, seg: int, group_id: int, created_seq: int,
                          valid_blocks: int, now_us: int) -> None:
        sb = self._store.pool.segment_blocks
        self.slot_origin[seg * sb:(seg + 1) * sb] = ORIGIN_NONE
        self.slot_epoch[seg * sb:(seg + 1) * sb] = 0

    def finalize(self) -> None:
        # Mirror the final aggregates into the run's metrics registry
        # when observability is live alongside attribution.
        registry = getattr(self._store.obs, "registry", None)
        if registry is not None:
            self.publish(registry)

    # -- export ---------------------------------------------------------
    def snapshot(self) -> dict:
        """Structured plain-dict summary (picklable, JSON-ready): the
        per-group ``ledger`` and the ``gc_provenance`` victim records,
        every field an integer."""
        store = self._store
        groups: dict[str, dict] = {}
        totals = {"user_blocks": 0, "gc_blocks": 0, "shadow_blocks": 0,
                  "padding_blocks": 0, "total_blocks": 0}
        if store is not None:
            for gid, t in enumerate(store.stats.groups):
                entry = {
                    "gid": gid,
                    "kind": t.kind,
                    "user_blocks": int(t.user_blocks),
                    "gc_blocks": int(t.gc_blocks),
                    "shadow_blocks": int(t.shadow_blocks),
                    "padding_blocks": int(t.padding_blocks),
                    "total_blocks": int(t.total_blocks),
                }
                groups[t.name] = entry
                for key in totals:
                    totals[key] += entry[key]
        ledger = {
            "groups": groups,
            "totals": dict(totals, user_blocks_requested=(
                int(store.stats.user_blocks_requested)
                if store is not None else 0)),
        }
        gid_names = {e["gid"]: name for name, e in groups.items()}
        prov_groups: dict[str, dict] = {}
        ptot = [0, 0, 0, 0, 0, 0]
        for gid in sorted(self.gc_groups):
            agg = self.gc_groups[gid]
            name = gid_names.get(gid, f"gid{gid}")
            prov_groups[name] = {
                "gid": gid,
                "victims": agg[0],
                "valid_blocks": agg[1],
                "free_blocks": agg[2],
                "age_seq_sum": agg[3],
                "migrated_user_origin": agg[4],
                "migrated_gc_origin": agg[5],
            }
            for idx in range(6):
                ptot[idx] += agg[idx]
        gc_provenance = {
            "groups": prov_groups,
            "totals": {
                "victims": ptot[0], "valid_blocks": ptot[1],
                "free_blocks": ptot[2], "age_seq_sum": ptot[3],
                "migrated_user_origin": ptot[4],
                "migrated_gc_origin": ptot[5],
            },
        }
        return {
            "schema": ATTRIBUTION_SCHEMA,
            "ledger": ledger,
            "gc_provenance": gc_provenance,
        }

    def publish(self, registry: Any) -> None:
        """Mirror the aggregates as counters in ``registry``.

        Values are *set*, not incremented, so repeated publishes (one
        per finalize) stay idempotent.
        """
        snap = self.snapshot()
        for name, entry in snap["ledger"]["groups"].items():
            g = _metric_name(name)
            for key in ("user_blocks", "gc_blocks", "shadow_blocks",
                        "padding_blocks"):
                registry.counter(
                    f"attr_group_{key}_total_{g}",
                    f"per-group WA ledger: {key}").value = entry[key]
        for name, entry in snap["gc_provenance"]["groups"].items():
            g = _metric_name(name)
            registry.counter(
                f"attr_gc_victims_total_{g}",
                "GC victim segments evicted from this group"
            ).value = entry["victims"]
            registry.counter(
                f"attr_gc_remigrated_blocks_total_{g}",
                "migrated blocks that had already been migrated before"
            ).value = entry["migrated_gc_origin"]


def _metric_name(text: str) -> str:
    """Sanitize a group name into a Prometheus-safe suffix."""
    return re.sub(r"[^a-zA-Z0-9_]", "_", text)


def merge_attribution_snapshots(snapshots: list[dict]) -> dict | None:
    """Deterministically merge attribution snapshots (fleet roll-up).

    Integer fields sum; group maps union (keyed by group name).  The
    result of merging per-volume snapshots from a sharded run is
    byte-identical to the serial run's merge — inputs are per-volume
    and the merge is order-independent given the summary's sorted
    volume order.  Returns ``None`` when no snapshot is present.
    """
    live = [s for s in snapshots if s]
    if not live:
        return None

    def merge_int_maps(dicts: list[dict]) -> dict:
        out: dict = {}
        for d in dicts:
            for key, value in d.items():
                out[key] = out.get(key, 0) + value
        return {key: out[key] for key in sorted(out)}

    def merge_group_maps(dicts: list[dict]) -> dict:
        out: dict[str, dict] = {}
        for d in dicts:
            for name, entry in d.items():
                cur = out.get(name)
                if cur is None:
                    out[name] = dict(entry)
                else:
                    for key, value in entry.items():
                        if key in ("gid", "kind"):
                            continue
                        cur[key] = cur.get(key, 0) + value
        return {name: out[name] for name in sorted(out)}

    ledger = {
        "groups": merge_group_maps([s["ledger"]["groups"] for s in live]),
        "totals": merge_int_maps([s["ledger"]["totals"] for s in live]),
    }
    prov = {
        "groups": merge_group_maps(
            [s["gc_provenance"]["groups"] for s in live]),
        "totals": merge_int_maps(
            [s["gc_provenance"]["totals"] for s in live]),
    }
    return {
        "schema": ATTRIBUTION_SCHEMA,
        "volumes": len(live),
        "ledger": ledger,
        "gc_provenance": prov,
    }


def write_attribution_json(snapshot: dict, path: str) -> str:
    """Atomically write a snapshot as canonical JSON (sorted keys, fixed
    separators — byte-stable given equal content); returns ``path``."""
    with atomic_write(path) as f:
        json.dump(snapshot, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


__all__ = [
    "ATTRIBUTION_SCHEMA",
    "NULL_ATTRIBUTION",
    "ORIGIN_GC",
    "ORIGIN_NONE",
    "ORIGIN_USER",
    "AttributionRecorder",
    "NullAttribution",
    "merge_attribution_snapshots",
    "write_attribution_json",
]
