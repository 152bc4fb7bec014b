"""Causal attribution: the GC provenance ledger.

The phase profiler says *where* replay time goes; this module says
*which groups* the write amplification comes from.  The recorder owns
the slot provenance planes: it tags every appended data block with its
origin (user write vs GC migration) and birth epoch (``user_seq`` at
first write, preserved across migrations), and books every GC victim
(group, segment age, valid ratio, origin mix of the migrated blocks)
once, when it is reclaimed.
Rolled up with the per-group traffic breakdown this yields a per-group
WA ledger: user/GC/shadow/padding writes per group plus where GC'd
blocks were born.  Both sections describe the *simulated store state*,
so they are equal under the replay loop and its per-block specification
and merge deterministically serial-vs-sharded.

:class:`AttributionRecorder` is a store observer
(:mod:`repro.common.observer`); a store built without one holds
``attribution = None`` and allocates no provenance plane.  The module
imports nothing from the simulator layers it observes, keeping the
import graph acyclic.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from repro.common.observer import StoreObserver
from repro.obs.atomicio import atomic_write

#: Attribution snapshot schema version.  v2: the batched engine's
#: chunk-termination section is gone with the engine.
ATTRIBUTION_SCHEMA = 2

#: A group's ledger entry: its ``GroupTraffic`` block counts.
_LEDGER_FIELDS = ("user_blocks", "gc_blocks", "shadow_blocks",
                  "padding_blocks", "total_blocks")
#: A group's GC provenance record, in ``gc_groups`` list order.
_PROVENANCE_FIELDS = ("victims", "valid_blocks", "free_blocks",
                      "age_seq_sum", "migrated_user_origin",
                      "migrated_gc_origin")

#: Slot origins in :attr:`AttributionRecorder.slot_origin`.
ORIGIN_NONE: int = 0
ORIGIN_USER: int = 1
ORIGIN_GC: int = 2


class AttributionRecorder(StoreObserver):
    """Live attribution sink: the provenance planes plus plain-int
    aggregates, no per-event storage.

    The planes are flat, one entry per encoded location (``segment *
    segment_blocks + slot``).  The structured snapshot is built on
    demand from the aggregates plus the bound store's per-group traffic
    breakdown; a recorder on the same store reports it as counters
    (:func:`~repro.obs.metrics.store_metrics`).
    """

    __slots__ = ("_store", "slot_origin", "slot_epoch", "gc_groups",
                 "_victim_gc_origin")

    def __init__(self) -> None:
        self._store: Any = None
        #: Per location: who wrote the slot (``ORIGIN_*``) and its birth
        #: epoch; allocated by :meth:`bind`.
        self.slot_origin: np.ndarray | None = None
        self.slot_epoch: np.ndarray | None = None
        #: victim gid -> [victims, valid_blocks, free_blocks,
        #:               age_seq_sum, user_origin, gc_origin]
        self.gc_groups: dict[int, list[int]] = {}
        #: GC-origin blocks among the victim being cleaned (set by
        #: ``gc_blocks``, booked and cleared by ``segment_reclaimed``).
        self._victim_gc_origin = 0

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

    def gc_blocks(self, lbas, from_group: int, to_groups, old_locs,
                  new_locs) -> None:
        # old_locs are exactly the victim's valid slots.
        self._victim_gc_origin = int(np.count_nonzero(
            self.slot_origin[old_locs] == ORIGIN_GC))
        # Old slots live in the victim and new ones outside it, so the
        # gather and the scatter never alias.
        self.slot_origin[new_locs] = ORIGIN_GC
        self.slot_epoch[new_locs] = self.slot_epoch[old_locs]

    def segment_reclaimed(self, seg: int, group_id: int, created_seq: int,
                          valid_blocks: int, now_us: int) -> None:
        gc_origin = self._victim_gc_origin
        self._victim_gc_origin = 0
        user_origin = valid_blocks - gc_origin
        age_seq = self._store.user_seq - created_seq
        sb = self._store.pool.segment_blocks
        agg = self.gc_groups.get(group_id)
        if agg is None:
            agg = self.gc_groups[group_id] = [0, 0, 0, 0, 0, 0]
        agg[0] += 1
        agg[1] += valid_blocks
        agg[2] += sb - valid_blocks
        agg[3] += age_seq
        agg[4] += user_origin
        agg[5] += gc_origin
        self.slot_origin[seg * sb:(seg + 1) * sb] = ORIGIN_NONE
        self.slot_epoch[seg * sb:(seg + 1) * sb] = 0

    # -- export ---------------------------------------------------------
    def snapshot(self) -> dict:
        """Structured plain-dict summary (picklable, JSON-ready): the
        per-group ``ledger`` and the ``gc_provenance`` victim records,
        every field an integer."""
        store = self._store
        traffic = store.stats.groups if store is not None else []
        groups = {t.name: {"gid": gid, "kind": t.kind,
                           **{key: int(getattr(t, key))
                              for key in _LEDGER_FIELDS}}
                  for gid, t in enumerate(traffic)}
        names = {entry["gid"]: name for name, entry in groups.items()}
        provenance = {names.get(gid, f"gid{gid}"):
                      {"gid": gid, **dict(zip(_PROVENANCE_FIELDS,
                                              self.gc_groups[gid]))}
                      for gid in sorted(self.gc_groups)}
        requested = (int(store.stats.user_blocks_requested)
                     if store is not None else 0)
        return {
            "schema": ATTRIBUTION_SCHEMA,
            "ledger": {"groups": groups,
                       "totals": dict(_sums(groups, _LEDGER_FIELDS),
                                      user_blocks_requested=requested)},
            "gc_provenance": {"groups": provenance,
                              "totals": _sums(provenance,
                                              _PROVENANCE_FIELDS)},
        }


def _sums(entries: dict[str, dict], fields: tuple[str, ...]) -> dict:
    return {key: sum(e[key] for e in entries.values()) for key in fields}


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
    "ORIGIN_GC",
    "ORIGIN_NONE",
    "ORIGIN_USER",
    "AttributionRecorder",
    "merge_attribution_snapshots",
    "write_attribution_json",
]
