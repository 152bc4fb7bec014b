"""Causal attribution: chunk-bound diagnostics + GC provenance ledger.

The phase profiler says *where* replay time goes; this module says *why*.
Two data sets are collected behind one recorder:

* **Chunk-bound diagnostics** — the batched replay engine reports, per
  chunk, which constraint terminated it (trace end, request/block caps,
  the GC-safe capacity bound, the deadline-fire reserve, or a
  scalar-burst fallback) plus chunk-width histograms.  These describe the *engine*,
  so they only exist under the batched engine and live in the snapshot's
  ``chunk_bounds`` section.
* **GC provenance ledger** — the store tags every appended data block
  with its origin (user write vs GC migration) and birth epoch
  (``user_seq`` at first write, preserved across migrations), and GC
  reports every victim eviction (group, segment age, valid ratio,
  origin mix of the migrated blocks).  Rolled up with the per-group
  traffic breakdown this yields a per-group WA ledger: user/GC/shadow/
  padding writes per group plus where GC'd blocks were born.  These
  describe the *simulated store state*, which is bit-identical across
  engines, so the ``ledger`` and ``gc_provenance`` sections — the
  :func:`invariant_view` — serialize byte-identically scalar-vs-batched
  and merge deterministically serial-vs-sharded.

Like :class:`~repro.obs.recorder.NullRecorder`, the default
:data:`NULL_ATTRIBUTION` makes every hook a no-op behind a cached
``enabled`` boolean, so disabled runs pay nothing.  The module imports
nothing from the simulator layers it observes (hooks receive plain
values), keeping the import graph acyclic.
"""

from __future__ import annotations

import json
import re
from typing import Any

from repro.obs.atomicio import atomic_write

#: Attribution snapshot schema version.
ATTRIBUTION_SCHEMA = 1

# -- chunk-termination causes (batched replay engine) -------------------
#: The request stream ended inside the chunk.
CAUSE_TRACE_END = "trace_end"
#: The engine's ``max_chunk_requests`` cap ended the chunk.
CAUSE_MAX_REQUESTS = "max_chunk_requests"
#: The engine's ``max_chunk_blocks`` cap ended the chunk.
CAUSE_MAX_BLOCKS = "max_chunk_blocks"
#: The GC-safe capacity bound ended the chunk: one more
#: request's blocks could not provably keep free segments above the low
#: watermark.
CAUSE_GC_CAPACITY = "gc_capacity"
#: The blocks alone would have fit, but the reserved worst-case
#: deadline-fire blocks (padding + shadow appends per fire site) did not.
CAUSE_DEADLINE_RESERVE = "deadline_reserve"
#: Not even one request was provably GC-free; a scalar burst ran instead.
CAUSE_SCALAR_FALLBACK = "scalar_fallback"

#: Every chunk-termination cause, in reporting order.
CHUNK_CAUSES: tuple[str, ...] = (
    CAUSE_TRACE_END, CAUSE_MAX_REQUESTS, CAUSE_MAX_BLOCKS,
    CAUSE_GC_CAPACITY, CAUSE_DEADLINE_RESERVE, CAUSE_SCALAR_FALLBACK,
)


def width_bucket(value: int) -> int:
    """Power-of-two ceiling bucket for chunk-width histograms (0 -> 0)."""
    if value <= 0:
        return 0
    return 1 << (value - 1).bit_length()


class NullAttribution:
    """No-op attribution sink; every hook exists and does nothing.

    Instrumented call sites guard on :attr:`enabled` (cached as
    ``store._attr_on`` / the engine's ``_attr_on``), so a disabled run
    pays one boolean check per guarded region.
    """

    enabled = False

    # -- lifecycle ------------------------------------------------------
    def bind_store(self, store: Any) -> None:
        """Called once by the store that owns this recorder."""

    def on_finalize(self, store: Any) -> None:
        """End of replay (after the store force-flushed every chunk)."""

    # -- engine hooks (batched replay only) -----------------------------
    def on_chunk(self, cause: str, requests: int, blocks: int) -> None:
        """One chunk of ``requests`` requests / ``blocks`` written blocks
        was applied; ``cause`` names the constraint that terminated it."""

    def on_scalar_burst(self, requests: int, blocks: int) -> None:
        """A scalar-burst fallback replayed ``requests`` requests."""

    # -- GC hooks (shared scalar/batched cleaning path) -----------------
    def on_gc_victim(self, group_id: int, age_seq: int, valid_blocks: int,
                     segment_blocks: int, user_origin: int,
                     gc_origin: int) -> None:
        """GC evicted one victim segment of ``group_id``: ``age_seq``
        user writes old, ``valid_blocks`` of ``segment_blocks`` still
        valid, of which ``user_origin`` were born as user writes and
        ``gc_origin`` had already been migrated at least once."""

    # -- export ---------------------------------------------------------
    def publish(self, registry: Any) -> None:
        """Mirror the aggregates into a metrics registry (no-op here)."""

    def snapshot(self) -> dict | None:
        """Picklable attribution summary (``None`` here)."""
        return None


#: Shared default sink: one immutable no-op instance for the process.
NULL_ATTRIBUTION = NullAttribution()


class AttributionRecorder(NullAttribution):
    """Live attribution sink: plain-int aggregates, no per-event storage.

    The hot-path hooks touch only dicts of Python ints; the structured
    snapshot (and the optional :meth:`publish` into a
    :class:`~repro.obs.metrics.MetricsRegistry`) is built on demand from
    those aggregates plus the bound store's per-group traffic breakdown.
    """

    enabled = True

    def __init__(self) -> None:
        self._store: Any = None
        #: cause -> [chunks, requests, blocks]
        self.chunk_causes: dict[str, list[int]] = {}
        #: power-of-two bucket -> chunk count (requests per chunk)
        self.chunk_requests_hist: dict[int, int] = {}
        #: power-of-two bucket -> chunk count (written blocks per chunk)
        self.chunk_blocks_hist: dict[int, int] = {}
        #: victim gid -> [victims, valid_blocks, free_blocks,
        #:               age_seq_sum, user_origin, gc_origin]
        self.gc_groups: dict[int, list[int]] = {}
        # Running totals for timeline columns.
        self.total_victims = 0
        self.total_migrated_user_origin = 0
        self.total_migrated_gc_origin = 0

    # -- lifecycle ------------------------------------------------------
    def bind_store(self, store: Any) -> None:
        self._store = store

    def on_finalize(self, store: Any) -> None:
        # Mirror the final aggregates into the run's metrics registry
        # when observability is live alongside attribution.
        registry = getattr(getattr(store, "obs", None), "registry", None)
        if registry is not None:
            self.publish(registry)

    # -- engine hooks ---------------------------------------------------
    def on_chunk(self, cause: str, requests: int, blocks: int) -> None:
        agg = self.chunk_causes.get(cause)
        if agg is None:
            self.chunk_causes[cause] = [1, requests, blocks]
        else:
            agg[0] += 1
            agg[1] += requests
            agg[2] += blocks
        rb = width_bucket(requests)
        self.chunk_requests_hist[rb] = \
            self.chunk_requests_hist.get(rb, 0) + 1
        bb = width_bucket(blocks)
        self.chunk_blocks_hist[bb] = self.chunk_blocks_hist.get(bb, 0) + 1

    def on_scalar_burst(self, requests: int, blocks: int) -> None:
        self.on_chunk(CAUSE_SCALAR_FALLBACK, requests, blocks)

    # -- GC hooks -------------------------------------------------------
    def on_gc_victim(self, group_id: int, age_seq: int, valid_blocks: int,
                     segment_blocks: int, user_origin: int,
                     gc_origin: int) -> None:
        agg = self.gc_groups.get(group_id)
        if agg is None:
            self.gc_groups[group_id] = [
                1, valid_blocks, segment_blocks - valid_blocks, age_seq,
                user_origin, gc_origin]
        else:
            agg[0] += 1
            agg[1] += valid_blocks
            agg[2] += segment_blocks - valid_blocks
            agg[3] += age_seq
            agg[4] += user_origin
            agg[5] += gc_origin
        self.total_victims += 1
        self.total_migrated_user_origin += user_origin
        self.total_migrated_gc_origin += gc_origin

    # -- export ---------------------------------------------------------
    def snapshot(self) -> dict:
        """Structured plain-dict summary (picklable, JSON-ready).

        ``ledger`` and ``gc_provenance`` are engine-invariant — every
        field an integer derived from state both engines produce
        bit-identically — while ``chunk_bounds`` describes the batched
        engine's chunk construction and is empty under the scalar
        engine (see :func:`invariant_view`).
        """
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
        causes = {
            cause: {"chunks": agg[0], "requests": agg[1],
                    "blocks": agg[2]}
            for cause, agg in sorted(self.chunk_causes.items())}
        chunk_bounds = {
            "causes": causes,
            "chunks": sum(a[0] for a in self.chunk_causes.values()),
            "chunk_requests_hist": {
                str(b): c for b, c
                in sorted(self.chunk_requests_hist.items())},
            "chunk_blocks_hist": {
                str(b): c for b, c
                in sorted(self.chunk_blocks_hist.items())},
        }
        return {
            "schema": ATTRIBUTION_SCHEMA,
            "ledger": ledger,
            "gc_provenance": gc_provenance,
            "chunk_bounds": chunk_bounds,
        }

    def publish(self, registry: Any) -> None:
        """Mirror the aggregates as counters in ``registry``.

        Values are *set*, not incremented, so repeated publishes (one
        per finalize) stay idempotent.
        """
        snap = self.snapshot()
        for cause, cell in snap["chunk_bounds"]["causes"].items():
            registry.counter(
                f"attr_chunks_{_metric_name(cause)}_total",
                "chunks terminated by this bound").value = cell["chunks"]
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
    """Sanitize a group/cause name into a Prometheus-safe suffix."""
    return re.sub(r"[^a-zA-Z0-9_]", "_", text)


def invariant_view(snapshot: dict) -> dict:
    """The engine-invariant part of an attribution snapshot.

    Drops ``chunk_bounds`` (batched-engine diagnostics that cannot exist
    under the scalar loop); what remains is guaranteed byte-identical —
    ``json.dumps(invariant_view(s), sort_keys=True)`` — across replay
    engines, and merges deterministically across fleet shards.
    """
    return {key: value for key, value in snapshot.items()
            if key != "chunk_bounds"}


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
    cause_maps: dict[str, list[dict]] = {}
    for s in live:
        for cause, cell in s["chunk_bounds"]["causes"].items():
            cause_maps.setdefault(cause, []).append(cell)
    causes = {cause: merge_int_maps(cells)
              for cause, cells in sorted(cause_maps.items())}
    chunk_bounds = {
        "causes": causes,
        "chunks": sum(s["chunk_bounds"]["chunks"] for s in live),
        "chunk_requests_hist": merge_int_maps(
            [s["chunk_bounds"]["chunk_requests_hist"] for s in live]),
        "chunk_blocks_hist": merge_int_maps(
            [s["chunk_bounds"]["chunk_blocks_hist"] for s in live]),
    }
    return {
        "schema": ATTRIBUTION_SCHEMA,
        "volumes": len(live),
        "ledger": ledger,
        "gc_provenance": prov,
        "chunk_bounds": chunk_bounds,
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
    "CAUSE_DEADLINE_RESERVE",
    "CAUSE_GC_CAPACITY",
    "CAUSE_MAX_BLOCKS",
    "CAUSE_MAX_REQUESTS",
    "CAUSE_SCALAR_FALLBACK",
    "CAUSE_TRACE_END",
    "CHUNK_CAUSES",
    "NULL_ATTRIBUTION",
    "AttributionRecorder",
    "NullAttribution",
    "invariant_view",
    "merge_attribution_snapshots",
    "width_bucket",
    "write_attribution_json",
]
