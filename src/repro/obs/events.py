"""Typed event tracing: per-type counts, and records spilled as JSONL.

Events are the time-resolved counterpart of the aggregate counters in
:class:`repro.lss.stats.StoreStats`: one record per interesting occurrence
(a chunk flush, a GC pass, a shadow append, ...) with the simulated
timestamp and the type's fields.

Every tracer counts its events per type.  A tracer with a ``spill_path``
also keeps each event as a plain ``(seq, time_us, type, values)`` tuple,
whose field names are the type's entry in :data:`EVENT_FIELDS`, and
appends every ``capacity`` of them to that file as JSON Lines, so
arbitrarily long runs trace completely with bounded memory.  An
:class:`Event` or a JSON dict is built only when records are read.  A
tracer without a sink keeps nothing but the counts.

A tracer is also the store observer that logs the store's chunk-flush
and GC-victim records and the policy's and the auditor's decisions; its
recorder subscribes it only when it has a sink, since without one those
counts are the store's, the policy's and the auditor's own.
"""

from __future__ import annotations

import json
from typing import Any, NamedTuple

from repro.common.errors import ConfigError
from repro.common.observer import StoreObserver

# Event types emitted by the instrumented simulator.
EV_USER_WRITE = "user_write"
EV_CHUNK_FLUSH = "chunk_flush"
EV_PADDING = "padding"
EV_SHADOW_APPEND = "shadow_append"
EV_LAZY_APPEND = "lazy_append"
EV_GC_PASS = "gc_pass"
EV_DEMOTION = "demotion"
EV_THRESHOLD_SWITCH = "threshold_switch"
EV_AUDIT_VIOLATION = "audit_violation"

#: Per event type, the names of the values :meth:`EventTracer.emit`
#: takes, in order (also their order in a JSON record).
EVENT_FIELDS: dict[str, tuple[str, ...]] = {
    EV_USER_WRITE: ("lba", "user_blocks"),
    EV_CHUNK_FLUSH: ("group", "name", "reason", "data_blocks",
                     "padding_blocks"),
    EV_PADDING: ("group", "name", "blocks", "reason"),
    EV_SHADOW_APPEND: ("hot_group", "cold_group", "blocks"),
    EV_LAZY_APPEND: ("group", "blocks"),
    EV_GC_PASS: ("victim", "group", "valid_blocks"),
    EV_DEMOTION: ("lba", "group", "score"),
    EV_THRESHOLD_SWITCH: ("threshold", "mode", "rounds"),
    EV_AUDIT_VIOLATION: ("invariant", "detail"),
}

EVENT_TYPES: tuple[str, ...] = tuple(EVENT_FIELDS)


class Event(NamedTuple):
    """One traced occurrence, as read back from a tracer."""

    seq: int
    time_us: int
    type: str
    fields: dict[str, Any]

    def to_json_dict(self) -> dict[str, Any]:
        """Flat dict for JSONL export (fields are inlined)."""
        out: dict[str, Any] = {"seq": self.seq, "t_us": self.time_us,
                               "type": self.type}
        out.update(self.fields)
        return out


class EventTracer(StoreObserver):
    """Per-type event counts, plus JSONL spill of every event when
    ``spill_path`` is set.

    Args:
        capacity: records held in memory before they are spilled.
        spill_path: optional JSONL file the records are appended to;
            without one the tracer only counts.
    """

    __slots__ = ("capacity", "spill_path", "_records", "spilled",
                 "_spill_started", "counts")

    def __init__(self, capacity: int = 65_536,
                 spill_path: str | None = None) -> None:
        if capacity < 1:
            raise ConfigError("event capacity must be >= 1")
        self.capacity = capacity
        self.spill_path = spill_path
        self._records: list[tuple[int, int, str, tuple]] = []
        self.spilled = 0
        self._spill_started = False
        self.counts: dict[str, int] = {}

    def emit(self, type_: str, time_us: int, *values: Any) -> None:
        """Record one event: ``values`` are the JSON-serialisable values
        of ``EVENT_FIELDS[type_]``, in that order."""
        self.counts[type_] = self.counts.get(type_, 0) + 1
        if self.spill_path is None:
            return
        records = self._records
        if len(records) >= self.capacity:
            self.spill()
        records.append((self.spilled + len(records), time_us, type_,
                        values))

    # -- records and decisions (subscribed only with a spill_path) ------
    def chunk_flush(self, group: Any, flush: Any) -> None:
        """One ``chunk_flush`` record per chunk, after the first a
        ``padding`` record if it padded and a ``lazy_append`` record if
        it carried a shadowed backlog."""
        gid = group.gid
        name = group.spec.name
        reason = flush.reason.value
        padding = flush.padding_blocks
        now_us = flush.time_us
        # Only FULL flushes come in runs (a GC migration run, at one
        # constant timestamp), so the chunks of a run are equally full.
        per_chunk = flush.data_blocks // flush.count
        emit = self.emit
        emit(EV_CHUNK_FLUSH, now_us, gid, name, reason, per_chunk, padding)
        if padding:
            emit(EV_PADDING, now_us, gid, name, padding, reason)
        if flush.lazy_blocks:
            emit(EV_LAZY_APPEND, now_us, gid, flush.lazy_blocks)
        for _ in range(flush.count - 1):
            emit(EV_CHUNK_FLUSH, now_us, gid, name, reason, per_chunk,
                 padding)

    def segment_reclaimed(self, seg: int, group_id: int, created_seq: int,
                          valid_blocks: int, now_us: int) -> None:
        """One ``gc_pass`` record per reclaimed victim."""
        self.emit(EV_GC_PASS, now_us, seg, group_id, valid_blocks)

    def shadow_appended(self, hot_gid: int, cold_gid: int, blocks: int,
                        now_us: int) -> None:
        self.emit(EV_SHADOW_APPEND, now_us, hot_gid, cold_gid, blocks)

    def demoted(self, lba: int, target_gid: int, score: int,
                now_us: int) -> None:
        self.emit(EV_DEMOTION, now_us, lba, target_gid, score)

    def threshold_switched(self, best_threshold: float, mode: str,
                           rounds: int, threshold: float,
                           now_us: int) -> None:
        self.emit(EV_THRESHOLD_SWITCH, now_us, best_threshold, mode, rounds)

    def audited(self, invariant: str | None, detail: str,
                now_us: int) -> None:
        """One ``audit_violation`` record per failed audit."""
        if invariant is not None:
            self.emit(EV_AUDIT_VIOLATION, now_us, invariant, detail)

    @property
    def events(self) -> tuple[Event, ...]:
        """The records not yet spilled, oldest first (none without a
        spill path)."""
        return tuple(Event(seq, t, type_, dict(zip(EVENT_FIELDS[type_],
                                                   values)))
                     for seq, t, type_, values in self._records)

    def spill(self) -> int:
        """Append every held record to ``spill_path`` and drop it; returns
        the number of events written.  The first spill of a tracer's
        lifetime truncates the file (a fresh run never appends to a
        previous run's log); later spills append.
        """
        if self.spill_path is None:
            raise ConfigError("tracer has no spill_path configured")
        events = self.events
        if not events:
            return 0
        mode = "a" if self._spill_started else "w"
        if not self._spill_started:
            from repro.obs.atomicio import ensure_parent
            ensure_parent(self.spill_path)
        self._spill_started = True
        with open(self.spill_path, mode, encoding="utf-8") as f:
            for ev in events:
                f.write(json.dumps(ev.to_json_dict(),
                                   separators=(",", ":")) + "\n")
        self._records.clear()
        self.spilled += len(events)
        return len(events)
