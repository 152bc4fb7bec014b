"""Typed event tracing with a bounded in-memory buffer and JSONL spill.

Events are the time-resolved counterpart of the aggregate counters in
:class:`repro.lss.stats.StoreStats`: one record per interesting occurrence
(a chunk flush, a GC pass, a shadow append, ...) with the simulated
timestamp and a small dict of type-specific fields.

The tracer keeps the most recent ``capacity`` events in memory.  When a
``spill_path`` is configured, a full buffer is appended to that file as
JSON Lines and cleared, so arbitrarily long runs trace completely with
bounded memory; without a spill path the tracer behaves as a ring buffer
and counts what it dropped (``dropped``) instead of silently lying.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Iterator, NamedTuple

from repro.common.errors import ConfigError

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

EVENT_TYPES: tuple[str, ...] = (
    EV_USER_WRITE, EV_CHUNK_FLUSH, EV_PADDING, EV_SHADOW_APPEND,
    EV_LAZY_APPEND, EV_GC_PASS, EV_DEMOTION, EV_THRESHOLD_SWITCH,
    EV_AUDIT_VIOLATION,
)


class Event(NamedTuple):
    """One traced occurrence.

    A NamedTuple rather than a dataclass: events are constructed on the
    instrumented hot path, and tuple construction is several times
    cheaper than a frozen dataclass ``__init__``.
    """

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


class EventTracer:
    """Bounded event buffer with optional JSONL spill-to-disk.

    Args:
        capacity: in-memory buffer size before spilling/dropping.
        spill_path: optional JSONL file full buffers are appended to.
    """

    def __init__(self, capacity: int = 65_536,
                 spill_path: str | None = None) -> None:
        if capacity < 1:
            raise ConfigError("event capacity must be >= 1")
        self.capacity = capacity
        self.spill_path = spill_path
        self._buf: deque[Event] = deque()
        self._seq = 0
        self.dropped = 0
        self.spilled = 0
        self._spill_started = False
        self.counts: dict[str, int] = {}

    def emit(self, type_: str, time_us: int, **fields: Any) -> None:
        """Record one event (fields must be JSON-serialisable)."""
        self.counts[type_] = self.counts.get(type_, 0) + 1
        if len(self._buf) >= self.capacity:
            if self.spill_path is not None:
                self.spill()
            else:
                self._buf.popleft()
                self.dropped += 1
        self._buf.append(Event(self._seq, time_us, type_, fields))
        self._seq += 1

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    @property
    def events(self) -> tuple[Event, ...]:
        """Events currently held in memory (oldest first)."""
        return tuple(self._buf)

    def __len__(self) -> int:
        return len(self._buf)

    def iter_type(self, type_: str) -> Iterator[Event]:
        return (e for e in self._buf if e.type == type_)

    # ------------------------------------------------------------------
    # spill
    # ------------------------------------------------------------------
    def spill(self) -> int:
        """Flush every buffered event to ``spill_path`` and clear the
        buffer; returns the number of events written.  The first spill of
        a tracer's lifetime truncates the file (a fresh run never appends
        to a previous run's log); later spills append.
        """
        if self.spill_path is None:
            raise ConfigError("tracer has no spill_path configured")
        n = len(self._buf)
        if n == 0:
            return 0
        mode = "a" if self._spill_started else "w"
        if not self._spill_started:
            from repro.obs.atomicio import ensure_parent
            ensure_parent(self.spill_path)
        self._spill_started = True
        with open(self.spill_path, mode, encoding="utf-8") as f:
            for ev in self._buf:
                f.write(json.dumps(ev.to_json_dict(),
                                   separators=(",", ":")) + "\n")
        self._buf.clear()
        self.spilled += n
        return n
