"""Phase profiler: wall-clock spans over the simulator's hot phases.

The replay loop, GC, finalize, and the experiment runner wrap their
phases in ``profiler.span("name")`` context managers.  The default
:data:`NULL_PROFILER` makes a span one attribute read plus a no-op
context manager, so uninstrumented runs pay effectively nothing; an
active :class:`PhaseProfiler` records ``time.perf_counter_ns`` spans
into per-name aggregates plus a bounded raw-event list.

Two export surfaces:

* :meth:`PhaseProfiler.chrome_trace` — Chrome ``trace_event`` JSON
  (complete "X" events), loadable by ``chrome://tracing``, Perfetto and
  speedscope;
* :meth:`PhaseProfiler.top_table` — a plain-text top-N table for CLI
  output and CI logs.

The active profiler is process-global (:func:`current` /
:func:`set_current`): stores capture it at construction, so CLI commands
install one around a whole run without threading it through every
constructor.  Spans may nest (a GC span inside an apply span), so
per-name totals can sum past wall-clock time; the table reports each
name's share of the profiler's own lifetime for orientation, not as a
partition.
"""

from __future__ import annotations

import json
import time
from typing import Any

from repro.obs.atomicio import atomic_write

#: Phases :meth:`PhaseProfiler.top_table` lists.
TOP_TABLE_ROWS = 15


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullProfiler:
    """No-op profiler: every span is the shared inert context manager."""

    __slots__ = ()

    enabled = False

    def span(self, name: str, **args: Any) -> _NullSpan:
        return _NULL_SPAN


#: Shared default profiler (one immutable no-op instance per process).
NULL_PROFILER = NullProfiler()


class _Span:
    __slots__ = ("_profiler", "name", "args", "_start_ns")

    def __init__(self, profiler: "PhaseProfiler", name: str,
                 args: dict[str, Any]) -> None:
        self._profiler = profiler
        self.name = name
        self.args = args
        self._start_ns = 0

    def __enter__(self) -> "_Span":
        self._start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, *exc: Any) -> bool:
        end = time.perf_counter_ns()
        self._profiler._record(self.name, self._start_ns,
                               end - self._start_ns, self.args)
        return False


class PhaseProfiler:
    """Recording profiler: per-name aggregates + bounded raw span list.

    Args:
        max_events: raw spans kept for the Chrome trace; beyond it spans
            still aggregate (count/total per name) but their individual
            records are dropped and counted in :attr:`dropped_events`.
    """

    enabled = True

    def __init__(self, max_events: int = 200_000) -> None:
        if max_events < 0:
            raise ValueError("max_events must be >= 0")
        self.max_events = max_events
        self._t0_ns = time.perf_counter_ns()
        #: Raw spans: (name, start_ns relative to profiler birth, dur_ns,
        #: args) in completion order.
        self.events: list[tuple[str, int, int, dict[str, Any]]] = []
        self.dropped_events = 0
        #: name -> [count, total_ns]
        self.totals: dict[str, list[int]] = {}

    def span(self, name: str, **args: Any) -> _Span:
        """Open a named span; use as a context manager."""
        return _Span(self, name, args)

    def _record(self, name: str, start_ns: int, dur_ns: int,
                args: dict[str, Any]) -> None:
        agg = self.totals.get(name)
        if agg is None:
            self.totals[name] = [1, dur_ns]
        else:
            agg[0] += 1
            agg[1] += dur_ns
        if len(self.events) < self.max_events:
            self.events.append((name, start_ns - self._t0_ns, dur_ns, args))
        else:
            self.dropped_events += 1

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def elapsed_ns(self) -> int:
        return time.perf_counter_ns() - self._t0_ns

    def chrome_trace(self) -> dict:
        """Chrome ``trace_event`` JSON object (complete "X" events)."""
        trace_events: list[dict] = [{
            "name": "process_name", "ph": "M", "pid": 0, "tid": 0,
            "args": {"name": "adapt-repro"},
        }]
        for name, start_ns, dur_ns, args in self.events:
            ev: dict = {"name": name, "ph": "X", "cat": "phase",
                        "pid": 0, "tid": 0,
                        "ts": start_ns / 1000.0, "dur": dur_ns / 1000.0}
            if args:
                ev["args"] = args
            trace_events.append(ev)
        return {"traceEvents": trace_events,
                "displayTimeUnit": "ms",
                "otherData": {
                    "profile_events_dropped": self.dropped_events,
                    "max_events": self.max_events,
                }}

    def write_chrome_trace(self, path: str) -> str:
        """Atomically write :meth:`chrome_trace` to ``path``; returns it."""
        with atomic_write(path) as f:
            json.dump(self.chrome_trace(), f, separators=(",", ":"))
            f.write("\n")
        return path

    def top_table(self) -> str:
        """The top :data:`TOP_TABLE_ROWS` phases by total time as a
        plain-text table."""
        wall_ns = max(self.elapsed_ns(), 1)
        ranked = sorted(self.totals.items(),
                        key=lambda kv: -kv[1][1])[:TOP_TABLE_ROWS]
        header = (f"{'phase':<32} {'count':>8} {'total ms':>10} "
                  f"{'mean us':>10} {'% wall':>7}")
        lines = [header, "-" * len(header)]
        for name, (count, total_ns) in ranked:
            lines.append(
                f"{name[:32]:<32} {count:>8} {total_ns / 1e6:>10.2f} "
                f"{total_ns / count / 1e3:>10.1f} "
                f"{100.0 * total_ns / wall_ns:>6.1f}%")
        if not ranked:
            lines.append("(no spans recorded)")
        if self.dropped_events:
            lines.append(f"(profile_events_dropped="
                         f"{self.dropped_events}: "
                         f"{self.dropped_events} raw spans dropped "
                         f"beyond max_events={self.max_events}; "
                         f"aggregates above remain complete)")
        return "\n".join(lines)


_current: NullProfiler | PhaseProfiler = NULL_PROFILER


def current() -> NullProfiler | PhaseProfiler:
    """The process-global active profiler (the null one by default)."""
    return _current


def set_current(profiler: NullProfiler | PhaseProfiler | None):
    """Install (or, with ``None``, reset) the global profiler; returns it."""
    global _current
    _current = NULL_PROFILER if profiler is None else profiler
    return _current


__all__ = ["NULL_PROFILER", "NullProfiler", "PhaseProfiler", "current",
           "set_current"]
