"""Span tracer that is installed from outside the program under test.

The benchmark wraps public callables of ``repro`` at class or module
level (:meth:`Tracer.install`), runs one pass under a root span, and
restores every original (:meth:`Tracer.uninstall`).  Spans nest on a
stack; a span's *self time* is its duration minus the durations of the
spans it directly caused, so the self times of all spans — the root's
included — add up to the root's duration with nothing counted twice.

Every span is kept in memory (name, start, duration, parent) in compact
arrays and can be written as Chrome trace-event JSON afterwards.  This
module imports nothing from ``repro``.
"""

from __future__ import annotations

import json
import time
from array import array

#: Spans shorter than this are left out of the Chrome-trace export: a
#: pass records millions of sub-10 µs leaf calls the viewer cannot draw.
CHROME_MIN_DUR_S = 50e-6


class Tracer:
    """Span stack, per-name aggregates and the installed patches."""

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        #: Per span name: outermost entries (a span whose direct parent
        #: has the same name — a batch hook falling back to its scalar
        #: twin — is the same layer working, not a second call into it).
        self.calls: list[int] = []
        self.self_s: list[float] = []
        #: Per span name: work units reported by ``count`` hooks.
        self.units: list[int] = []
        # One frame per open span: [child seconds, name id, record index].
        self._stack: list[list] = []
        self.rec_name = array("i")
        self.rec_start = array("d")
        self.rec_dur = array("d")
        self.rec_parent = array("i")
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # span bookkeeping
    # ------------------------------------------------------------------
    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.units.append(0)
        return nid

    def wrap(self, fn, name: str, count=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``count(args, kwargs, result)`` may return the number of work
        units the call handled (keys probed, bytes written); it runs
        after the span has closed, so its cost lands in the caller's
        self time and not in this layer's.
        """
        nid = self._id(name)
        stack = self._stack
        clock = self._clock
        calls, self_s, units = self.calls, self.self_s, self.units
        rec_name, rec_start = self.rec_name, self.rec_start
        rec_dur, rec_parent = self.rec_dur, self.rec_parent

        def wrapper(*args, **kwargs):
            if stack:
                top = stack[-1]
                parent = top[2]
                outer = top[1] != nid
            else:
                parent = -1
                outer = True
            idx = len(rec_name)
            rec_name.append(nid)
            rec_parent.append(parent)
            rec_dur.append(0.0)
            frame = [0.0, nid, idx]
            stack.append(frame)
            t0 = clock()
            rec_start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                rec_dur[idx] = dt
                self_s[nid] += dt - frame[0]
                if outer:
                    calls[nid] += 1
            if count is not None:
                units[nid] += count(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def install(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` (a class or a module) by its wrapped
        form.  The attribute must be defined on ``owner`` itself, so a
        subclass that inherits it keeps resolving to the same object as
        its base — the program's ``type(x).hook is Base.hook`` identity
        tests see what they saw before."""
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, count))

    def install_on_subclasses(self, base: type, attrs, name_for) -> None:
        """Wrap each of ``attrs`` on ``base`` and every subclass that
        defines it; ``name_for(attr)`` gives the span name."""
        seen: set[type] = set()
        todo = [base]
        while todo:
            cls = todo.pop()
            if cls in seen:
                continue
            seen.add(cls)
            todo.extend(cls.__subclasses__())
            for attr in attrs:
                if attr in vars(cls):
                    self.install(cls, attr, name_for(attr))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def installed(self) -> int:
        return len(self._patches)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def aggregates(self) -> dict[str, dict]:
        """``{span name: {"calls", "self_s", "units"}}``."""
        return {name: {"calls": self.calls[i], "self_s": self.self_s[i],
                       "units": self.units[i]}
                for i, name in enumerate(self.names)}

    def total_self_s(self) -> float:
        return sum(self.self_s)

    def write_chrome_trace(self, path: str, meta: dict) -> int:
        """Write spans of at least :data:`CHROME_MIN_DUR_S` as complete
        ("X") trace events; returns how many were written."""
        origin = self.rec_start[0] if self.rec_start else 0.0
        events = []
        for i, dur in enumerate(self.rec_dur):
            if dur < CHROME_MIN_DUR_S and self.rec_parent[i] >= 0:
                continue
            events.append({
                "name": self.names[self.rec_name[i]], "ph": "X",
                "pid": 1, "tid": 1,
                "ts": (self.rec_start[i] - origin) * 1e6,
                "dur": dur * 1e6,
                "args": {"span": i, "parent": self.rec_parent[i]}})
        with open(path, "w") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": dict(meta, spans=len(self.rec_dur),
                                         spans_written=len(events))}, f)
        return len(events)
