"""Coalescing buffer: SLA windows, drains, per-kind pending counts.

Every flushing operation drains the open chunk and returns its per-kind
counts ``[user, gc, shadow]``; reasons, padding and accounting belong to
the owning group (tests/lss/test_group.py).
"""

import pytest

from repro.array.coalescing import (APPEND_GC, APPEND_SHADOW, APPEND_USER,
                                    CoalescingBuffer)
from repro.common.errors import ConfigError


def append(buf, now_us, kind=APPEND_USER):
    """Append one block; the drained counts if it filled the chunk."""
    flushes, drained = buf.append_run(kind, 1, now_us)
    assert flushes == (drained is not None)
    return drained


def test_full_flush_has_no_padding():
    buf = CoalescingBuffer(4, 100)
    flushes = [append(buf, now_us=i) for i in range(4)]
    assert flushes == [None, None, None, [3, 0, 0]]  # 3 pending + the 4th
    assert buf.pending_blocks == 0
    assert buf.deadline_us is None


def test_deadline_flush_pads_remainder():
    buf = CoalescingBuffer(4, 100)
    append(buf, now_us=0)
    assert buf.poll(now_us=99) is None
    assert buf.poll(now_us=100) == [1, 0, 0]   # the owner pads the other 3
    assert buf.pending_blocks == 0


def test_idle_mode_deadline_restarts_on_append():
    buf = CoalescingBuffer(4, 100)
    append(buf, now_us=0)
    append(buf, now_us=90)
    assert buf.deadline_us == 190
    assert buf.poll(now_us=150) is None
    assert buf.poll(now_us=190) is not None


def test_window_none_never_deadlines():
    buf = CoalescingBuffer(4, None)
    append(buf, now_us=0)
    assert buf.deadline_us is None
    assert buf.poll(now_us=10**9) is None


def test_force_flush():
    buf = CoalescingBuffer(4, 100)
    assert buf.force_flush() is None
    append(buf, 0, kind=APPEND_GC)
    assert buf.force_flush() == [0, 1, 0]
    assert buf.deadline_us is None


def test_take_pending_bypasses_accounting():
    buf = CoalescingBuffer(4, 100)
    append(buf, 0)
    append(buf, 1)
    assert buf.take_pending() == [2, 0, 0]
    assert buf.pending_blocks == 0
    assert buf.poll(10**9) is None  # nothing left to flush


def test_reset_timer_extends_deadline():
    buf = CoalescingBuffer(4, 100)
    append(buf, 0)
    buf.reset_timer(50)
    assert buf.deadline_us == 150


def test_reset_timer_on_empty_is_noop():
    buf = CoalescingBuffer(4, 100)
    buf.reset_timer(50)
    assert buf.deadline_us is None


def test_free_slots_tracks_pending():
    buf = CoalescingBuffer(4, 100)
    assert buf.free_slots == 4
    append(buf, 0)
    assert buf.free_slots == 3


def test_validation():
    with pytest.raises(ConfigError):
        CoalescingBuffer(0, 100)
    with pytest.raises(ConfigError):
        CoalescingBuffer(4, -1)


def test_no_tokens_lost_across_many_appends():
    buf = CoalescingBuffer(3, 50)
    seen = [0, 0, 0]
    for i in range(10):
        kind = i % 3
        drained = append(buf, now_us=i, kind=kind)
        if drained is not None:
            # The filling block is drained with the chunk's first two.
            assert sum(drained) == 2
            drained[kind] += 1
            seen = [a + b for a, b in zip(seen, drained)]
    seen = [a + b for a, b in zip(seen, buf.force_flush() or [0, 0, 0])]
    assert seen == [4, 3, 3]


def test_append_run_equals_single_appends():
    """A run leaves the counts and timer one-by-one appends leave, and
    reports how many chunks it filled and what was pending before it."""
    single = CoalescingBuffer(4, 100)
    run = CoalescingBuffer(4, 100)
    append(single, 0, kind=APPEND_GC)
    append(run, 0, kind=APPEND_GC)
    drained = [append(single, 7) for _ in range(10)]
    assert [d for d in drained if d is not None] == [[2, 1, 0],
                                                     [3, 0, 0]]
    assert run.append_run(APPEND_USER, 10, 7) == (2, [0, 1, 0])
    assert (run.pending, run.pending_blocks, run.deadline_us) \
        == (single.pending, single.pending_blocks, single.deadline_us)
    assert run.pending == [3, 0, 0]
