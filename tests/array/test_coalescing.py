"""Coalescing buffer: SLA windows, drains, token accounting.

Every flushing operation drains the open chunk and returns its tokens;
reasons, padding and accounting belong to the owning group
(tests/lss/test_group.py).
"""

import pytest

from repro.array.coalescing import CoalescingBuffer
from repro.common.errors import ConfigError


def test_full_flush_has_no_padding():
    buf = CoalescingBuffer(4, 100)
    flushes = [buf.append(i, now_us=i) for i in range(4)]
    assert flushes == [None, None, None, (0, 1, 2, 3)]  # a whole chunk
    assert buf.pending_blocks == 0
    assert buf.deadline_us is None


def test_deadline_flush_pads_remainder():
    buf = CoalescingBuffer(4, 100)
    buf.append("a", now_us=0)
    assert buf.poll(now_us=99) is None
    assert buf.poll(now_us=100) == ("a",)   # the owner pads the other 3
    assert buf.pending_blocks == 0


def test_idle_mode_deadline_restarts_on_append():
    buf = CoalescingBuffer(4, 100, sla_mode="idle")
    buf.append("a", now_us=0)
    buf.append("b", now_us=90)
    assert buf.deadline_us == 190
    assert buf.poll(now_us=150) is None
    assert buf.poll(now_us=190) is not None


def test_first_mode_deadline_fixed():
    buf = CoalescingBuffer(4, 100, sla_mode="first")
    buf.append("a", now_us=0)
    buf.append("b", now_us=90)
    assert buf.deadline_us == 100
    assert buf.poll(now_us=100) == ("a", "b")


def test_window_none_never_deadlines():
    buf = CoalescingBuffer(4, None)
    buf.append("a", now_us=0)
    assert buf.deadline_us is None
    assert buf.poll(now_us=10**9) is None


def test_force_flush():
    buf = CoalescingBuffer(4, 100)
    assert buf.force_flush() is None
    buf.append("a", 0)
    assert buf.force_flush() == ("a",)
    assert buf.deadline_us is None


def test_take_pending_bypasses_accounting():
    buf = CoalescingBuffer(4, 100)
    buf.append("a", 0)
    buf.append("b", 1)
    assert buf.take_pending() == ("a", "b")
    assert buf.pending_blocks == 0
    assert buf.poll(10**9) is None  # nothing left to flush


def test_reset_timer_extends_deadline():
    buf = CoalescingBuffer(4, 100)
    buf.append("a", 0)
    buf.reset_timer(50)
    assert buf.deadline_us == 150


def test_reset_timer_on_empty_is_noop():
    buf = CoalescingBuffer(4, 100)
    buf.reset_timer(50)
    assert buf.deadline_us is None


def test_free_slots_tracks_pending():
    buf = CoalescingBuffer(4, 100)
    assert buf.free_slots == 4
    buf.append("a", 0)
    assert buf.free_slots == 3


def test_validation():
    with pytest.raises(ConfigError):
        CoalescingBuffer(0, 100)
    with pytest.raises(ConfigError):
        CoalescingBuffer(4, -1)
    with pytest.raises(ConfigError):
        CoalescingBuffer(4, 100, sla_mode="weird")


def test_no_tokens_lost_across_many_appends():
    buf = CoalescingBuffer(3, 50)
    seen = []
    for i in range(10):
        seen.extend(buf.append(i, now_us=i) or ())
    seen.extend(buf.force_flush() or ())
    assert seen == list(range(10))
