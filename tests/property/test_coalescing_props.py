"""Property suite for the chunk-coalescing buffer's SLA semantics.

For any interleaving of appends, time advances, polls and forced flushes:

* pending blocks never reach chunk capacity (a full chunk flushes inline);
* ``FULL`` flushes (drains by ``append_run``) carry exactly one chunk of
  data: the drained blocks plus the one that filled it;
* ``DEADLINE`` / ``FORCED`` flushes (drains by ``poll`` / ``force_flush``)
  leave room for the owner's padding and carry at least one data block
  (an empty chunk is never flushed);
* after any poll, no pending chunk's deadline lies in the past — the SLA
  deadline never passes without an emission;
* blocks are conserved per kind: appended == flushed + pending.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.array.coalescing import (APPEND_SHADOW, APPEND_USER,
                                    CoalescingBuffer, FlushReason)

pytestmark = pytest.mark.property

CHUNK_BLOCKS = 4
WINDOW_US = 100

# An op is ("append", kind) or ("advance", dt) or ("force",); time is
# monotone.
ops_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.integers(0, 2)),
        st.tuples(st.just("advance"), st.integers(1, 300)),
        st.just(("force",)),
    ),
    min_size=1, max_size=60,
)


def drive(buffer: CoalescingBuffer, ops):
    """Run the op sequence; poll after every time advance (the store's tick
    does the same).  Returns (flushes, appended, final_now), a flush being
    the ``(reason, per-kind counts)`` pair the owning group would book
    and ``appended`` the per-kind blocks appended."""
    flushes, appended, now = [], [0, 0, 0], 0
    for op in ops:
        if op[0] == "append":
            kind = op[1]
            appended[kind] += 1
            reason = FlushReason.FULL
            nf, drained = buffer.append_run(kind, 1, now)
            assert nf == (drained is not None)
            if drained is not None:
                drained[kind] += 1  # the block that filled the chunk
        elif op[0] == "advance":
            now += op[1]
            reason, drained = FlushReason.DEADLINE, buffer.poll(now)
        else:
            reason, drained = FlushReason.FORCED, buffer.force_flush()
        if drained is not None:
            flushes.append((reason, drained))
    return flushes, appended, now


@given(ops=ops_strategy)
@settings(max_examples=300, deadline=None)
def test_flush_shapes_and_conservation(ops):
    buffer = CoalescingBuffer(CHUNK_BLOCKS, WINDOW_US)
    flushes, appended, now = drive(buffer, ops)

    assert buffer.pending_blocks < CHUNK_BLOCKS
    assert sum(buffer.pending) == buffer.pending_blocks
    for reason, drained in flushes:
        if reason is FlushReason.FULL:
            assert sum(drained) == CHUNK_BLOCKS
        else:
            assert 1 <= sum(drained) < CHUNK_BLOCKS
    for kind in range(3):
        flushed = sum(drained[kind] for _, drained in flushes)
        assert flushed + buffer.pending[kind] == appended[kind]


@given(ops=ops_strategy)
@settings(max_examples=300, deadline=None)
def test_no_deadline_survives_a_poll(ops):
    buffer = CoalescingBuffer(CHUNK_BLOCKS, WINDOW_US)
    _, _, now = drive(buffer, ops)
    buffer.poll(now)
    deadline = buffer.deadline_us
    if buffer.pending_blocks:
        assert deadline is None or deadline > now
    else:
        assert deadline is None


@given(pending=st.integers(1, CHUNK_BLOCKS - 1))
@settings(max_examples=50, deadline=None)
def test_poll_at_deadline_always_emits(pending):
    buffer = CoalescingBuffer(CHUNK_BLOCKS, WINDOW_US)
    for i in range(pending):
        kind = APPEND_SHADOW if i % 2 else APPEND_USER
        assert buffer.append_run(kind, 1, 0) == (0, None)
    assert buffer.poll(WINDOW_US - 1) is None       # window still open
    drained = buffer.poll(WINDOW_US)                # exactly at deadline
    assert drained == [(pending + 1) // 2, 0, pending // 2]


@given(ops=ops_strategy)
@settings(max_examples=200, deadline=None)
def test_windowless_buffer_never_pads_on_time(ops):
    """GC-facing buffers (window None) only flush FULL or FORCED."""
    buffer = CoalescingBuffer(CHUNK_BLOCKS, None)
    flushes, _, _ = drive(buffer, ops)
    assert all(reason is not FlushReason.DEADLINE for reason, _ in flushes)
    assert buffer.deadline_us is None
