"""Property suite for the chunk-coalescing buffer's SLA semantics.

For any interleaving of appends, time advances, polls and forced flushes:

* pending blocks never reach chunk capacity (a full chunk flushes inline);
* ``FULL`` flushes (drains by ``append``) carry exactly one chunk of data;
* ``DEADLINE`` / ``FORCED`` flushes (drains by ``poll`` / ``force_flush``)
  leave room for the owner's padding and carry at least one data block
  (an empty chunk is never flushed);
* after any poll, no pending chunk's deadline lies in the past — the SLA
  deadline never passes without an emission;
* tokens are conserved: appended == flushed + pending.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.array.coalescing import CoalescingBuffer, FlushReason

pytestmark = pytest.mark.property

CHUNK_BLOCKS = 4
WINDOW_US = 100

# An op is ("append",) or ("advance", dt) or ("force",); time is monotone.
ops_strategy = st.lists(
    st.one_of(
        st.just(("append",)),
        st.tuples(st.just("advance"), st.integers(1, 300)),
        st.just(("force",)),
    ),
    min_size=1, max_size=60,
)


def drive(buffer: CoalescingBuffer, ops):
    """Run the op sequence; poll after every time advance (the store's tick
    does the same).  Returns (flushes, appended, final_now), a flush being
    the ``(reason, drained tokens)`` pair the owning group would book."""
    flushes, appended, now = [], 0, 0
    for op in ops:
        if op[0] == "append":
            appended += 1
            reason, drained = FlushReason.FULL, buffer.append(appended, now)
        elif op[0] == "advance":
            now += op[1]
            reason, drained = FlushReason.DEADLINE, buffer.poll(now)
        else:
            reason, drained = FlushReason.FORCED, buffer.force_flush()
        if drained is not None:
            flushes.append((reason, drained))
    return flushes, appended, now


@given(ops=ops_strategy, sla_mode=st.sampled_from(["idle", "first"]))
@settings(max_examples=300, deadline=None)
def test_flush_shapes_and_conservation(ops, sla_mode):
    buffer = CoalescingBuffer(CHUNK_BLOCKS, WINDOW_US, sla_mode=sla_mode)
    flushes, appended, now = drive(buffer, ops)

    assert buffer.pending_blocks < CHUNK_BLOCKS
    for reason, drained in flushes:
        if reason is FlushReason.FULL:
            assert len(drained) == CHUNK_BLOCKS
        else:
            assert 1 <= len(drained) < CHUNK_BLOCKS
    flushed = sum(len(drained) for _, drained in flushes)
    assert flushed + buffer.pending_blocks == appended


@given(ops=ops_strategy, sla_mode=st.sampled_from(["idle", "first"]))
@settings(max_examples=300, deadline=None)
def test_no_deadline_survives_a_poll(ops, sla_mode):
    buffer = CoalescingBuffer(CHUNK_BLOCKS, WINDOW_US, sla_mode=sla_mode)
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
        assert buffer.append(i, 0) is None
    assert buffer.poll(WINDOW_US - 1) is None       # window still open
    drained = buffer.poll(WINDOW_US)                # exactly at deadline
    assert drained == tuple(range(pending))


@given(ops=ops_strategy)
@settings(max_examples=200, deadline=None)
def test_windowless_buffer_never_pads_on_time(ops):
    """GC-facing buffers (window None) only flush FULL or FORCED."""
    buffer = CoalescingBuffer(CHUNK_BLOCKS, None)
    flushes, _, _ = drive(buffer, ops)
    assert all(reason is not FlushReason.DEADLINE for reason, _ in flushes)
    assert buffer.deadline_us is None
