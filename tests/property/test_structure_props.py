"""Property-based tests of the core data structures."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.array.coalescing import CoalescingBuffer
from repro.array.raid5 import Raid5Accounting, Raid5Config
from repro.core.distance import DistanceTracker
import pytest

pytestmark = pytest.mark.property


# ----------------------------------------------------------------------
# distance tracker vs naive reference
# ----------------------------------------------------------------------
@given(st.lists(st.integers(min_value=0, max_value=30), min_size=1,
                max_size=400))
@settings(max_examples=100, deadline=None)
def test_distance_tracker_matches_naive(stream):
    tracker = DistanceTracker()
    history: list[int] = []
    for key in stream:
        if key in history:
            last = len(history) - 1 - history[::-1].index(key)
            expected = len(set(history[last + 1:]))
        else:
            expected = None
        assert tracker.access(key) == expected
        history.append(key)
    tracker.check_invariants()


# ----------------------------------------------------------------------
# coalescing buffer conserves tokens
# ----------------------------------------------------------------------
@given(st.lists(st.integers(min_value=0, max_value=5000), min_size=1,
                max_size=200),
       st.integers(min_value=1, max_value=16))
@settings(max_examples=80, deadline=None)
def test_coalescing_conserves_tokens(gaps, chunk_blocks):
    buf = CoalescingBuffer(chunk_blocks, 100)
    out, now = [0, 0, 0], 0
    for i, gap in enumerate(gaps):
        now += gap
        drained = buf.poll(now)
        if drained:
            assert sum(drained) < chunk_blocks         # owner pads the rest
            out = [a + b for a, b in zip(out, drained)]
        kind = i % 3
        nf, drained = buf.append_run(kind, 1, now)
        if nf:
            drained[kind] += 1
            assert sum(drained) == chunk_blocks        # FULL flush
            out = [a + b for a, b in zip(out, drained)]
    out = [a + b for a, b in zip(out, buf.force_flush() or [0, 0, 0])]
    n = len(gaps)                                      # none lost per kind
    assert out == [(n + 2) // 3, (n + 1) // 3, n // 3]


# ----------------------------------------------------------------------
# RAID-5 parity bounds
# ----------------------------------------------------------------------
@given(st.lists(st.integers(min_value=0, max_value=20), max_size=100),
       st.integers(min_value=3, max_value=8))
@settings(max_examples=80, deadline=None)
def test_raid5_parity_bounds(io_sizes, num_devices):
    acct = Raid5Accounting(Raid5Config(num_devices))
    cols = num_devices - 1
    for n in io_sizes:
        parity = acct.add_chunks(n)
        assert 0 <= parity <= -(-n // cols) + 1
    # Parity can never exceed data for multi-chunk streams, and the
    # full-stripe floor holds.
    if acct.data_chunks:
        assert acct.parity_chunks >= acct.data_chunks // cols
