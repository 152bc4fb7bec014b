"""Property-based tests of the core data structures."""

from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from repro.array.chunk import ChunkGeometry
from repro.array.coalescing import CoalescingBuffer
from repro.array.raid5 import Raid5Accounting, Raid5Config
from repro.common.units import KiB
from repro.core.distance import DistanceTracker
from repro.trace.model import Trace
from repro.trace.parser import parse_csv
from repro.trace.writer import write_csv
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
       st.integers(min_value=1, max_value=16),
       st.sampled_from(["idle", "first"]))
@settings(max_examples=80, deadline=None)
def test_coalescing_conserves_tokens(gaps, chunk_blocks, sla_mode):
    buf = CoalescingBuffer(chunk_blocks, 100, sla_mode=sla_mode)
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


# ----------------------------------------------------------------------
# trace writer/parser round trip
# ----------------------------------------------------------------------
@given(st.lists(
    st.tuples(st.integers(min_value=0, max_value=10**9),   # ts
              st.integers(min_value=0, max_value=1),       # op
              st.integers(min_value=0, max_value=10**6),   # offset
              st.integers(min_value=1, max_value=64)),     # size
    max_size=50))
@settings(max_examples=50, deadline=None)
def test_trace_roundtrip(rows):
    rows.sort(key=lambda r: r[0])
    tr = Trace.from_rows(rows)
    import io
    buf = io.StringIO()
    write_csv(tr, buf)
    back = parse_csv(buf.getvalue().splitlines())
    assert np.array_equal(back.timestamps, tr.timestamps)
    assert np.array_equal(back.ops, tr.ops)
    assert np.array_equal(back.offsets, tr.offsets)
    assert np.array_equal(back.sizes, tr.sizes)


# ----------------------------------------------------------------------
# chunk geometry padding identity
# ----------------------------------------------------------------------
@given(st.integers(min_value=0, max_value=10_000),
       st.sampled_from([16, 32, 64, 128]))
@settings(max_examples=100, deadline=None)
def test_padding_identity(nblocks, chunk_kib):
    g = ChunkGeometry(chunk_bytes=chunk_kib * KiB)
    pad = g.padding_for(nblocks)
    assert 0 <= pad < g.chunk_blocks
    assert (nblocks + pad) % g.chunk_blocks == 0
    assert g.chunks_of_blocks(nblocks) * g.chunk_blocks == nblocks + pad
