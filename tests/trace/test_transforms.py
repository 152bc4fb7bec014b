"""Trace transforms."""

import numpy as np
import pytest

from repro.common.errors import TraceFormatError
from repro.trace.model import Trace
from repro.trace.transforms import (
    multiplex,
    remap_offsets,
    scale_rate,
    split_by_address,
)

from tests.conftest import make_write_trace


def test_scale_rate_moves_gaps():
    tr = make_write_trace(range(10), gap_us=200)
    fast = scale_rate(tr, 4.0)
    assert np.all(np.diff(fast.timestamps) == 50)
    slow = scale_rate(tr, 0.5)
    assert np.all(np.diff(slow.timestamps) == 400)
    with pytest.raises(ValueError):
        scale_rate(tr, 0)


def test_remap_offsets():
    tr = make_write_trace([1, 2, 3])
    shifted = remap_offsets(tr, 100)
    assert list(shifted.offsets) == [101, 102, 103]
    with pytest.raises(ValueError):
        remap_offsets(tr, -1)


def test_multiplex_disjoint_ranges():
    a = make_write_trace([0, 1, 2], gap_us=100, volume="a")
    b = make_write_trace([0, 5], gap_us=150, volume="b")
    merged, bases = multiplex([a, b])
    assert bases == [0, 3]
    merged.validate()
    assert merged.max_lba() == 3 + 5
    assert len(merged) == 5
    # Interleaved by time, monotone.
    assert np.all(np.diff(merged.timestamps) >= 0)


def test_multiplex_explicit_spans_and_errors():
    a = make_write_trace([0, 9], volume="a")
    with pytest.raises(ValueError):
        multiplex([a], address_blocks=[5])   # too small for max_lba 9
    with pytest.raises(ValueError):
        multiplex([a], address_blocks=[5, 5])
    with pytest.raises(TraceFormatError):
        multiplex([])


def test_multiplex_split_roundtrip():
    a = make_write_trace([0, 1, 2, 1], gap_us=100, volume="a")
    b = make_write_trace([3, 0], gap_us=170, volume="b")
    spans = [8, 8]
    merged, bases = multiplex([a, b], address_blocks=spans)
    back = split_by_address(merged, bases, spans)
    assert list(back[0].offsets) == [0, 1, 2, 1]
    assert list(back[1].offsets) == [3, 0]
    assert len(back[0]) + len(back[1]) == len(merged)


def _assert_traces_equal(a, b):
    assert len(a) == len(b)
    assert np.array_equal(a.timestamps, b.timestamps)
    assert np.array_equal(a.ops, b.ops)
    assert np.array_equal(a.offsets, b.offsets)
    assert np.array_equal(a.sizes, b.sizes)


def test_multiplex_split_roundtrip_identity_synthetic():
    """multiplex -> split_by_address recovers every original volume's
    four columns verbatim on realistic mixed read/write traces."""
    from repro.trace.synthetic.cloud import generate_fleet
    fleet = generate_fleet("ali", 3, unique_blocks=256, num_requests=400,
                          seed=7)
    spans = [t.max_lba() + t.sizes.max() + 1 for t in fleet]
    merged, bases = multiplex(fleet, address_blocks=spans)
    back = split_by_address(merged, bases, spans)
    assert len(back) == len(fleet)
    for original, recovered in zip(fleet, back):
        _assert_traces_equal(original, recovered)
    assert sum(len(t) for t in back) == len(merged)


def test_multiplex_split_roundtrip_default_spans():
    """The round trip also holds with inferred (footprint) spans."""
    a = make_write_trace([0, 4, 2, 4], gap_us=90, volume="a")
    b = make_write_trace([1, 1, 0], gap_us=110, volume="b")
    c = make_write_trace([7], gap_us=50, volume="c")
    merged, bases = multiplex([a, b, c])
    spans = [t.max_lba() + 1 for t in (a, b, c)]
    back = split_by_address(merged, bases, spans)
    for original, recovered in zip((a, b, c), back):
        _assert_traces_equal(original, recovered)


def test_multiplex_preserves_per_volume_order():
    """Within one volume, multiplex never reorders requests (stable
    time sort), so the recovered trace replays identically."""
    a = make_write_trace([5, 5, 5], gap_us=0, volume="a")  # all ties
    b = make_write_trace([2, 2], gap_us=0, volume="b")
    merged, bases = multiplex([a, b])
    back = split_by_address(merged, bases, [6, 3])
    _assert_traces_equal(a, back[0])
    _assert_traces_equal(b, back[1])


def test_split_by_address_straddling_request_dropped():
    """A request crossing a span boundary belongs to no volume."""
    tr = Trace(np.array([0, 10], dtype=np.int64),
               np.full(2, tr_op(), dtype=np.uint8),
               np.array([0, 7], dtype=np.int64),
               np.array([1, 4], dtype=np.int64), volume="x")
    parts = split_by_address(tr, [0, 8], [8, 8])
    assert len(parts[0]) == 1
    assert len(parts[1]) == 0


def tr_op():
    from repro.trace.model import OP_WRITE
    return OP_WRITE


def test_head_then_scale_commutes():
    tr = make_write_trace(range(8), gap_us=100)
    assert np.array_equal(scale_rate(tr[:4], 2.0).timestamps,
                          scale_rate(tr, 2.0)[:4].timestamps)


def test_scale_rate_roundtrip_identity():
    tr = make_write_trace(range(6), gap_us=128)
    back = scale_rate(scale_rate(tr, 2.0), 0.5)
    _assert_traces_equal(tr, back)
