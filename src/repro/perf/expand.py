"""Vectorized request expansion: trace columns → flat block stream.

The scalar replay loop expands every write request with a Python
``range(offset, offset + size)`` and re-extracts four NumPy scalars per
request.  Here the whole trace is expanded once with ``np.repeat`` and
cumulative-sum arithmetic: one int64 LBA per written block, one timestamp
per block, and the per-request boundaries into that flat stream, so the
replay engine can slice arbitrary request windows without touching Python
integers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.trace.model import OP_WRITE, Trace


@dataclass(frozen=True)
class ExpandedTrace:
    """Flat block-stream view of one trace."""

    #: Number of requests (all ops).
    num_requests: int
    #: int64 per-request timestamps.
    timestamps: np.ndarray
    #: bool per-request write mask.
    is_write: np.ndarray
    #: int64, ``len == num_requests + 1``: ``block_start[i]`` is the flat
    #: index of request ``i``'s first written block (reads span nothing);
    #: ``block_start[-1]`` is the total written-block count.
    block_start: np.ndarray
    #: int64 LBA per written block, in stream order.
    lbas: np.ndarray
    #: int64 timestamp per written block (its request's timestamp).
    block_ts: np.ndarray
    #: int64, ``len == num_requests + 1``: running count of write requests.
    writes_before: np.ndarray


def check_write_bounds(trace: Trace, logical_blocks: int) -> None:
    """Raise the ``ValueError`` ``process_request`` would for the first
    write request outside ``[0, logical_blocks)``, before any request of
    the trace has been applied (``store.replay`` checks both engines'
    input with this)."""
    ends = trace.offsets + trace.sizes
    bad = (trace.ops == OP_WRITE) \
        & ((trace.offsets < 0) | (ends > logical_blocks))
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise ValueError(
            f"request [{int(trace.offsets[i])}, {int(ends[i])}) outside "
            f"logical space [0, {logical_blocks})")


def expand_trace(trace: Trace,
                 logical_blocks: int | None = None) -> ExpandedTrace:
    """Expand ``trace`` into a flat per-block stream.

    When ``logical_blocks`` is given, every write request is bounds-checked
    up front (:func:`check_write_bounds`).
    """
    if logical_blocks is not None:
        check_write_bounds(trace, logical_blocks)
    n = len(trace)
    ts = trace.timestamps
    is_write = trace.ops == OP_WRITE
    sizes = np.where(is_write, trace.sizes, 0)
    block_start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(sizes, out=block_start[1:])
    total = int(block_start[-1])
    reps = sizes[is_write]
    run_ends = np.cumsum(reps)
    flat = np.arange(total, dtype=np.int64)
    starts = np.repeat(trace.offsets[is_write], reps)
    intra = flat - np.repeat(run_ends - reps, reps)
    writes_before = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(is_write, out=writes_before[1:])
    return ExpandedTrace(
        num_requests=n,
        timestamps=ts,
        is_write=is_write,
        block_start=block_start,
        lbas=starts + intra,
        block_ts=np.repeat(ts[is_write], reps),
        writes_before=writes_before,
    )
