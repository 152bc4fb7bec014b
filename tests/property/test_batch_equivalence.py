"""Property: batch boundaries are semantically invisible.

For single-user-group policies the batched engine proves each chunk
GC-free before placing it, and chunk feasibility is prefix-closed — so
capping how many requests (or blocks) a chunk may span changes only
*where* the replay is sliced, never the result.  Multi-group policies
are not eligible for that engine; their batch boundary is the replay
call itself (the fleet streams a volume as consecutive ``replay(chunk,
finalize=False)`` calls, each of which starts a fresh window and a fresh
plan), so for them the same caps cut the *trace* into consecutive
pieces.  Either way these tests sweep arbitrary caps, including
degenerate one-request chunks, across every registered policy and check
the full observable state (mapping, statistics, per-group traffic, RAID
accounting, occupancy) against the one-shot replay on the loop.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.perf.engine import BatchedReplayEngine
from repro.placement.registry import available_policies
from repro.validate.differential import default_workloads

from tests.perf.test_engine_equivalence import (BATCHED_POLICIES,
                                                assert_states_equal,
                                                fresh_store)

pytestmark = pytest.mark.property


def scalar_reference(policy_name, trace):
    store = fresh_store(policy_name)
    store.replay(trace, engine="scalar")
    return store


def trace_pieces(trace, max_requests, max_blocks):
    """Cut ``trace`` into consecutive pieces of at most ``max_requests``
    requests and ``max_blocks`` written blocks (at least one request)."""
    written = np.where(trace.write_mask(), trace.sizes, 0).tolist()
    i, n = 0, len(trace)
    while i < n:
        j, blocks = i + 1, written[i]
        while j < n and (max_requests is None or j - i < max_requests) \
                and blocks + written[j] <= max_blocks:
            blocks += written[j]
            j += 1
        yield trace[i:j]
        i = j


def batched_with_caps(policy_name, trace, max_requests=None,
                      max_blocks=65536):
    store = fresh_store(policy_name)
    if policy_name in BATCHED_POLICIES:
        BatchedReplayEngine(store, max_chunk_blocks=max_blocks,
                            max_chunk_requests=max_requests).replay(trace)
        return store
    for piece in trace_pieces(trace, max_requests, max_blocks):
        store.replay(piece, finalize=False)
    store.finalize()
    return store


@pytest.mark.parametrize("policy_name", available_policies())
def test_arbitrary_request_caps_every_policy(policy_name):
    """Replays cut at arbitrary request boundaries reproduce the
    one-shot scalar replay exactly, for every policy."""
    trace = default_workloads(num_requests=400)[0]
    ref = scalar_reference(policy_name, trace)
    rng = np.random.default_rng(hash(policy_name) & 0xFFFF)
    caps = [1, 2, 3, 7] + [int(c) for c in rng.integers(4, 200, size=3)]
    for cap in caps:
        store = batched_with_caps(policy_name, trace, max_requests=cap)
        assert_states_equal(ref, store)


@pytest.mark.parametrize("policy_name", ["sepgc", "adapt", "warcip"])
def test_arbitrary_block_caps(policy_name):
    """Cuts by written-block budget instead of request count."""
    trace = default_workloads(num_requests=400)[-1]  # YCSB-A
    ref = scalar_reference(policy_name, trace)
    for cap in (1, 3, 5, 16, 57):
        store = batched_with_caps(policy_name, trace, max_blocks=cap)
        assert_states_equal(ref, store)


def test_mixed_caps_update_heavy():
    """Both caps at once on the churniest workload."""
    trace = default_workloads(num_requests=500)[-1]
    for policy_name in ("mida", "sepbit"):
        ref = scalar_reference(policy_name, trace)
        store = batched_with_caps(policy_name, trace, max_requests=11,
                                  max_blocks=23)
        assert_states_equal(ref, store)


def test_invalid_caps_rejected():
    store = fresh_store("sepgc")
    with pytest.raises(ValueError):
        BatchedReplayEngine(store, max_chunk_requests=0)
    with pytest.raises(ValueError):
        BatchedReplayEngine(store, max_chunk_blocks=0)
