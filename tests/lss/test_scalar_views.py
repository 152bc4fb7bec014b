"""Scalar views alias their arrays in a live, replayed store.

``SegmentPool`` and the placement policies read and write single entries
through ``memoryview``s of their NumPy arrays
(:class:`repro.common.views.ScalarViews`).  A view must write into the
very array the vectorised code reads, or the two halves of the store
would silently diverge; rebinding a viewed array instead of writing it
in place is the way to break that.  So every view of every registered
policy is checked after a replay has run its GC, window settles and
policy updates.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.lss.segment import SegmentPool
from repro.lss.store import LogStructuredStore
from repro.placement.registry import available_policies, make_policy
from repro.validate.differential import (default_workloads,
                                         differential_config)


def _assert_views_alias(obj) -> int:
    """Write through every scalar view of ``obj`` and read the value
    back from its array; returns how many views were checked."""
    for view, array in type(obj)._scalar_views.items():
        mv, arr = getattr(obj, view), getattr(obj, array)
        assert isinstance(mv, memoryview), view
        i = len(arr) - 1
        value = (not mv[i]) if arr.dtype == bool else int(mv[i] != 1)
        mv[i] = value
        assert arr[i] == value, f"{view} no longer aliases {array}"
    return len(type(obj)._scalar_views)


@pytest.mark.parametrize("policy_name", available_policies())
def test_scalar_views_alias_their_arrays_after_replay(policy_name):
    cfg = differential_config()
    store = LogStructuredStore(cfg, make_policy(policy_name, cfg))
    store.replay(default_workloads()[0])
    assert store.stats.gc_segments_reclaimed > 0  # GC touched the pool
    assert _assert_views_alias(store.pool) == 5
    _assert_views_alias(store.policy)


def test_segment_pool_views_alias_their_arrays():
    pool = SegmentPool(8, 4)
    seg = pool.allocate(3, now_seq=7)
    assert pool.group_mv[seg] == 3 and pool.created_seq_mv[seg] == 7
    assert _assert_views_alias(pool) == 5
    # Scalar writes through the pool's own methods reach the arrays too.
    pool.valid_count_mv[seg] = 0
    pool.fill[seg] = 4
    pool.seal(seg, now_seq=9)
    assert pool.sealed_seq[seg] == 9
    assert np.array_equal(pool.sealed_segments(), [seg])
