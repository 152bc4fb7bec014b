"""Scalar views survive pickling still aliased to their arrays.

``SegmentPool`` and the placement policies read and write single entries
through ``memoryview``s of their NumPy arrays
(:class:`repro.common.views.ScalarViews`).  A fleet checkpoint pickles
the live store; after a restore every view must again write into the
array the vectorised code reads, or the two halves of the store would
silently diverge.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.lss.segment import SegmentPool
from repro.lss.store import LogStructuredStore
from repro.placement.registry import available_policies, make_policy
from repro.validate.differential import (default_workloads,
                                         differential_config)

from tests.lss.test_replay_loop import assert_same_outcome


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
def test_scalar_views_alias_their_arrays_after_pickling(policy_name):
    cfg = differential_config()
    store = LogStructuredStore(cfg, make_policy(policy_name, cfg))
    store.replay(default_workloads(num_requests=300)[0])
    clone = pickle.loads(pickle.dumps(store))
    assert_same_outcome(store, clone)
    assert _assert_views_alias(clone.pool) == 5
    _assert_views_alias(clone.policy)
    # The original is untouched by writes through the clone's views.
    assert store.pool.state[-1] != clone.pool.state[-1]


def test_segment_pool_views_alias_after_pickling():
    pool = SegmentPool(8, 4)
    seg = pool.allocate(3, now_seq=7)
    clone = pickle.loads(pickle.dumps(pool))
    assert clone.group_mv[seg] == 3 and clone.created_seq_mv[seg] == 7
    assert _assert_views_alias(clone) == 5
    # Scalar writes through the pool's own methods reach the arrays too.
    clone.valid_count_mv[seg] = 0
    clone.fill[seg] = 4
    clone.seal(seg, now_seq=9)
    assert clone.sealed_seq[seg] == 9
    assert np.array_equal(clone.sealed_segments(), [seg])
