"""Property-based tests of the store's core invariants.

For any write workload, under any policy:

* every written LBA maps to a valid slot holding exactly that LBA;
* the number of valid slots equals the number of distinct live LBAs;
* WA >= 1 and all traffic categories are non-negative;
* user blocks flushed + pending == user blocks requested.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.array.chunk import ChunkGeometry
from repro.common.units import KiB
from repro.lss.config import LSSConfig
from repro.lss.group import APPEND_USER
from repro.lss.store import LogStructuredStore
from repro.placement.registry import make_policy
from repro.trace.model import Trace

import numpy as np
import pytest

pytestmark = pytest.mark.property

LOGICAL = 512

CONFIG = LSSConfig(
    logical_blocks=LOGICAL,
    segment_blocks=8,
    chunk=ChunkGeometry(chunk_bytes=16 * KiB),  # 4 blocks
    over_provisioning=0.6,                      # headroom for 8 groups
    gc_free_low=4,
    gc_free_high=6,
)

workloads = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=LOGICAL - 1),   # lba
        st.integers(min_value=1, max_value=4),             # size
        st.integers(min_value=1, max_value=2000),          # gap us
    ),
    min_size=1, max_size=300,
)

policies = st.sampled_from(["sepgc", "dac", "warcip", "mida", "sepbit",
                            "adapt"])


def build_trace(ops) -> Trace:
    ts, off, sz = [], [], []
    now = 0
    for lba, size, gap in ops:
        now += gap
        ts.append(now)
        off.append(min(lba, LOGICAL - size))
        sz.append(size)
    n = len(ts)
    return Trace(np.array(ts), np.ones(n, dtype=np.uint8),
                 np.array(off), np.array(sz))


@given(ops=workloads, policy_name=policies)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_mapping_and_traffic_invariants(ops, policy_name):
    policy = make_policy(policy_name, CONFIG)
    store = LogStructuredStore(CONFIG, policy)
    trace = build_trace(ops)
    store.replay(trace, finalize=False)

    # Cross-structure consistency (mapping <-> slots <-> counts).
    store.check_invariants()

    stats = store.stats
    assert stats.user_blocks_requested == trace.total_write_blocks()
    # Conservation: every requested user block was flushed or is pending.
    pending_user = sum(g.buffer.pending[APPEND_USER] for g in store.groups)
    assert stats.user_blocks_written + pending_user == \
        stats.user_blocks_requested

    store.finalize()
    assert stats.user_blocks_written == stats.user_blocks_requested
    assert stats.write_amplification() >= 1.0
    assert stats.padding_blocks_written >= 0
    assert stats.gc_blocks_written >= 0

    # All written LBAs still readable.
    for lba, size, _ in ops:
        assert store.read_block(min(lba, LOGICAL - size))


@given(ops=workloads, policy_name=policies,
       cuts=st.lists(st.integers(min_value=1, max_value=299), max_size=6))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_replay_in_arbitrary_pieces_equals_one_shot(ops, policy_name, cuts):
    """Every ``replay`` call starts a fresh window (and a fresh plan), so
    cutting a trace at arbitrary requests moves the window boundaries —
    across duplicate LBAs, pending chunks and armed deadlines — and must
    change nothing."""
    from tests.lss.test_replay_loop import assert_same_outcome
    trace = build_trace(ops)
    whole = LogStructuredStore(CONFIG, make_policy(policy_name, CONFIG))
    whole.replay(trace)
    pieces = LogStructuredStore(CONFIG, make_policy(policy_name, CONFIG))
    bounds = sorted({0, len(trace), *(c for c in cuts if c < len(trace))})
    for a, b in zip(bounds[:-1], bounds[1:]):
        pieces.replay(trace[a:b], finalize=False)
    pieces.finalize()
    assert_same_outcome(whole, pieces)
