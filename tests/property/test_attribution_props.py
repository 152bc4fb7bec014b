"""Property-based tests of attribution-ledger conservation.

For any write workload, under any policy and either engine:

* the attribution ledger's per-group user/GC/shadow/padding totals sum
  exactly to the store's traffic counters (nothing double-counted,
  nothing missed);
* the provenance plane tags exactly the valid data slots that carry
  user data: tagged epochs live in ``[0, user_seq)``, and every
  GC-provenance victim count is conserved against ``StoreStats``;
* chunk-bound accounting is closed: chunk counts equal the sum over
  causes equal the histogram mass.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import numpy as np
import pytest

from repro.array.chunk import ChunkGeometry
from repro.common.units import KiB
from repro.lss.config import LSSConfig
from repro.lss.store import LogStructuredStore
from repro.obs.attribution import AttributionRecorder
from repro.placement.registry import make_policy
from repro.trace.model import Trace

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

engines = st.sampled_from(["scalar", "auto"])


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


@given(ops=workloads, policy_name=policies, engine=engines)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_ledger_conservation(ops, policy_name, engine):
    policy = make_policy(policy_name, CONFIG)
    attr = AttributionRecorder()
    store = LogStructuredStore(CONFIG, policy, attribution=attr)
    store.replay(build_trace(ops), engine=engine)
    store.check_invariants()

    snap = attr.snapshot()
    stats = store.stats
    totals = snap["ledger"]["totals"]

    # Ledger totals == store traffic counters, category by category.
    assert totals["user_blocks_requested"] == stats.user_blocks_requested
    assert totals["user_blocks"] == stats.user_blocks_requested
    assert totals["gc_blocks"] == stats.gc_blocks_written
    assert totals["shadow_blocks"] == stats.shadow_blocks_written
    assert totals["padding_blocks"] == stats.padding_blocks_written
    assert totals["total_blocks"] == stats.flash_blocks_written

    # Per-group rows partition the totals exactly.
    groups = list(snap["ledger"]["groups"].values())
    for key in ("user_blocks", "gc_blocks", "shadow_blocks",
                "padding_blocks", "total_blocks"):
        assert sum(g[key] for g in groups) == totals[key]

    # GC provenance conservation: one record per pass; migrated blocks
    # split exactly into first-time and re-migrations.
    ptot = snap["gc_provenance"]["totals"]
    assert ptot["victims"] == stats.gc_passes
    assert ptot["migrated_user_origin"] + ptot["migrated_gc_origin"] \
        == stats.gc_blocks_migrated
    assert ptot["valid_blocks"] >= stats.gc_blocks_migrated

    # Provenance-plane epochs stay in [0, user_seq).
    pool = store.pool
    from repro.lss.segment import ORIGIN_NONE
    tagged = pool.slot_origin_flat != ORIGIN_NONE
    if tagged.any():
        epochs = pool.slot_epoch_flat[tagged]
        assert int(epochs.min()) >= 0
        assert int(epochs.max()) < store.user_seq

    # Chunk-bound accounting is closed.
    cb = snap["chunk_bounds"]
    assert cb["chunks"] == sum(c["chunks"] for c in cb["causes"].values())
    assert cb["chunks"] == sum(cb["chunk_requests_hist"].values())
    assert cb["chunks"] == sum(cb["chunk_blocks_hist"].values())
    if store.replay_engine[0] == "batched":
        assert sum(c["requests"] for c in cb["causes"].values()) == \
            len(ops)
    else:
        assert cb["chunks"] == 0
