"""A store's metrics are a view of its state."""

import json

import pytest

from repro.lss.store import LogStructuredStore
from repro.obs.metrics import BLOCK_BUCKETS, histogram, store_metrics
from repro.obs.recorder import ObsRecorder
from repro.placement.registry import make_policy
from repro.validate.audit import InvariantAuditor
from repro.validate.differential import (default_workloads,
                                         differential_config)


def test_histogram_le_semantics():
    h = histogram([(v, 1) for v in (0, 1, 2, 4, 5, 512, 600)])
    assert h["edges"] == [float(e) for e in BLOCK_BUCKETS]
    # <=1 -> {0,1}, <=2 -> {2}, <=4 -> {4}, <=8 -> {5}, <=512 -> {512},
    # +Inf -> {600}
    assert h["counts"] == [2, 1, 1, 1, 0, 0, 0, 0, 0, 1, 1]
    assert h["sum"] == 1124.0 and h["count"] == 7


def test_observe_bulk_equals_repeated_observe():
    """A tally entry ``(value, n)`` books n observations of ``value``;
    a zero count books nothing."""
    tally = ((0, 3), (4, 2), (100, 5), (16, 1))
    repeated = [(value, 1) for value, n in tally for _ in range(n)]
    assert histogram(tally) == histogram(repeated)
    assert histogram(tally + ((7, 0),)) == histogram(tally)
    assert histogram(()) == {"edges": [float(e) for e in BLOCK_BUCKETS],
                             "counts": [0] * (len(BLOCK_BUCKETS) + 1),
                             "sum": 0.0, "count": 0}


def _replayed(policy_name, **observers):
    cfg = differential_config()
    store = LogStructuredStore(cfg, make_policy(policy_name, cfg),
                               **observers)
    store.replay(default_workloads(num_requests=1200)[0])
    return store


@pytest.mark.parametrize("policy_name", ("adapt", "sepgc"))
def test_every_metric_is_read_off_its_source(policy_name):
    """Each value equals the count the store, the policy or the auditor
    keeps; names are unique and JSON-safe."""
    auditor = InvariantAuditor(every_blocks=256)
    store = _replayed(policy_name, auditor=auditor)
    metrics = store_metrics(store)
    names = [m.name for m in metrics]
    assert len(names) == len(set(names))
    values = {m.name: m.value for m in metrics}
    json.dumps(values, allow_nan=False)
    stats, policy = store.stats, store.policy
    assert values["lss_user_blocks_total"] == stats.user_blocks_requested
    assert values["lss_read_requests_total"] == stats.read_requests
    assert values["lss_shadow_append_blocks_total"] \
        == stats.shadow_blocks_written
    assert values["lss_audits_total"] == auditor.audits_run > 1
    assert values["lss_audit_violations_total"] == 0
    assert values["lss_write_amplification"] == stats.write_amplification()
    fill = values["lss_chunk_fill_blocks"]
    assert fill["count"] == sum(g.chunk_flushes for g in stats.groups)
    assert values["lss_gc_victim_valid_blocks"]["count"] \
        == stats.gc_segments_reclaimed
    if policy_name == "adapt":
        assert values["lss_demotions_total"] == policy.demotion.demotions
        assert values["lss_threshold_switches_total"] \
            == len(policy.adaptation_log) > 0
        assert values["adapt_threshold_blocks"] == policy.threshold
        assert values["lss_ghost_best_threshold"] \
            == policy.adaptation_log[-1].best_threshold
    else:
        assert values["lss_demotions_total"] == 0
        assert "adapt_threshold_blocks" not in values
        assert "lss_ghost_best_threshold" not in values


def test_a_recorder_reads_what_it_never_heard():
    """The recorder subscribes to none of the decision events, yet its
    snapshot counts them: the metrics are the store's, not a ledger the
    recorder keeps."""
    rec = ObsRecorder()
    store = _replayed("adapt", recorder=rec)
    for event in ("shadow_appended", "demoted", "threshold_switched",
                  "audited"):
        assert all(getattr(fn, "__self__", None) is not rec
                   for fn in getattr(store.events, event))
    snap = rec.snapshot()
    assert snap["counters"] == {m.name: m.value
                                for m in store_metrics(store)
                                if m.kind == "counter"}
    assert snap["events"]["shadow_append"] \
        == store.policy.aggregator.shadow_appends > 0
    assert snap["events"]["threshold_switch"] \
        == len(store.policy.adaptation_log)
    assert "lss_audits_total" not in snap["counters"]
