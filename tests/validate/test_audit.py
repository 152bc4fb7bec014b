"""The invariant auditor: healthy stores pass, corrupted stores are named."""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.errors import InvariantViolation
from repro.lss.segment import SEG_FREE
from repro.lss.store import UNMAPPED, LogStructuredStore
from repro.obs.events import EV_AUDIT_VIOLATION
from repro.obs.recorder import ObsRecorder
from repro.placement.registry import make_policy
from repro.validate.audit import INVARIANT_CHECKS, InvariantAuditor
from repro.validate.differential import differential_config
from tests.conftest import make_write_trace, spilled_events


def churn_lbas(n: int = 2500, logical: int = 512, seed: int = 9):
    rng = np.random.default_rng(seed)
    return rng.zipf(1.3, size=n) % logical


def replayed_store(policy: str = "sepgc", auditor=None,
                   recorder=None) -> LogStructuredStore:
    config = differential_config(logical_blocks=512)
    store = LogStructuredStore(config, make_policy(policy, config),
                               recorder=recorder, auditor=auditor)
    store.replay(make_write_trace(churn_lbas()))
    return store


def first_mapped_lba(store) -> int:
    return int(np.flatnonzero(store.mapping != UNMAPPED)[0])


def test_healthy_store_passes_every_check():
    auditor = InvariantAuditor(every_blocks=256)
    store = replayed_store(auditor=auditor)
    assert auditor.audits_run > 1          # cadence + finalize both fired
    assert auditor.violations == 0
    for check in INVARIANT_CHECKS.values():
        check(store)                       # and once more, explicitly


@pytest.mark.parametrize("policy", ["adapt", "dac", "warcip"])
def test_healthy_store_passes_under_other_policies(policy):
    auditor = InvariantAuditor(every_blocks=512)
    replayed_store(policy=policy, auditor=auditor)
    assert auditor.violations == 0


def test_mapping_corruption_is_caught_and_named():
    store = replayed_store()
    lba = first_mapped_lba(store)
    # Point the LBA at slot 0 of a free segment: nothing valid lives there.
    free_seg = int(np.flatnonzero(store.pool.state == SEG_FREE)[-1])
    store.mapping[lba] = free_seg * store.pool.segment_blocks
    auditor = InvariantAuditor()
    with pytest.raises(InvariantViolation) as exc:
        auditor.audit(store)
    assert exc.value.invariant == "mapping-bijection"
    assert "mapping-bijection" in str(exc.value)
    assert auditor.violations == 1


def test_valid_count_skew_is_caught_and_named():
    store = replayed_store()
    seg = int(store.mapping[first_mapped_lba(store)]) \
        // store.pool.segment_blocks
    store.pool.valid_count[seg] += 1
    auditor = InvariantAuditor(checks=["segment-valid-counts"])
    with pytest.raises(InvariantViolation) as exc:
        auditor.audit(store)
    assert exc.value.invariant == "segment-valid-counts"
    assert f"segment {seg}" in exc.value.detail


def test_traffic_skew_is_caught_and_named():
    store = replayed_store()
    store.stats.user_blocks_requested += 7
    auditor = InvariantAuditor(checks=["traffic-conservation"])
    with pytest.raises(InvariantViolation) as exc:
        auditor.audit(store)
    assert exc.value.invariant == "traffic-conservation"


def test_raid_skew_is_caught_and_named():
    store = replayed_store()
    store.stats.raid.parity_chunks += store.stats.raid.data_chunks
    auditor = InvariantAuditor(checks=["raid-parity-accounting"])
    with pytest.raises(InvariantViolation) as exc:
        auditor.audit(store)
    assert exc.value.invariant == "raid-parity-accounting"


def test_violation_emits_observability_event(tmp_path):
    recorder = ObsRecorder(spill_path=str(tmp_path / "events.jsonl"))
    store = replayed_store(recorder=recorder)
    store.mapping[first_mapped_lba(store)] = UNMAPPED  # orphan a valid slot
    auditor = InvariantAuditor()
    with pytest.raises(InvariantViolation):
        auditor.audit(store)
    events = [e for e in spilled_events(recorder.tracer)
              if e["type"] == EV_AUDIT_VIOLATION]
    assert len(events) == 1
    assert events[0]["invariant"] == "mapping-bijection"
    assert recorder.registry.get("lss_audit_violations_total").value == 1


def test_cadence_counts_audits():
    auditor = InvariantAuditor(every_blocks=500)
    store = replayed_store(auditor=auditor)
    user = store.stats.user_blocks_requested
    # One audit per full cadence window, plus the finalize audit.
    assert auditor.audits_run == user // 500 + 1


def test_zero_cadence_only_audits_on_finalize():
    auditor = InvariantAuditor(every_blocks=0)
    replayed_store(auditor=auditor)
    assert auditor.audits_run == 1


def test_unknown_check_name_rejected():
    with pytest.raises(ValueError, match="no-such-check"):
        InvariantAuditor(checks=["no-such-check"])
