"""The store's one event seam (``repro.common.observer``).

Every observer — the policy, the recorder, the attribution ledger, the
auditor, a spilling recorder's tracer, the FTL bridge and anything
``store.subscribe`` adds — hears each event in one documented order, and
a store calls only the observers that override an event.  No observer
re-counts a chunk flush, a GC victim or a decision: only a tracer with
a sink hears those, to log their records.  The policy's and the
auditor's decisions reach any observer through the same seam.  ADAPT's
demotion cascades, fed one ``gc_blocks`` call per victim, end where the
oracle's one call per migrated block leaves them.
"""

from __future__ import annotations

import inspect

import pytest

from repro.common.errors import InvariantViolation
from repro.common.observer import EVENTS, NO_SAMPLE, StoreObserver
from repro.core.config import AdaptConfig
from repro.core.policy import AdaptPolicy
from repro.ftl.bridge import StreamBridge
from repro.lss.store import UNMAPPED, LogStructuredStore
from repro.obs.attribution import AttributionRecorder
from repro.obs.events import EventTracer
from repro.obs.recorder import ObsRecorder
from repro.placement.registry import available_policies, make_policy
from repro.placement.sepbit import SepBITPolicy
from repro.validate.audit import InvariantAuditor
from repro.validate.differential import (default_workloads,
                                         differential_config)
from repro.validate.oracle import OracleStore
from tests.conftest import DecisionTally

#: The decisions a policy fires; a replay of the differential traces
#: demotes nothing, and only ADAPT makes the other two.
POLICY_DECISIONS = ("shadow_appended", "demoted", "threshold_switched")

#: The documented subscriber order, by the names the log below uses.
ORDER = ("policy", "recorder", "attribution", "auditor", "tracer",
         "bridge", "recording")


def _logged(cls, name: str, log: list):
    """Subclass of ``cls`` that logs ``(event, name)`` before each event
    ``cls`` overrides."""
    hooks = {}
    for event in EVENTS:
        if getattr(cls, event) is getattr(StoreObserver, event):
            continue

        def hook(self, *args, _event=event, _orig=getattr(cls, event)):
            log.append((_event, name))
            return _orig(self, *args)
        hooks[event] = hook
    return type("Logged" + cls.__name__, (cls,), hooks)


def _recording(log: list) -> StoreObserver:
    """An observer that overrides every event and only logs it."""
    def hook(event):
        def logged(self, *args):
            log.append((event, "recording"))
            return NO_SAMPLE
        return logged
    return type("Recording", (StoreObserver,),
                {event: hook(event) for event in EVENTS})()


def _observed_replay(policy_cls, spill_path=None):
    log: list = []
    cfg = differential_config()
    recorder = _logged(ObsRecorder, "recorder", log)(100)
    if spill_path is not None:
        recorder.tracer = _logged(EventTracer, "tracer", log)(
            spill_path=str(spill_path))
    store = LogStructuredStore(
        cfg, _logged(policy_cls, "policy", log)(cfg),
        recorder=recorder,
        attribution=_logged(AttributionRecorder, "attribution", log)(),
        auditor=_logged(InvariantAuditor, "auditor", log)(every_blocks=256))
    _logged(StreamBridge, "bridge", log)(store)
    store.subscribe(_recording(log))
    store.replay(default_workloads(num_requests=1200)[1])
    return store, log


def _firings(log) -> list[list[tuple[str, str]]]:
    """Split ``log`` into firings: each ends at the recording subscriber,
    which overrides every event."""
    firings, current = [], []
    for event, name in log:
        current.append((event, name))
        if name == "recording":
            firings.append(current)
            current = []
    assert not current
    return firings


def _subscribers(store, log, silent=()) -> dict[str, tuple[str, ...]]:
    """Per event, the observers that heard it, checked to be the same
    documented order at every firing and to be exactly its overriders;
    every event but the ``silent`` ones fired."""
    # The auditor fires ``audited`` inside its own user_writes or
    # finalize handler, the one nested firing: read those apart.
    for prev, (event, _) in zip(log, log[1:]):
        if event == "audited" and prev[0] != "audited":
            assert prev[1] == "auditor", prev
    firings = (_firings(e for e in log if e[0] != "audited")
               + _firings(e for e in log if e[0] == "audited"))
    subscribers = {}
    for firing in firings:
        event = firing[0][0]
        assert {e for e, _ in firing} == {event}, firing
        names = tuple(name for _, name in firing)
        assert subscribers.setdefault(event, names) == names, event
    assert set(subscribers) == set(EVENTS) - set(silent)
    spilling = any(name == "tracer" for _, name in log)
    present = [n for n in ORDER if n != "tracer" or spilling]
    for event, names in subscribers.items():
        assert names == tuple(n for n in ORDER if n in names), event
        overriders = {o for o, obj in zip(present, store.events.observers)
                      if getattr(type(obj), event)
                      is not getattr(StoreObserver, event)}
        assert set(names) == overriders, event
    return subscribers


@pytest.mark.parametrize("policy_cls", (AdaptPolicy, SepBITPolicy),
                         ids=("adapt", "sepbit"))
def test_every_event_reaches_its_subscribers_in_the_documented_order(
        policy_cls):
    store, log = _observed_replay(policy_cls)
    adapt = policy_cls is AdaptPolicy
    subscribers = _subscribers(
        store, log, ("demoted",) if adapt else POLICY_DECISIONS)
    assert subscribers["gc_blocks"][:2] == (
        ("policy", "attribution") if policy_cls is AdaptPolicy
        else ("attribution", "recording"))
    assert subscribers["segment_reclaimed"] == (
        "policy", "attribution", "bridge", "recording")
    assert subscribers["chunk_flush"] == (
        ("policy", "bridge", "recording") if policy_cls is AdaptPolicy
        else ("bridge", "recording"))
    decisions = ("shadow_appended", "threshold_switched", "audited") \
        if adapt else ("audited",)
    # The recorder reads its counts off the store: without a sink it
    # hears no decision.
    for event in decisions:
        assert subscribers[event] == ("recording",), event


def test_a_spilling_recorder_subscribes_its_tracer_to_flushes_and_victims(
        tmp_path):
    store, log = _observed_replay(SepBITPolicy, tmp_path / "ev.jsonl")
    subscribers = _subscribers(store, log, POLICY_DECISIONS)
    assert subscribers["chunk_flush"] == ("tracer", "bridge", "recording")
    assert subscribers["segment_reclaimed"] == (
        "policy", "attribution", "tracer", "bridge", "recording")
    assert subscribers["audited"] == ("tracer", "recording")
    assert {e for e, n in log if n == "tracer"} == {
        "chunk_flush", "segment_reclaimed", "audited"}
    assert store.events.observers.count(store.obs.tracer) == 1


def test_store_without_observers_subscribes_nothing():
    cfg = differential_config()
    store = LogStructuredStore(cfg, make_policy("sepgc", cfg))
    assert all(getattr(store.events, event) == () for event in EVENTS)


def _observer_classes() -> set[type]:
    """Every ``StoreObserver`` subclass the package defines."""
    import repro.core.policy  # noqa: F401  (the lazily registered policy)
    found, todo = set(), [StoreObserver]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("repro."):
                found.add(sub)
    return found


def test_every_event_name_is_a_handler_on_every_observer_class():
    """``StoreEvents`` gathers any attribute named like an event: a slot
    or a method of another meaning under an event's name (ADAPT's
    ``demotion`` slot, the auditor's ``audit(store)``) would be called
    as a handler.  Every observer class's attribute under each event
    name is a function taking the base handler's arguments."""
    cfg = differential_config()
    classes = _observer_classes()
    expected = {type(make_policy(name, cfg)) for name in available_policies()}
    expected |= {ObsRecorder, AttributionRecorder, InvariantAuditor,
                 EventTracer, StreamBridge}
    assert expected <= classes
    for cls in classes:
        for event in EVENTS:
            handler = getattr(cls, event)
            assert inspect.isfunction(handler), (cls.__name__, event)
            base = inspect.signature(getattr(StoreObserver, event))
            assert len(inspect.signature(handler).parameters) \
                == len(base.parameters), (cls.__name__, event)


def test_adapt_decisions_reach_a_subscribed_observer():
    """Shadow appends and threshold switches are store events: an
    observer ``store.subscribe`` adds hears the totals the recorder
    reads off the store and the policy."""
    cfg = differential_config()
    recorder = ObsRecorder()
    store = LogStructuredStore(cfg, AdaptPolicy(cfg), recorder=recorder)
    tally = DecisionTally()
    store.subscribe(tally)
    store.replay(default_workloads(num_requests=1200)[0])
    snap = recorder.snapshot()
    counters = snap["counters"]
    assert tally.shadow_blocks \
        == counters["lss_shadow_append_blocks_total"] > 0
    assert tally.threshold_switches \
        == counters["lss_threshold_switches_total"] > 0
    assert tally.threshold == snap["gauges"]["adapt_threshold_blocks"]
    assert tally.demotions == counters["lss_demotions_total"]
    assert tally.audits == []


def test_auditor_fires_audited_once_per_audit_and_once_before_raising():
    cfg = differential_config()
    auditor = InvariantAuditor(every_blocks=256)
    store = LogStructuredStore(cfg, make_policy("sepgc", cfg),
                               auditor=auditor)
    tally = DecisionTally()
    store.subscribe(tally)
    store.replay(default_workloads(num_requests=1200)[0])
    assert auditor.audits_run > 1
    assert tally.audits == [None] * auditor.audits_run
    # Orphan a valid slot: the next audit names it once, then raises.
    store.mapping[int((store.mapping != UNMAPPED).argmax())] = UNMAPPED
    with pytest.raises(InvariantViolation):
        auditor.audit(store)
    assert tally.audits[auditor.audits_run - 1:] == ["mapping-bijection"]
    assert auditor.violations == 1


def test_bulk_gc_blocks_leave_the_demotion_cascades_of_a_per_block_replay():
    """Small cascade filters, so one victim's inserts cross filters and
    evict old ones."""
    cfg = differential_config()
    trace = default_workloads(num_requests=1200)[0]

    def adapt():
        return AdaptPolicy(cfg, adapt=AdaptConfig(bloom_filters=3,
                                                  bloom_capacity=4))
    store = LogStructuredStore(cfg, adapt())
    store.replay(trace)
    oracle = OracleStore(cfg, adapt())
    oracle.replay(trace)
    bulk = store.policy.demotion.discriminators
    per_block = oracle.policy.demotion.discriminators
    assert sorted(bulk) == sorted(per_block)
    for gid in bulk:
        a, b = bulk[gid], per_block[gid]
        assert a._members == b._members, gid
        assert (a._counts, a.evictions) == (b._counts, b.evictions), gid
    assert sum(d.evictions for d in bulk.values()) > 0
