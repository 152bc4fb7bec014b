"""The store's one event seam (``repro.common.observer``).

Every observer — the policy, the recorder, the attribution ledger, the
auditor, the FTL bridge and anything ``store.subscribe`` adds — hears
each event in one documented order, and a store calls only the
observers that override an event.  ADAPT's demotion cascades, fed one
``gc_blocks`` call per victim, end where the oracle's one call per
migrated block leaves them.
"""

from __future__ import annotations

import pytest

from repro.common.observer import EVENTS, NO_SAMPLE, StoreObserver
from repro.core.config import AdaptConfig
from repro.core.policy import AdaptPolicy
from repro.ftl.bridge import StreamBridge
from repro.lss.store import LogStructuredStore
from repro.obs.attribution import AttributionRecorder
from repro.obs.recorder import ObsRecorder
from repro.placement.registry import make_policy
from repro.placement.sepbit import SepBITPolicy
from repro.validate.audit import InvariantAuditor
from repro.validate.differential import (default_workloads,
                                         differential_config)
from repro.validate.oracle import OracleStore

#: The documented subscriber order, by the names the log below uses.
ORDER = ("policy", "recorder", "attribution", "auditor", "bridge",
         "recording")


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


def _observed_replay(policy_cls):
    log: list = []
    cfg = differential_config()
    store = LogStructuredStore(
        cfg, _logged(policy_cls, "policy", log)(cfg),
        recorder=_logged(ObsRecorder, "recorder", log)(100),
        attribution=_logged(AttributionRecorder, "attribution", log)(),
        auditor=_logged(InvariantAuditor, "auditor", log)(every_blocks=256))
    _logged(StreamBridge, "bridge", log)(store)
    store.subscribe(_recording(log))
    store.replay(default_workloads(num_requests=1200)[1])
    return store, log


@pytest.mark.parametrize("policy_cls", (AdaptPolicy, SepBITPolicy),
                         ids=("adapt", "sepbit"))
def test_every_event_reaches_its_subscribers_in_the_documented_order(
        policy_cls):
    store, log = _observed_replay(policy_cls)
    # Each firing ends at the recording subscriber, which overrides every
    # event; no handler fires another event, so firings do not nest.
    firings, current = [], []
    for event, name in log:
        current.append((event, name))
        if name == "recording":
            firings.append(current)
            current = []
    assert not current
    subscribers = {}
    for firing in firings:
        event = firing[0][0]
        assert {e for e, _ in firing} == {event}, firing
        names = tuple(name for _, name in firing)
        assert subscribers.setdefault(event, names) == names, event
    assert set(subscribers) == set(EVENTS)
    for event, names in subscribers.items():
        assert names == tuple(n for n in ORDER if n in names), event
        overriders = {o for o, obj in zip(ORDER, store.events.observers)
                      if getattr(type(obj), event)
                      is not getattr(StoreObserver, event)}
        assert set(names) == overriders, event
    assert subscribers["gc_blocks"][:2] == (
        ("policy", "attribution") if policy_cls is AdaptPolicy
        else ("attribution", "recording"))
    assert subscribers["segment_reclaimed"] == (
        "policy", "recorder", "attribution", "bridge", "recording")


def test_store_without_observers_subscribes_nothing():
    cfg = differential_config()
    store = LogStructuredStore(cfg, make_policy("sepgc", cfg))
    assert all(getattr(store.events, event) == () for event in EVENTS)


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
