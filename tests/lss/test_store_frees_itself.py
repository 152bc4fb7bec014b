"""A finished store frees itself.

Nothing a store owns holds a strong reference back to it: its groups and
its garbage collector are handed the store on each call, the placement
policy keeps a weak reference, and the FTL bridge keeps only the segment
size.  So with the cyclic collector switched off, dropping the last
reference to a replayed and audited store frees it at once.  A store
with a recorder is the documented exception: the recorder keeps its
store for callers that read it after the run, and that cycle waits for
the collector.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.common.rng import tenant_rng
from repro.experiments.runner import store_config_for
from repro.ftl.bridge import StreamBridge
from repro.lss.store import LogStructuredStore
from repro.obs.recorder import ObsRecorder
from repro.placement.registry import make_policy
from repro.trace.synthetic.cloud import (
    VolumeSpec,
    generate_volume,
    profile_by_name,
)
from repro.validate.audit import InvariantAuditor

SCHEMES = ("sepgc", "dac", "warcip", "mida", "sepbit", "adapt")

#: One smoke-scale ali volume (8 192 blocks, 6 000 requests).
BLOCKS = 8_192


@pytest.fixture(scope="module")
def trace():
    spec = VolumeSpec.draw(profile_by_name("ali"), "ali-000", BLOCKS, 6_000,
                           tenant_rng(1, "ali-000", "spec"))
    return generate_volume(spec, rng=tenant_rng(1, "ali-000", "data"))


@pytest.fixture
def no_cyclic_gc():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _replayed(scheme: str, trace, **kwargs) -> LogStructuredStore:
    cfg = store_config_for(BLOCKS)
    store = LogStructuredStore(cfg, make_policy(scheme, cfg), **kwargs)
    store.replay(trace)
    InvariantAuditor(every_blocks=0).audit(store)
    return store


@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_replayed_store_is_freed_by_its_last_reference(scheme, trace,
                                                         no_cyclic_gc):
    store = _replayed(scheme, trace)
    assert store.stats.gc_segments_reclaimed > 0
    policy = store.policy
    ref = weakref.ref(store)
    del store
    assert ref() is None
    with pytest.raises(RuntimeError, match="not bound to a live store"):
        policy.user_seq


def test_a_store_with_a_subscribed_bridge_is_freed(trace, no_cyclic_gc):
    cfg = store_config_for(BLOCKS)
    store = LogStructuredStore(cfg, make_policy("sepbit", cfg))
    bridge = StreamBridge(store, multi_stream=True)
    store.replay(trace)
    InvariantAuditor(every_blocks=0).audit(store)
    ref = weakref.ref(store)
    del store
    assert ref() is None
    assert bridge.ftl.device_write_amplification() >= 1.0


def test_an_observed_store_is_readable_after_del_and_then_freed(
        trace, no_cyclic_gc):
    recorder = ObsRecorder()
    store = _replayed("sepgc", trace, recorder=recorder)
    ref = weakref.ref(store)
    del store
    recorder.metrics()            # the recorder reads its store after the run
    del recorder
    gc.collect()
    assert ref() is None
