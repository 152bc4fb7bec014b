"""The windowed replay loop against its per-block specification.

``store.replay`` plans each window ahead of its writes and settles slot
planes, mapping, invalidation and the user-write reports in bulk before
every GC run and wherever an observer samples; ``process_request`` /
``write_block`` do all of it eagerly, one block at a time, and stay the
specification.  Everything a finished replay leaves behind must be equal
under both — for every policy, with the recorders attached, down to every
timeline row and event — and the loop must stay O(window) in
memory and self-consistent when a window raises.
"""

from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest

from repro.common.errors import CapacityError
from repro.common.observer import StoreObserver
from repro.lss import store as store_module
from repro.lss.store import LogStructuredStore
from repro.lss.victim import VictimPolicy
from repro.obs.attribution import AttributionRecorder
from repro.obs.recorder import ObsRecorder
from repro.placement.registry import available_policies, make_policy
from repro.trace.model import OP_WRITE, Trace
from repro.validate.audit import InvariantAuditor
from repro.validate.differential import (default_workloads,
                                         differential_config)

from tests.conftest import make_write_trace

#: ali (index 0) and tencent (index 1) differential workloads.
_WORKLOADS = ("ali", "tencent")

_POOL_PLANES = ("slot_lba", "slot_valid", "slot_seq", "state", "group",
                "fill", "valid_count", "created_seq", "sealed_seq")


def instrumented_store(policy_name, attribution=True):
    """Every observer on (the attribution ledger optionally), each on its
    own block period, none of them lined up with the loop's windows or
    with each other."""
    cfg = differential_config()
    return LogStructuredStore(
        cfg, make_policy(policy_name, cfg), recorder=ObsRecorder(77),
        attribution=AttributionRecorder() if attribution else None,
        auditor=InvariantAuditor(every_blocks=256))


def eager_replay(store, trace, finalize=True):
    """The specification: one ``process_request`` per request."""
    for row in trace.iter_requests():
        store.process_request(*row)
    if finalize:
        store.finalize()


def policy_state(policy) -> dict:
    """Every array and scalar the policy object holds."""
    state = {}
    for name, value in vars(policy).items():
        if isinstance(value, np.ndarray):
            state[name] = value.tobytes()
        elif isinstance(value, (bool, int, float, str)):
            state[name] = value
        elif isinstance(value, list) \
                and all(isinstance(v, (int, float)) for v in value):
            state[name] = list(value)   # e.g. WARCIP's centroids
    return state


def assert_same_outcome(spec, loop):
    assert (spec.mapping == loop.mapping).all()
    for plane in _POOL_PLANES:
        a, b = getattr(spec.pool, plane), getattr(loop.pool, plane)
        assert (a is None and b is None) or np.array_equal(a, b), plane
    assert spec.pool._free == loop.pool._free
    assert spec.pool._append_seq == loop.pool._append_seq
    for a, b in zip(spec.stats.groups, loop.stats.groups):
        assert vars(a) == vars(b), a.name
    assert vars(spec.stats.raid) == vars(loop.stats.raid)
    assert spec.stats.summary() == loop.stats.summary()
    assert (spec.user_seq, spec.now_us) == (loop.user_seq, loop.now_us)
    assert spec.policy.memory_bytes() == loop.policy.memory_bytes()
    assert policy_state(spec.policy) == policy_state(loop.policy)
    loop.check_invariants()
    if spec.obs.enabled:
        assert spec.obs.registry.snapshot() == loop.obs.registry.snapshot()
        audits = [o.audits_run for s in (spec, loop)
                  for o in s.events.observers
                  if isinstance(o, InvariantAuditor)]
        assert len(audits) == 2 and audits[0] == audits[1]
    if spec.attribution.enabled:
        views = [json.dumps(s.attribution.snapshot(), sort_keys=True)
                 for s in (spec, loop)]
        assert views[0] == views[1]
        for plane in ("slot_origin", "slot_epoch"):
            assert np.array_equal(getattr(spec.attribution, plane),
                                  getattr(loop.attribution, plane)), plane


def assert_same_observations(spec, loop):
    """What the observers saw, row by row and event by event."""
    assert loop.obs.timeline.columns == spec.obs.timeline.columns
    assert np.array_equal(loop.obs.timeline.rows, spec.obs.timeline.rows,
                          equal_nan=True)
    events = [[e.to_json_dict() for e in s.obs.tracer.events]
              for s in (spec, loop)]
    assert events[0] == events[1]
    views = [json.dumps(s.obs.snapshot(), sort_keys=True)
             for s in (spec, loop)]
    assert views[0] == views[1]


def _check_loop_against_specification(policy_name, workload_idx,
                                      attribution, monkeypatch):
    """Several windows, GC runs inside them, recorders and auditor on."""
    monkeypatch.setattr(store_module, "REPLAY_WINDOW_REQUESTS", 256)
    trace = default_workloads(num_requests=900)[workload_idx]
    spec = instrumented_store(policy_name, attribution)
    eager_replay(spec, trace)
    loop = instrumented_store(policy_name, attribution)
    loop.replay(trace)
    assert loop.stats.gc_blocks_written > 0
    assert len(loop.obs.timeline) > 2
    assert ("attr_gc_victims" in loop.obs.timeline.columns) == attribution
    assert_same_outcome(spec, loop)
    assert_same_observations(spec, loop)


@pytest.mark.parametrize("workload_idx", range(len(_WORKLOADS)),
                         ids=_WORKLOADS)
@pytest.mark.parametrize("policy_name", available_policies())
def test_replay_loop_equals_per_block_specification(policy_name,
                                                    workload_idx,
                                                    monkeypatch):
    """The recorder and the attribution ledger (``attr_*`` timeline
    columns)."""
    _check_loop_against_specification(policy_name, workload_idx, True,
                                      monkeypatch)


@pytest.mark.parametrize("workload_idx", range(len(_WORKLOADS)),
                         ids=_WORKLOADS)
@pytest.mark.parametrize("policy_name", available_policies())
def test_traced_replay_loop_equals_per_block_specification(policy_name,
                                                           workload_idx,
                                                           monkeypatch):
    """The tracing recorder alone, without the attribution ledger."""
    _check_loop_against_specification(policy_name, workload_idx, False,
                                      monkeypatch)


def test_replay_loop_equals_specification_without_recorders():
    trace = default_workloads(num_requests=1500)[0]  # two real windows
    cfg = differential_config()
    spec = LogStructuredStore(cfg, make_policy("adapt", cfg))
    eager_replay(spec, trace)
    loop = LogStructuredStore(cfg, make_policy("adapt", cfg))
    loop.replay(trace)
    assert len(loop.policy.adaptation_log) > 2
    assert_same_outcome(spec, loop)


class _NoVictim(VictimPolicy):
    """A cleaner that never finds a victim: the pool runs dry."""

    def select(self, pool, now_seq):
        return None


def test_capacity_error_mid_window_leaves_store_consistent():
    cfg = differential_config()
    store = LogStructuredStore(cfg, make_policy("adapt", cfg))
    store.victim_policy = _NoVictim()
    rng = np.random.default_rng(3)
    trace = make_write_trace(rng.integers(0, 1024, size=4000), gap_us=40)
    with pytest.raises(CapacityError):
        store.replay(trace)
    # Every block that took a slot is booked; the one that raised is not.
    assert 0 < store.user_seq < 4000
    assert store.stats.user_blocks_requested == store.user_seq
    store.check_invariants()
    InvariantAuditor(every_blocks=0).audit(store)
    # The plan died with the replay: the next write is placed per block.
    assert store.policy._plan is None
    lba = int(np.flatnonzero(store.mapping >= 0)[0])
    gid = store.policy.place_user(lba, store.now_us)
    assert 0 <= gid < len(store.groups)


def _one_request_store(blocks: int):
    """A sepgc store and one ``blocks``-block write request at LBA 10."""
    cfg = differential_config()   # 4-block chunks
    store = LogStructuredStore(cfg, make_policy("sepgc", cfg))
    trace = Trace(np.zeros(1, dtype=np.int64),
                  np.full(1, OP_WRITE, dtype=np.uint8),
                  np.array([10], dtype=np.int64),
                  np.array([blocks], dtype=np.int64))
    return store, trace


def test_place_user_raising_after_a_pending_run_books_the_run(monkeypatch):
    """Block 0 opens the segment (a run of one); blocks 1-2 wait as a
    run for the block that fills the chunk; block 3's placement raises.
    The waiting run still takes its slots before the settle."""
    store, trace = _one_request_store(6)
    place_user = store.policy.place_user
    placed = []

    def failing_place_user(lba, now_us):
        if len(placed) == 3:
            raise RuntimeError("placement failed")
        placed.append(lba)
        return place_user(lba, now_us)

    monkeypatch.setattr(store.policy, "place_user", failing_place_user)
    with pytest.raises(RuntimeError, match="placement failed"):
        store.replay(trace)
    reserved = sum(store.pool.fill)
    assert store.user_seq == reserved == 3
    assert store.stats.user_blocks_requested == 3
    assert (store.mapping[10:13] >= 0).all() and store.mapping[13] < 0
    assert store.groups[0].buffer.pending_blocks == 3
    store.check_invariants()


@pytest.mark.parametrize("hook,raises_at", [("flush", 3), ("seal", 15)])
def test_hook_raising_inside_a_run_books_the_blocks_before_it(
        hook, raises_at, monkeypatch):
    """Block 0 opens the segment; blocks 1-3, 4-7, ... are runs whose last
    block fills a chunk (block 15 also fills the 16-block segment).  A
    hook of that fill raises inside the run's reservation.  As on the
    per-block path, the blocks before the one that raised are booked and
    it is not."""
    def fail(*args):
        raise RuntimeError(f"{hook} hook failed")

    stores = []
    for _ in range(2):
        store, trace = _one_request_store(raises_at + 3)
        event = "chunk_flush" if hook == "flush" else "segment_sealed"
        store.subscribe(type("Failing", (StoreObserver,), {event: fail})())
        stores.append(store)
    spec, loop = stores
    with pytest.raises(RuntimeError, match=f"{hook} hook failed"):
        eager_replay(spec, trace)
    with pytest.raises(RuntimeError, match=f"{hook} hook failed"):
        loop.replay(trace)
    assert loop.user_seq == loop.stats.user_blocks_requested == raises_at
    assert (loop.mapping[10:10 + raises_at] >= 0).all()
    assert (loop.mapping[10 + raises_at:] < 0).all()
    assert (spec.mapping == loop.mapping).all()
    for plane in _POOL_PLANES:
        a, b = getattr(spec.pool, plane), getattr(loop.pool, plane)
        assert (a is None and b is None) or np.array_equal(a, b), plane
    loop.check_invariants()


def test_planned_place_user_refuses_a_block_it_did_not_plan():
    cfg = differential_config()
    store = LogStructuredStore(cfg, make_policy("adapt", cfg))
    lbas = np.array([5, 6, 7], dtype=np.int64)
    store.policy.plan_user_writes(lbas, np.zeros(3, dtype=np.int64), 0)
    assert store.policy.place_user(5, 0) in (0, 1)
    store.user_seq = 1
    with pytest.raises(RuntimeError, match="window plan"):
        store.policy.place_user(9, 0)   # the plan has lba 6 at seq 1
    store.user_seq = 3
    with pytest.raises(RuntimeError, match="window plan"):
        store.policy.place_user(7, 0)   # seq 3 is past the window


def _replay_transient_bytes(num_requests: int) -> int:
    """Peak traced memory of one replay above what the run retains
    (policy and store state legitimately grow with the run)."""
    cfg = differential_config()
    store = LogStructuredStore(cfg, make_policy("adapt", cfg))
    rng = np.random.default_rng(11)
    trace = make_write_trace(rng.integers(0, 1024, size=num_requests),
                             gap_us=30)
    tracemalloc.start()
    try:
        store.replay(trace)
        retained, peak = tracemalloc.get_traced_memory()
        return peak - retained
    finally:
        tracemalloc.stop()


def test_replay_memory_is_bounded_by_the_window_not_the_trace():
    """Ten times the requests must not cost ten times the transient
    memory: only window-sized arrays and lists may be live at once."""
    _replay_transient_bytes(2_000)  # warm caches and lazy imports
    small = _replay_transient_bytes(4_000)
    large = _replay_transient_bytes(40_000)
    assert large < 1.5 * small, (small, large)
