"""The SLA clock: one due time per store and per ghost set, and flush
records only for listeners.

A store ticks only once a request reaches its due time
(``LogStructuredStore.due_us``), a lower bound on the earliest armed
SLA deadline that arming appends lower and every tick that runs sets
exactly; a ghost set polls its two chunks on the same rule.  Both must
fire exactly what a scan of every chunk at every request fires.  A
group books a flush itself and builds a ``ChunkFlush`` record only when
some observer overrides ``chunk_flush``.
"""

from __future__ import annotations

import contextlib
import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.array.coalescing import ChunkFlush, FlushReason
from repro.common.observer import StoreObserver
from repro.core.ghost import GhostSet
from repro.lss import group as group_module
from repro.lss.gc import GarbageCollector
from repro.lss.store import LogStructuredStore
from repro.placement.registry import make_policy
from repro.trace.model import OP_WRITE, Trace
from repro.validate.differential import (default_workloads,
                                         differential_config)

from tests.conftest import FlushLog
from tests.lss.test_replay_loop import (_POOL_PLANES, assert_same_outcome,
                                       eager_replay)

#: DAC's 5 and MiDA's 8 MIXED groups all run SLA windows; 512 blocks is
#: the smallest differential volume that holds MiDA's groups.
_SLA_HEAVY = ("dac", "mida")
_LOGICAL_BLOCKS = 512


def _store(policy_name: str) -> LogStructuredStore:
    cfg = differential_config(logical_blocks=_LOGICAL_BLOCKS)
    return LogStructuredStore(cfg, make_policy(policy_name, cfg))


def _trace(seed: int, n: int) -> Trace:
    """``n`` write requests of 1-4 blocks whose gaps straddle the 100 µs
    window: some chunks fill, some wait for a restart, some pad."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 5, size=n)
    offsets = rng.integers(0, _LOGICAL_BLOCKS - 4, size=n)
    gaps = np.where(rng.random(n) < 0.7, rng.integers(0, 60, size=n),
                    rng.integers(60, 400, size=n))
    return Trace(np.cumsum(gaps).astype(np.int64),
                 np.full(n, OP_WRITE, dtype=np.uint8),
                 offsets.astype(np.int64), sizes.astype(np.int64))


def assert_due_bounds_deadlines(store: LogStructuredStore) -> None:
    for group in store.groups:
        deadline = group.buffer.deadline_us
        if deadline is not None:
            assert store.due_us <= deadline, (group.gid, deadline)


class DeadlineLog(StoreObserver):
    """``(gid, time)`` of every DEADLINE flush, in firing order."""

    def __init__(self, store) -> None:
        self.fired: list[tuple[int, int]] = []
        store.subscribe(self)

    def chunk_flush(self, group, flush) -> None:
        if flush.reason is FlushReason.DEADLINE:
            self.fired.append((group.gid, flush.time_us))


@contextlib.contextmanager
def checked_gc_runs():
    """Every GC run, on any store, ends with ``due_us`` bounding every
    armed deadline; yields the list whose length counts the runs."""
    runs: list[int] = []
    real = GarbageCollector.run

    def run(gc, store, now_us):
        real(gc, store, now_us)
        assert_due_bounds_deadlines(store)
        runs.append(now_us)

    with mock.patch.object(GarbageCollector, "run", run):
        yield runs


@pytest.mark.parametrize("policy_name", _SLA_HEAVY)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(450, 650))
@settings(max_examples=8, deadline=None)
def test_due_time_bounds_deadlines_and_fires_what_a_full_scan_fires(
        policy_name, seed, n):
    trace = _trace(seed, n)
    with checked_gc_runs() as runs:
        fired = _fired_three_ways(policy_name, trace)
    assert fired[0], "nothing padded"
    assert fired[1] == fired[0]
    assert fired[2] == fired[0]
    assert runs, "no GC run"


def _fired_three_ways(policy_name: str, trace: Trace) -> list:
    """DEADLINE fires of a scan at every request, of the per-request
    path and of the replay loop; the bound is checked after every
    request of the per-request path and at the loop's end."""
    # The specification of firing: every group scanned at every request.
    scan = _store(policy_name)
    scanned = DeadlineLog(scan)
    for row in trace.iter_requests():
        scan.due_us = row[0]
        scan.process_request(*row)
    per_request = _store(policy_name)
    eager = DeadlineLog(per_request)
    for row in trace.iter_requests():
        per_request.process_request(*row)
        assert_due_bounds_deadlines(per_request)
    loop = _store(policy_name)
    looped = DeadlineLog(loop)
    loop.replay(trace, finalize=False)
    assert_due_bounds_deadlines(loop)
    assert loop.stats.summary() == scan.stats.summary()
    return [scanned.fired, eager.fired, looped.fired]


def _ghost_state(g: GhostSet) -> tuple:
    return (g.blocks_written, g.blocks_discarded, g.padding_blocks,
            g.gc_passes, g._total_slots, sorted(g._where),
            [(s.blocks, s.padding, s.valid, s.sealed) for s in g._open],
            [(s.blocks, s.padding, s.valid, s.sealed) for s in g._sealed],
            list(g._pending), list(g._timer))


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 300))
@settings(max_examples=60, deadline=None)
def test_ghost_record_many_split_while_armed_equals_one_call(seed, n):
    """Cut the sample stream only where a ghost chunk's timer is armed:
    the due time carried across calls must poll exactly where one call,
    per-sample ``record`` calls and a poll of both chunks at every
    sample (the specification) poll."""
    rng = np.random.default_rng(seed)
    lbas = rng.integers(0, 40, size=n).tolist()
    ts = np.cumsum(np.where(rng.random(n) < 0.8, rng.integers(0, 30, n),
                            rng.integers(30, 120, n))).tolist()
    intervals = [None if rng.random() < 0.3 else float(rng.integers(0, 64))
                 for _ in range(n)]

    def make():
        return GhostSet(threshold=16.0, segment_blocks=16, chunk_blocks=4,
                        window_us=50, garbage_limit=0.5)

    scan, per_sample, armed_at = make(), make(), []
    for i in range(n):
        scan._due = ts[i]
        scan.record(lbas[i], intervals[i], ts[i])
        per_sample.record(lbas[i], intervals[i], ts[i])
        if any(t is not None for t in per_sample._timer):
            armed_at.append(i + 1)
    assert _ghost_state(per_sample) == _ghost_state(scan)
    one = make()
    one.record_many(lbas, intervals, ts)
    cuts = sorted(set(rng.choice(armed_at, size=min(len(armed_at), 6))
                      .tolist())) if armed_at else []
    split = make()
    for a, b in zip([0] + cuts, cuts + [n]):
        split.record_many(lbas[a:b], intervals[a:b], ts[a:b])
    assert _ghost_state(one) == _ghost_state(per_sample)
    assert _ghost_state(split) == _ghost_state(per_sample)


class _CountedFlush(ChunkFlush):
    built = 0

    def __init__(self, *args, **kwargs) -> None:
        type(self).built += 1
        super().__init__(*args, **kwargs)


@pytest.fixture
def counted_flushes(monkeypatch):
    monkeypatch.setattr(_CountedFlush, "built", 0)
    monkeypatch.setattr(group_module, "ChunkFlush", _CountedFlush)
    return _CountedFlush


def _sepgc_replay(observe: bool, eager: bool = False):
    trace = default_workloads(num_requests=900)[0]
    cfg = differential_config()
    store = LogStructuredStore(cfg, make_policy("sepgc", cfg))
    log = FlushLog(store) if observe else None
    if eager:
        eager_replay(store, trace)
    else:
        store.replay(trace)
    return store, log


def test_unobserved_replay_builds_no_flush_record(counted_flushes):
    store, _ = _sepgc_replay(observe=False)
    assert sum(g.chunk_flushes for g in store.stats.groups) > 0
    assert store.stats.raid.data_chunks > 0
    assert counted_flushes.built == 0


def test_observed_replay_gets_the_per_block_records(counted_flushes):
    looped, log = _sepgc_replay(observe=True)
    assert counted_flushes.built == len(log.flushes) > 0
    spec, spec_log = _sepgc_replay(observe=True, eager=True)
    assert log.flushes == spec_log.flushes
    assert {f.reason for f in log.flushes} \
        >= {FlushReason.FULL, FlushReason.DEADLINE}
    assert_same_outcome(spec, looped)
    bare, _ = _sepgc_replay(observe=False)
    assert_same_outcome(bare, looped)


class _FailsOnDeadline(StoreObserver):
    """A listener that raises inside the ``after``-th DEADLINE flush."""

    def __init__(self, after: int) -> None:
        self.left = after

    def chunk_flush(self, group, flush) -> None:
        if flush.reason is FlushReason.DEADLINE:
            self.left -= 1
            if not self.left:
                raise RuntimeError("listener failed")


@pytest.mark.parametrize("policy_name", ("sepgc", "adapt", "mida"))
def test_listener_raising_in_a_deadline_flush_leaves_store_consistent(
        policy_name):
    """The replay loop stops where the per-block specification stops,
    with the same state: the flush that raised is booked, nothing after
    it is, and the due time still bounds every armed deadline."""
    trace = default_workloads(num_requests=900)[0]
    cfg = differential_config()
    failed = []
    for replay in (LogStructuredStore.replay, eager_replay):
        store = LogStructuredStore(cfg, make_policy(policy_name, cfg))
        store.subscribe(_FailsOnDeadline(after=40))
        with pytest.raises(RuntimeError, match="listener failed"):
            replay(store, trace)
        assert 0 < store.user_seq < trace.total_write_blocks()
        assert store.stats.user_blocks_requested == store.user_seq
        store.check_invariants()
        assert_due_bounds_deadlines(store)
        failed.append(store)
    loop, spec = failed
    # Everything the store holds, as assert_same_outcome compares it, but
    # not the policy: ADAPT's window plan has already run its trace-pure
    # state (sampler, rho, first-write footprint) to the window's end.
    assert (spec.mapping == loop.mapping).all()
    for plane in _POOL_PLANES:
        assert np.array_equal(getattr(spec.pool, plane),
                              getattr(loop.pool, plane)), plane
    assert spec.pool._free == loop.pool._free
    assert spec.pool._append_seq == loop.pool._append_seq
    for a, b in zip(spec.stats.groups, loop.stats.groups):
        assert dataclasses.asdict(a) == dataclasses.asdict(b), a.name
    assert dataclasses.asdict(spec.stats.raid) \
        == dataclasses.asdict(loop.stats.raid)
    assert spec.stats.summary() == loop.stats.summary()
    assert (spec.user_seq, spec.now_us) == (loop.user_seq, loop.now_us)
