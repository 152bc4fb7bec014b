"""One victim ranking per GC run equals a ``select`` per victim.

``GarbageCollector.run`` takes its victims from one
``VictimPolicy.rank`` per run and ranks again only when a seal leaves a
productive segment behind (``SegmentPool.garbage_seals`` moves).  A twin
store whose policy returns ``None`` from ``rank`` is asked per victim,
as every run was before; both must clean the same victims in the same
order and end in the same state, for every placement policy.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.lss.gc import GarbageCollector
from repro.lss.store import LogStructuredStore
from repro.placement.registry import available_policies, make_policy
from repro.validate.differential import (default_workloads,
                                         differential_config)

from tests.lss.test_replay_loop import assert_same_outcome

_WORKLOADS = ("ali", "tencent")


def _replay(monkeypatch, policy_name, workload_idx, victim, per_victim,
            **config):
    """Replay one differential workload; returns the store, the victims
    it cleaned in order, its rank calls and its GC runs.  The counting
    wrappers are patched on the classes for the replay only."""
    cfg = dataclasses.replace(differential_config(victim=victim), **config)
    store = LogStructuredStore(cfg, make_policy(policy_name, cfg))
    victims = type(store.victim_policy)
    seen = {"victims": [], "ranks": 0, "runs": 0}
    rank = victims.rank
    if per_victim:
        def rank(self, pool, now_seq):
            return None
    run, clean = GarbageCollector.run, GarbageCollector.clean_segment

    def counted_rank(self, pool, now_seq):
        seen["ranks"] += 1
        return rank(self, pool, now_seq)

    def counted_run(self, store, now_us):
        seen["runs"] += 1
        return run(self, store, now_us)

    def recorded_clean(self, store, victim, now_us):
        seen["victims"].append(victim)
        clean(self, store, victim, now_us)

    with monkeypatch.context() as m:
        m.setattr(victims, "rank", counted_rank)
        m.setattr(GarbageCollector, "run", counted_run)
        m.setattr(GarbageCollector, "clean_segment", recorded_clean)
        store.replay(default_workloads(num_requests=900)[workload_idx])
    return store, seen


@pytest.mark.parametrize("victim", ["greedy", "cost-benefit"])
@pytest.mark.parametrize("workload_idx", range(len(_WORKLOADS)),
                         ids=_WORKLOADS)
@pytest.mark.parametrize("policy_name", available_policies())
def test_rank_once_per_run_equals_select_per_victim(policy_name,
                                                    workload_idx, victim,
                                                    monkeypatch):
    ranked, seen = _replay(monkeypatch, policy_name, workload_idx, victim,
                           False)
    twin, twin_seen = _replay(monkeypatch, policy_name, workload_idx,
                              victim, True)
    assert seen["runs"] > 0
    assert seen["victims"] == twin_seen["victims"]
    assert_same_outcome(twin, ranked)


def test_a_seal_with_garbage_mid_run_ranks_again(monkeypatch):
    """DAC's MIXED groups take GC blocks into segments whose user blocks
    died: such a segment seals productive during the run, and the run
    ranks again — with the same victims as the per-victim twin.  Long
    runs (a high watermark of 20 free segments) let such a segment win
    before its run ends: without the re-rank the victims diverge."""
    ranked, seen = _replay(monkeypatch, "dac", 1, "greedy", False,
                           gc_free_high=20)
    twin, twin_seen = _replay(monkeypatch, "dac", 1, "greedy", True,
                              gc_free_high=20)
    assert seen["ranks"] > seen["runs"]
    assert seen["victims"] == twin_seen["victims"]
    assert_same_outcome(twin, ranked)
