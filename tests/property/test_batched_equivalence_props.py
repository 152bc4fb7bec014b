"""Property suite: the batched ADAPT hot-path primitives are bit-identical
to their scalar reference loops over randomized interleavings.

Each test drives two copies of the same component from the same randomized
stream — one through the scalar per-record API, one through the batched
API with a random chop into sub-batches (including size-1 batches, which
must also compose with interleaved scalar calls) — and asserts the full
observable state matches, not just the final answers.

At policy level the batched API is the window plan:
``AdaptPolicy.plan_user_writes`` followed by one planned ``place_user``
per block must equal the unplanned ``place_user`` under exactly what a
GC-free batch contract would forbid — GC hooks firing between any two
blocks, arbitrary window cuts, duplicate LBAs across a cut.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.array.chunk import ChunkGeometry
from repro.common.observer import StoreEvents
from repro.core.config import AdaptConfig
from repro.core.distance import DistanceTracker
from repro.core.ghost import GhostSet
from repro.core.policy import AdaptPolicy
from repro.core.sampling import SpatialSampler
from repro.core.threshold import ThresholdLadder
from repro.lss.config import LSSConfig
from repro.obs.events import EventTracer

from tests.conftest import DecisionTally, spilled_events

pytestmark = pytest.mark.property


def _chop(rng: np.random.Generator, n: int) -> list[tuple[int, int]]:
    """Random partition of ``range(n)`` into contiguous batches."""
    cuts = sorted(rng.choice(np.arange(1, n), size=min(n - 1, int(
        rng.integers(0, max(n // 2, 1)))), replace=False).tolist()) \
        if n > 1 else []
    bounds = [0] + cuts + [n]
    return list(zip(bounds[:-1], bounds[1:]))


def _ghost_state(g: GhostSet) -> tuple:
    """Full observable state of a ghost set, buffers included."""
    return (
        g.blocks_written, g.blocks_discarded, g.padding_blocks,
        g.gc_passes, g._total_slots,
        sorted(g._where),
        [(s.blocks, s.padding, s.valid, s.sealed) for s in g._open],
        [(s.blocks, s.padding, s.valid, s.sealed) for s in g._sealed],
        list(g._pending), list(g._timer),
    )


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300))
@settings(max_examples=60, deadline=None)
def test_ghost_record_many_matches_scalar(seed, n):
    rng = np.random.default_rng(seed)
    lbas = rng.integers(0, 40, size=n).tolist()
    ts, t = [], 0
    for _ in range(n):
        t += int(rng.integers(0, 60))
        ts.append(t)
    intervals: list[float | None] = [
        None if rng.random() < 0.3 else float(rng.integers(0, 64))
        for _ in range(n)]

    def make():
        return GhostSet(threshold=16.0, segment_blocks=16, chunk_blocks=4,
                        window_us=50, garbage_limit=0.5)

    ref, bat = make(), make()
    for i in range(n):
        ref.record(lbas[i], intervals[i], ts[i])
    for a, b in _chop(rng, n):
        if rng.random() < 0.25:
            # Mix scalar calls into the batched stream: both paths share
            # one canonical state, so arbitrary interleavings must agree.
            for i in range(a, b):
                bat.record(lbas[i], intervals[i], ts[i])
        else:
            bat.record_many(lbas[a:b], intervals[a:b], ts[a:b])
    assert _ghost_state(ref) == _ghost_state(bat)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 200),
       num_sets=st.integers(2, 5))
@settings(max_examples=25, deadline=None)
def test_ladder_record_batch_matches_scalar(seed, n, num_sets):
    """The ladder replicates duplicate-threshold multiplicity: a warm
    ghost set reused in m grid slots must see each sample m times."""
    rng = np.random.default_rng(seed)
    lbas = rng.integers(0, 32, size=n).tolist()
    ts = np.cumsum(rng.integers(0, 40, size=n)).tolist()
    intervals = [None if rng.random() < 0.3 else float(rng.integers(0, 32))
                 for _ in range(n)]

    def make():
        return ThresholdLadder(num_sets=num_sets, segment_blocks=16,
                               chunk_blocks=4, window_us=50,
                               garbage_limit=0.5)

    ref, bat = make(), make()
    for i in range(n):
        ref.record(lbas[i], intervals[i], ts[i])
    for a, b in _chop(rng, n):
        bat.record_batch(lbas[a:b], intervals[a:b], ts[a:b])
    for gr, gb in zip(ref.ghost_sets, bat.ghost_sets):
        assert _ghost_state(gr) == _ghost_state(gb)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 400),
       rate=st.sampled_from([0.01, 0.1, 0.5, 1.0]))
@settings(max_examples=50, deadline=None)
def test_sampler_batch_matches_scalar(seed, n, rate):
    rng = np.random.default_rng(seed)
    lbas = rng.integers(0, 10_000, size=n)
    s = SpatialSampler(rate, salt=int(rng.integers(0, 2**31)))
    scalar = np.array([s.is_sampled(int(x)) for x in lbas])
    assert np.array_equal(s.is_sampled_batch(lbas), scalar)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300))
@settings(max_examples=50, deadline=None)
def test_distance_access_many_matches_scalar(seed, n):
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 50, size=n).tolist()
    ref, bat = DistanceTracker(), DistanceTracker()
    want = [ref.access(k) for k in keys]
    got: list[int | None] = []
    for a, b in _chop(rng, n):
        got.extend(bat.access_many(keys[a:b]))
    assert got == want
    bat.check_invariants()


# ----------------------------------------------------------------------
# policy level: planned == unplanned place_user
# ----------------------------------------------------------------------
class _Clock:
    """What a policy reads off its store: the clock and the event seam,
    here a spilling event log and a decision tally."""

    user_seq = 0

    def __init__(self, tracer: EventTracer) -> None:
        self.tally = DecisionTally()
        self.events = StoreEvents((tracer, self.tally))


def _bound_adapt(demotion: bool, adaptation: bool, spill_path: str):
    cfg = LSSConfig(logical_blocks=256, segment_blocks=8,
                    chunk=ChunkGeometry(chunk_bytes=16 * 1024),
                    over_provisioning=0.6, gc_free_low=4, gc_free_high=6)
    policy = AdaptPolicy(cfg, adapt=AdaptConfig(
        sample_rate=0.5, adapt_every_fraction=0.05,
        enable_demotion=demotion, enable_threshold_adaptation=adaptation,
        bloom_filters=3, bloom_capacity=8))
    tracer = EventTracer(spill_path=spill_path)
    clock = _Clock(tracer)
    policy.bind(clock)
    return policy, clock, tracer


def _adapt_state(policy: AdaptPolicy, tracer: EventTracer) -> tuple:
    ladder, demotion = policy.ladder, policy.demotion
    return (
        policy._last_user_write.tobytes(), policy.threshold,
        policy._lifespan, policy._ghost_adapted, policy._rho,
        policy._unique_seen, policy._sampled_since_adapt,
        policy.adaptation_log,
        (policy.distance._clock, policy.distance._last_pos,
         policy.distance._live_positions),
        None if ladder is None else (
            ladder.mode, ladder.rounds,
            [_ghost_state(g) for g in ladder.ghost_sets]),
        None if demotion is None else (demotion.lookups,
                                       demotion.demotions),
        spilled_events(tracer),
        vars(policy._store().tally),
    )


def _drive_planned_against_unplanned(seed: int, n: int, demotion: bool,
                                     adaptation: bool):
    """Feed one random stream to an unplanned and a planned policy, with
    the same GC-side mutations between blocks; returns both end states
    (and asserts every placement and the threshold along the way)."""
    with tempfile.TemporaryDirectory() as tmp:
        return _drive(seed, n, demotion, adaptation,
                      os.path.join(tmp, "ref.jsonl"),
                      os.path.join(tmp, "planned.jsonl"))


def _drive(seed: int, n: int, demotion: bool, adaptation: bool,
           ref_spill: str, pol_spill: str):
    rng = np.random.default_rng(seed)
    ref, ref_clock, ref_rec = _bound_adapt(demotion, adaptation, ref_spill)
    pol, pol_clock, pol_rec = _bound_adapt(demotion, adaptation, pol_spill)
    lbas = rng.integers(0, 48, size=n)  # duplicates within and across cuts
    ts = np.cumsum(rng.integers(0, 200, size=n))
    gc_gids = [AdaptPolicy.GC_BASE + i for i in range(4)]
    for a, b in _chop(rng, n):
        pol.plan_user_writes(lbas[a:b], ts[a:b], a)
        for i in range(a, b):
            ref_clock.user_seq = pol_clock.user_seq = i
            if rng.random() < 0.1:
                # A reclaim moves _lifespan (and, before the first ghost
                # adaptation, the threshold itself).
                gid = int(rng.integers(0, 2))
                age = int(rng.integers(1, 200))
                for p in (ref, pol):
                    p.segment_reclaimed(0, gid, max(i - age, 0), 3, 0)
            if rng.random() < 0.3:
                # Same-group migrations feed the demotion cascade.
                g = int(rng.choice(gc_gids))
                lba = np.array([int(rng.integers(0, 48))])
                for p in (ref, pol):
                    p.gc_blocks(lba, g, np.array([g]), lba, lba)
            lba, t = int(lbas[i]), int(ts[i])
            assert ref.place_user(lba, t) == pol.place_user(lba, t), i
            assert ref.threshold == pol.threshold, i
    pol.plan_user_writes(lbas[:0], ts[:0], n)
    assert pol._plan is None
    return _adapt_state(ref, ref_rec), _adapt_state(pol, pol_rec)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 400),
       demotion=st.booleans(), adaptation=st.booleans())
@settings(max_examples=60, deadline=None)
def test_planned_place_user_matches_unplanned(seed, n, demotion,
                                              adaptation):
    ref, planned = _drive_planned_against_unplanned(seed, n, demotion,
                                                    adaptation)
    assert ref == planned


def test_planned_place_user_driver_reaches_every_mechanism():
    """The stream above is not vacuous: rounds close (checkpoints are
    applied mid-window, after reclaims moved the lifespan), first writes
    and rewrites both occur, and demotion fires."""
    ref, planned = _drive_planned_against_unplanned(7, 400, True, True)
    assert ref == planned
    adaptation_log, demotion, events = planned[7], planned[10], planned[11]
    assert len(adaptation_log) >= 3
    assert demotion[1] > 0
    kinds = {e["type"] for e in events}
    assert {"threshold_switch", "demotion"} <= kinds


def test_planned_decisions_reach_every_observer_of_the_seam():
    """The policy fires its demotions and threshold switches into the
    store's event seam: the event log and an observer beside it hear
    exactly what the policy counts, planned or not."""
    for state in _drive_planned_against_unplanned(7, 400, True, True):
        threshold, adaptation_log, demotion = state[1], state[7], state[10]
        events, tally = state[11], state[12]
        kinds = [e["type"] for e in events]
        assert tally["demotions"] == demotion[1] \
            == kinds.count("demotion") > 0
        assert tally["threshold_switches"] == len(adaptation_log) \
            == kinds.count("threshold_switch") > 0
        assert tally["threshold"] == threshold
