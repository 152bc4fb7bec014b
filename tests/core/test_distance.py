"""Reuse-interval tracker vs a naive reference implementation."""

import numpy as np

from repro.core.distance import DistanceTracker
from repro.core.policy import AdaptPolicy
from repro.lss.config import LSSConfig
from repro.lss.store import LogStructuredStore
from repro.perf.expand import expand_trace
from repro.trace.synthetic.ycsb import generate_ycsb_a


def naive_distance(history: list[int], key: int) -> int | None:
    """Unique other keys since `key`'s previous access, or None."""
    if key not in history:
        return None
    last = len(history) - 1 - history[::-1].index(key)
    return len(set(history[last + 1:]))


def test_first_access_returns_none():
    t = DistanceTracker()
    assert t.access(5) is None


def test_immediate_reaccess_distance_zero():
    t = DistanceTracker()
    t.access(5)
    assert t.access(5) == 0


def test_simple_sequence():
    t = DistanceTracker()
    # a b c a : distance of second 'a' is 2 (b, c intervene)
    t.access(1); t.access(2); t.access(3)
    assert t.access(1) == 2


def test_duplicates_counted_once():
    t = DistanceTracker()
    # a b b b a : only one distinct intervening key
    t.access(1)
    t.access(2); t.access(2); t.access(2)
    assert t.access(1) == 1


def test_matches_naive_reference_on_random_stream():
    rng = np.random.default_rng(0)
    stream = rng.integers(0, 50, size=2000).tolist()
    t = DistanceTracker()
    history: list[int] = []
    for key in stream:
        expected = naive_distance(history, key)
        assert t.access(key) == expected
        history.append(key)
    t.check_invariants()


def test_len_counts_distinct_keys():
    t = DistanceTracker()
    for k in (1, 2, 2, 3):
        t.access(k)
    assert len(t) == 3


def test_memory_accounting_uses_papers_44_bytes():
    t = DistanceTracker()
    for k in range(10):
        t.access(k)
    assert t.memory_bytes() == 440


def test_adapt_replay_tracks_one_key_per_sampled_written_lba():
    """The tracker never forgets a key, and need not: its keys are
    the sampled LBAs the replay wrote (reads are not tracked), so its
    size is bounded by the logical blocks."""
    cfg = LSSConfig(logical_blocks=4096, segment_blocks=64)
    policy = AdaptPolicy(cfg)
    trace = generate_ycsb_a(4096, 12_000, read_ratio=0.5, seed=3)
    LogStructuredStore(cfg, policy).replay(trace)
    written = np.unique(expand_trace(trace).lbas)
    sampled = written[policy.sampler.is_sampled_batch(written)]
    assert 0 < len(policy.distance._last_pos) == sampled.size
    assert set(policy.distance._last_pos) == set(sampled.tolist())
    assert sampled.size < written.size <= cfg.logical_blocks
    policy.distance.check_invariants()
