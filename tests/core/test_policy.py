"""AdaptPolicy end-to-end unit behaviour."""

import numpy as np
import pytest

from repro.core.config import AdaptConfig
from repro.core.policy import AdaptPolicy
from repro.lss.group import GroupKind
from repro.lss.store import LogStructuredStore

from tests.conftest import make_write_trace


def make(cfg, **kwargs):
    pol = AdaptPolicy(cfg, adapt=AdaptConfig(**kwargs))
    return LogStructuredStore(cfg, pol), pol


def test_group_layout_matches_fig4(small_config):
    _, pol = make(small_config)
    specs = pol.group_specs()
    assert len(specs) == 6
    assert [s.kind for s in specs[:2]] == [GroupKind.USER] * 2
    assert all(s.kind == GroupKind.GC for s in specs[2:])


def test_quick_rewrite_is_hot(small_config):
    store, pol = make(small_config, enable_demotion=False)
    store.process_request(0, 1, 5, 1)
    assert pol.place_user(5, 10) == AdaptPolicy.HOT


def test_stale_rewrite_is_cold(small_config):
    store, pol = make(small_config, enable_demotion=False)
    store.process_request(0, 1, 5, 1)
    store.user_seq += 100 * small_config.segment_blocks
    assert pol.place_user(5, 10) == AdaptPolicy.COLD


def test_first_write_footprint_proxy(small_config):
    """With a huge threshold, first writes go hot; with a tiny one, cold."""
    store, pol = make(small_config, enable_demotion=False,
                      enable_threshold_adaptation=False)
    pol.threshold = 10 ** 9
    assert pol.place_user(42, 0) == AdaptPolicy.HOT
    pol.threshold = 0.5
    assert pol.place_user(43, 0) == AdaptPolicy.COLD


def test_gc_age_ladder_uses_lifespan(small_config):
    store, pol = make(small_config, enable_demotion=False)
    store.process_request(0, 1, 5, 1)
    pol._lifespan = 100.0
    store.user_seq = 200          # age < 4*lifespan
    assert pol.place_gc(5, 0, 0) == AdaptPolicy.GC_BASE
    store.user_seq = 900          # 4l <= age < 16l
    assert pol.place_gc(5, 0, 0) == AdaptPolicy.GC_BASE + 1
    store.user_seq = 100_000      # oldest band
    assert pol.place_gc(5, 0, 0) == AdaptPolicy.GC_BASE + 3


def test_adaptation_rounds_happen(small_config):
    store, pol = make(small_config, sample_rate=0.5,
                      adapt_every_fraction=0.02)
    rng = np.random.default_rng(0)
    tr = make_write_trace(rng.integers(0, 8192, size=30_000), gap_us=20)
    store.replay(tr)
    assert len(pol.adaptation_log) > 0
    assert pol.threshold > 0


def test_disabled_threshold_adaptation_tracks_lifespan(small_config):
    store, pol = make(small_config, enable_threshold_adaptation=False)
    assert pol.ladder is None
    rng = np.random.default_rng(1)
    store.replay(make_write_trace(rng.integers(0, 8192, size=20_000),
                                  gap_us=20))
    assert len(pol.adaptation_log) == 0
    assert pol.threshold == pytest.approx(pol._lifespan)


def test_memory_accounting_components(small_config):
    store, pol = make(small_config)
    base = small_config.logical_blocks * 8  # int64 last-write array
    assert pol.memory_bytes() >= base
    off = AdaptPolicy(small_config, adapt=AdaptConfig(
        enable_demotion=False, enable_threshold_adaptation=False))
    assert off.memory_bytes() < pol.memory_bytes()


def test_demotion_only_for_cold_bound(small_config):
    store, pol = make(small_config, enable_aggregation=False,
                      enable_threshold_adaptation=False, bloom_capacity=2)
    # Prime the RA identifier so lba 5 scores 2 in gc-0: two same-group
    # migrations landing in different cascade filters.
    gid = AdaptPolicy.GC_BASE
    d = pol.demotion.discriminators[gid]
    d.insert_many([5])
    d.insert_many([99])   # fill filter 1 (capacity 2)
    d.insert_many([5])    # filter 2
    assert d.score(5) == 2
    store.process_request(0, 1, 5, 1)
    # Quick rewrite: hot-bound, must NOT be demoted.
    assert pol.place_user(5, 10) == AdaptPolicy.HOT
    # Stale rewrite: cold-bound and scored -> demoted into gc-0.
    store.user_seq += 10 ** 6
    assert pol.place_user(5, 20) == gid


def test_full_replay_all_mechanisms(small_config):
    store, pol = make(small_config, sample_rate=0.3)
    rng = np.random.default_rng(2)
    gaps = rng.choice([10, 400], size=25_000)
    lbas = rng.integers(0, 8192, size=25_000)
    from repro.trace.model import Trace
    tr = Trace(np.cumsum(gaps), np.ones(25_000, dtype=np.uint8), lbas,
               np.ones(25_000, dtype=np.int64))
    store.replay(tr)
    store.check_invariants()
    assert store.stats.write_amplification() >= 1.0
