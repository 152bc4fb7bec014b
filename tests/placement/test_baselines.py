"""Unit semantics of the five baseline placement policies."""

import pytest

from repro.lss.group import GroupKind
from repro.lss.store import LogStructuredStore
from repro.placement.dac import DACPolicy
from repro.placement.mida import MiDAPolicy
from repro.placement.sepbit import SepBITPolicy
from repro.placement.sepgc import SepGCPolicy
from repro.placement.warcip import WarcipPolicy


def bind(policy, cfg):
    """Bind a policy to a real store so user_seq advances normally.  The
    policy holds the store weakly: the caller keeps what this returns."""
    return LogStructuredStore(cfg, policy)


# ----------------------------------------------------------------------
# SepGC
# ----------------------------------------------------------------------
def test_sepgc_routes(small_config):
    pol = SepGCPolicy(small_config)
    _store = bind(pol, small_config)
    assert pol.place_user(1, 0) == SepGCPolicy.USER_GROUP
    assert pol.place_gc(1, 0, 0) == SepGCPolicy.GC_GROUP
    kinds = [s.kind for s in pol.group_specs()]
    assert kinds == [GroupKind.USER, GroupKind.GC]


# ----------------------------------------------------------------------
# DAC
# ----------------------------------------------------------------------
def test_dac_promote_on_write(small_config):
    pol = DACPolicy(small_config, num_regions=5)
    _store = bind(pol, small_config)
    assert pol.place_user(7, 0) == 0           # first write: coldest
    assert pol.place_user(7, 1) == 1           # promote
    assert pol.place_user(7, 2) == 2
    for _ in range(10):
        g = pol.place_user(7, 3)
    assert g == 4                              # capped at hottest


def test_dac_demote_on_gc(small_config):
    pol = DACPolicy(small_config, num_regions=5)
    _store = bind(pol, small_config)
    pol.place_user(7, 0)
    pol.place_user(7, 1)   # region 1
    assert pol.place_gc(7, victim_group=1, now_us=2) == 0
    assert pol.place_gc(7, victim_group=0, now_us=3) == 0  # floor


def test_dac_all_groups_mixed(small_config):
    pol = DACPolicy(small_config)
    assert all(s.kind == GroupKind.MIXED for s in pol.group_specs())
    assert pol.memory_bytes() > 0


def test_dac_validation(small_config):
    with pytest.raises(ValueError):
        DACPolicy(small_config, num_regions=1)


# ----------------------------------------------------------------------
# MiDA
# ----------------------------------------------------------------------
def test_mida_migration_counting(small_config):
    pol = MiDAPolicy(small_config, num_groups=4)
    _store = bind(pol, small_config)
    assert pol.place_user(9, 0) == 0
    assert pol.place_gc(9, 0, 1) == 1
    assert pol.place_gc(9, 1, 2) == 2
    assert pol.place_gc(9, 2, 3) == 3
    assert pol.place_gc(9, 3, 4) == 3          # capped
    assert pol.place_user(9, 5) == 0           # user write resets


def test_mida_groups_and_memory(small_config):
    pol = MiDAPolicy(small_config)
    assert len(pol.group_specs()) == 8          # paper configuration
    assert all(s.kind == GroupKind.MIXED for s in pol.group_specs())
    assert pol.memory_bytes() == small_config.logical_blocks


def test_mida_validation(small_config):
    with pytest.raises(ValueError):
        MiDAPolicy(small_config, num_groups=1)


# ----------------------------------------------------------------------
# WARCIP
# ----------------------------------------------------------------------
def test_warcip_first_write_goes_coldest_cluster(small_config):
    pol = WarcipPolicy(small_config, num_clusters=5)
    _store = bind(pol, small_config)
    assert pol.place_user(3, 0) == 4


def test_warcip_gc_group_is_last(small_config):
    pol = WarcipPolicy(small_config, num_clusters=5)
    _store = bind(pol, small_config)
    assert pol.place_gc(3, 0, 0) == 5
    specs = pol.group_specs()
    assert specs[5].kind == GroupKind.GC
    assert all(s.kind == GroupKind.USER for s in specs[:5])


def test_warcip_short_intervals_cluster_low(small_config):
    pol = WarcipPolicy(small_config, num_clusters=5)
    store = bind(pol, small_config)
    # Rapid rewrites of one block: intervals of ~1 block => hottest cluster.
    for i in range(20):
        store.process_request(i * 10, 1, 3, 1)
    g = pol.place_user(3, 999)
    assert g <= 1


def test_warcip_centroids_stay_sorted(small_config):
    pol = WarcipPolicy(small_config)
    store = bind(pol, small_config)
    import numpy as np
    rng = np.random.default_rng(0)
    for i in range(500):
        store.process_request(i * 10, 1, int(rng.integers(0, 512)), 1)
    assert all(a <= b for a, b in zip(pol._centroids, pol._centroids[1:]))


def test_warcip_validation(small_config):
    with pytest.raises(ValueError):
        WarcipPolicy(small_config, num_clusters=1)
    with pytest.raises(ValueError):
        WarcipPolicy(small_config, learning_rate=0)


# ----------------------------------------------------------------------
# SepBIT
# ----------------------------------------------------------------------
def test_sepbit_first_write_cold(small_config):
    pol = SepBITPolicy(small_config)
    _store = bind(pol, small_config)
    assert pol.place_user(5, 0) == SepBITPolicy.COLD


def test_sepbit_quick_rewrite_hot(small_config):
    pol = SepBITPolicy(small_config)
    store = bind(pol, small_config)
    store.process_request(0, 1, 5, 1)
    # Rewrite immediately: distance 1 << threshold (segment size).
    assert pol.place_user(5, 10) == SepBITPolicy.HOT


def test_sepbit_long_gap_cold(small_config):
    pol = SepBITPolicy(small_config)
    store = bind(pol, small_config)
    store.process_request(0, 1, 5, 1)
    store.user_seq += 10 * small_config.segment_blocks  # simulate traffic
    assert pol.place_user(5, 10) == SepBITPolicy.COLD


def test_sepbit_gc_age_ladder(small_config):
    pol = SepBITPolicy(small_config, num_gc_groups=4)
    store = bind(pol, small_config)
    store.process_request(0, 1, 5, 1)
    thr = pol.threshold
    base = SepBITPolicy.GC_BASE
    store.user_seq = int(thr)           # young
    assert pol.place_gc(5, 0, 0) == base
    store.user_seq = int(5 * thr)       # second band
    assert pol.place_gc(5, 0, 0) == base + 1
    store.user_seq = int(20 * thr)      # third band
    assert pol.place_gc(5, 0, 0) == base + 2
    store.user_seq = int(1000 * thr)    # oldest band
    assert pol.place_gc(5, 0, 0) == base + 3


def test_sepbit_threshold_learns_from_hot_reclaims(small_config):
    pol = SepBITPolicy(small_config, ewma_alpha=1.0)
    store = bind(pol, small_config)
    store.user_seq = 500
    pol.segment_reclaimed(seg=0, group_id=SepBITPolicy.HOT, created_seq=0,
                          valid_blocks=0, now_us=0)
    assert pol.threshold == 500
    store.user_seq = 9999
    pol.segment_reclaimed(seg=0, group_id=SepBITPolicy.COLD, created_seq=0,
                          valid_blocks=0, now_us=0)
    assert pol.threshold == 500  # cold reclaims don't update


def test_sepbit_group_layout(small_config):
    specs = SepBITPolicy(small_config).group_specs()
    assert len(specs) == 6
    assert [s.kind for s in specs[:2]] == [GroupKind.USER] * 2
    assert all(s.kind == GroupKind.GC for s in specs[2:])


def test_sepbit_validation(small_config):
    with pytest.raises(ValueError):
        SepBITPolicy(small_config, num_gc_groups=0)
    with pytest.raises(ValueError):
        SepBITPolicy(small_config, ewma_alpha=0)
