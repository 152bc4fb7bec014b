"""Prototype throughput model (Fig 12a shape)."""

import pytest

from repro.common.errors import ConfigError
from repro.prototype.engine import (
    PrototypeConfig,
    run_client_sweep,
    run_prototype,
)

SMALL = PrototypeConfig(unique_blocks=8192, num_writes=30_000)


def test_single_client_is_client_bound():
    res = run_prototype("sepgc", 1, SMALL)
    assert not res.bandwidth_bound
    assert res.throughput_ops == pytest.approx(res.offered_ops)


def test_many_clients_hit_bandwidth():
    res = run_prototype("sepgc", 16, SMALL)
    assert res.bandwidth_bound
    assert res.throughput_ops == pytest.approx(res.capacity_ops)


def test_sweep_shares_profile_and_orders_schemes():
    sweep = run_client_sweep(["sepgc", "sepbit", "adapt"], [1, 8], SMALL)
    # One client: all schemes within a few percent (client-bound);
    # SepGC has the cheapest lookup, hence the slight edge (paper §4.4).
    one = {s: r[0].throughput_ops for s, r in sweep.items()}
    assert max(one.values()) / min(one.values()) < 1.05
    assert one["sepgc"] == max(one.values())
    # Eight clients: bandwidth-bound; lower WA means more user throughput.
    eight = {s: r[1] for s, r in sweep.items()}
    for s, r in eight.items():
        if r.bandwidth_bound:
            assert r.throughput_ops < sweep[s][0].offered_ops * 8


def test_throughput_monotone_in_clients():
    cfg = SMALL
    prev = 0.0
    cache: dict = {}
    for n in (1, 2, 4, 8):
        t = run_prototype("sepbit", n, cfg, _profile_cache=cache)
        assert t.throughput_ops >= prev - 1e-9
        prev = t.throughput_ops


def test_capacity_reflects_wa():
    cache: dict = {}
    a = run_prototype("adapt", 8, SMALL, _profile_cache=cache)
    assert a.capacity_ops > 0
    assert a.write_amplification >= 1.0
    assert 0 <= a.parity_overhead <= 1.0


def test_throughput_mib_conversion():
    res = run_prototype("sepgc", 1, SMALL)
    assert res.throughput_mib == pytest.approx(
        res.throughput_ops * 4096 / (1024 * 1024))


def test_validation():
    with pytest.raises(ConfigError):
        run_prototype("sepgc", 0, SMALL)
