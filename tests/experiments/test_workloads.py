"""Workload construction for the figure drivers, and the trace layer's
fingerprints.

Every trace is generated from its seed, so the sha256 of a fleet's four
columns pins the generator: a change that moves any synthetic trace (a
reseed, a profile or a generator change) fails
``test_trace_fingerprints`` and names the fleet.  Such a change then
regenerates the figures and their digests (see
``test_figure_digests.py``) and, in the same change, these
fingerprints: paste the dict that

    PYTHONPATH=src python -m tests.experiments.test_workloads

prints over :data:`FINGERPRINTS`.
"""

import hashlib
import os

import numpy as np
import pytest

from repro.experiments import workloads
from repro.experiments.scale import SMOKE
from repro.experiments.workloads import (
    BASELINES,
    PROFILES,
    SCHEMES,
    fleet_for,
    stats_fleet_for,
)
from repro.fleet.spec import FleetSpec

#: sha256 over (timestamps, ops, offsets, sizes) of each trace, in order.
FINGERPRINTS = {
    "fleet_for/ali":
        "4710ff58dbe5800ed6b396d630aec10bf6dac7cb364ece763670d31c66a0c376",
    "fleet_for/msrc":
        "359df30afabf136e57b40d815de86816f657def203a895f3fb904c9bf16afbd9",
    "fleet_for/tencent":
        "cfa43c314a4db7000202c285753a300b98f618571b86d3b96af00e764c983436",
    "stats_fleet_for/ali":
        "afc5ec544cff8dd5aed6be1eaae79aab262fc5732e68bdd4f0905b5f6f6477c9",
    "stats_fleet_for/msrc":
        "3e606e9d697f609d4d755833283c95631d02ea7ad29d85194054b9f57281cc9c",
    "stats_fleet_for/tencent":
        "6a719aa8da1f0372a338aae20a2b771629cb5387c8f3fc02550de50c3bfb3854",
    "stream/ali-0000":
        "3efa623a8ee6015e37e7b87b94f2376141df3a7dd6aa3283291742b77c1563a1",
}


def _digest(traces) -> str:
    h = hashlib.sha256()
    for t in traces:
        for column in (t.timestamps, t.ops, t.offsets, t.sizes):
            h.update(column.tobytes())
    return h.hexdigest()


def _traces(name: str):
    """The traces behind one :data:`FINGERPRINTS` key, at smoke scale."""
    source, _, which = name.partition("/")
    if source == "stream":
        # The first tenant `adapt-repro fleet --scale smoke` replays.
        return [FleetSpec(num_volumes=1).volume_stream(which).materialize()]
    build = {"fleet_for": fleet_for, "stats_fleet_for": stats_fleet_for}
    return build[source](which, SMOKE)


@pytest.mark.parametrize("name", sorted(FINGERPRINTS))
def test_trace_fingerprints(name):
    assert _digest(_traces(name)) == FINGERPRINTS[name], (
        f"the trace layer moved: the smoke-scale {name} traces are not "
        f"the pinned ones; regenerate the figures, their digests and "
        f"these fingerprints (see this module's docstring)")


def test_fleets_write_nothing_under_home(tmp_path, monkeypatch):
    monkeypatch.setenv("HOME", str(tmp_path))
    workloads._fleet_cached.cache_clear()
    try:
        assert len(fleet_for("ali", SMOKE)) == SMOKE.num_volumes
    finally:
        workloads._fleet_cached.cache_clear()
    assert os.listdir(tmp_path) == []


def test_scheme_lists_consistent():
    assert set(BASELINES) | {"adapt"} == set(SCHEMES)
    assert len(PROFILES) == 3


def test_fleet_is_cached_identity():
    a = fleet_for("ali", SMOKE)
    b = fleet_for("ali", SMOKE)
    # Same underlying Trace objects (the lru_cache hit), fresh lists.
    assert a is not b
    assert all(x is y for x, y in zip(a, b))


def test_fleet_sizes_match_scale():
    fleet = fleet_for("msrc", SMOKE)
    assert len(fleet) == SMOKE.num_volumes
    for t in fleet:
        assert len(t) == SMOKE.volume_requests
        assert t.max_lba() < SMOKE.volume_blocks


def test_stats_fleet_is_lighter_but_wider():
    stats = stats_fleet_for("ali", SMOKE)
    main = fleet_for("ali", SMOKE)
    assert len(stats) == SMOKE.stats_volumes > len(main)
    assert len(stats[0]) < len(main[0])


def test_profiles_produce_distinct_fleets():
    a = fleet_for("ali", SMOKE)[0]
    t = fleet_for("tencent", SMOKE)[0]
    assert not np.array_equal(a.offsets, t.offsets)


if __name__ == "__main__":
    import json
    print(json.dumps({name: _digest(_traces(name))
                      for name in sorted(FINGERPRINTS)}, indent=4))
