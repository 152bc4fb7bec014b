"""The bench harness: measurement plumbing, snapshots, regression gate."""

from __future__ import annotations

import json

import pytest

from repro.experiments.scale import Scale
from repro.perf.bench import (bench_filename, compare_bench,
                              find_previous_bench, render_bench, run_bench,
                              write_bench)

TINY = Scale("t", num_volumes=1, volume_blocks=4096,
             volume_requests=150, stats_volumes=1,
             ycsb_blocks=4096, ycsb_writes=100)


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path_factory, monkeypatch):
    monkeypatch.setenv("ADAPT_REPRO_CACHE_DIR",
                       str(tmp_path_factory.mktemp("cache")))


@pytest.fixture(scope="module")
def result():
    return run_bench(TINY, policies=["sepgc", "mida"],
                     profiles=("ali",), repeats=1, date="2026-01-02")


def test_run_bench_cells_and_speedups(result):
    assert result["scale"] == "t" and result["date"] == "2026-01-02"
    cells = result["cells"]
    assert len(cells) == 2 * 1 * 2  # policies x profiles x engines
    for c in cells:
        assert c["user_blocks"] > 0
        assert c["seconds"] > 0
        assert c["blocks_per_sec"] == pytest.approx(
            c["user_blocks"] / c["seconds"], rel=1e-3)
    # Both engines replay the identical trace: same work counted.
    by_pair = {}
    for c in cells:
        by_pair.setdefault((c["policy"], c["workload"]), set()).add(
            c["user_blocks"])
    assert all(len(v) == 1 for v in by_pair.values())
    assert set(result["speedups"]) == {"sepgc/ali", "mida/ali"}


def test_write_and_find_previous(result, tmp_path):
    path = write_bench(result, str(tmp_path))
    assert path.endswith(bench_filename("2026-01-02"))
    loaded = json.loads(open(path).read())
    assert loaded["cells"] == result["cells"]
    # The snapshot itself must not become its own baseline.
    assert find_previous_bench(str(tmp_path), exclude=path) is None
    older = dict(result, date="2026-01-01")
    old_path = write_bench(older, str(tmp_path))
    assert find_previous_bench(str(tmp_path), exclude=path) == old_path
    assert find_previous_bench(str(tmp_path / "missing")) is None


def _snap(scale="t", **bps):
    cells = [{"policy": p, "workload": "ali", "engine": "batched",
              "seconds": 1.0, "user_blocks": 100, "blocks_per_sec": v}
             for p, v in bps.items()]
    return {"scale": scale, "cells": cells}


def test_compare_bench_thresholds():
    base = _snap(sepgc=1000.0, mida=1000.0)
    # 20% drop passes a 25% gate, 60% drop fails it.
    cur = _snap(sepgc=800.0, mida=400.0)
    regs = compare_bench(cur, base, threshold=0.25)
    assert [r["policy"] for r in regs] == ["mida"]
    assert regs[0]["change"] == pytest.approx(-0.6)
    # Tighter gate catches both; looser gate neither.
    assert len(compare_bench(cur, base, threshold=0.1)) == 2
    assert compare_bench(cur, base, threshold=0.7) == []
    # Improvements never regress.
    assert compare_bench(_snap(sepgc=2000.0), base, threshold=0.0) == []


def test_compare_bench_ignores_mismatched_cells_and_scales():
    base = _snap(sepgc=1000.0)
    # New policy absent from the baseline: not comparable, not a failure.
    assert compare_bench(_snap(warcip=1.0), base, threshold=0.25) == []
    # Different scale = different workload, never compared.
    assert compare_bench(_snap(scale="x", sepgc=1.0), base,
                         threshold=0.25) == []
    # Zero-throughput baseline cells are skipped, not divided by.
    assert compare_bench(_snap(sepgc=1.0), _snap(sepgc=0.0),
                         threshold=0.25) == []


def test_render_bench_table_and_regressions(result):
    out = render_bench(result)
    assert "sepgc" in out and "mida" in out and "speedup" in out
    regs = [{"policy": "sepgc", "workload": "ali", "engine": "batched",
             "baseline_blocks_per_sec": 1000.0,
             "current_blocks_per_sec": 400.0, "change": -0.6}]
    out = render_bench(result, regs, baseline_path="BENCH_X.json")
    assert "BENCH_X.json" in out and "-60.0%" in out
    out = render_bench(result, [], baseline_path="BENCH_X.json")
    assert "no cells regressed" in out


def test_obs_axis_cells_and_overhead():
    result = run_bench(TINY, policies=["sepgc"], profiles=("ali",),
                       repeats=1, obs_modes=("off", "metrics", "trace"),
                       date="2026-01-02")
    cells = result["cells"]
    modes = {(c["engine"], c["obs"]) for c in cells}
    # trace x batched is skipped: per-event tracing needs the scalar
    # engine; every other combination runs.
    assert modes == {("scalar", "off"), ("scalar", "metrics"),
                     ("scalar", "trace"), ("batched", "off"),
                     ("batched", "metrics")}
    # Instrumentation must never change the replayed work.
    assert len({c["user_blocks"] for c in cells}) == 1
    assert set(result["obs_overhead"]) == {"sepgc/ali/scalar",
                                           "sepgc/ali/batched"}
    assert all(v > 0 for v in result["obs_overhead"].values())
    assert set(result["engine_skips"]) == {"sepgc/trace"}
    assert "batch-capable" in result["engine_skips"]["sepgc/trace"]
    # Speedups only compare uninstrumented cells.
    assert set(result["speedups"]) == {"sepgc/ali"}
    out = render_bench(result)
    assert "metrics-mode overhead" in out
    with pytest.raises(ValueError, match="unknown obs mode"):
        run_bench(TINY, policies=["sepgc"], profiles=("ali",), repeats=1,
                  obs_modes=("metrics", "bogus"))


def test_batched_cells_skipped_for_multi_group_policies():
    result = run_bench(TINY, policies=["adapt", "sepgc"], profiles=("ali",),
                       repeats=1, date="2026-01-02")
    assert {(c["policy"], c["engine"]) for c in result["cells"]} == {
        ("adapt", "scalar"), ("sepgc", "scalar"), ("sepgc", "batched")}
    assert set(result["engine_skips"]) == {"adapt/off"}
    assert "more than one group" in result["engine_skips"]["adapt/off"]
    assert set(result["speedups"]) == {"sepgc/ali"}
    assert "no batched cell for adapt/off" in render_bench(result)


def test_attr_axis_cells_and_overhead():
    result = run_bench(TINY, policies=["sepgc"], profiles=("ali",),
                       repeats=1, obs_modes=("off", "metrics"),
                       attr_modes=("off", "on"), date="2026-01-02")
    cells = result["cells"]
    modes = {(c["engine"], c["obs"], c["attr"]) for c in cells}
    # attr=on only pairs with obs=off: the two overhead axes never
    # confound each other.
    assert modes == {("scalar", "off", "off"), ("scalar", "off", "on"),
                     ("scalar", "metrics", "off"),
                     ("batched", "off", "off"), ("batched", "off", "on"),
                     ("batched", "metrics", "off")}
    # Attribution must never change the replayed work.
    assert len({c["user_blocks"] for c in cells}) == 1
    assert set(result["attr_overhead"]) == {"sepgc/ali/scalar",
                                            "sepgc/ali/batched"}
    assert all(v > 0 for v in result["attr_overhead"].values())
    # Speedups and obs overhead only compare attr=off cells.
    assert set(result["speedups"]) == {"sepgc/ali"}
    assert set(result["obs_overhead"]) == {"sepgc/ali/scalar",
                                           "sepgc/ali/batched"}
    out = render_bench(result)
    assert "attribution overhead" in out
    with pytest.raises(ValueError, match="unknown attr mode"):
        run_bench(TINY, policies=["sepgc"], profiles=("ali",), repeats=1,
                  attr_modes=("on", "bogus"))


def test_compare_bench_matches_on_attr_mode():
    base = _snap(sepgc=1000.0)
    cur = _snap(sepgc=400.0)
    for c in cur["cells"]:
        c["attr"] = "on"
    # attr=on cells never compare against (implicit) attr=off cells.
    assert compare_bench(cur, base, threshold=0.25) == []
    for c in base["cells"]:
        c["attr"] = "on"
    assert len(compare_bench(cur, base, threshold=0.25)) == 1


def _counting(cls, extra=()):
    """Subclass of ``cls`` whose every ``on_*`` hook (and the ``extra``
    entry points) counts its invocations; returns ``(subclass, calls)``."""
    from collections import Counter
    calls = Counter()
    hooks = {}
    for name in dir(cls):
        if name.startswith("on_") or name in extra:
            def hook(self, *args, _name=name, _orig=getattr(cls, name),
                     **kwargs):
                calls[_name] += 1
                return _orig(self, *args, **kwargs)
            hooks[name] = hook
    return type("Counting" + cls.__name__, (cls,), hooks), calls


@pytest.mark.parametrize("policy,engine,rec_bound,attr_bound", [
    ("sepgc", "batched", 0.3, 0.1),
    ("adapt", "scalar", 1.75, 0.1),
])
def test_obs_hook_calls_per_user_block_bounded(policy, engine, rec_bound,
                                               attr_bound):
    """What bounds the instrumentation overhead is how often the store
    calls into the recorder and the attribution sink.  On a fixed trace
    those call counts are deterministic, so tier-1 bounds them per user
    block (measured: sepgc 0.21 / 0.054, adapt 0.23 / 0.022); the
    wall-clock cost lives in the bench's ``obs_overhead`` /
    ``attr_overhead`` maps."""
    from repro.experiments.runner import store_config_for
    from repro.experiments.workloads import fleet_for
    from repro.lss.store import LogStructuredStore
    from repro.obs.attribution import AttributionRecorder
    from repro.obs.recorder import ObsRecorder
    from repro.placement.registry import make_policy

    scale = Scale("ovh", num_volumes=1, volume_blocks=8192,
                  volume_requests=6000, stats_volumes=1,
                  ycsb_blocks=8192, ycsb_writes=4000)
    trace = fleet_for("ali", scale)[0]
    recorder_cls, rec_calls = _counting(
        ObsRecorder, extra=("gauge", "count", "inc_many"))
    attribution_cls, attr_calls = _counting(AttributionRecorder)
    cfg = store_config_for(scale.volume_blocks, seed=0)
    store = LogStructuredStore(cfg, make_policy(policy, cfg),
                               recorder=recorder_cls(),
                               attribution=attribution_cls())
    blocks = store.replay(trace, engine=engine).user_blocks_requested
    assert store.replay_engine[0] == engine
    assert blocks > 10_000
    assert sum(rec_calls.values()) / blocks < rec_bound
    assert sum(attr_calls.values()) / blocks < attr_bound
    # Every flush reaches the recorder through the one flush hook (a
    # run of FULL flushes in one call), and user writes through the
    # bulk hook — once per settle or chunk, never once per block.
    assert 0 < rec_calls["on_chunk_flush"] <= \
        sum(g.chunk_flushes for g in store.stats.groups)
    assert rec_calls["on_user_write"] == 0
    assert 0 < rec_calls["on_user_write_bulk"] < blocks / 10


def test_compare_bench_matches_on_obs_mode():
    base = _snap(sepgc=1000.0)
    cur = _snap(sepgc=400.0)
    for c in cur["cells"]:
        c["obs"] = "metrics"
    # obs=metrics cells never compare against (implicit) obs=off cells.
    assert compare_bench(cur, base, threshold=0.25) == []
    for c in base["cells"]:
        c["obs"] = "metrics"
    regs = compare_bench(cur, base, threshold=0.25)
    assert [r["obs"] for r in regs] == ["metrics"]


def test_cli_bench_smoke(tmp_path, monkeypatch):
    from repro.cli import main
    monkeypatch.chdir(tmp_path)
    rc = main(["bench", "--scale", "smoke", "--policies", "sepgc",
               "--repeats", "1", "--engines", "batched",
               "--obs", "off,metrics",
               "--out", str(tmp_path), "--no-trace-cache",
               "--profile-out", str(tmp_path / "prof" / "bench.json")])
    assert rc == 0
    snaps = list(tmp_path.glob("BENCH_*.json"))
    assert len(snaps) == 1
    snap = json.loads(snaps[0].read_text())
    assert snap["scale"] == "smoke"
    assert {c["policy"] for c in snap["cells"]} == {"sepgc"}
    assert {c["obs"] for c in snap["cells"]} == {"off", "metrics"}
    assert snap["obs_overhead"]
    trace = json.loads((tmp_path / "prof" / "bench.json").read_text())
    assert any(e.get("name") == "expand" for e in trace["traceEvents"])
    # The CLI resets the global profiler after the run.
    from repro.obs.profile import NULL_PROFILER, current
    assert current() is NULL_PROFILER


def test_cli_bench_check_gate(tmp_path):
    """--check exits non-zero against a fabricated much-faster baseline."""
    from repro.cli import main
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps({
        "scale": "smoke",
        "cells": [{"policy": "sepgc", "workload": "ali",
                   "engine": "batched", "seconds": 1.0,
                   "user_blocks": 100, "blocks_per_sec": 1e12}]}))
    rc = main(["bench", "--scale", "smoke", "--policies", "sepgc",
               "--repeats", "1", "--engines", "batched",
               "--out", str(tmp_path), "--threshold", "0.5",
               "--baseline", str(baseline), "--check",
               "--no-trace-cache"])
    assert rc == 1
    # Without --check the same regression only reports, never fails.
    rc = main(["bench", "--scale", "smoke", "--policies", "sepgc",
               "--repeats", "1", "--engines", "batched",
               "--out", str(tmp_path), "--threshold", "0.5",
               "--baseline", str(baseline), "--no-trace-cache"])
    assert rc == 0


def test_run_fleet_bench_cells_and_scaling():
    from repro.perf.bench import run_fleet_bench
    fleet = run_fleet_bench(TINY, workers_list=(1, 2), volumes=2)
    assert fleet["scheme"] == "adapt" and fleet["profile"] == "ali"
    assert [c["workers"] for c in fleet["cells"]] == [1, 2]
    blocks = {c["user_blocks"] for c in fleet["cells"]}
    assert len(blocks) == 1  # same fleet spec -> same work at every count
    for c in fleet["cells"]:
        assert c["volumes"] == 2
        assert c["blocks_per_sec"] > 0
    assert fleet["scaling"]["1w"] == pytest.approx(1.0)


def test_render_bench_includes_fleet_section(result):
    shown = dict(result)
    shown["fleet"] = {
        "scheme": "adapt", "profile": "ali",
        "cells": [{"workers": 1, "volumes": 4, "seconds": 1.0,
                   "user_blocks": 1000, "blocks_per_sec": 1000.0},
                  {"workers": 2, "volumes": 4, "seconds": 0.6,
                   "user_blocks": 1000, "blocks_per_sec": 1666.7}],
        "scaling": {"1w": 1.0, "2w": 1.667},
    }
    text = render_bench(shown)
    assert "fleet scaling" in text
    assert "2 worker(s)" in text and "1.67x" in text
