"""Tests of the benchmark harness itself.  Run with ``pytest bench/``
(the repository's tier-1 command collects ``tests/`` only).

``test_quick_run_matches_benchmark_json`` runs ``run.py --quick`` end to
end (~20 s); the others are unit tests.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from spans import Tracer  # noqa: E402


def ticking_clock():
    """A clock that advances one second per reading."""
    now = [0.0]

    def clock():
        now[0] += 1.0
        return now[0]
    return clock


def test_self_time_is_duration_minus_children():
    tracer = Tracer(clock=ticking_clock())
    leaf = tracer.wrap(lambda: None, "leaf")
    inner = tracer.wrap(lambda: (leaf(), leaf()), "inner")
    root = tracer.wrap(lambda: (inner(), leaf()), "root")
    root()
    agg = tracer.aggregates()
    # Every call reads the clock twice, one second apart per reading:
    # a leaf lasts 1 s; inner spans 2 leaves = 5 s; root = inner + leaf.
    assert agg["leaf"] == {"calls": 3, "self_s": 3.0, "units": 0}
    assert agg["inner"] == {"calls": 1, "self_s": 5.0 - 2.0, "units": 0}
    assert tracer.rec_dur[0] == 9.0
    assert agg["root"]["self_s"] == 9.0 - 5.0 - 1.0
    assert tracer.total_self_s() == tracer.rec_dur[0]
    # Parents: root has none; inner and the last leaf hang off root.
    names = [tracer.names[i] for i in tracer.rec_name]
    assert names == ["root", "inner", "leaf", "leaf", "leaf"]
    assert list(tracer.rec_parent) == [-1, 0, 1, 1, 0]


def test_same_name_nesting_counts_one_call_and_units_add_up():
    tracer = Tracer(clock=ticking_clock())
    scalar = tracer.wrap(lambda x: x, "layer", lambda a, k, r: 1)
    batch = tracer.wrap(lambda xs: [scalar(x) for x in xs], "layer",
                        lambda a, k, r: 0)
    batch([1, 2, 3])
    agg = tracer.aggregates()["layer"]
    assert agg["calls"] == 1
    assert agg["units"] == 3
    assert agg["self_s"] == tracer.rec_dur[0]


def test_span_closes_when_the_wrapped_call_raises():
    tracer = Tracer(clock=ticking_clock())

    def boom():
        raise KeyError("x")
    wrapped = tracer.wrap(boom, "boom")
    with pytest.raises(KeyError):
        wrapped()
    assert tracer.aggregates()["boom"]["calls"] == 1
    assert tracer._stack == []


def test_wrappers_install_on_defining_class_and_uninstall_fully():
    from layers import install_all
    from repro.core.policy import AdaptPolicy
    from repro.experiments.runner import store_config_for
    from repro.lss.store import LogStructuredStore
    from repro.placement.base import PlacementPolicy
    from repro.placement.registry import make_policy
    from repro.placement.sepgc import SepGCPolicy

    def flags(scheme):
        cfg = store_config_for(8192)
        store = LogStructuredStore(cfg, make_policy(scheme, cfg))
        return (store._fast_flush, store._fast_full,
                store.gc._notify_gc_block)

    before = {s: flags(s) for s in ("adapt", "sepgc", "sepbit")}
    tracer = Tracer()
    install_all(tracer, lambda store: None)
    patched = list(tracer._patches)
    assert len(patched) > 40
    try:
        # The store picks its flush paths by identity tests on policy
        # hooks; wrapped or not, it must pick the same ones.
        assert {s: flags(s) for s in before} == before
        assert SepGCPolicy.candidate_user_gids \
            is PlacementPolicy.candidate_user_gids
        assert AdaptPolicy.candidate_user_gids \
            is not PlacementPolicy.candidate_user_gids
        for hook in ("on_chunk_flush", "before_padding_flush",
                     "on_full_flush_run"):
            assert not hasattr(vars(AdaptPolicy)[hook], "__wrapped__")
        assert hasattr(vars(AdaptPolicy)["place_user"], "__wrapped__")
    finally:
        tracer.uninstall()
    assert tracer.installed == 0
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original
    assert {s: flags(s) for s in before} == before


@pytest.fixture(scope="module")
def quick_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "quick.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick",
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    with open(out) as f:
        return json.loads(proc.stdout.splitlines()[-1]), json.load(f), out


def test_quick_run_matches_benchmark_json(quick_report):
    last_line, report, _ = quick_report
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    workloads = [w["name"] for w in spec["workloads"]]
    assert set(last_line) == {"correct", "attempted", "failed", "metrics"}
    assert last_line["correct"] is True and last_line["failed"] == 0
    assert list(last_line["metrics"]) == workloads
    for name in workloads:
        assert set(last_line["metrics"][name]) == declared
        for entry in last_line["metrics"][name].values():
            assert set(entry) == {"value", "unit"}
        e2e = report["workloads"][name]["end_to_end"]
        assert all(v > 0 for v in e2e.values())
    header = report["header"]
    assert {"seed", "git_sha", "python", "numpy", "nproc",
            "calib"} <= set(header)
    for fp in report["workloads"]["adapt_dense"]["fingerprints"]:
        assert set(fp) == {"volume", "requests", "user_blocks", "sha256"}


def test_compare_refuses_other_inputs_and_accepts_equal_ones(
        quick_report, tmp_path):
    _, report, path = quick_report
    compare = [sys.executable, os.path.join(HERE, "compare.py")]
    same = subprocess.run(compare + [str(path), str(path)],
                          capture_output=True, text=True)
    assert same.returncode == 0, same.stdout + same.stderr
    assert "user_blocks_per_s" in same.stdout

    report["workloads"]["adapt_dense"]["fingerprints"][0]["sha256"] = "0"
    other = tmp_path / "other.json"
    other.write_text(json.dumps(report))
    refused = subprocess.run(compare + [str(path), str(other)],
                             capture_output=True, text=True)
    assert refused.returncode == 2
    assert "fingerprints of adapt_dense differ" in refused.stderr


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".*"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "adapt_dense",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
