"""``benchmarks/pairs.py``: the paired statistics it reports."""

from __future__ import annotations

import json
import os

from benchmarks.pairs import ROOT, summarize


def _report(blocks_per_s: float, wa: float = 2.0) -> dict:
    return {"workloads": {"w": {"end_to_end": {
        "user_blocks_per_s": blocks_per_s, "write_amplification": wa,
        "peak_rss_mb": 40.0, "setup_s": 0.3}}}}


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_a_steady_gain_resolves():
    a = [100.0, 104.0, 98.0, 101.0, 99.0, 103.0, 97.0, 102.0, 100.0, 96.0]
    pairs = [(_report(x), _report(1.4 * x)) for x in a]
    row = summarize(pairs, _spec())["w"]["user_blocks_per_s"]
    assert row["b_ahead"] == row["pairs"] == 10
    assert abs(row["median_ratio"] - 1.4) < 1e-12
    assert row["resolves"]
    wa = summarize(pairs, _spec())["w"]["write_amplification"]
    assert wa["b_ahead"] == 0 and wa["median_ratio"] == 1.0
    assert not wa["resolves"]


def test_a_gain_inside_the_baseline_spread_does_not_resolve():
    # B wins every pair by 2 %, but A's own runs spread by far more.
    a = [80.0, 120.0, 90.0, 110.0, 100.0, 85.0, 115.0, 95.0, 105.0, 100.0]
    pairs = [(_report(x), _report(1.02 * x)) for x in a]
    row = summarize(pairs, _spec())["w"]["user_blocks_per_s"]
    assert row["b_ahead"] == 10
    assert not row["resolves"]


def test_lower_is_better_metrics_count_drops_as_wins():
    pairs = [(_report(100.0, wa=2.0), _report(100.0, wa=1.5))
             for _ in range(10)]
    row = summarize(pairs, _spec())["w"]["write_amplification"]
    assert row["b_ahead"] == 10 and row["median_ratio"] == 0.75
    assert row["resolves"]


def _rss_pairs(gain_mb: float) -> list[tuple[dict, dict]]:
    a = [45.40, 45.42, 45.44, 45.41, 45.43, 45.45, 45.42, 45.44, 45.41,
         45.43]
    pairs = []
    for x in a:
        ra, rb = _report(100.0), _report(100.0)
        ra["workloads"]["w"]["end_to_end"]["peak_rss_mb"] = x
        rb["workloads"]["w"]["end_to_end"]["peak_rss_mb"] = x - gain_mb
        pairs.append((ra, rb))
    return pairs


def test_a_small_rss_gain_does_not_resolve():
    # Lower in every pair and far outside A's spread, but 0.2 MiB is the
    # size of an allocator-layout shift between two equal trees.
    row = summarize(_rss_pairs(0.2), _spec())["w"]["peak_rss_mb"]
    assert row["b_ahead"] == row["pairs"] == 10
    assert not row["resolves"]


def test_an_rss_gain_above_the_floor_resolves():
    row = summarize(_rss_pairs(3.0), _spec())["w"]["peak_rss_mb"]
    assert row["b_ahead"] == 10
    assert row["resolves"]
