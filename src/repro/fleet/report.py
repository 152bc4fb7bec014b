"""Fleet-level reporting: per-volume reports and cross-tenant aggregates.

Per-volume results travel as plain dicts (picklable across worker
processes, checkpointable, JSON-serialisable verbatim), and the fleet
summary is *deterministic by construction*: volumes are sorted by tenant
name, aggregates are pure arithmetic over them, and nothing wall-clock
ever enters the payload — an interrupted-and-resumed run therefore
writes a byte-identical ``fleet_summary.json`` to an uninterrupted one.
Timing and machine facts go to a separate run-info file instead.
"""

from __future__ import annotations

import json
import math

import numpy as np

from repro.obs.atomicio import atomic_write

#: Fleet summary schema version.  v2: volume reports carry an
#: ``attribution`` snapshot, and the aggregate gains ``metrics_totals``
#: (counters + histograms, not just counters) and a merged
#: ``attribution`` section when the spec collected them.  v3: the spec
#: has no ``engine`` and attribution snapshots no chunk-termination
#: section.  v4: the aggregate has no ``metrics_counter_totals`` (it
#: repeated ``metrics_totals.counters``).  v5: a metrics snapshot's
#: ``final`` is the recorder timeline's last row (its columns, NaN as
#: ``null``) and ``timeline_rows`` is always present; ``series_rows``
#: and ``events_sampled_out`` are gone.  v6: metrics snapshots have no
#: ``events_dropped`` (a tracer without a sink only counts, and drops
#: nothing).
SUMMARY_SCHEMA = 6

#: Percentiles reported for every headline ratio.
PERCENTILES = (50, 95, 99)

#: Headline per-volume ratios aggregated into fleet percentiles.
_RATIO_KEYS = ("write_amplification", "padding_traffic_ratio",
               "gc_traffic_ratio")

#: Per-volume counters summed into fleet totals.
_TOTAL_KEYS = ("user_blocks_requested", "flash_blocks_written",
               "gc_blocks_written", "shadow_blocks_written",
               "padding_blocks_written", "read_requests",
               "write_requests", "gc_passes", "gc_segments_reclaimed")


def volume_report(spec, tenant_id: str, store, recorder=None) -> dict:
    """Snapshot one finished volume replay as a plain dict."""
    stats = store.stats
    return {
        "volume": tenant_id,
        "scheme": spec.scheme,
        "victim": spec.victim,
        "stats": stats.summary(),
        "groups": [
            {"name": g.name, "kind": g.kind, "user": g.user_blocks,
             "gc": g.gc_blocks, "shadow": g.shadow_blocks,
             "padding": g.padding_blocks}
            for g in stats.groups],
        "policy_memory_bytes": store.policy.memory_bytes(),
        "metrics": recorder.snapshot() if recorder is not None else None,
        # Always present; populated only when the spec collected
        # attribution.
        "attribution": (store.attribution.snapshot()
                        if store.attribution is not None else None),
    }


def percentile(ordered: list[float], q: float) -> float:
    """The ``q``-th percentile of the ascending ``ordered``, bit for bit
    ``np.percentile``'s default (linear) method, which NumPy 2 computes
    through ``numpy.ma`` — a module nothing else in a fleet run needs.

    The rank ``h = (n - 1) * q / 100`` falls between ``a`` and ``b``; the
    result is ``a + (b - a) * t`` for the fraction ``t`` of ``h``, or
    ``b - (b - a) * (1 - t)`` from ``t = 0.5`` on, as NumPy's ``_lerp``.
    """
    h = (len(ordered) - 1) * (q / 100)
    lo = math.floor(h)
    t = h - lo
    a = ordered[lo]
    b = ordered[min(lo + 1, len(ordered) - 1)]
    d = b - a
    return b - d * (1 - t) if t >= 0.5 else a + d * t


def aggregate_fleet(volumes: list[dict]) -> dict:
    """Cross-tenant aggregates over per-volume report dicts.

    Percentiles describe the *distribution* across tenants (a fleet's
    SLA view: the p99 tenant's WA, not the mean); totals and the
    traffic-weighted overall ratios describe the shared store's bill.
    """
    if not volumes:
        return {"volumes": 0}
    percentiles: dict[str, dict[str, float]] = {}
    for key in _RATIO_KEYS:
        values = np.array([v["stats"][key] for v in volumes],
                          dtype=np.float64)
        ordered = sorted(values.tolist())
        percentiles[key] = {
            f"p{p}": percentile(ordered, p) for p in PERCENTILES}
        percentiles[key]["mean"] = float(values.mean())
        percentiles[key]["max"] = float(values.max())
    totals = {key: float(sum(v["stats"][key] for v in volumes))
              for key in _TOTAL_KEYS}
    user = totals["user_blocks_requested"]
    flash = totals["flash_blocks_written"]
    overall = {
        "write_amplification": flash / user if user else 0.0,
        "padding_traffic_ratio":
            totals["padding_blocks_written"] / flash if flash else 0.0,
        "gc_traffic_ratio":
            totals["gc_blocks_written"] / flash if flash else 0.0,
    }
    out = {
        "volumes": len(volumes),
        "percentiles": percentiles,
        "totals": totals,
        "overall": overall,
    }
    snapshots = [v["metrics"] for v in volumes if v.get("metrics")]
    if snapshots:
        out["metrics_totals"] = _merge_metrics(snapshots)
    from repro.obs.attribution import merge_attribution_snapshots
    attribution = merge_attribution_snapshots(
        [v.get("attribution") for v in volumes])
    if attribution is not None:
        out["attribution"] = attribution
    return out


def _merge_metrics(snapshots: list[dict]) -> dict:
    """Sum the volumes' metric snapshots: counters, and histograms bucket
    by bucket (every histogram has the same edges).  Gauges are
    point-in-time values with no meaningful cross-volume sum, so they
    are dropped; keys come out sorted."""
    counters: dict[str, float] = {}
    histograms: dict[str, dict] = {}
    for snap in snapshots:
        for name, value in snap["counters"].items():
            counters[name] = counters.get(name, 0.0) + value
        for name, h in snap["histograms"].items():
            cur = histograms.setdefault(name, {
                "edges": h["edges"], "counts": [0] * len(h["counts"]),
                "sum": 0.0, "count": 0})
            cur["counts"] = [a + b for a, b in zip(cur["counts"],
                                                   h["counts"])]
            cur["sum"] += h["sum"]
            cur["count"] += h["count"]
    return {"volumes": len(snapshots),
            "counters": dict(sorted(counters.items())),
            "histograms": dict(sorted(histograms.items()))}


def fleet_summary(spec, num_shards: int, volumes: list[dict]) -> dict:
    """The canonical (deterministic) fleet summary payload."""
    ordered = sorted(volumes, key=lambda v: v["volume"])
    return {
        "schema": SUMMARY_SCHEMA,
        "fleet": spec.to_dict(),
        "fleet_key": spec.fleet_key(),
        "num_shards": num_shards,
        "aggregate": aggregate_fleet(ordered),
        "volumes": ordered,
    }


def write_fleet_summary(summary: dict, path: str) -> str:
    """Atomically write the summary as canonical JSON (sorted keys, fixed
    separators — byte-stable given equal content)."""
    with atomic_write(path) as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def render_fleet(summary: dict) -> str:
    """Human-readable fleet report for the CLI."""
    from repro.experiments.report import render_table
    agg = summary["aggregate"]
    spec = summary["fleet"]
    rows = []
    for key, label in (("write_amplification", "WA"),
                       ("padding_traffic_ratio", "padding"),
                       ("gc_traffic_ratio", "gc")):
        cell = agg["percentiles"][key]
        rows.append([label, f"{agg['overall'][key]:.3f}",
                     f"{cell['mean']:.3f}", f"{cell['p50']:.3f}",
                     f"{cell['p95']:.3f}", f"{cell['p99']:.3f}",
                     f"{cell['max']:.3f}"])
    table = render_table(
        ["metric", "overall", "mean", "p50", "p95", "p99", "max"], rows,
        title=(f"{spec['scheme']} fleet: {agg['volumes']} x "
               f"{spec['profile']} volumes "
               f"({spec['volume_requests']} req/vol, "
               f"{summary['num_shards']} shard(s))"))
    totals = agg["totals"]
    table += (f"\ntotals: {totals['user_blocks_requested']:,.0f} user "
              f"blocks, {totals['flash_blocks_written']:,.0f} flash "
              f"blocks, {totals['gc_passes']:,.0f} GC passes")
    return table


__all__ = ["PERCENTILES", "SUMMARY_SCHEMA", "aggregate_fleet",
           "fleet_summary", "percentile", "render_fleet", "volume_report",
           "write_fleet_summary"]
