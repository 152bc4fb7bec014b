"""Bottleneck explainer: turn profiler + attribution artifacts into a
ranked report.

``adapt-repro analyze`` is the first step of any perf investigation
(docs/performance.md): it consumes whatever subset of the three obs
artifacts a run produced —

* a :class:`~repro.obs.profile.PhaseProfiler` Chrome trace
  (``--profile-out``), ranking where wall-clock went;
* an attribution JSON (:mod:`repro.obs.attribution`), naming *why*
  chunks ended (dominant termination cause) and which groups generate
  the write-amplification overhead;
* a replay timeline CSV/JSONL (:mod:`repro.obs.timeline`), for the
  final WA trajectory row;

— and emits one report (dict + text table, written atomically) whose
headline is the dominant chunk-termination cause and the top
WA-contributing groups, followed by rule-based recommendations keyed on
the same thresholds the ROADMAP discussions use.
"""

from __future__ import annotations

import csv
import json
from typing import Any

from repro.obs.atomicio import atomic_write
from repro.obs.attribution import (
    CAUSE_DEADLINE_RESERVE,
    CAUSE_GC_CAPACITY,
    CAUSE_MAX_BLOCKS,
    CAUSE_MAX_REQUESTS,
    CAUSE_SCALAR_FALLBACK,
)

#: Report schema version.
ANALYZE_SCHEMA = 1


# ----------------------------------------------------------------------
# artifact loaders
# ----------------------------------------------------------------------
def load_chrome_trace(path: str) -> dict:
    """Aggregate a Chrome ``trace_event`` JSON into per-phase totals.

    Returns ``{"phases": {name: {"count", "total_us"}},
    "profile_events_dropped": n}``.  Complete events (``ph == "X"``) are
    summed by name; a cell span (``cell:scheme:volume``) keeps its full
    name so per-cell time stays distinguishable.
    """
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    phases: dict[str, dict] = {}
    for ev in data.get("traceEvents", []):
        if ev.get("ph") != "X":
            continue
        name = ev.get("name", "?")
        agg = phases.setdefault(name, {"count": 0, "total_us": 0.0})
        agg["count"] += 1
        agg["total_us"] += float(ev.get("dur", 0.0))
    other = data.get("otherData", {})
    dropped = int(other.get("profile_events_dropped",
                            other.get("dropped_events", 0)))
    return {"phases": phases, "profile_events_dropped": dropped}


def load_timeline_tail(path: str) -> dict | None:
    """Final row of a timeline CSV/JSONL as a plain dict, or ``None``."""
    last: dict | None = None
    if path.endswith(".jsonl"):
        with open(path, encoding="utf-8") as f:
            for line in f:
                line = line.strip()
                if line:
                    last = json.loads(line)
        return last
    with open(path, encoding="utf-8", newline="") as f:
        for row in csv.DictReader(f):
            last = row
    if last is not None:
        last = {k: float(v) for k, v in last.items()}
    return last


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def _rank_phases(trace: dict) -> list[dict]:
    phases = trace["phases"]
    total = sum(p["total_us"] for p in phases.values()) or 1.0
    ranked = [
        {"phase": name, "count": agg["count"],
         "total_ms": round(agg["total_us"] / 1000.0, 3),
         "share": round(agg["total_us"] / total, 4)}
        for name, agg in phases.items()]
    ranked.sort(key=lambda r: (-r["total_ms"], r["phase"]))
    return ranked


def _rank_causes(attribution: dict) -> list[dict]:
    causes = attribution.get("chunk_bounds", {}).get("causes", {})
    total = sum(c["chunks"] for c in causes.values()) or 1
    ranked = [
        {"cause": name, "chunks": cell["chunks"],
         "requests": cell["requests"], "blocks": cell["blocks"],
         "share": round(cell["chunks"] / total, 4)}
        for name, cell in causes.items()]
    ranked.sort(key=lambda r: (-r["chunks"], r["cause"]))
    return ranked


def _rank_wa_groups(attribution: dict) -> list[dict]:
    """Groups ranked by WA overhead (gc + shadow + padding blocks)."""
    groups = attribution.get("ledger", {}).get("groups", {})
    rows = []
    for name, entry in groups.items():
        overhead = (entry["gc_blocks"] + entry["shadow_blocks"]
                    + entry["padding_blocks"])
        rows.append({
            "group": name, "kind": entry.get("kind", "?"),
            "user_blocks": entry["user_blocks"],
            "gc_blocks": entry["gc_blocks"],
            "shadow_blocks": entry["shadow_blocks"],
            "padding_blocks": entry["padding_blocks"],
            "overhead_blocks": overhead,
        })
    total = sum(r["overhead_blocks"] for r in rows) or 1
    for r in rows:
        r["overhead_share"] = round(r["overhead_blocks"] / total, 4)
    rows.sort(key=lambda r: (-r["overhead_blocks"], r["group"]))
    return rows


def _gc_provenance_stats(attribution: dict) -> dict | None:
    prov = attribution.get("gc_provenance")
    if not prov or not prov["totals"].get("victims"):
        return None
    t = prov["totals"]
    migrated = t["migrated_user_origin"] + t["migrated_gc_origin"]
    scanned = t["valid_blocks"] + t["free_blocks"]
    return {
        "victims": t["victims"],
        "mean_valid_ratio": round(t["valid_blocks"] / scanned, 4)
        if scanned else 0.0,
        "mean_age_seq": round(t["age_seq_sum"] / t["victims"], 1),
        "remigration_ratio": round(t["migrated_gc_origin"] / migrated, 4)
        if migrated else 0.0,
    }


def _recommend(report: dict) -> list[str]:
    """Rule-based next steps keyed off the ranked sections."""
    recs: list[str] = []
    causes = report.get("chunk_bounds", {}).get("ranked") or []
    if causes:
        top = causes[0]
        hints = {
            CAUSE_SCALAR_FALLBACK: (
                "chunks stall before a single request is provably GC-free"
                " — the pool hovers at the low watermark; raise"
                " over-provisioning or gc_free_high to restore batched"
                " headroom"),
            CAUSE_GC_CAPACITY: (
                "the GC-safe capacity bound ends chunks — free-segment"
                " slack is the binding constraint; more over-provisioning"
                " widens chunks"),
            CAUSE_DEADLINE_RESERVE: (
                "worst-case deadline-fire reserves end chunks — many SLA"
                " groups carry pending blocks; shrinking the coalescing"
                " window or the number of concurrently-armed groups"
                " releases reserved capacity"),
            CAUSE_MAX_BLOCKS: (
                "the engine's max_chunk_blocks cap ends chunks — raise it"
                " if memory allows; the bound is semantically invisible"),
            CAUSE_MAX_REQUESTS: (
                "the engine's max_chunk_requests cap ends chunks — raise"
                " it; the bound is semantically invisible"),
        }
        hint = hints.get(top["cause"])
        if hint and top["share"] >= 0.25:
            recs.append(f"dominant chunk bound '{top['cause']}' "
                        f"({top['share']:.0%} of chunks): {hint}")
    prov = report.get("gc_provenance")
    if prov:
        if prov["remigration_ratio"] > 0.3:
            recs.append(
                f"{prov['remigration_ratio']:.0%} of migrated blocks had"
                " already been migrated — victims mix hot and cold data;"
                " grouping/victim selection is re-copying survivors")
        if prov["mean_valid_ratio"] > 0.5:
            recs.append(
                f"victims average {prov['mean_valid_ratio']:.0%} valid —"
                " GC fires on poorly-drained segments; check watermarks"
                " and group sizing")
    groups = report.get("wa_groups") or []
    if groups and groups[0]["overhead_share"] >= 0.5:
        g = groups[0]
        recs.append(
            f"group '{g['group']}' generates {g['overhead_share']:.0%} of"
            " WA overhead blocks — its placement decisions are the first"
            " target for tuning")
    dropped = (report.get("profile") or {}).get("profile_events_dropped", 0)
    if dropped:
        recs.append(
            f"{dropped} profiler spans were dropped (max_events hit) —"
            " phase shares above are biased toward the run's start; raise"
            " PhaseProfiler(max_events=...)")
    return recs


def analyze(trace: dict | None = None,
            attribution: dict | None = None,
            timeline: dict | None = None) -> dict:
    """Build the bottleneck report from already-loaded artifacts.

    All inputs are optional; sections for missing artifacts are absent.
    """
    report: dict[str, Any] = {"schema": ANALYZE_SCHEMA}
    if trace is not None:
        ranked = _rank_phases(trace)
        report["profile"] = {
            "ranked": ranked,
            "profile_events_dropped": trace.get("profile_events_dropped",
                                                0),
        }
    if attribution is not None:
        causes = _rank_causes(attribution)
        report["chunk_bounds"] = {
            "ranked": causes,
            "dominant_cause": causes[0]["cause"] if causes else None,
        }
        report["wa_groups"] = _rank_wa_groups(attribution)
        prov = _gc_provenance_stats(attribution)
        if prov is not None:
            report["gc_provenance"] = prov
    if timeline is not None:
        report["timeline_final"] = timeline
    report["recommendations"] = _recommend(report)
    return report


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def _table(rows: list[dict], columns: list[tuple[str, str]]) -> list[str]:
    headers = [h for h, _ in columns]
    cells = [[str(r.get(key, "")) for _, key in columns] for r in rows]
    widths = [max(len(h), *(len(c[idx]) for c in cells)) if cells
              else len(h) for idx, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for c in cells:
        lines.append("  ".join(v.ljust(w) for v, w in zip(c, widths)))
    return lines


def render_report(report: dict, top: int = 10) -> str:
    """Human-readable text rendering of an :func:`analyze` report."""
    out: list[str] = []
    prof = report.get("profile")
    if prof:
        out.append("== Phase profile (where time went) ==")
        out.extend(_table(prof["ranked"][:top],
                          [("phase", "phase"), ("count", "count"),
                           ("total_ms", "total_ms"), ("share", "share")]))
        if prof.get("profile_events_dropped"):
            out.append(f"WARNING: {prof['profile_events_dropped']} "
                       "profiler spans dropped (phase shares biased)")
        out.append("")
    cb = report.get("chunk_bounds")
    if cb:
        out.append("== Chunk-termination causes (why chunks ended) ==")
        if cb.get("dominant_cause"):
            out.append(f"dominant cause: {cb['dominant_cause']}")
        out.extend(_table(cb["ranked"][:top],
                          [("cause", "cause"), ("chunks", "chunks"),
                           ("requests", "requests"), ("blocks", "blocks"),
                           ("share", "share")]))
        out.append("")
    wa = report.get("wa_groups")
    if wa:
        out.append("== WA ledger (who wrote the overhead) ==")
        out.extend(_table(wa[:top],
                          [("group", "group"), ("kind", "kind"),
                           ("user", "user_blocks"), ("gc", "gc_blocks"),
                           ("shadow", "shadow_blocks"),
                           ("padding", "padding_blocks"),
                           ("ovh_share", "overhead_share")]))
        out.append("")
    prov = report.get("gc_provenance")
    if prov:
        out.append("== GC provenance ==")
        out.append(f"victims: {prov['victims']}  "
                   f"mean valid ratio: {prov['mean_valid_ratio']}  "
                   f"mean age (user writes): {prov['mean_age_seq']}  "
                   f"re-migration ratio: {prov['remigration_ratio']}")
        out.append("")
    recs = report.get("recommendations")
    if recs:
        out.append("== Recommendations ==")
        for r in recs:
            out.append(f"- {r}")
        out.append("")
    if len(out) <= 1:
        out.append("no artifacts provided - nothing to analyze")
    return "\n".join(out).rstrip() + "\n"


def write_report_json(report: dict, path: str) -> str:
    """Atomically write the JSON report; returns ``path``."""
    with atomic_write(path) as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


__all__ = [
    "ANALYZE_SCHEMA",
    "analyze",
    "load_chrome_trace",
    "load_timeline_tail",
    "render_report",
    "write_report_json",
]
