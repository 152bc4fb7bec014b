"""Bottleneck explainer: turn profiler + attribution artifacts into a
ranked report.

``adapt-repro analyze`` is the first step of any perf investigation
(docs/performance.md): it consumes whatever subset of the three obs
artifacts a run produced —

* a :class:`~repro.obs.profile.PhaseProfiler` Chrome trace
  (``--profile-out``), ranking where wall-clock went;
* an attribution JSON (:mod:`repro.obs.attribution`), naming which
  groups generate the write-amplification overhead and how productive
  GC victims were;
* a replay timeline CSV (:mod:`repro.obs.timeline`), for the final
  row of the WA trajectory;

— and emits one report (dict + text table, written atomically) whose
headline is the ranked phases and the top WA-contributing groups,
followed by rule-based recommendations.
"""

from __future__ import annotations

import csv
import json
from typing import Any

from repro.obs.atomicio import atomic_write
from repro.obs.timeline import cell

#: Report schema version.  v2: no chunk-termination section (the batched
#: engine that produced chunk causes is gone).
ANALYZE_SCHEMA = 2


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
    dropped = int(other.get("profile_events_dropped", 0))
    return {"phases": phases, "profile_events_dropped": dropped}


def load_timeline_tail(path: str) -> dict | None:
    """Final row of a timeline CSV as a plain dict, or ``None``.

    Cells follow the exporter's rule (:func:`~repro.obs.timeline.cell`):
    integral values are ints, and an empty cell (NaN, e.g. the threshold
    of a policy without one) is ``None``, so the report stays valid JSON.
    """
    last: dict | None = None
    with open(path, encoding="utf-8", newline="") as f:
        for row in csv.DictReader(f):
            last = row
    if last is not None:
        last = {k: cell(float(v)) if v else None for k, v in last.items()}
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


#: (label, column) of the timeline's final row in the text report.
_TIMELINE_FIELDS = (
    ("user blocks", "user_blocks"), ("WA", "write_amplification"),
    ("padding ratio", "padding_ratio"), ("GC ratio", "gc_ratio"),
    ("threshold", "threshold"), ("free segments", "free_segments"),
)


def _timeline_value(value: float | int | None) -> str:
    if value is None:
        return "n/a"
    return str(value if isinstance(value, int) else round(value, 4))


#: Rows of each ranked table in the text report.
REPORT_TOP_ROWS = 10


def render_report(report: dict) -> str:
    """Human-readable text rendering of an :func:`analyze` report."""
    out: list[str] = []
    prof = report.get("profile")
    if prof:
        out.append("== Phase profile (where time went) ==")
        out.extend(_table(prof["ranked"][:REPORT_TOP_ROWS],
                          [("phase", "phase"), ("count", "count"),
                           ("total_ms", "total_ms"), ("share", "share")]))
        if prof.get("profile_events_dropped"):
            out.append(f"WARNING: {prof['profile_events_dropped']} "
                       "profiler spans dropped (phase shares biased)")
        out.append("")
    wa = report.get("wa_groups")
    if wa:
        out.append("== WA ledger (who wrote the overhead) ==")
        out.extend(_table(wa[:REPORT_TOP_ROWS],
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
    final = report.get("timeline_final")
    if final is not None:
        out.append("== Timeline (final row) ==")
        out.append("  ".join(
            f"{label}: {_timeline_value(final.get(key))}"
            for label, key in _TIMELINE_FIELDS))
        out.append("")
    recs = report.get("recommendations")
    if recs:
        out.append("== Recommendations ==")
        for r in recs:
            out.append(f"- {r}")
        out.append("")
    if not any(k in report for k in ("profile", "wa_groups",
                                     "timeline_final")):
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
