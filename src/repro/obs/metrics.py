"""A store's metrics: a view of its state, not a second ledger.

:func:`store_metrics` reads every metric a recorder reports off the
store — its :class:`~repro.lss.stats.StoreStats`, placement policy,
invariant auditor and attribution ledger — so nothing re-counts what
they count.  The list's order is the ``.prom`` file's; names follow
Prometheus conventions (snake_case, counters end in ``_total``).
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Any, Iterable, NamedTuple

#: Histogram bucket edges for block-count distributions (chunk fill
#: levels, padding sizes, GC victim validity) — powers of two up to a
#: segment's worth of blocks.
BLOCK_BUCKETS: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)


class Metric(NamedTuple):
    """One exported metric.  A counter's or a gauge's ``value`` is a
    number, a histogram's its :func:`histogram` dict."""

    name: str
    kind: str  # "counter", "gauge" or "histogram"
    help: str
    value: Any


def histogram(tally: Iterable[tuple[float, int]]) -> dict:
    """The histogram of ``tally``'s ``(value, count)`` observations, with
    Prometheus ``le`` semantics: bucket ``i`` counts the values ``<=
    BLOCK_BUCKETS[i]``, and one overflow bucket (``+Inf``) the rest."""
    edges = [float(e) for e in BLOCK_BUCKETS]
    counts = [0] * (len(edges) + 1)
    total = 0.0
    for value, count in tally:
        counts[bisect_left(edges, value)] += count
        total += value * count
    return {"edges": edges, "counts": counts, "sum": total,
            "count": sum(counts)}


def store_metrics(store: Any) -> list[Metric]:
    """Every metric of ``store``, in exposition order.

    Conditional names: the threshold gauges appear once ADAPT has
    switched its threshold, ``lss_audits_total`` once an attached
    auditor has passed an audit, and the ``attr_*`` counters with an
    attribution ledger.
    """
    stats = store.stats
    policy = store.policy
    auditor = store.auditor
    groups = stats.groups
    flushes = sum(g.chunk_flushes for g in groups)
    deadline = sum(g.deadline_flushes for g in groups)
    forced = sum(g.forced_flushes for g in groups)
    full = flushes - deadline - forced
    padding = stats.padding_blocks_written
    demotion = getattr(policy, "demotion", None)
    switches = getattr(policy, "adaptation_log", ())
    violations = auditor.violations if auditor is not None else 0
    out = [Metric(n, "counter", h, int(v)) for n, h, v in (
        ("lss_user_blocks_total", "user block writes accepted",
         stats.user_blocks_requested),
        ("lss_read_requests_total", "read requests observed",
         stats.read_requests),
        ("lss_chunk_flushes_full_total", "chunk flushes (filled)", full),
        ("lss_chunk_flushes_deadline_total",
         "chunk flushes (SLA deadline, zero-padded)", deadline),
        ("lss_chunk_flushes_forced_total",
         "chunk flushes (forced at seal/shutdown)", forced),
        ("lss_flushed_data_blocks_total", "data blocks flushed to chunks",
         stats.flash_blocks_written - padding),
        ("lss_padding_blocks_total", "zero-padding blocks written", padding),
        ("lss_gc_passes_total", "GC victim segments cleaned",
         stats.gc_segments_reclaimed),
        ("lss_gc_blocks_migrated_total", "valid blocks migrated by GC",
         stats.gc_blocks_migrated),
        ("lss_shadow_append_blocks_total",
         "substitute blocks written by cross-group aggregation",
         stats.shadow_blocks_written),
        ("lss_lazy_append_blocks_total",
         "previously-shadowed blocks persisted in place", stats.lazy_blocks),
        ("lss_demotions_total", "user writes routed by proactive demotion",
         demotion.demotions if demotion is not None else 0),
        ("lss_threshold_switches_total", "threshold adaptation rounds",
         len(switches)),
        ("lss_audit_violations_total", "invariant audit failures",
         violations),
    )]
    # A padded flush of p blocks carried chunk_blocks - p data blocks; a
    # FULL chunk carried chunk_blocks.
    padded = list(enumerate(stats.padded_flushes))
    cb = store.config.chunk.chunk_blocks
    out += [
        Metric("lss_chunk_fill_blocks", "histogram",
               "data blocks per flushed chunk",
               histogram([(cb - p, n) for p, n in padded] + [(cb, full)])),
        Metric("lss_chunk_padding_blocks", "histogram",
               "padding blocks per padded flush", histogram(padded)),
        Metric("lss_gc_victim_valid_blocks", "histogram",
               "valid blocks per GC victim segment",
               histogram(enumerate(stats.victim_valid))),
        Metric("lss_logical_blocks", "gauge",
               "configured logical address space",
               float(store.config.logical_blocks)),
    ]
    if switches:
        out += [Metric("lss_ghost_best_threshold", "gauge",
                       "ghost-side winning threshold",
                       float(switches[-1].best_threshold)),
                Metric("adapt_threshold_blocks", "gauge", "",
                       float(policy.threshold))]
    if auditor is not None and auditor.audits_run > violations:
        out.append(Metric("lss_audits_total", "counter", "",
                          auditor.audits_run - violations))
    out += [Metric(name, "gauge", "", float(value)) for name, value in (
        ("lss_write_amplification", stats.write_amplification()),
        ("lss_padding_traffic_ratio", stats.padding_traffic_ratio()),
        ("lss_gc_traffic_ratio", stats.gc_traffic_ratio()))]
    if store.attribution is not None:
        out += _attribution_counters(store.attribution.snapshot())
    return out


def _attribution_counters(snap: dict) -> list[Metric]:
    """The per-group WA ledger and GC provenance as counters."""
    out = []
    for name, entry in snap["ledger"]["groups"].items():
        g = _metric_name(name)
        out += [Metric(f"attr_group_{key}_total_{g}", "counter",
                       f"per-group WA ledger: {key}", entry[key])
                for key in ("user_blocks", "gc_blocks", "shadow_blocks",
                            "padding_blocks")]
    for name, entry in snap["gc_provenance"]["groups"].items():
        g = _metric_name(name)
        out += [Metric(f"attr_gc_victims_total_{g}", "counter",
                       "GC victim segments evicted from this group",
                       entry["victims"]),
                Metric(f"attr_gc_remigrated_blocks_total_{g}", "counter",
                       "migrated blocks that had already been migrated "
                       "before", entry["migrated_gc_origin"])]
    return out


def _metric_name(text: str) -> str:
    """Sanitize a group name into a Prometheus-safe suffix."""
    return re.sub(r"[^a-zA-Z0-9_]", "_", text)


__all__ = ["BLOCK_BUCKETS", "Metric", "histogram", "store_metrics"]
