"""Metric primitives: counters, gauges and fixed-bucket histograms.

All three are plain-attribute objects on the hot path (``c.value += n`` is
one attribute store); histograms keep their bucket counts in a NumPy int64
array and bin values with :func:`bisect.bisect_left`.  The registry is an
ordered name -> metric map with get-or-create accessors, a picklable
:meth:`~MetricsRegistry.snapshot`, and enough structure for the Prometheus
exporter to render every metric type faithfully.

Naming follows Prometheus conventions: snake_case, counters end in
``_total``.  Nothing enforces the suffix, but the simulator's built-in
instrumentation sticks to it.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Sequence

import numpy as np

from repro.common.errors import ConfigError

#: Default histogram bucket edges for block-count distributions (chunk fill
#: levels, padding sizes, GC victim validity) — powers of two up to a
#: segment's worth of blocks.
BLOCK_BUCKETS: tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)


class Counter:
    """Monotonically increasing counter."""

    __slots__ = ("name", "help", "value")
    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount


class Gauge:
    """Point-in-time value (set, not accumulated)."""

    __slots__ = ("name", "help", "value")
    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-bucket histogram with Prometheus ``le`` (less-or-equal)
    semantics: bucket ``i`` counts observations ``<= edges[i]``; one extra
    overflow bucket catches everything beyond the last edge (``+Inf``)."""

    __slots__ = ("name", "help", "edges", "_edge_list", "counts", "sum")
    kind = "histogram"

    def __init__(self, name: str, buckets: Sequence[float],
                 help: str = "") -> None:
        # Non-finite edges (a caller-supplied +Inf, a NaN) fold into the
        # implicit overflow bucket: every histogram already ends in +Inf,
        # and an explicit infinite edge would make the Prometheus exporter
        # emit a duplicate (and mis-spelled) ``le`` label.
        edges = np.asarray(sorted(set(float(b) for b in buckets
                                      if np.isfinite(b))),
                           dtype=np.float64)
        if edges.size == 0:
            raise ConfigError(
                f"histogram {name!r} needs at least one finite bucket")
        self.name = name
        self.help = help
        self.edges = edges
        #: Plain-list mirror of ``edges`` for the scalar observe path:
        #: ``bisect`` on a list is an order of magnitude cheaper than
        #: ``np.searchsorted`` on a scalar, and observe sits on the
        #: per-flush hot path of instrumented replays.
        self._edge_list = edges.tolist()
        self.counts = np.zeros(edges.size + 1, dtype=np.int64)
        self.sum: float = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self._edge_list, value)] += 1
        self.sum += value

    def observe_bulk(self, value: float, count: int) -> None:
        """Record ``count`` identical observations of ``value``.

        Exactly equivalent to calling :meth:`observe` ``count`` times for
        the integral block-count values the simulator observes (the sum
        stays exact below 2**53), which is what lets a GC append run
        fold its identical chunk flushes into one call.
        """
        if count < 0:
            raise ValueError(
                f"histogram {self.name!r} bulk count cannot be negative")
        if count == 0:
            return
        self.counts[bisect_left(self._edge_list, value)] += count
        self.sum += value * count

    def set_tally(self, tally: Iterable[tuple[float, int]]) -> None:
        """Hold exactly the observations of ``tally``, ``(value, count)``
        pairs, dropping any recorded before."""
        self.counts[:] = 0
        self.sum = 0.0
        for value, count in tally:
            self.observe_bulk(value, count)

    @property
    def count(self) -> int:
        return int(self.counts.sum())

    def cumulative(self) -> np.ndarray:
        """Cumulative bucket counts, Prometheus style (last entry == total
        observation count, the ``+Inf`` bucket)."""
        return np.cumsum(self.counts)


class MetricsRegistry:
    """Ordered collection of metrics with get-or-create accessors."""

    __slots__ = ("_metrics",)

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get_or_create(self, name: str, cls, *args, **kwargs):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, *args, **kwargs)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise ConfigError(
                f"metric {name!r} already registered as {metric.kind}")
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(name, Counter, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(name, Gauge, help)

    def histogram(self, name: str,
                  buckets: Sequence[float] = BLOCK_BUCKETS,
                  help: str = "") -> Histogram:
        return self._get_or_create(name, Histogram, buckets, help)

    def __iter__(self) -> Iterable[Counter | Gauge | Histogram]:
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    def get(self, name: str) -> Counter | Gauge | Histogram | None:
        return self._metrics.get(name)

    def snapshot(self) -> dict:
        """Picklable plain-python view of every metric (used by the
        experiment runner to ship metrics across process boundaries)."""
        counters: dict[str, float] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, dict] = {}
        for m in self._metrics.values():
            if isinstance(m, Counter):
                counters[m.name] = m.value
            elif isinstance(m, Gauge):
                gauges[m.name] = m.value
            else:
                histograms[m.name] = {
                    "edges": [float(e) for e in m.edges],
                    "counts": [int(c) for c in m.counts],
                    "sum": float(m.sum),
                    "count": m.count,
                }
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms}


def merge_metric_snapshots(snapshots: list[dict]) -> dict | None:
    """Deterministically merge :meth:`MetricsRegistry.snapshot` dicts.

    Counters sum; histograms with identical bucket edges sum their
    per-bucket counts, sums, and totals (mismatched edges are a caller
    bug and raise).  Gauges are point-in-time values with no meaningful
    cross-volume sum, so they are dropped.  Keys come out sorted, making
    the merge independent of input order given equal content.  Returns
    ``None`` when no snapshot is present.
    """
    live = [s for s in snapshots if s]
    if not live:
        return None
    counters: dict[str, float] = {}
    histograms: dict[str, dict] = {}
    for snap in live:
        for name, value in snap.get("counters", {}).items():
            counters[name] = counters.get(name, 0.0) + value
        for name, h in snap.get("histograms", {}).items():
            cur = histograms.get(name)
            if cur is None:
                histograms[name] = {
                    "edges": list(h["edges"]),
                    "counts": list(h["counts"]),
                    "sum": h["sum"],
                    "count": h["count"],
                }
            else:
                if cur["edges"] != list(h["edges"]):
                    raise ConfigError(
                        f"histogram {name!r} bucket edges differ across "
                        f"snapshots; cannot merge")
                cur["counts"] = [a + b for a, b
                                 in zip(cur["counts"], h["counts"])]
                cur["sum"] += h["sum"]
                cur["count"] += h["count"]
    return {
        "volumes": len(live),
        "counters": {k: counters[k] for k in sorted(counters)},
        "histograms": {k: histograms[k] for k in sorted(histograms)},
    }
