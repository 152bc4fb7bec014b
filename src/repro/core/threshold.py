"""Threshold ladder: drives the ghost sets and picks the winner (§3.2).

The ladder maintains N ghost sets with candidate thresholds.  Candidates
start on an exponentially growing grid (unit = scaled segment size); once a
winner is found the grid becomes linear between the winner's neighbours;
if a round's costs are monotone across the grid (the optimum sits at an
edge), the ladder re-expands exponentially to chase workload drift —
exactly the paper's exponential-then-linear sliding-window scheme.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.ghost import GhostSet


@dataclass(frozen=True)
class AdaptationResult:
    """Outcome of one adaptation round."""

    best_threshold: float
    best_cost: float
    costs: tuple[float, ...]
    thresholds: tuple[float, ...]
    mode: str  # grid mode used for the *next* round
    rounds: int = 0  # adaptation rounds closed so far, this one included


class ThresholdLadder:
    """Manages the ghost-set grid and threshold search."""

    def __init__(self, num_sets: int, segment_blocks: int, chunk_blocks: int,
                 window_us: int, garbage_limit: float,
                 sla_mode: str = "idle") -> None:
        if num_sets < 2:
            raise ValueError("need at least 2 ghost sets")
        self.num_sets = num_sets
        self.segment_blocks = segment_blocks
        self.chunk_blocks = chunk_blocks
        self.window_us = window_us
        self.garbage_limit = garbage_limit
        self.sla_mode = sla_mode
        self.mode = "exponential"
        self.rounds = 0
        self._build(self._exponential_grid(center=float(segment_blocks)))

    # ------------------------------------------------------------------
    # grids
    # ------------------------------------------------------------------
    def _exponential_grid(self, center: float) -> list[float]:
        """Thresholds center·2^(i - N/2), clamped to >= 1."""
        half = self.num_sets // 2
        return [max(1.0, center * (2.0 ** (i - half)))
                for i in range(self.num_sets)]

    def _linear_grid(self, lo: float, hi: float) -> list[float]:
        lo = max(1.0, lo)
        hi = max(lo + 1.0, hi)
        step = (hi - lo) / (self.num_sets - 1)
        return [lo + i * step for i in range(self.num_sets)]

    def _build(self, thresholds: list[float]) -> None:
        """(Re)build the grid, reusing warm ghost sets whose threshold is
        unchanged — a fresh set needs several GC cycles before its cost is
        meaningful, so carrying state across rounds de-noises the search."""
        existing = {round(g.threshold, 3): g for g in
                    getattr(self, "ghost_sets", [])}
        sets = []
        for t in thresholds:
            ghost = existing.get(round(t, 3))
            if ghost is None:
                ghost = GhostSet(t, self.segment_blocks, self.chunk_blocks,
                                 self.window_us, self.garbage_limit,
                                 sla_mode=self.sla_mode)
            else:
                ghost.reset_counters()
            sets.append(ghost)
        self.ghost_sets = sets

    # ------------------------------------------------------------------
    # stream + adaptation
    # ------------------------------------------------------------------
    def record(self, lba: int, interval: float | None, now_us: int) -> None:
        for ghost in self.ghost_sets:
            ghost.record(lba, interval, now_us)

    def record_batch(self, lbas: list[int],
                     intervals: list[float | None],
                     ts_us: list[int]) -> None:
        """Feed a run of sampled writes; identical to per-record calls.

        A grid with duplicate thresholds (e.g. several slots clamped to
        1.0) reuses one warm :class:`GhostSet` object in multiple slots,
        so the scalar loop feeds it each sample ``m`` consecutive times.
        Multiplicity is replicated here — the object's input stream must
        match the scalar cadence exactly.
        """
        if not lbas:
            return
        mult: dict[int, int] = {}
        for ghost in self.ghost_sets:
            mult[id(ghost)] = mult.get(id(ghost), 0) + 1
        done: set[int] = set()
        for ghost in self.ghost_sets:
            key = id(ghost)
            if key in done:
                continue
            done.add(key)
            m = mult[key]
            if m == 1:
                ghost.record_many(lbas, intervals, ts_us)
            else:
                ghost.record_many(
                    [x for x in lbas for _ in range(m)],
                    [x for x in intervals for _ in range(m)],
                    [x for x in ts_us for _ in range(m)])

    def sampled_blocks_written(self) -> int:
        return self.ghost_sets[0].blocks_written

    def ready(self) -> bool:
        """Most ghost sets have cycled GC enough to trust their costs."""
        warm = sum(1 for g in self.ghost_sets if g.is_warm())
        return warm * 2 >= len(self.ghost_sets)

    def padding_fraction(self) -> float:
        """Padding share of the ghost sets' written volume this round —
        the signal for whether the workload phase is padding-bound at all."""
        written = sum(g.blocks_written for g in self.ghost_sets)
        if written == 0:
            return 0.0
        return sum(g.padding_blocks for g in self.ghost_sets) / written

    def cost_spread(self) -> float:
        """Relative spread of the current costs (0 = flat / uninformative)."""
        costs = [g.cost() for g in self.ghost_sets if g.blocks_written]
        if not costs or max(costs) <= 0:
            return 0.0
        return (max(costs) - min(costs)) / max(costs)

    def adapt(self) -> AdaptationResult:
        """Close the measurement round: pick the cheapest threshold and
        re-grid around it.

        A function of the sampled stream alone, so a policy may run it
        ahead of the writes it belongs to; reporting the switch (the
        ``threshold_switch`` event) is the job of whoever applies the
        result, at the stream position it applies to."""
        costs = [g.cost() for g in self.ghost_sets]
        thresholds = [g.threshold for g in self.ghost_sets]
        best_idx = min(range(len(costs)), key=costs.__getitem__)
        best_t, best_c = thresholds[best_idx], costs[best_idx]
        self.rounds += 1

        monotone = _is_monotone(costs)
        if monotone or best_idx in (0, len(costs) - 1):
            # Optimum at (or beyond) an edge: re-expand exponentially.
            self.mode = "exponential"
            grid = self._exponential_grid(center=best_t)
        else:
            self.mode = "linear"
            grid = self._linear_grid(thresholds[best_idx - 1],
                                     thresholds[best_idx + 1])
        self._build(grid)
        return AdaptationResult(best_threshold=best_t, best_cost=best_c,
                                costs=tuple(costs),
                                thresholds=tuple(thresholds), mode=self.mode,
                                rounds=self.rounds)

    def memory_bytes(self) -> int:
        return sum(g.memory_bytes() for g in self.ghost_sets)


def _is_monotone(costs: list[float]) -> bool:
    """True when costs never decrease or never increase along the grid."""
    diffs = [b - a for a, b in zip(costs, costs[1:])]
    return all(d >= 0 for d in diffs) or all(d <= 0 for d in diffs)
