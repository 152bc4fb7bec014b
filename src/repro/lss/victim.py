"""Victim-segment selection policies for garbage collection.

The paper evaluates Greedy and Cost-Benefit (§4.2); d-choice, Windowed
Greedy and Random Greedy from its related-work section are implemented as
well and exercised by the ablation benches.  All policies refuse to pick a
segment with zero garbage (cleaning it frees nothing) and return ``None``
when no productive victim exists.

Greedy and Cost-Benefit also :meth:`~VictimPolicy.rank` the pool once per
GC run, in the order their ``select`` would pick.  The three others are
asked per victim: d-choice and Random Greedy draw from their RNG per pick,
and Windowed Greedy's FIFO window slides as victims leave the sealed set
(each cleaned victim lets the next-oldest sealed segment in), so a ranking
of the window at the start of a run is not the order of its picks.
"""

from __future__ import annotations

import numpy as np

from repro.common.rng import make_rng
from repro.lss.segment import SegmentPool


class VictimPolicy:
    """Base class; subclasses implement :meth:`select` and may implement
    :meth:`rank`."""

    __slots__ = ("rng",)

    name = "abstract"

    def __init__(self, rng: np.random.Generator | int | None = None) -> None:
        self.rng = make_rng(rng)

    def select(self, pool: SegmentPool, now_seq: int) -> int | None:
        raise NotImplementedError

    def rank(self, pool: SegmentPool, now_seq: int) -> list[int] | None:
        """The victims repeated :meth:`select` calls would return within
        one GC run, in order, or ``None`` to be asked per victim.

        Contract (see ``docs/extending.md``): during a GC run ``now_seq``
        is fixed and cleaning a victim changes no other sealed segment,
        so an order that depends only on per-segment metadata stays valid
        until a seal adds a productive segment
        (``SegmentPool.garbage_seals`` moves), when the run ranks again.
        A policy that draws from its RNG per selection keeps ``None``:
        its draws must stay one per victim.  So does one whose candidate
        set depends on which segments are still sealed (Windowed Greedy's
        FIFO window).
        """
        return None

    @staticmethod
    def _productive(pool: SegmentPool, segs: np.ndarray) -> np.ndarray:
        """Filter out segments with no reclaimable space."""
        return segs[pool.valid_count[segs] < pool.segment_blocks]


class GreedyVictim(VictimPolicy):
    """Pick the sealed segment with the fewest valid blocks."""

    __slots__ = ()

    name = "greedy"

    def select(self, pool: SegmentPool, now_seq: int) -> int | None:
        segs = self._productive(pool, pool.sealed_segments())
        if segs.size == 0:
            return None
        return int(segs[np.argmin(pool.valid_count[segs])])

    def rank(self, pool: SegmentPool, now_seq: int) -> list[int]:
        # argmin takes the first minimum, so ties go to the lower segment.
        segs = self._productive(pool, pool.sealed_segments())
        return segs[np.argsort(pool.valid_count[segs],
                               kind="stable")].tolist()


class CostBenefitVictim(VictimPolicy):
    """Rosenblum & Ousterhout's cost-benefit: max (1-u)·age / (1+u).

    ``age`` is measured in user-written blocks since the segment sealed,
    the standard logical clock for trace-driven WA studies.
    """

    __slots__ = ()

    name = "cost-benefit"

    @staticmethod
    def _score(pool: SegmentPool, segs: np.ndarray,
               now_seq: int) -> np.ndarray:
        u = pool.valid_count[segs] / pool.segment_blocks
        age = np.maximum(now_seq - pool.sealed_seq[segs], 1)
        return (1.0 - u) * age / (1.0 + u)

    def select(self, pool: SegmentPool, now_seq: int) -> int | None:
        segs = self._productive(pool, pool.sealed_segments())
        if segs.size == 0:
            return None
        return int(segs[np.argmax(self._score(pool, segs, now_seq))])

    def rank(self, pool: SegmentPool, now_seq: int) -> list[int]:
        # argmax takes the first maximum: a stable sort of the negated
        # scores keeps ties in segment order too.
        segs = self._productive(pool, pool.sealed_segments())
        return segs[np.argsort(-self._score(pool, segs, now_seq),
                               kind="stable")].tolist()


class DChoiceVictim(VictimPolicy):
    """d-choice [Van Houdt '13]: greedy among d uniformly sampled segments."""

    __slots__ = ("d",)

    name = "d-choice"

    def __init__(self, d: int = 10,
                 rng: np.random.Generator | int | None = None) -> None:
        super().__init__(rng)
        if d < 1:
            raise ValueError("d must be >= 1")
        self.d = d

    def select(self, pool: SegmentPool, now_seq: int) -> int | None:
        segs = self._productive(pool, pool.sealed_segments())
        if segs.size == 0:
            return None
        k = min(self.d, segs.size)
        sample = self.rng.choice(segs, size=k, replace=False)
        return int(sample[np.argmin(pool.valid_count[sample])])


class WindowedGreedyVictim(VictimPolicy):
    """Windowed Greedy [Hu et al. '09]: greedy restricted to the w oldest
    sealed segments (FIFO window)."""

    __slots__ = ("window",)

    name = "windowed-greedy"

    def __init__(self, window: int = 32,
                 rng: np.random.Generator | int | None = None) -> None:
        super().__init__(rng)
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window

    def select(self, pool: SegmentPool, now_seq: int) -> int | None:
        segs = pool.sealed_segments()
        if segs.size == 0:
            return None
        order = np.argsort(pool.sealed_seq[segs], kind="stable")
        oldest = segs[order[: self.window]]
        oldest = self._productive(pool, oldest)
        if oldest.size == 0:  # window full of zero-garbage segments
            oldest = self._productive(pool, segs)
            if oldest.size == 0:
                return None
        return int(oldest[np.argmin(pool.valid_count[oldest])])


class RandomGreedyVictim(VictimPolicy):
    """Random Greedy [Li et al. '13 variant]: uniform pick among sealed
    segments whose utilisation is within ``slack`` of the greedy minimum."""

    __slots__ = ("slack",)

    name = "random-greedy"

    def __init__(self, slack: float = 0.1,
                 rng: np.random.Generator | int | None = None) -> None:
        super().__init__(rng)
        if not 0.0 <= slack <= 1.0:
            raise ValueError("slack must be in [0, 1]")
        self.slack = slack

    def select(self, pool: SegmentPool, now_seq: int) -> int | None:
        segs = self._productive(pool, pool.sealed_segments())
        if segs.size == 0:
            return None
        vc = pool.valid_count[segs]
        cutoff = vc.min() + self.slack * pool.segment_blocks
        near = segs[vc <= cutoff]
        return int(self.rng.choice(near))


_POLICIES: dict[str, type[VictimPolicy]] = {
    cls.name: cls
    for cls in (GreedyVictim, CostBenefitVictim, DChoiceVictim,
                WindowedGreedyVictim, RandomGreedyVictim)
}


def available_victim_policies() -> list[str]:
    return sorted(_POLICIES)


def make_victim_policy(name: str,
                       rng: np.random.Generator | int | None = None,
                       **kwargs) -> VictimPolicy:
    """Instantiate a victim policy by name."""
    try:
        cls = _POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown victim policy {name!r}; available: "
            f"{available_victim_policies()}") from None
    return cls(rng=rng, **kwargs)
