"""The ADAPT placement policy (§3): density-aware threshold adaptation +
cross-group dynamic aggregation + proactive demotion placement.

Group layout follows Fig 4: two user-written groups (hot/cold) and four
GC-rewritten groups, with lifespan-based user separation and age-based GC
separation (the SepBIT-style substrate ADAPT builds on), augmented by the
three mechanisms.

Unit bookkeeping for the adaptive threshold: ghost sets measure reuse
intervals in *sampled unique blocks*; the real placement compares *write
distance* (user blocks written since the LBA's last write).  A ghost
threshold converts as ``T_real = T_ghost / r · rho`` where ``r`` is the
sampling rate (unique-block scale-up, SHARDS) and ``rho`` is an EWMA of the
observed write-distance / unique-distance ratio of sampled re-accesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.aggregation import CrossGroupAggregator
from repro.core.config import AdaptConfig
from repro.core.demotion import ProactiveDemotion
from repro.core.distance import DistanceTracker
from repro.core.sampling import SpatialSampler
from repro.core.threshold import AdaptationResult, ThresholdLadder
from repro.lss.config import LSSConfig
from repro.perf.batch import duplicate_chains
from repro.lss.group import Group, GroupKind, GroupSpec
from repro.placement.base import PlacementPolicy
from repro.placement.registry import register
from repro.placement.sepbit import gc_age_bounds

if TYPE_CHECKING:  # pragma: no cover
    from repro.lss.store import LogStructuredStore

#: Candidate thresholds the ghost ladder simulates at once (§3.2).
NUM_GHOST_SETS = 5
#: Minimum re-access score for a proactive demotion (§3.4).
DEMOTION_SCORE = 2


@dataclass(slots=True)
class _UserWritePlan:
    """What the trace alone decides about one window of user writes
    (:meth:`AdaptPolicy.plan_user_writes`).

    ``checkpoints`` maps the block index at which the window's samples
    close an adaptation round to ``(padding fraction, cost spread,
    AdaptationResult, rho, sample timestamp)`` — everything
    :meth:`AdaptPolicy._apply_adaptation` needs except the segment
    lifespan, which only the moment the block is placed knows.
    """

    #: The store being replayed.  The plan lives for one window of
    #: ``store.replay``, which drops it before returning, so this strong
    #: reference makes no lasting cycle and spares ``place_user`` a weak
    #: dereference per block.
    store: "LogStructuredStore"
    start_seq: int
    lbas: list[int]
    #: Per block, the value ``place_user`` compares with the threshold.
    values: list[float]
    checkpoints: dict[int, tuple]


class AdaptPolicy(PlacementPolicy):
    """Access-density-aware data placement (the paper's contribution)."""

    name = "adapt"

    HOT = 0
    COLD = 1
    GC_BASE = 2

    __slots__ = ("adapt_config", "_last_user_write", "_last_user_write_mv",
                 "_unique_seen", "threshold", "_lifespan", "_ghost_adapted",
                 "adaptation_log", "sampler", "distance", "_rho", "ladder",
                 "_sampled_since_adapt", "_adapt_budget", "aggregator",
                 "demotion", "_plan")

    _scalar_views = {"_last_user_write_mv": "_last_user_write"}

    def __init__(self, config: LSSConfig,
                 adapt: AdaptConfig | None = None) -> None:
        super().__init__(config)
        self.adapt_config = adapt or AdaptConfig()
        ac = self.adapt_config

        self._last_user_write = np.full(config.logical_blocks, -1,
                                        dtype=np.int64)
        self._bind_scalar_views()
        #: The active window plan.  Transient by construction — set by
        #: :meth:`plan_user_writes`, dropped before ``store.replay``
        #: returns — so it is ``None`` between replay calls.
        self._plan: _UserWritePlan | None = None
        self._unique_seen = 0
        #: Real hot/cold threshold in write-distance units; cold-start value
        #: is one segment of writes, refined by segment lifespans until the
        #: first ghost adaptation lands (§3.2 "cold start").
        self.threshold = float(config.segment_blocks)
        #: Observed user-segment lifespan EWMA: the GC age ladder's base
        #: unit.  Kept separate from the (padding-aware) user threshold so
        #: that a deliberately large user threshold does not collapse the
        #: age classes into one group.
        self._lifespan = float(config.segment_blocks)
        self._ghost_adapted = False
        self.adaptation_log: list[AdaptationResult] = []

        # --- density-aware threshold adaptation plumbing -------------
        self.sampler = SpatialSampler(ac.sample_rate, salt=config.seed)
        self.distance = DistanceTracker()
        self._rho = 1.0  # write-distance / unique-distance EWMA
        r = self.sampler.effective_rate
        chunk_blocks = config.chunk.chunk_blocks
        ghost_seg = max(chunk_blocks,
                        _round_up(int(round(config.segment_blocks * r)),
                                  chunk_blocks))
        # The ghost sets clean at the store's garbage share at full
        # occupancy: the over-provisioned fraction of the physical pool.
        op = config.over_provisioning
        self.ladder = ThresholdLadder(
            num_sets=NUM_GHOST_SETS,
            segment_blocks=ghost_seg,
            chunk_blocks=chunk_blocks,
            window_us=max(1, int(round(config.coalesce_window_us / r))),
            garbage_limit=op / (1.0 + op),
        ) if ac.enable_threshold_adaptation else None
        self._sampled_since_adapt = 0
        self._adapt_budget = max(
            1, int(ac.adapt_every_fraction * config.logical_blocks * r))

        # --- cross-group aggregation ----------------------------------
        self.aggregator = CrossGroupAggregator(chunk_blocks=chunk_blocks) \
            if ac.enable_aggregation else None

        # --- proactive demotion ----------------------------------------
        gc_ids = [self.GC_BASE + i for i in range(ac.num_gc_groups)]
        self.demotion = ProactiveDemotion(
            gc_ids, score_threshold=DEMOTION_SCORE,
            num_filters=ac.bloom_filters,
            capacity=ac.bloom_capacity) if ac.enable_demotion else None

    # ------------------------------------------------------------------
    # groups
    # ------------------------------------------------------------------
    def group_specs(self) -> list[GroupSpec]:
        specs = [GroupSpec("user-hot", GroupKind.USER),
                 GroupSpec("user-cold", GroupKind.USER)]
        specs += [GroupSpec(f"gc-{i}", GroupKind.GC)
                  for i in range(self.adapt_config.num_gc_groups)]
        return specs

    # ------------------------------------------------------------------
    # user-write path
    # ------------------------------------------------------------------
    def place_user(self, lba: int, now_us: int) -> int:
        plan = self._plan
        if plan is not None:
            # The window is planned: what is left per block is what GC
            # can move — the threshold (a due adaptation lands here, with
            # the lifespan of this moment), the demotion probe, and the
            # write stamp place_gc reads.
            store = plan.store
            now = store.user_seq
            i = now - plan.start_seq
            if not 0 <= i < len(plan.lbas) or plan.lbas[i] != lba:
                raise RuntimeError(
                    f"user write (seq {now}, lba {lba}) is not the block "
                    f"the window plan from seq {plan.start_seq} expects")
            self._last_user_write_mv[lba] = now
            if i in plan.checkpoints:
                self._apply_adaptation(*plan.checkpoints.pop(i))
            v = plan.values[i]
        else:
            store = self._store()
            now = store.user_seq
            last = self._last_user_write_mv[lba]

            if self.ladder is not None and self.sampler.is_sampled(lba):
                self._observe_sample(lba, last, now, now_us)

            self._last_user_write_mv[lba] = now

            if last < 0:
                # First write: proxy the unseen reuse distance with the
                # current unique footprint (in write-distance units via
                # rho), mirroring the ghost sets' first-access handling.
                self._unique_seen += 1
                v = self._unique_seen * self._rho
            else:
                v = float(now - last)

        if v < self.threshold:
            return self.HOT
        # Cold-bound block: proactive demotion may route it straight into
        # the GC group whose segment lifetimes it historically matches
        # (§3.4 targets long-lived cold blocks; hot-classified blocks are
        # never demoted).
        if self.demotion is not None:
            hit = self.demotion.demotion_target(lba)
            if hit is not None:
                target, score = hit
                for fn in store.events.demoted:
                    fn(lba, target, score, now_us)
                return target
        return self.COLD

    def plan_user_writes(self, lbas: np.ndarray, ts_us: np.ndarray,
                         start_seq: int) -> None:
        """Run the window's trace-pure work ahead of its writes.

        Write history (``last``, resolved through in-window duplicate
        chains without touching ``_last_user_write``), the first-write
        footprint, and the whole sampled pipeline — sampler, distance
        tracker, rho, ghost ladder, round closing — are functions of the
        LBA/timestamp stream alone, so they run here as array ops plus
        one walk over the ~10 % sampled blocks, and the pure state ends
        up where a per-block :meth:`place_user` loop over the window
        would leave it.  Nothing GC reads or writes is touched: the
        threshold, ``_lifespan``, ``_ghost_adapted``, the demotion
        cascade and ``_last_user_write`` stay with :meth:`place_user`.
        """
        n = int(lbas.shape[0])
        if n == 0:
            self._plan = None
            return
        prev, _ = duplicate_chains(lbas)
        last = self._last_user_write[lbas]
        dup = prev >= 0
        last[dup] = start_seq + prev[dup]
        values = (start_seq + np.arange(n, dtype=np.int64)
                  - last).astype(np.float64)
        rho_at, rho_values, checkpoints = \
            self._plan_samples(lbas, ts_us, last, start_seq)
        first = np.flatnonzero(last < 0)
        if first.size:
            # The k-th first write sees _unique_seen + k, scaled by the
            # rho in effect once its own sample (if any) is processed.
            ranks = self._unique_seen + 1 + np.arange(first.size)
            piece = np.searchsorted(np.asarray(rho_at, dtype=np.int64),
                                    first, side="right")
            values[first] = ranks * np.asarray(rho_values)[piece]
            self._unique_seen += int(first.size)
        self._plan = _UserWritePlan(self._store(), start_seq, lbas.tolist(),
                                    values.tolist(), checkpoints)

    def _plan_samples(self, lbas: np.ndarray, ts_us: np.ndarray,
                      last: np.ndarray, start_seq: int
                      ) -> tuple[list[int], list[float], dict[int, tuple]]:
        """Walk the window's sampled blocks through the adaptation
        pipeline (:meth:`_observe_sample` semantics), feeding the ghost
        ladder in bulk between round closings.

        Returns ``(rho_at, rho_values, checkpoints)``: rho is
        ``rho_values[0]`` on entry and ``rho_values[j + 1]`` from block
        ``rho_at[j]`` on, and ``checkpoints`` are the rounds the window
        closes, by block index (see :class:`_UserWritePlan`).
        """
        rho_at: list[int] = []
        rho_values = [self._rho]
        checkpoints: dict[int, tuple] = {}
        if self.ladder is None:
            return rho_at, rho_values, checkpoints
        spos = np.flatnonzero(self.sampler.is_sampled_batch(lbas))
        if spos.size == 0:
            return rho_at, rho_values, checkpoints
        ladder = self.ladder
        r = self.sampler.effective_rate
        slist = spos.tolist()
        lba_s = lbas[spos].tolist()
        dists = self.distance.access_many(lba_s)
        last_s = last[spos].tolist()
        ts_s = ts_us[spos].tolist()
        rho = self._rho
        budget = self._adapt_budget
        count = self._sampled_since_adapt
        fed = 0  # samples [fed, k] are not in the ladder yet
        for k, d in enumerate(dists):
            lastv = last_s[k]
            if d is not None and d >= 1 and lastv >= 0:
                ratio = (start_seq + slist[k] - lastv) * r / d
                if ratio < 1e-3:
                    ratio = 1e-3
                rho += 0.05 * (ratio - rho)
                rho_at.append(slist[k])
                rho_values.append(rho)
            count += 1
            if count >= budget:
                # ready() is asked after every over-budget sample, so
                # the samples up to this one must land first.
                ladder.record_batch(lba_s[fed:k + 1], dists[fed:k + 1],
                                    ts_s[fed:k + 1])
                fed = k + 1
                if ladder.ready():
                    checkpoints[slist[k]] = (*self._close_round(), rho,
                                             ts_s[k])
                    count = 0
        ladder.record_batch(lba_s[fed:], dists[fed:], ts_s[fed:])
        self._rho = rho
        self._sampled_since_adapt = count
        return rho_at, rho_values, checkpoints

    # pinned by the frozen `bench/` harness — no caller
    def candidate_user_gids(self, *args, **kwargs):
        raise NotImplementedError("pinned by the frozen bench/ harness")

    def _observe_sample(self, lba: int, last_seq: int, now_seq: int,
                        now_us: int) -> None:
        """Feed the sampled pipeline: reuse distance, rho, ghost ladder."""
        d_unique = self.distance.access(lba)
        if d_unique is not None and d_unique >= 1 and last_seq >= 0:
            d_write_scaled = (now_seq - last_seq) * \
                self.sampler.effective_rate
            ratio = max(d_write_scaled / d_unique, 1e-3)
            self._rho += 0.05 * (ratio - self._rho)
        self.ladder.record(lba, d_unique, now_us)
        self._sampled_since_adapt += 1
        if self._sampled_since_adapt >= self._adapt_budget \
                and self.ladder.ready():
            self._sampled_since_adapt = 0
            self._apply_adaptation(*self._close_round(), self._rho, now_us)

    def _close_round(self) -> tuple[float, float, AdaptationResult]:
        """The trace-pure half of an adaptation: read the ghost signals,
        pick the winner and re-grid the ladder."""
        spread = self.ladder.cost_spread()
        pad_frac = self.ladder.padding_fraction()
        return pad_frac, spread, self.ladder.adapt()

    def _apply_adaptation(self, pad_frac: float, spread: float,
                          result: AdaptationResult, rho: float,
                          sample_us: int) -> None:
        """The GC-coupled half: turn a closed round into the threshold,
        against the segment lifespan of this moment, and report it."""
        if pad_frac < 0.02 or spread < 0.15:
            # No padding pressure (dense phase) or flat costs: the ghost
            # signal is GC-only noise — the lifespan threshold is the
            # known-good operating point there.
            target = self._lifespan
        else:
            target = max(1.0, result.best_threshold
                         / self.sampler.effective_rate * rho)
        # Damped update: ghost costs are sampled estimates.
        self.threshold += 0.5 * (target - self.threshold)
        self._ghost_adapted = True
        self.adaptation_log.append(result)
        for fn in self._store().events.threshold_switched:
            fn(result.best_threshold, result.mode, result.rounds,
               self.threshold, sample_us)

    # ------------------------------------------------------------------
    # GC path (age ladder over the GC groups, SepBIT-style substrate)
    # ------------------------------------------------------------------
    def place_gc(self, lba: int, victim_group: int, now_us: int) -> int:
        last = self._last_user_write_mv[lba]
        now = self.user_seq
        age = now - last if last >= 0 else now
        bound = self._lifespan * 4
        for cls in range(self.adapt_config.num_gc_groups - 1):
            if age < bound:
                return self.GC_BASE + cls
            bound *= 4
        return self.GC_BASE + self.adapt_config.num_gc_groups - 1

    def place_gc_batch(self, lbas: np.ndarray, victim_group: int,
                       now_us: int) -> np.ndarray:
        # _lifespan only moves in segment_reclaimed, after the whole
        # victim is migrated: the age ladder is constant here, and the
        # class is how many geometric boundaries the age clears.
        last = self._last_user_write[lbas]
        now = self.user_seq
        age = np.where(last >= 0, now - last, now)
        bounds = gc_age_bounds(self._lifespan,
                               self.adapt_config.num_gc_groups)
        return self.GC_BASE + bounds.searchsorted(age, side="right")

    def gc_blocks(self, lbas: np.ndarray, from_group: int,
                  to_groups: np.ndarray, old_locs, new_locs) -> None:
        if self.demotion is not None:
            self.demotion.gc_blocks(lbas, from_group, to_groups)

    # ------------------------------------------------------------------
    # aggregation hooks
    # ------------------------------------------------------------------
    def before_padding_flush(self, group: Group, now_us: int) -> bool:
        if self.aggregator is None:
            return False
        store = self._store()
        if group.gid == self.HOT:
            cold = store.groups[self.COLD]
            decision = self.aggregator.try_aggregate(store, group, cold,
                                                     now_us)
            if decision.blocks:
                for fn in store.events.shadow_appended:
                    fn(group.gid, cold.gid, decision.blocks, now_us)
            return decision.aggregated
        if group.gid == self.COLD:
            # Symmetric direction: the cold chunk is about to pad — fill
            # its padding slots with substitutes of hot pending blocks.
            hot = store.groups[self.HOT]
            blocks = self.aggregator.absorb_before_padding(store, group,
                                                           hot, now_us)
            if blocks:
                for fn in store.events.shadow_appended:
                    fn(hot.gid, group.gid, blocks, now_us)
            return False  # the (fuller) padded flush still proceeds
        return False

    def chunk_flush(self, group: Group, flush) -> None:
        if self.aggregator is not None and group.gid in (self.HOT,
                                                         self.COLD):
            self.aggregator.on_flush(group.gid, flush.data_blocks,
                                     flush.padding_blocks,
                                     flush.shadow_blocks, flush.count)

    # pinned by the frozen `bench/` harness — no caller
    on_full_flush_run = on_chunk_flush = None

    def segment_sealed(self, group_id: int, seg: int) -> None:
        if self.aggregator is not None and group_id in (self.HOT,
                                                        self.COLD):
            self.aggregator.on_segment_sealed(group_id)

    # ------------------------------------------------------------------
    # threshold cold start from hot-segment lifespans
    # ------------------------------------------------------------------
    def segment_reclaimed(self, seg: int, group_id: int, created_seq: int,
                          valid_blocks: int, now_us: int) -> None:
        if group_id not in (self.HOT, self.COLD):
            return
        lifespan = max(self.user_seq - created_seq, 1)
        if group_id == self.HOT:
            self._lifespan += 0.5 * (lifespan - self._lifespan)
            if not self._ghost_adapted:
                # Cold-start: until the first ghost adaptation lands, track
                # the SepBIT-style segment-lifespan threshold.
                self.threshold = self._lifespan

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def memory_bytes(self) -> int:
        total = int(self._last_user_write.nbytes)
        total += self.distance.memory_bytes()
        if self.ladder is not None:
            total += self.ladder.memory_bytes()
        if self.demotion is not None:
            total += self.demotion.memory_bytes()
        return total


def _round_up(value: int, multiple: int) -> int:
    """Smallest multiple of ``multiple`` that is >= max(value, 1)."""
    value = max(value, 1)
    return -(-value // multiple) * multiple


register(AdaptPolicy.name, AdaptPolicy)
