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


class AdaptPolicy(PlacementPolicy):
    """Access-density-aware data placement (the paper's contribution)."""

    name = "adapt"

    HOT = 0
    COLD = 1
    GC_BASE = 2

    def __init__(self, config: LSSConfig,
                 adapt: AdaptConfig | None = None) -> None:
        super().__init__(config)
        self.adapt_config = adapt or AdaptConfig()
        ac = self.adapt_config

        self._last_user_write = np.full(config.logical_blocks, -1,
                                        dtype=np.int64)
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
        garbage_limit = ac.ghost_garbage_limit
        if garbage_limit is None:
            op = config.over_provisioning
            garbage_limit = op / (1.0 + op)
        self.ladder = ThresholdLadder(
            num_sets=ac.num_ghost_sets,
            segment_blocks=ghost_seg,
            chunk_blocks=chunk_blocks,
            window_us=max(1, int(round(config.coalesce_window_us / r))),
            garbage_limit=garbage_limit,
            sla_mode=config.sla_mode,
        ) if ac.enable_threshold_adaptation else None
        self._sampled_since_adapt = 0
        self._adapt_budget = max(
            1, int(ac.adapt_every_fraction * config.logical_blocks * r))
        #: Below this batch size the vectorized placement loses more to
        #: NumPy dispatch than it recovers; such batches take the scalar
        #: reference loop (identical outputs either way).
        self._scalar_batch_max = 32

        # --- cross-group aggregation ----------------------------------
        self.aggregator = CrossGroupAggregator(chunk_blocks=chunk_blocks) \
            if ac.enable_aggregation else None

        # --- proactive demotion ----------------------------------------
        gc_ids = [self.GC_BASE + i for i in range(ac.num_gc_groups)]
        self.demotion = ProactiveDemotion(
            gc_ids, score_threshold=ac.demotion_score,
            num_filters=ac.bloom_filters, capacity=ac.bloom_capacity,
            fp_rate=ac.bloom_fp_rate) if ac.enable_demotion else None

    def attach_obs(self, obs) -> None:
        super().attach_obs(obs)
        if self.ladder is not None:
            self.ladder.obs = obs
        if self.aggregator is not None:
            self.aggregator.obs = obs
        if self.demotion is not None:
            self.demotion.obs = obs

    # ------------------------------------------------------------------
    # groups
    # ------------------------------------------------------------------
    def group_specs(self) -> list[GroupSpec]:
        specs = [GroupSpec("user-hot", GroupKind.USER),
                 GroupSpec("user-cold", GroupKind.USER)]
        specs += [GroupSpec(f"gc-{i}", GroupKind.GC)
                  for i in range(self.adapt_config.num_gc_groups)]
        return specs

    def user_placement_gids(self) -> range | tuple[int, ...]:
        # Proactive demotion routes cold user blocks straight into GC
        # groups, so with it enabled every group is user-placeable.
        if self.demotion is not None:
            return range(2 + self.adapt_config.num_gc_groups)
        return (self.HOT, self.COLD)

    # ------------------------------------------------------------------
    # user-write path
    # ------------------------------------------------------------------
    def place_user(self, lba: int, now_us: int) -> int:
        now = self.user_seq
        last = int(self._last_user_write[lba])

        if self.ladder is not None and self.sampler.is_sampled(lba):
            self._observe_sample(lba, last, now, now_us)

        self._last_user_write[lba] = now

        if last < 0:
            # First write: proxy the unseen reuse distance with the current
            # unique footprint (in write-distance units via rho), mirroring
            # the ghost sets' first-access handling.
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
            target = self.demotion.demotion_target(lba, now_us)
            if target is not None:
                return target
        return self.COLD

    def place_user_batch(self, lbas: np.ndarray, ts_us: np.ndarray,
                         start_seq: int) -> np.ndarray:
        """Fully vectorized batch placement.

        Only sampled blocks mutate the adaptive state (rho, ghost ladder,
        threshold), so the batch's (rho, threshold) trajectory is
        piecewise-constant with pieces starting at state-changing samples.
        :meth:`_advance_sampled_pipeline` walks just the sampled blocks
        (~10 % of the stream) through the exact scalar pipeline and
        returns that trajectory; hotness classification, first-write
        ranking, and demotion probing then run as single array ops over
        the whole batch.  End state and outputs are bit-identical to a
        scalar :meth:`place_user` loop.
        """
        n = int(lbas.shape[0])
        out = np.empty(n, dtype=np.int64)
        if n == 0:
            return out
        if n < self._scalar_batch_max:
            # Tiny batches (the batched engine's chunks shrink to a
            # handful of blocks near the GC watermark) lose more to NumPy
            # dispatch than vectorization recovers; the scalar loop IS
            # the contract, so fall through to it directly.
            return PlacementPolicy.place_user_batch(self, lbas, ts_us,
                                                    start_seq)
        prev, last_mask = duplicate_chains(lbas)
        now = start_seq + np.arange(n, dtype=np.int64)
        last = self._last_user_write[lbas]
        dup = prev >= 0
        last[dup] = start_seq + prev[dup]

        if self.ladder is not None:
            rho_arr, thr_arr = self._advance_sampled_pipeline(
                lbas, ts_us, last, start_seq, n)
        else:
            rho_arr, thr_arr = self._rho, self.threshold

        first = last < 0
        v = np.empty(n, dtype=np.float64)
        seen = ~first
        v[seen] = (now[seen] - last[seen]).astype(np.float64)
        nfirst = int(first.sum())
        if nfirst:
            # k-th first-write sees _unique_seen + k, scaled by the rho
            # in effect at its position.
            ranks = self._unique_seen + np.cumsum(first)[first]
            rho_f = rho_arr if isinstance(rho_arr, float) else rho_arr[first]
            v[first] = ranks * rho_f
            self._unique_seen += nfirst
        hot = v < thr_arr
        out[hot] = self.HOT
        cold = np.flatnonzero(~hot)
        if self.demotion is None or cold.size == 0:
            out[~hot] = self.COLD
        else:
            cold_lbas = lbas[cold]
            targets, scores = self.demotion.demotion_targets(cold_lbas)
            out[cold] = np.where(targets >= 0, targets, self.COLD)
            self.demotion.account_batch(cold_lbas, targets, scores,
                                        ts_us[cold])
        self._last_user_write[lbas[last_mask]] = now[last_mask]
        return out

    def _advance_sampled_pipeline(
            self, lbas: np.ndarray, ts_us: np.ndarray, last: np.ndarray,
            start_seq: int, n: int):
        """Run the batch's sampled blocks through the exact scalar
        adaptation pipeline (:meth:`_observe_sample` semantics), deferring
        ghost-ladder feeding into bulk :meth:`ThresholdLadder.record_batch`
        calls at the adaptation checkpoints.

        Returns the per-block ``(rho, threshold)`` trajectory: plain
        floats when no sample changed them, else full piecewise-constant
        arrays built from the change points.
        """
        spos = np.flatnonzero(self.sampler.is_sampled_batch(lbas))
        if spos.size == 0:
            return self._rho, self.threshold
        ladder = self.ladder
        r = self.sampler.effective_rate
        slist = spos.tolist()
        dists = self.distance.access_many(lbas[spos].tolist())
        lba_s = lbas[spos].tolist()
        last_s = last[spos].tolist()
        ts_s = ts_us[spos].tolist()
        rho = self._rho
        budget = self._adapt_budget
        count = self._sampled_since_adapt
        pend_lba: list[int] = []
        pend_iv: list[float | None] = []
        pend_ts: list[int] = []
        bounds = [0]
        rhos = [rho]
        thrs = [self.threshold]
        for k in range(len(slist)):
            d = dists[k]
            lastv = last_s[k]
            changed = False
            if d is not None and d >= 1 and lastv >= 0:
                ratio = (start_seq + slist[k] - lastv) * r / d
                if ratio < 1e-3:
                    ratio = 1e-3
                rho += 0.05 * (ratio - rho)
                changed = True
            pend_lba.append(lba_s[k])
            pend_iv.append(d)
            pend_ts.append(ts_s[k])
            count += 1
            if count >= budget:
                # Scalar checks ladder.ready() after every over-budget
                # sample, so the pending records must land first.
                ladder.record_batch(pend_lba, pend_iv, pend_ts)
                pend_lba, pend_iv, pend_ts = [], [], []
                if ladder.ready():
                    self._rho = rho
                    self._sampled_since_adapt = count
                    self._apply_adaptation()
                    count = self._sampled_since_adapt
                    changed = True
            if changed:
                bounds.append(slist[k])
                rhos.append(rho)
                thrs.append(self.threshold)
        if pend_lba:
            ladder.record_batch(pend_lba, pend_iv, pend_ts)
        self._rho = rho
        self._sampled_since_adapt = count
        if len(bounds) == 1:
            return rhos[0], thrs[0]
        reps = np.diff(np.asarray(bounds + [n], dtype=np.int64))
        return (np.repeat(np.asarray(rhos, dtype=np.float64), reps),
                np.repeat(np.asarray(thrs, dtype=np.float64), reps))

    def candidate_user_gids(self, lbas: np.ndarray, ts_us: np.ndarray,
                            start_seq: int):
        """Every user block lands either HOT or in its (frozen) demotion
        alternative: demotion fires deterministically from the cascade
        scores, which only change during GC.  Caller-less since the
        multi-group chunk prover was deleted; kept for the frozen
        ``bench/`` harness (see :meth:`PlacementPolicy.candidate_user_gids`).
        """
        n = int(lbas.shape[0])
        primary = np.full(n, self.HOT, dtype=np.int64)
        if self.demotion is None:
            return primary, np.full(n, self.COLD, dtype=np.int64)
        t, _ = self.demotion.demotion_targets(lbas)
        alt = np.where(t >= 0, t, self.COLD)
        return primary, alt

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
            self._apply_adaptation()

    def _apply_adaptation(self) -> None:
        spread = self.ladder.cost_spread()
        pad_frac = self.ladder.padding_fraction()
        result = self.ladder.adapt()
        r = self.sampler.effective_rate
        if pad_frac < 0.02 or spread < 0.15:
            # No padding pressure (dense phase) or flat costs: the ghost
            # signal is GC-only noise — the lifespan threshold is the
            # known-good operating point there.
            target = self._lifespan
        else:
            target = max(1.0, result.best_threshold / r * self._rho)
        # Damped update: ghost costs are sampled estimates.
        self.threshold += 0.5 * (target - self.threshold)
        self._ghost_adapted = True
        self._sampled_since_adapt = 0
        self.adaptation_log.append(result)
        if self.obs.enabled:
            self.obs.gauge("adapt_threshold_blocks", self.threshold)

    # ------------------------------------------------------------------
    # GC path (age ladder over the GC groups, SepBIT-style substrate)
    # ------------------------------------------------------------------
    def place_gc(self, lba: int, victim_group: int, now_us: int) -> int:
        last = int(self._last_user_write[lba])
        age = self.user_seq - last if last >= 0 else self.user_seq
        bound = self._lifespan * 4
        for cls in range(self.adapt_config.num_gc_groups - 1):
            if age < bound:
                return self.GC_BASE + cls
            bound *= 4
        return self.GC_BASE + self.adapt_config.num_gc_groups - 1

    def place_gc_batch(self, lbas: np.ndarray, victim_group: int,
                       now_us: int) -> np.ndarray:
        # _lifespan only moves in on_segment_reclaimed, after the whole
        # victim is migrated: the age ladder is constant here, and the
        # class is how many geometric boundaries the age clears.
        last = self._last_user_write[lbas]
        age = np.where(last >= 0, self.user_seq - last, self.user_seq)
        cls = np.zeros(int(lbas.shape[0]), dtype=np.int64)
        bound = self._lifespan * 4
        for _ in range(self.adapt_config.num_gc_groups - 1):
            cls += age >= bound
            bound *= 4
        return self.GC_BASE + cls

    def on_gc_block(self, lba: int, from_group: int, to_group: int) -> None:
        if self.demotion is not None:
            self.demotion.on_gc_block(lba, from_group, to_group)

    # ------------------------------------------------------------------
    # aggregation hooks
    # ------------------------------------------------------------------
    def before_padding_flush(self, group: Group, now_us: int) -> bool:
        if self.aggregator is None:
            return False
        if group.gid == self.HOT:
            cold = self.store.groups[self.COLD]
            decision = self.aggregator.try_aggregate(group, cold, now_us)
            return decision.aggregated
        if group.gid == self.COLD:
            # Symmetric direction: the cold chunk is about to pad — fill
            # its padding slots with substitutes of hot pending blocks.
            hot = self.store.groups[self.HOT]
            self.aggregator.absorb_before_padding(group, hot, now_us)
            return False  # the (fuller) padded flush still proceeds
        return False

    def on_chunk_flush(self, group: Group, flush) -> None:
        if self.aggregator is not None and group.gid in (self.HOT,
                                                         self.COLD):
            self.aggregator.on_flush(group.gid, flush.data_blocks,
                                     flush.padding_blocks,
                                     flush.shadow_blocks, flush.count)

    # Uncalled; kept for the frozen bench/test_harness.py
    # (test_wrappers_install_on_defining_class_and_uninstall_fully).
    on_full_flush_run = None

    def on_segment_sealed(self, group_id: int, seg: int) -> None:
        if self.aggregator is not None and group_id in (self.HOT,
                                                        self.COLD):
            self.aggregator.on_segment_sealed(group_id)

    # ------------------------------------------------------------------
    # threshold cold start from hot-segment lifespans
    # ------------------------------------------------------------------
    def on_segment_reclaimed(self, group_id: int, created_seq: int,
                             sealed_seq: int, now_seq: int,
                             valid_blocks: int) -> None:
        if group_id not in (self.HOT, self.COLD):
            return
        lifespan = max(now_seq - created_seq, 1)
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
