"""The log-structured store: ties groups, segment pool, GC and placement
together and replays traces.

The store is placement-agnostic: any object implementing the
:class:`repro.placement.base.PlacementPolicy` protocol can drive it, which
is how the five baselines and ADAPT share one simulator.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.array.coalescing import NO_DEADLINE
from repro.common.errors import ConfigError
from repro.common.observer import NO_SAMPLE, StoreEvents, StoreObserver
from repro.lss.config import LSSConfig
from repro.lss.gc import GarbageCollector
from repro.lss.group import Group, GroupKind
from repro.lss.segment import SegmentPool
from repro.lss.stats import StoreStats
from repro.lss.victim import make_victim_policy
from repro.obs import profile as obs_profile
from repro.perf.batch import duplicate_chains
from repro.perf.expand import check_write_bounds, expand_trace
from repro.trace.model import OP_WRITE, Trace

if TYPE_CHECKING:
    from repro.obs.attribution import AttributionRecorder
    from repro.obs.recorder import ObsRecorder

#: Encoded-mapping value for "never written".
UNMAPPED: int = -1

#: Requests per window of :meth:`LogStructuredStore.replay`'s loop — the
#: fleet's streaming chunk.  Each window is expanded, planned, run and
#: settled on its own, so the loop's memory is O(window), not O(trace).
REPLAY_WINDOW_REQUESTS: int = 1024

_NO_BLOCKS = np.empty(0, dtype=np.int64)


def check_engine(engine: str) -> None:
    """Accept the ``engine`` names callers of :meth:`~LogStructuredStore.
    replay` may pass — ``"auto"`` and ``"scalar"``, both the one replay
    loop — and raise ``ValueError`` for anything else."""
    if engine not in ("auto", "scalar"):
        raise ValueError(f"unknown replay engine {engine!r}; the one "
                         f"replay loop answers to 'auto' or 'scalar'")


class LogStructuredStore:
    """One simulated LSS volume on an SSD array.

    Args:
        config: store geometry and GC knobs.
        policy: a placement policy instance (not yet bound to a store).
        recorder: observability sink
            (:class:`repro.obs.recorder.ObsRecorder`), kept as :attr:`obs`
            (``None`` without one).  Any other observer attaches with
            :meth:`subscribe`.
        auditor: optional :class:`repro.validate.audit.InvariantAuditor`,
            which checks cross-structure invariants on a cadence while the
            replay is in flight.  ``replay`` settles at every audit point,
            so each audit sees the state a per-block replay would audit.
            Kept as :attr:`auditor` (``None`` without one).
        attribution: causal-attribution sink
            (:class:`repro.obs.attribution.AttributionRecorder`, which
            keeps the per-slot provenance planes), kept as
            :attr:`attribution` (``None`` without one).

    The policy, the recorder, the attribution sink, the auditor and the
    recorder's ``event_log()`` (a spilling recorder's tracer) are the
    store's observers, in that order: each hears the store's events
    through :attr:`events` (:mod:`repro.common.observer`), and
    :meth:`subscribe` appends another.

    Nothing the store owns holds a strong reference back to it: its
    groups and its collector are handed the store on each call, and the
    policy keeps a weak reference (:meth:`PlacementPolicy.bind
    <repro.placement.base.PlacementPolicy.bind>`).  So reference counting
    frees a finished store when its last reference goes.  A recorder, an
    attribution sink or an auditor keeps its store, because callers read
    it after the run: an observed store is freed by the cyclic collector.
    """

    __slots__ = ("config", "policy", "obs", "attribution", "auditor",
                 "profiler", "pool", "mapping", "stats", "groups",
                 "_sla_groups", "due_us", "victim_policy", "gc",
                 "user_seq", "now_us", "events", "__weakref__")

    # pinned by the frozen `bench/` harness — no caller
    _fast_flush = _fast_full = False

    def __init__(self, config: LSSConfig, policy,
                 recorder: ObsRecorder | None = None,
                 auditor=None,
                 attribution: AttributionRecorder | None = None) -> None:
        self.config = config
        self.policy = policy
        self.obs = recorder
        self.attribution = attribution
        self.auditor = auditor
        #: The process-global phase profiler, captured at construction so
        #: replay/GC spans attribute to the profiler active when the run
        #: was set up (NULL_PROFILER unless a CLI --profile-out or a test
        #: installed one).
        self.profiler = obs_profile.current()

        specs = policy.group_specs()
        if not specs:
            raise ConfigError("placement policy declared no groups")
        config.validate_for_groups(len(specs))

        self.pool = SegmentPool(config.physical_segments,
                                config.segment_blocks)
        self.mapping = np.full(config.logical_blocks, UNMAPPED,
                               dtype=np.int64)
        self.stats = StoreStats(
            padded_flushes=[0] * config.chunk.chunk_blocks,
            victim_valid=[0] * (config.segment_blocks + 1))
        self.groups: list[Group] = []
        for gid, spec in enumerate(specs):
            group = Group(gid, spec, config)
            self.groups.append(group)
            self.stats.groups.append(group.traffic)
        self._sla_groups = [g for g in self.groups
                            if g.spec.kind in (GroupKind.USER,
                                               GroupKind.MIXED)]
        #: A lower bound on the earliest armed SLA deadline
        #: (:data:`~repro.array.coalescing.NO_DEADLINE` when nothing can
        #: be due): an append that arms an earlier deadline lowers it
        #: (:meth:`Group._queue_run`), and a tick that runs sets it
        #: exactly.  Nothing is due before it.  The aggregation timer
        #: restarts of §3.3 happen inside a tick, which sets it after.
        self.due_us = NO_DEADLINE

        self.victim_policy = make_victim_policy(config.victim_policy,
                                                rng=config.seed)
        self.gc = GarbageCollector()

        #: Logical clock: number of user block writes accepted so far.
        self.user_seq = 0
        self.now_us = 0
        event_log = None if recorder is None else recorder.event_log()
        self.events = StoreEvents(
            o for o in (policy, recorder, attribution, auditor, event_log)
            if o is not None)
        for observer in self.events.observers:
            observer.bind(self)

    def subscribe(self, observer: StoreObserver) -> None:
        """Bind ``observer`` to this finished store and append it to
        every event it overrides, after the store's own observers (the
        FTL bridge subscribes this way)."""
        observer.bind(self)
        self.events = StoreEvents(self.events.observers + (observer,))

    # ------------------------------------------------------------------
    # request processing
    # ------------------------------------------------------------------
    def process_request(self, ts_us: int, op: int, offset: int,
                        size: int) -> None:
        """Apply one trace request (``size`` blocks starting at ``offset``)."""
        self.tick(ts_us)
        if op != OP_WRITE:
            self.stats.read_requests += 1
            return
        self.stats.write_requests += 1
        end = offset + size
        if offset < 0 or end > self.config.logical_blocks:
            raise ValueError(
                f"request [{offset}, {end}) outside logical space "
                f"[0, {self.config.logical_blocks})")
        for lba in range(offset, end):
            self.write_block(lba, ts_us)

    def write_block(self, lba: int, now_us: int) -> None:
        """Append one user block write for ``lba``."""
        old = self.mapping[lba]
        if old != UNMAPPED:
            self.pool.invalidate(int(old))
        gid = self.policy.place_user(lba, now_us)
        loc = self.groups[gid].append_user(self, lba, now_us)
        self.mapping[lba] = loc
        seq = self.user_seq
        self.user_seq = seq + 1
        self.stats.user_blocks_requested += 1
        for fn in self.events.user_writes:
            fn([lba], [loc], seq, now_us)
        if self.gc.needed(self):
            self.gc.run(self, now_us)

    def read_block(self, lba: int) -> bool:
        """Return whether ``lba`` has ever been written (reads do not touch
        the log; they only matter for workload realism)."""
        return bool(self.mapping[lba] != UNMAPPED)

    def tick(self, now_us: int) -> None:
        """Advance simulated time: fire SLA deadline flushes that are due.

        The common case — ``now_us`` before the due time :attr:`due_us`
        — costs one comparison.  Otherwise the SLA groups (at most eight)
        fire in ascending gid order if their deadline has passed (the
        order is observable: ADAPT's aggregation moves blocks between
        groups mid-scan), and a second scan sets :attr:`due_us` to the
        earliest deadline still armed.  Until then the old due time,
        which has passed, stays a valid lower bound, also when a hook
        raises mid-scan.

        The placement policy gets a chance to avert each padding flush
        (ADAPT's cross-group aggregation hooks in here, §3.3).
        """
        self.now_us = now_us
        if now_us < self.due_us:
            return
        sla_groups = self._sla_groups
        for group in sla_groups:
            deadline = group.buffer.deadline_us
            if deadline is None or now_us < deadline:
                continue
            if self.policy.before_padding_flush(group, now_us):
                continue  # policy persisted the data another way
            group.poll_deadline(self, now_us)
        due = NO_DEADLINE
        for group in sla_groups:
            deadline = group.buffer.deadline_us
            if deadline is not None and deadline < due:
                due = deadline
        self.due_us = due

    # pinned by the frozen `bench/` harness — no caller
    def apply_user_batch(self, *args, **kwargs):
        raise NotImplementedError("pinned by the frozen bench/ harness")

    def _settle_user_writes(self, lbas: np.ndarray, locs: list[int],
                            start_seq: int, now_us: int) -> None:
        """Book, in one vectorized pass, everything about a run of user
        writes that only GC, audits and sample rows read.

        ``lbas[i]`` took slot ``locs[i]`` at logical clock ``start_seq +
        i`` (the last one at ``now_us``), through the eager half of the
        write path (:meth:`Group.reserve_user`, one call per run).  What
        is left is what :meth:`write_block` does around its append: the
        slot planes and ``valid_count``, the overwritten locations'
        invalidation, the mapping, ``user_blocks_requested`` and one
        ``user_writes`` event — bit-identical to the per-block order as
        long as nothing read them in between, which is why the replay
        loop settles immediately before every GC run and at every
        observer's next sample point.
        """
        n = int(lbas.shape[0])
        if n == 0:
            return
        pool = self.pool
        locs = np.asarray(locs, dtype=np.int64)
        with self.profiler.span("settle"):
            pool.fill_slots(locs, lbas)
            # First occurrences kill their pre-run location, later ones
            # kill their predecessor's fresh slot; the last one is mapped.
            old = self.mapping[lbas]
            prev, last_mask = duplicate_chains(lbas)
            dup = prev >= 0
            old[dup] = locs[prev[dup]]
            dead = old[old != UNMAPPED]
            if dead.size:
                pool.invalidate_many(dead)
            self.mapping[lbas[last_mask]] = locs[last_mask]
            self.stats.user_blocks_requested += n
            for fn in self.events.user_writes:
                fn(lbas, locs, start_seq, now_us)

    def _next_sample_seq(self) -> int:
        """The ``user_seq`` at which an observer next reads the store:
        the replay loop settles there."""
        return min((fn() for fn in self.events.next_sample_seq),
                   default=NO_SAMPLE)

    # ------------------------------------------------------------------
    # replay and finalisation
    # ------------------------------------------------------------------
    def replay(self, trace: Trace, finalize: bool = True,
               engine: str = "auto") -> StoreStats:
        """Replay a whole trace and return the stats object.

        The trace is cut into windows of :data:`REPLAY_WINDOW_REQUESTS`
        requests, and each window runs in three phases: *plan* (expand
        the window into its block stream and let the policy precompute
        what the trace alone decides, ``plan_user_writes``), *run* (per
        block, only what the next block's placement or the next tick can
        observe: place, take a slot, queue, flush, seal, trigger GC) and
        *settle* (:meth:`_settle_user_writes`, immediately before every
        GC run, at every block where an observer samples and at the
        window's end).  Final state, metric totals, sample rows and
        events are bit-identical to a ``process_request`` loop; see
        ``docs/performance.md``.

        Args:
            trace: the request stream.
            finalize: force-flush pending chunks at end of trace.
            engine: ``"auto"`` or ``"scalar"``, two names of the one
                loop above (:func:`check_engine`).

        Raises ``ValueError`` before the store is touched if ``engine``
        is unknown or any write request falls outside the logical
        address space.
        """
        check_engine(engine)
        check_write_bounds(trace, self.config.logical_blocks)
        policy = self.policy
        prof = self.profiler
        try:
            for start in range(0, len(trace), REPLAY_WINDOW_REQUESTS):
                window = trace[start:start + REPLAY_WINDOW_REQUESTS]
                with prof.span("expand"):
                    ex = expand_trace(window)
                with prof.span("plan"):
                    policy.plan_user_writes(ex.lbas, ex.block_ts,
                                            self.user_seq)
                self._run_window(window, ex.lbas)
        finally:
            policy.plan_user_writes(_NO_BLOCKS, _NO_BLOCKS, self.user_seq)
        if finalize:
            self.finalize()
        return self.stats

    def _run_window(self, window: Trace, lbas: np.ndarray) -> None:
        """Run one planned window: the eager half of every write, with
        the rest settled before each GC run, at each observer sample
        point and at the window's end (also when the window raises, so
        the store stays consistent up to the last block that took a
        slot).

        Every block is placed on its own, but consecutive blocks of one
        request that one group takes get their slots as one run
        (:meth:`Group.reserve_user`).  Reserving a run that fills
        nothing is invisible to the next block's placement and to every
        hook, so a run is deferred until the block that fills the open
        chunk (its FULL flush and the seal fire there, before the next
        block is placed), the block at which an observer samples, a
        group change, or the request's end.  A block whose group has no
        open segment, and any block while GC is due, is a run of one:
        the per-block order exactly.
        """
        place_user = self.policy.place_user
        groups = self.groups
        pool = self.pool
        gc_low = self.config.gc_free_low
        sample_at = self._next_sample_seq()
        locs: list[int] = []   # slots taken since the last settle
        settled = 0            # window blocks already settled
        start_seq = self.user_seq
        reads = writes = 0
        t = self.now_us
        run = 0                # placed blocks of `group` without slots
        group = groups[0]
        run_gid = 0
        run_seq = last = 0     # user_seq of the run's first, last block
        try:
            for t, op, offset, size in zip(window.timestamps.tolist(),
                                           window.ops.tolist(),
                                           window.offsets.tolist(),
                                           window.sizes.tolist()):
                self.now_us = t
                if t >= self.due_us:
                    self.tick(t)
                if op != OP_WRITE:
                    reads += 1
                    continue
                writes += 1
                for lba in range(offset, offset + size):
                    gid = place_user(lba, t)
                    seq = self.user_seq
                    if run and gid != run_gid:
                        locs.extend(group.reserve_user(self, run, t))
                        run = 0
                    if not run:
                        run_gid, group, run_seq = gid, groups[gid], seq
                        if group.open_seg is None \
                                or pool.free_segments <= gc_low:
                            last = seq
                        else:
                            last = min(seq + group.buffer.free_slots,
                                       sample_at) - 1
                    run += 1
                    if seq < last:
                        self.user_seq = seq + 1
                        continue
                    # Reserved before the increment: a seal stamps the
                    # filling block's user_seq.
                    locs.extend(group.reserve_user(self, run, t))
                    run = 0
                    self.user_seq = seq = seq + 1
                    gc_due = pool.free_segments <= gc_low
                    if gc_due or seq >= sample_at:
                        self._settle_user_writes(
                            lbas[settled:settled + len(locs)], locs,
                            start_seq + settled, t)
                        settled += len(locs)
                        locs.clear()
                        if gc_due:
                            self.gc.run(self, t)
                        sample_at = self._next_sample_seq()
                if run:
                    locs.extend(group.reserve_user(self, run, t))
                    run = 0
        finally:
            if run:
                if self.user_seq - run_seq == run:
                    # A later place_user raised: the run is placed and
                    # counted, so it takes its slots like any other.
                    locs.extend(group.reserve_user(self, run, t))
                elif run > 1:
                    # The run's own reservation raised in a hook of the
                    # chunk its last block fills (that block was never
                    # counted).  As on the per-block path, the blocks
                    # before it keep the run's first slots and are
                    # booked; that block is not (nor is a run of one
                    # whose reservation raised).  A FULL flush pads
                    # nothing, so the run's slots end at the fill
                    # pointer.
                    seg = group.open_seg
                    end = seg * pool.segment_blocks + pool.fill[seg]
                    locs.extend(range(end - run, end - 1))
            self._settle_user_writes(lbas[settled:settled + len(locs)],
                                     locs, start_seq + settled, t)
            self.stats.read_requests += reads
            self.stats.write_requests += writes

    def finalize(self) -> None:
        """Flush every pending chunk (padded) at end of run."""
        with self.profiler.span("finalize"):
            now = self.now_us + self.config.coalesce_window_us
            for group in self.groups:
                group.force_flush(self, now)
            for fn in self.events.finalize:
                fn()

    # ------------------------------------------------------------------
    # hooks and introspection
    # ------------------------------------------------------------------
    def on_chunk_flush(self, group: Group, flush) -> None:
        """Book a :class:`~repro.array.coalescing.ChunkFlush` record's
        chunks in the RAID layer and fire ``chunk_flush`` with it (ADAPT's
        write monitors, the event log and the FTL bridge hang off it).
        :meth:`Group._flush` calls it when some observer listens; with
        none, it books the chunks itself and builds no record."""
        self.stats.raid.add_chunk_ios(flush.count)
        for fn in self.events.chunk_flush:
            fn(group, flush)

    def group_occupancy(self) -> np.ndarray:
        """Blocks currently resident per group, counting sealed + open
        segments (Fig 3b's group-size distribution)."""
        pool = self.pool
        owned = pool.group >= 0
        return np.bincount(pool.group[owned].astype(np.int64),
                           weights=pool.valid_count[owned],
                           minlength=len(self.groups)).astype(np.int64)

    def check_invariants(self) -> None:
        """Cross-structure consistency (tests only): every mapped LBA points
        at a valid slot holding that LBA, and valid slot count matches the
        number of mapped LBAs."""
        self.pool.check_invariants()
        mapped = np.flatnonzero(self.mapping != UNMAPPED)
        locs = self.mapping[mapped]
        seg, slot = np.divmod(locs, self.pool.segment_blocks)
        invalid = np.flatnonzero(~self.pool.slot_valid[seg, slot])
        if invalid.size:
            i = invalid[0]
            raise AssertionError(f"lba {int(mapped[i])} maps to invalid "
                                 f"slot {int(locs[i])}")
        held = self.pool.slot_lba[seg, slot]
        wrong = np.flatnonzero(held != mapped)
        if wrong.size:
            i = wrong[0]
            raise AssertionError(
                f"lba {int(mapped[i])} maps to slot holding "
                f"{int(held[i])}")
        total_valid = int(self.pool.valid_count.sum())
        if total_valid != mapped.size:
            raise AssertionError(
                f"{total_valid} valid slots but {mapped.size} mapped LBAs")
