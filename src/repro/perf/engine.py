"""The batched replay engine.

Replays a trace through a :class:`~repro.lss.store.LogStructuredStore` in
vectorized chunks while staying **bit-identical** to the scalar
per-request loop, for stores whose placement domain is a single user
group (SepGC/MiDA-shaped policies).  The scalar path interleaves three
kinds of events per block — placement, GC, SLA deadline flushes — so
naive batching would let policy state observed by later blocks drift.
The engine relies on two facts about the simulator:

* **Placement is flush-invariant.**  No policy's ``place_user`` reads any
  state mutated by chunk flushes, padding flushes, or segment seals;
  placement depends only on policy-local per-LBA metadata and
  ``user_seq``.  A whole chunk can therefore be placed up front
  (:meth:`PlacementPolicy.place_user_batch`) even when SLA deadline
  flushes will fire *inside* it.
* **Placement is NOT GC-invariant** (GC hooks move per-LBA metadata), so
  chunks must be provably GC-free.  With every user block bound for one
  group, how much a chunk can write before ``GarbageCollector.needed()``
  could trip is a closed form (:meth:`_build_chunk_single`).  When not
  even one request fits, the engine runs a short scalar burst, where GC
  fires natively.

:meth:`BatchedReplayEngine.ineligible_reason` is the one place that
decides whether a store can be replayed this way; ``engine="batched"``
and the constructor both ask it.  Nothing routes here by default any
more: ``store.replay``'s windowed loop (plan, run, settle) serves every
policy and measures faster on every cell this engine is eligible for,
so ``engine="auto"`` is that loop.  The engine stays selectable for the
equivalence suites and ``repro.perf.bench`` until ``bench/`` — which
names this module — is unfrozen (ROADMAP item 2).

Deadline flushes inside a chunk are reproduced exactly: the per-group
pending/timer evolution between fires is pure arithmetic (``idle`` SLA
mode restarts a group's timer at each append and a chunk-capacity flush
clears it), so the engine predicts the next fire from live buffer state
(:func:`_group_fire`), applies blocks up to the first request at or past
that deadline, runs the store's real ``tick()`` there, then re-reads
buffer state and repeats.

The chunk-construction and fire-prediction arithmetic deliberately runs
on plain Python ints and lists: the counts involved are tiny, where
NumPy's per-call dispatch costs more than the work itself.  NumPy is
reserved for the genuinely wide operations — placement, appends,
invalidation.

With a **batch-capable** recorder (the default
:class:`~repro.obs.ObsRecorder`) the engine and the store's bulk append
paths feed chunk-aggregated hooks whose metric totals are bit-identical
to the scalar per-event hooks — the obs-on engine-equivalence suite
compares ``MetricsRegistry.snapshot()`` across engines to prove it.  The
invariant auditor is supported at chunk cadence.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

import numpy as np

from repro.obs.attribution import (
    CAUSE_DEADLINE_RESERVE,
    CAUSE_GC_CAPACITY,
    CAUSE_MAX_BLOCKS,
    CAUSE_MAX_REQUESTS,
    CAUSE_TRACE_END,
)
from repro.perf.expand import expand_trace
from repro.trace.model import OP_WRITE, Trace

_NO_FIRE = None

#: Scalar-burst length between re-probes of the batched path.  A burst
#: ends early once GC restores the high watermark; the cap bounds how
#: long the engine stays scalar when the pool hovers between watermarks
#: without GC being triggerable.
_BURST_REQUESTS = 32


class BatchedReplayEngine:
    """Chunked, vectorized replay bound to one store.

    Args:
        store: the target store (fresh or mid-stream; the engine only
            assumes the store's own invariants hold).  Raises
            ``ValueError`` carrying :meth:`ineligible_reason` when the
            store cannot be replayed in chunks.
        max_chunk_blocks: upper bound on written blocks per chunk, limiting
            transient allocations on huge GC-quiet traces.
        max_chunk_requests: optional upper bound on requests per chunk.
            Chunk feasibility is prefix-closed (a shorter chunk consumes
            strictly less capacity), so ANY cap yields identical final
            state — the property suite sweeps this to prove batch
            boundaries are semantically invisible.
    """

    def __init__(self, store, max_chunk_blocks: int = 65536,
                 max_chunk_requests: int | None = None) -> None:
        reason = self.ineligible_reason(store)
        if reason is not None:
            raise ValueError(f"batched replay is not possible: {reason}")
        if max_chunk_blocks < 1:
            raise ValueError("max_chunk_blocks must be >= 1")
        if max_chunk_requests is not None and max_chunk_requests < 1:
            raise ValueError("max_chunk_requests must be >= 1")
        self.store = store
        self.max_chunk_blocks = max_chunk_blocks
        self.max_chunk_requests = max_chunk_requests
        #: Worst-case appended blocks per fire site: a deadline fire with
        #: ``p`` pending blocks pads ``cb - p <= cb - 1`` slots.
        self._fire_unit = store.config.chunk.chunk_blocks - 1
        #: The one group every user block lands in.
        self._user_gid = next(iter(store.policy.user_placement_gids()))
        #: Chunk-bound attribution sink (NULL_ATTRIBUTION by default).
        #: The chunk builder classifies, per chunk, which constraint
        #: terminated it and stashes it in ``_chunk_cause``; the replay
        #: loop reports it with the chunk's width.  All of it is behind
        #: the cached ``_attr_on`` boolean.
        self._attr = store.attribution
        self._attr_on = store._attr_on
        self._chunk_cause = CAUSE_TRACE_END

    @staticmethod
    def ineligible_reason(store) -> str | None:
        """Why ``store`` must take the scalar loop, or ``None`` when the
        batched engine can replay it."""
        if store.flush_listeners:
            return ("flush listeners are attached (the FTL bridge consumes "
                    "every chunk flush as it happens)")
        if store._obs_on and not store.obs.batch_capable:
            return ("the recorder is not batch-capable (per-event "
                    "observability, trace_events=True)")
        if len(store.policy.user_placement_gids()) != 1:
            return (f"policy {store.policy.name!r} places user writes in "
                    "more than one group")
        cfg = store.config
        if store._sla_groups and (cfg.sla_mode != "idle"
                                  or cfg.coalesce_window_us <= 0):
            return ("SLA groups outside idle mode (sla_mode='first' or a "
                    "zero coalescing window)")
        return None

    # ------------------------------------------------------------------
    # replay loop
    # ------------------------------------------------------------------
    def replay(self, trace: Trace, finalize: bool = True):
        store = self.store
        prof = store.profiler
        with prof.span("expand"):
            ex = expand_trace(trace, store.config.logical_blocks)
        n = ex.num_requests
        window = store.config.coalesce_window_us
        cb = store.config.chunk.chunk_blocks
        stats = store.stats
        has_sla = bool(store._sla_groups)
        # Plain-int columns: the chunk-construction arithmetic and the
        # scalar bursts never touch NumPy scalars.
        self._cols = (trace.ops.tolist(), trace.offsets.tolist(),
                      trace.sizes.tolist(), ex.timestamps.tolist())
        ts = self._cols[3]
        bs = self._bs = ex.block_start.tolist()
        self._btl = ex.block_ts.tolist()
        self._wb = ex.writes_before.tolist()
        # Write-gap prefix sums: a gap of at least one window between
        # consecutive write requests is a deadline-fire site.
        widx = np.flatnonzero(trace.ops == OP_WRITE)
        wts = ex.timestamps[widx]
        gaps = np.zeros(widx.shape[0], dtype=np.int64)
        if widx.shape[0] > 1:
            gaps[1:] = np.diff(wts) >= window
        self._widx = widx.tolist()
        self._wts = wts.tolist()
        self._wgap = np.cumsum(gaps).tolist()
        obs_on = store._obs_on
        attr_on = self._attr_on
        attr = self._attr
        i = 0
        while i < n:
            store.tick(ts[i])
            with prof.span("chunk_build"):
                j, gids = self._build_chunk_single(ex, i, window)
            if j <= i:
                # Not even the current request is provably GC-free:
                # scalar burst, where GC fires natively.  The tick for
                # request i already ran above — re-ticking could
                # double-fire a deadline the policy re-armed during
                # the first scan.
                with prof.span("scalar_burst"):
                    i2 = self._scalar_burst(i)
                if attr_on:
                    attr.on_scalar_burst(i2 - i, bs[i2] - bs[i])
                i = i2
                continue
            # -- apply the chunk -------------------------------------------
            nwrites = self._wb[j] - self._wb[i]
            nreads = (j - i) - nwrites
            stats.write_requests += nwrites
            stats.read_requests += nreads
            if obs_on and nreads:
                store.obs.on_read_bulk(nreads, ts[j - 1])
            wb0, wb1 = bs[i], bs[j]
            if wb1 > wb0:
                splitter = self._make_splitter(i, j, window, cb) \
                    if has_sla else None
                with prof.span("apply"):
                    store.apply_user_batch(ex.lbas[wb0:wb1],
                                           ex.block_ts[wb0:wb1], gids,
                                           splitter=splitter)
            elif has_sla:
                # Read-only chunk: no appends can arm anything new, but
                # already-armed deadlines still fire at the scalar ticks.
                t_end = ts[j - 1]
                while True:
                    nd = store.next_deadline()
                    if nd is None or nd > t_end:
                        break
                    store.tick(ts[bisect_left(ts, nd)])
            store.now_us = ts[j - 1]
            if attr_on:
                attr.on_chunk(self._chunk_cause, j - i, wb1 - wb0)
            i = j
        if finalize:
            store.finalize()
        return stats

    # ------------------------------------------------------------------
    # chunk construction
    # ------------------------------------------------------------------
    def _build_chunk_single(self, ex, i: int, window: int):
        """Closed-form chunk for policies whose user placement domain is
        one group; return ``(j, gids)``.

        All of a chunk's user blocks land in group ``g0``, so the
        capacity bound is exact arithmetic: the chunk consumes
        ``written_blocks + fire_sites * fire_unit`` slots of ``g0``'s
        headroom plus ``slack`` whole segments, and the fire sites are an
        exact count — one reserved per SLA group entering with pending
        blocks, plus every gap of at least one window between the chunk's
        consecutive write requests (precomputed prefix sums), plus the
        trailing gap.  One feasibility probe is O(1), the chunk is found
        with a single binary search, and placement happens once.
        """
        store = self.store
        pool = store.pool
        slack = pool.free_segments - store.config.gc_free_low - 1
        if slack < 0:
            return i, None
        sb = pool.segment_blocks
        g0 = self._user_gid
        grp = store.groups[g0]
        head0 = sb - int(pool.fill[grp.open_seg]) \
            if grp.open_seg is not None else 0
        cap = head0 + slack * sb
        bs = self._bs
        ts = self._cols[3]
        n = ex.num_requests
        if self.max_chunk_requests is not None:
            n = min(n, i + self.max_chunk_requests)
        max_blocks = self.max_chunk_blocks
        if not store._sla_groups:
            # No SLA windows anywhere: capacity is consumed by writes only.
            j = min(self._cap_blocks(i, n, min(cap, max_blocks)), n)
            if self._attr_on:
                if j >= ex.num_requests:
                    self._chunk_cause = CAUSE_TRACE_END
                elif j >= n:
                    self._chunk_cause = CAUSE_MAX_REQUESTS
                elif cap <= max_blocks:
                    self._chunk_cause = CAUSE_GC_CAPACITY
                else:
                    self._chunk_cause = CAUSE_MAX_BLOCKS
        else:
            fu = self._fire_unit
            sites0 = sum(1 for g in store._sla_groups
                         if g.buffer.pending_blocks)
            widx = self._widx
            wts = self._wts
            wgp = self._wgap
            w0 = bisect_left(widx, i)

            def feasible(j: int) -> bool:
                a = bs[j] - bs[i]
                if a > max_blocks:
                    return False
                w1 = bisect_left(widx, j)
                if w1 <= w0:
                    return True  # read-only span consumes nothing
                sites = sites0 + wgp[w1 - 1] - wgp[w0]
                if ts[j - 1] - wts[w1 - 1] >= window:
                    sites += 1
                return a + sites * fu <= cap

            if feasible(n):
                j = n
            else:
                lo, hi = i, n
                while lo < hi - 1:
                    mid = (lo + hi) // 2
                    if feasible(mid):
                        lo = mid
                    else:
                        hi = mid
                j = lo
            if self._attr_on:
                # Binary-search invariant: feasible(j), not feasible(j+1)
                # (when j < n) — re-derive which check failed.
                if j >= ex.num_requests:
                    self._chunk_cause = CAUSE_TRACE_END
                elif j >= n:
                    self._chunk_cause = CAUSE_MAX_REQUESTS
                else:
                    a = bs[j + 1] - bs[i]
                    if a > max_blocks:
                        self._chunk_cause = CAUSE_MAX_BLOCKS
                    elif a > cap:
                        self._chunk_cause = CAUSE_GC_CAPACITY
                    else:
                        self._chunk_cause = CAUSE_DEADLINE_RESERVE
        if j <= i:
            return i, None
        wb0, wb1 = bs[i], bs[j]
        if wb1 <= wb0:
            return j, None
        gids = store.policy.place_user_batch(
            ex.lbas[wb0:wb1], ex.block_ts[wb0:wb1], store.user_seq)
        return j, gids

    def _cap_blocks(self, i: int, j: int, budget: int) -> int:
        """Shrink ``j`` so the span's written blocks fit ``budget``."""
        bs = self._bs
        wb0 = bs[i]
        if bs[j] - wb0 <= budget:
            return j
        return bisect_right(bs, wb0 + budget) - 1

    # ------------------------------------------------------------------
    # scalar fallback
    # ------------------------------------------------------------------
    def _scalar_burst(self, i: int) -> int:
        """Replay requests through the scalar path until GC restores the
        high watermark (or a short cap passes), then return the next
        request index.  The caller already ticked request ``i``'s time."""
        store = self.store
        stats = store.stats
        pool = store.pool
        high = store.config.gc_free_high
        obs_on = store._obs_on
        ops, offs, szs, ts = self._cols
        n = len(ops)
        stop = min(n, i + _BURST_REQUESTS)
        first = True
        # Per-block user-write hooks would dominate the burst; defer them
        # into one bulk report (engine preconditions guarantee the
        # recorder is batch-capable whenever obs is on).
        store._defer_user_obs = obs_on
        written = 0
        last_lba = -1
        t = 0
        try:
            while i < n:
                t = ts[i]
                if not first:
                    store.tick(t)
                first = False
                if ops[i] != OP_WRITE:
                    stats.read_requests += 1
                    if obs_on:
                        store.obs.on_read(offs[i], t)
                else:
                    stats.write_requests += 1
                    off = offs[i]
                    for lba in range(off, off + szs[i]):
                        store.write_block(lba, t)
                    written += szs[i]
                    last_lba = off + szs[i] - 1
                i += 1
                if pool.free_segments >= high or i >= stop:
                    break
        finally:
            store._defer_user_obs = False
        if obs_on and written:
            store.obs.on_user_write_bulk(written, last_lba, t)
        return i

    # ------------------------------------------------------------------
    # in-chunk deadline fires
    # ------------------------------------------------------------------
    def _make_splitter(self, i: int, j: int, window: int, cb: int):
        """Build the ``apply_user_batch`` splitter for a chunk.

        The splitter is called with the next unapplied block offset and
        returns ``(end_block, tick_ts)``: apply blocks up to ``end_block``
        then (unless ``tick_ts`` is None) run ``store.tick(tick_ts)``.
        Fire prediction is exact: between fires, the user group's
        pending count grows by one per block (mod the chunk capacity,
        which clears the timer) and its deadline is its last append plus
        the window; at each predicted fire the store's real tick runs
        and live buffer state is re-read, so fires of the other SLA
        groups (MiDA's GC-fed mixed groups) need no modelling here.
        """
        store = self.store
        ts = self._cols[3]
        bs = self._bs
        bs0 = bs[i]
        block_ts = self._btl[bs0:bs[j]]
        nb = len(block_ts)
        t_end = ts[j - 1]
        # Per-SLA-group block positions within the chunk, ascending:
        # every block goes to the user group, none to the others.
        sla_groups = store._sla_groups
        positions = [range(nb) if g.gid == self._user_gid else ()
                     for g in sla_groups]

        def splitter(pos_block: int) -> tuple[int, int | None]:
            fire = _NO_FIRE
            for group, pos in zip(sla_groups, positions):
                f = _group_fire(group, pos, pos_block, block_ts, t_end,
                                window, cb)
                if f is not None and (fire is None or f < fire):
                    fire = f
            if fire is _NO_FIRE:
                return nb, None
            k = bisect_left(ts, fire)
            return bs[k] - bs0, ts[k]

        return splitter


def _group_fire(group, pos, pos_block: int, block_ts: list,
                t_end: int, window: int, cb: int) -> int | None:
    """Earliest deadline of ``group`` that a scalar tick would fire
    before the group's next append (or the chunk's end), assuming no
    other fire happens first — or ``None``.

    Walks the group's future chunk positions with early exit: only the
    FIRST live fire matters, and in fire-dense workloads it is near the
    cursor, so the walk is O(distance to that fire) rather than
    O(remaining chunk).
    """
    buf = group.buffer
    m = len(pos)
    k0 = bisect_left(pos, pos_block)
    deadline = buf.deadline_us
    if deadline is not None:
        next_touch = block_ts[pos[k0]] if k0 < m else t_end
        if next_touch >= deadline:
            return deadline
    pending = buf.pending_blocks
    for w in range(k0, m):
        pending += 1
        if pending == cb:
            pending = 0  # capacity flush clears the timer
        tb = block_ts[pos[w]]
        nt = block_ts[pos[w + 1]] if w + 1 < m else t_end
        if pending and nt >= tb + window:
            return tb + window
    return None


__all__ = ["BatchedReplayEngine"]
