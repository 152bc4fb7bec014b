"""Reference oracle: a deliberately slow, dict-based LSS store.

The oracle is an independent re-implementation of the log-structured store's
bookkeeping — mapping table, segment pool, coalescing buffers, GC, traffic
and parity accounting — written with plain dicts, lists and loops so that
every rule is spelled out in the most obvious way possible.  It drives the
*same* placement-policy objects through the same call sequence as the fast
store (``repro.lss.store.LogStructuredStore``), so replaying one trace
through both and diffing the final mapping tables and traffic statistics
(:mod:`repro.validate.differential`) checks the fast store's NumPy
bookkeeping against an obviously-correct model.

What is shared and what is not:

* Shared: the placement policies under test (they are inputs, not subjects
  of re-implementation), the dumb record types they expect
  (:class:`~repro.array.coalescing.ChunkFlush`,
  :class:`~repro.lss.group.GroupSpec`) and the config object.
* Re-implemented: every piece of mutable store state and every rule that
  updates it — slot bookkeeping, seal/reclaim lifecycle, SLA deadline
  handling, zero-padding, GC victim selection, traffic counters and RAID-5
  parity accounting.

Determinism: the oracle supports the deterministic victim policies
(``greedy``, ``cost-benefit``) and refuses the stochastic ones — replaying
an RNG-driven victim stream bit-exactly would require sharing the RNG with
the fast store, which would defeat the point of an independent model.
"""

from __future__ import annotations

import numpy as np

from repro.array.coalescing import ChunkFlush, FlushReason
from repro.common.errors import (CapacityError, ConfigError, ValidationError)
from repro.lss.config import LSSConfig
from repro.lss.group import (APPEND_GC, APPEND_SHADOW, APPEND_USER,
                             GroupKind)
from repro.obs.recorder import NULL_RECORDER
from repro.trace.model import OP_WRITE, Trace

#: Mirrors ``repro.lss.store.UNMAPPED`` / ``repro.lss.segment.NO_LBA``.
UNMAPPED = -1
NO_LBA = -1

#: Victim policies the oracle can follow deterministically.
ORACLE_VICTIM_POLICIES = ("greedy", "cost-benefit")


class OracleBuffer:
    """Pure-python re-statement of the chunk-coalescing SLA semantics."""

    def __init__(self, chunk_blocks: int, window_us: int | None,
                 sla_mode: str) -> None:
        self.chunk_blocks = chunk_blocks
        self.window_us = window_us
        self.sla_mode = sla_mode
        self._tokens: list = []
        self._timer_start_us: int | None = None

    @property
    def pending_blocks(self) -> int:
        return len(self._tokens)

    @property
    def free_slots(self) -> int:
        return self.chunk_blocks - len(self._tokens)

    @property
    def pending_tokens(self) -> tuple:
        return tuple(self._tokens)

    @property
    def deadline_us(self) -> int | None:
        if self.window_us is None or self._timer_start_us is None:
            return None
        return self._timer_start_us + self.window_us

    def reset_timer(self, now_us: int) -> None:
        if self._tokens:
            self._timer_start_us = now_us

    def append(self, token, now_us: int) -> ChunkFlush | None:
        if not self._tokens or self.sla_mode == "idle":
            self._timer_start_us = now_us
        self._tokens.append(token)
        if len(self._tokens) >= self.chunk_blocks:
            return self._emit(FlushReason.FULL, now_us, pad=False)
        return None

    def poll(self, now_us: int) -> ChunkFlush | None:
        dl = self.deadline_us
        if dl is not None and now_us >= dl and self._tokens:
            return self._emit(FlushReason.DEADLINE, now_us, pad=True)
        return None

    def force_flush(self, now_us: int) -> ChunkFlush | None:
        if not self._tokens:
            return None
        return self._emit(FlushReason.FORCED, now_us, pad=True)

    def _emit(self, reason: FlushReason, now_us: int,
              pad: bool) -> ChunkFlush:
        kinds = [kind for kind, _lba in self._tokens]
        padding = self.chunk_blocks - len(kinds) if pad else 0
        self._tokens.clear()
        self._timer_start_us = None
        return ChunkFlush(reason=reason, count=1,
                          user_blocks=kinds.count(APPEND_USER),
                          gc_blocks=kinds.count(APPEND_GC),
                          shadow_blocks=kinds.count(APPEND_SHADOW),
                          padding_blocks=padding, time_us=now_us)


class OracleSegment:
    """One physical segment as explicit per-slot lists."""

    __slots__ = ("lba", "valid", "seq", "state", "group", "fill",
                 "created_seq", "sealed_seq")

    def __init__(self, blocks: int) -> None:
        self.lba = [NO_LBA] * blocks
        self.valid = [False] * blocks
        self.seq = [0] * blocks
        self.state = "free"          # free | open | sealed
        self.group = -1
        self.fill = 0
        self.created_seq = 0
        self.sealed_seq = 0

    def valid_count(self) -> int:
        """Counted from the slots every time — nothing cached to go stale."""
        return sum(1 for v in self.valid if v)


class OraclePool:
    """Dict-of-segments pool; every count is recomputed from the slots."""

    def __init__(self, num_segments: int, segment_blocks: int) -> None:
        self.num_segments = num_segments
        self.segment_blocks = segment_blocks
        self.segments = {s: OracleSegment(segment_blocks)
                         for s in range(num_segments)}
        # Same free-list discipline as the fast pool: initialised so segment
        # 0 is handed out first, reclaimed segments are reused LIFO.
        self._free = list(range(num_segments - 1, -1, -1))
        self._append_seq = 0

    @property
    def free_segments(self) -> int:
        return len(self._free)

    def allocate(self, group: int, now_seq: int) -> int:
        if not self._free:
            raise CapacityError("oracle segment pool exhausted")
        seg = self._free.pop()
        rec = self.segments[seg]
        rec.state = "open"
        rec.group = group
        rec.fill = 0
        rec.created_seq = now_seq
        return seg

    def seal(self, seg: int, now_seq: int) -> None:
        rec = self.segments[seg]
        if rec.state != "open":
            raise ValueError(f"oracle segment {seg} is not open")
        if rec.fill != self.segment_blocks:
            raise ValueError(f"oracle segment {seg} sealed before full")
        rec.state = "sealed"
        rec.sealed_seq = now_seq

    def reclaim(self, seg: int) -> None:
        rec = self.segments[seg]
        if rec.state != "sealed":
            raise ValueError(f"oracle segment {seg} is not sealed")
        if rec.valid_count() != 0:
            raise ValueError(f"oracle segment {seg} still holds valid blocks")
        rec.lba = [NO_LBA] * self.segment_blocks
        rec.valid = [False] * self.segment_blocks
        rec.seq = [0] * self.segment_blocks
        rec.state = "free"
        rec.group = -1
        rec.fill = 0
        self._free.append(seg)

    def append_block(self, seg: int, lba: int) -> int:
        rec = self.segments[seg]
        slot = rec.fill
        if slot >= self.segment_blocks:
            raise CapacityError(f"oracle segment {seg} overflow")
        rec.lba[slot] = lba
        rec.valid[slot] = True
        self._append_seq += 1
        rec.seq[slot] = self._append_seq
        rec.fill = slot + 1
        return seg * self.segment_blocks + slot

    def append_padding(self, seg: int, nblocks: int) -> None:
        rec = self.segments[seg]
        if rec.fill + nblocks > self.segment_blocks:
            raise CapacityError(f"oracle segment {seg} padding overflow")
        rec.fill += nblocks

    def invalidate(self, loc: int) -> None:
        seg, slot = divmod(loc, self.segment_blocks)
        rec = self.segments[seg]
        if not rec.valid[slot]:
            raise ValueError(f"oracle location {loc} already invalid")
        rec.valid[slot] = False

    def valid_lbas(self, seg: int) -> list[int]:
        rec = self.segments[seg]
        return [rec.lba[i] for i in range(self.segment_blocks)
                if rec.valid[i]]

    def sealed_segments(self) -> list[int]:
        return [s for s in range(self.num_segments)
                if self.segments[s].state == "sealed"]


def _greedy_victim(pool: OraclePool, now_seq: int) -> int | None:
    """Fewest valid blocks; ties go to the lowest segment id (the fast
    policy's ``argmin`` keeps the first occurrence of an ascending scan)."""
    best, best_vc = None, None
    for seg in pool.sealed_segments():
        vc = pool.segments[seg].valid_count()
        if vc >= pool.segment_blocks:
            continue  # zero garbage: cleaning frees nothing
        if best is None or vc < best_vc:
            best, best_vc = seg, vc
    return best


def _cost_benefit_victim(pool: OraclePool, now_seq: int) -> int | None:
    """max (1-u)·age/(1+u); ties go to the lowest segment id."""
    best, best_score = None, None
    for seg in pool.sealed_segments():
        rec = pool.segments[seg]
        vc = rec.valid_count()
        if vc >= pool.segment_blocks:
            continue
        u = vc / pool.segment_blocks
        age = max(now_seq - rec.sealed_seq, 1)
        score = (1.0 - u) * age / (1.0 + u)
        if best is None or score > best_score:
            best, best_score = seg, score
    return best


_VICTIM_FNS = {"greedy": _greedy_victim, "cost-benefit": _cost_benefit_victim}


class OracleRaid:
    """Independent RAID-5 parity re-derivation.

    Walks every data chunk of an I/O through the stripe layout one at a
    time and charges one parity chunk per distinct stripe the I/O touches.
    """

    def __init__(self, num_devices: int) -> None:
        self.data_columns = num_devices - 1
        self.data_chunks = 0
        self.parity_chunks = 0
        self._pos = 0  # cumulative chunk position in the stripe walk

    def add_chunks(self, n: int) -> int:
        if n <= 0:
            return 0
        stripes = set()
        for i in range(n):
            stripes.add((self._pos + i) // self.data_columns)
        self._pos += n
        self.data_chunks += n
        self.parity_chunks += len(stripes)
        return len(stripes)


class OracleStats:
    """Traffic counters kept as plain ints and per-group dicts."""

    def __init__(self, num_devices: int) -> None:
        self.user_blocks_requested = 0
        self.read_requests = 0
        self.write_requests = 0
        self.gc_passes = 0
        self.gc_segments_reclaimed = 0
        self.gc_blocks_migrated = 0
        self.group_traffic: list[dict] = []
        self.raid = OracleRaid(num_devices)

    def _total(self, key: str) -> int:
        return sum(g[key] for g in self.group_traffic)

    @property
    def user_blocks_written(self) -> int:
        return self._total("user_blocks")

    @property
    def gc_blocks_written(self) -> int:
        return self._total("gc_blocks")

    @property
    def shadow_blocks_written(self) -> int:
        return self._total("shadow_blocks")

    @property
    def padding_blocks_written(self) -> int:
        return self._total("padding_blocks")

    @property
    def flash_blocks_written(self) -> int:
        return (self.user_blocks_written + self.gc_blocks_written
                + self.shadow_blocks_written + self.padding_blocks_written)

    def summary(self) -> dict[str, float]:
        """Same keys and formulas as ``StoreStats.summary`` so the
        differential harness can diff the dicts directly."""
        user = self.user_blocks_requested
        flash = self.flash_blocks_written
        return {
            "user_blocks_requested": float(user),
            "read_requests": float(self.read_requests),
            "write_requests": float(self.write_requests),
            "flash_blocks_written": float(flash),
            "gc_blocks_written": float(self.gc_blocks_written),
            "shadow_blocks_written": float(self.shadow_blocks_written),
            "padding_blocks_written": float(self.padding_blocks_written),
            "write_amplification": flash / user if user else 0.0,
            "padding_traffic_ratio":
                self.padding_blocks_written / flash if flash else 0.0,
            "gc_traffic_ratio":
                self.gc_blocks_written / flash if flash else 0.0,
            "gc_passes": float(self.gc_passes),
            "gc_segments_reclaimed": float(self.gc_segments_reclaimed),
        }


def _new_traffic(name: str, kind: str) -> dict:
    return {"name": name, "kind": kind, "user_blocks": 0, "gc_blocks": 0,
            "shadow_blocks": 0, "padding_blocks": 0, "chunk_flushes": 0,
            "deadline_flushes": 0, "forced_flushes": 0}


class OracleGroup:
    """One placement-visible stream; presents the surface policies use
    (``buffer``, ``unshadowed_pending``, ``append_shadow``, ...)."""

    def __init__(self, gid: int, spec, store: "OracleStore") -> None:
        self.gid = gid
        self.spec = spec
        self.store = store
        cfg = store.config
        window = (cfg.coalesce_window_us
                  if spec.kind in (GroupKind.USER, GroupKind.MIXED)
                  else None)
        self.buffer = OracleBuffer(cfg.chunk.chunk_blocks, window,
                                   cfg.sla_mode)
        self.open_seg: int | None = None
        self.traffic = _new_traffic(spec.name, spec.kind.value)
        self._shadow_mark = 0
        self.segment_shadow_bytes = 0

    # -- segment lifecycle ---------------------------------------------
    def _ensure_open_segment(self) -> int:
        if self.open_seg is None:
            self.open_seg = self.store.pool.allocate(self.gid,
                                                     self.store.user_seq)
            self.segment_shadow_bytes = 0
        return self.open_seg

    def _maybe_seal(self) -> None:
        seg = self.open_seg
        if seg is not None and \
                self.store.pool.segments[seg].fill == \
                self.store.pool.segment_blocks:
            self.store.pool.seal(seg, self.store.user_seq)
            self.store.policy.segment_sealed(self.gid, seg)
            self.open_seg = None

    # -- appends --------------------------------------------------------
    def append_user(self, lba: int, now_us: int) -> int:
        return self._append_data(lba, now_us, APPEND_USER)

    def append_gc(self, lba: int, now_us: int) -> int:
        return self._append_data(lba, now_us, APPEND_GC)

    def append_shadow(self, lba: int, now_us: int) -> None:
        seg = self._ensure_open_segment()
        self.store.pool.append_padding(seg, 1)  # dead slot, real write
        flush = self.buffer.append((APPEND_SHADOW, lba), now_us)
        self.segment_shadow_bytes += self.store.config.chunk.block_bytes
        if flush is not None:
            self._account_flush(flush)
        self._maybe_seal()

    def _append_data(self, lba: int, now_us: int, kind: int) -> int:
        seg = self._ensure_open_segment()
        loc = self.store.pool.append_block(seg, lba)
        flush = self.buffer.append((kind, lba), now_us)
        if flush is not None:
            self._account_flush(flush)
        self._maybe_seal()
        return loc

    # -- flushing -------------------------------------------------------
    def poll_deadline(self, now_us: int) -> ChunkFlush | None:
        flush = self.buffer.poll(now_us)
        if flush is not None:
            self._pad_segment(flush)
            self._account_flush(flush)
            self._maybe_seal()
        return flush

    def force_flush(self, now_us: int) -> ChunkFlush | None:
        flush = self.buffer.force_flush(now_us)
        if flush is not None:
            self._pad_segment(flush)
            self._account_flush(flush)
            self._maybe_seal()
        return flush

    def _pad_segment(self, flush: ChunkFlush) -> None:
        if flush.padding_blocks and self.open_seg is not None:
            self.store.pool.append_padding(self.open_seg,
                                           flush.padding_blocks)

    def _account_flush(self, flush: ChunkFlush) -> None:
        t = self.traffic
        t["user_blocks"] += flush.user_blocks
        t["gc_blocks"] += flush.gc_blocks
        t["shadow_blocks"] += flush.shadow_blocks
        t["padding_blocks"] += flush.padding_blocks
        t["chunk_flushes"] += 1
        if flush.reason is FlushReason.DEADLINE:
            t["deadline_flushes"] += 1
        elif flush.reason is FlushReason.FORCED:
            t["forced_flushes"] += 1
        self._shadow_mark = 0
        self.store.on_chunk_flush(self, flush)

    # -- cross-group aggregation surface --------------------------------
    @property
    def unshadowed_pending(self) -> tuple:
        return self.buffer.pending_tokens[self._shadow_mark:]

    def mark_all_shadowed(self, now_us: int) -> None:
        self._shadow_mark = self.buffer.pending_blocks
        self.buffer.reset_timer(now_us)

    def mark_partially_shadowed(self, count: int, now_us: int) -> None:
        self._shadow_mark = min(self._shadow_mark + count,
                                self.buffer.pending_blocks)
        if self._shadow_mark == self.buffer.pending_blocks:
            self.buffer.reset_timer(now_us)


class OracleStore:
    """The reference store: same request semantics, dict bookkeeping.

    Drives any :class:`~repro.placement.base.PlacementPolicy` instance
    (pass a *fresh* one — policies are stateful and must not be shared with
    a concurrently running fast store).
    """

    def __init__(self, config: LSSConfig, policy) -> None:
        self.config = config
        self.policy = policy
        self.obs = NULL_RECORDER

        specs = policy.group_specs()
        if not specs:
            raise ConfigError("placement policy declared no groups")
        config.validate_for_groups(len(specs))
        if config.victim_policy not in _VICTIM_FNS:
            raise ValidationError(
                f"oracle supports deterministic victim policies "
                f"{ORACLE_VICTIM_POLICIES}, not {config.victim_policy!r}")
        self._select_victim = _VICTIM_FNS[config.victim_policy]

        self.pool = OraclePool(config.physical_segments,
                               config.segment_blocks)
        self.mapping: dict[int, int] = {}
        self.stats = OracleStats(config.raid.num_devices)
        self.groups: list[OracleGroup] = []
        for gid, spec in enumerate(specs):
            group = OracleGroup(gid, spec, self)
            self.groups.append(group)
            self.stats.group_traffic.append(group.traffic)
        self._sla_groups = [g for g in self.groups
                            if g.spec.kind in (GroupKind.USER,
                                               GroupKind.MIXED)]
        self.user_seq = 0
        self.now_us = 0
        policy.bind(self)

    # -- request processing --------------------------------------------
    def process_request(self, ts_us: int, op: int, offset: int,
                        size: int) -> None:
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
        old = self.mapping.get(lba, UNMAPPED)
        if old != UNMAPPED:
            self.pool.invalidate(old)
        gid = self.policy.place_user(lba, now_us)
        loc = self.groups[gid].append_user(lba, now_us)
        self.mapping[lba] = loc
        self.user_seq += 1
        self.stats.user_blocks_requested += 1
        if self._gc_needed():
            self._gc_run(now_us)

    def read_block(self, lba: int) -> bool:
        return self.mapping.get(lba, UNMAPPED) != UNMAPPED

    def tick(self, now_us: int) -> None:
        self.now_us = now_us
        for group in self._sla_groups:
            if group.buffer.pending_blocks == 0:
                continue
            deadline = group.buffer.deadline_us
            if deadline is None or now_us < deadline:
                continue
            if self.policy.before_padding_flush(group, now_us):
                continue
            group.poll_deadline(now_us)

    # -- replay ---------------------------------------------------------
    def replay(self, trace: Trace, finalize: bool = True) -> OracleStats:
        for i in range(len(trace)):
            self.process_request(int(trace.timestamps[i]),
                                 int(trace.ops[i]),
                                 int(trace.offsets[i]),
                                 int(trace.sizes[i]))
        if finalize:
            self.finalize()
        return self.stats

    def finalize(self) -> None:
        now = self.now_us + self.config.coalesce_window_us
        for group in self.groups:
            group.force_flush(now)

    # -- hooks ----------------------------------------------------------
    def on_chunk_flush(self, group: OracleGroup, flush: ChunkFlush) -> None:
        self.stats.raid.add_chunks(1)
        self.policy.chunk_flush(group, flush)

    # -- garbage collection ---------------------------------------------
    def _gc_needed(self) -> bool:
        return self.pool.free_segments <= self.config.gc_free_low

    def _gc_run(self, now_us: int) -> int:
        reclaimed = 0
        while self.pool.free_segments < self.config.gc_free_high:
            victim = self._select_victim(self.pool, self.user_seq)
            if victim is None:
                break
            self._gc_clean(victim, now_us)
            reclaimed += 1
        return reclaimed

    def _gc_clean(self, victim: int, now_us: int) -> None:
        pool = self.pool
        rec = pool.segments[victim]
        if rec.state != "sealed":
            raise ValueError(f"oracle GC victim {victim} is not sealed")
        victim_group = rec.group
        lbas = pool.valid_lbas(victim)
        self.stats.gc_passes += 1
        for lba in lbas:
            dest = self.policy.place_gc(lba, victim_group, now_us)
            old_loc = self.mapping.get(lba, UNMAPPED)
            if old_loc // pool.segment_blocks != victim:
                raise AssertionError(
                    f"oracle mapping for lba {lba} points outside victim "
                    f"{victim}")
            new_loc = self.groups[dest].append_gc(lba, now_us)
            pool.invalidate(old_loc)
            self.mapping[lba] = new_loc
            self.stats.gc_blocks_migrated += 1
            # The fast store fires one gc_blocks per victim; the oracle
            # specifies it as one per block.
            self.policy.gc_blocks(np.array([lba]), victim_group,
                                  np.array([dest]), np.array([old_loc]),
                                  np.array([new_loc]))
        self.policy.segment_reclaimed(victim, victim_group, rec.created_seq,
                                      len(lbas), now_us)
        pool.reclaim(victim)
        self.stats.gc_segments_reclaimed += 1

    # -- introspection ---------------------------------------------------
    def group_occupancy(self) -> list[int]:
        occ = [0] * len(self.groups)
        for seg in range(self.pool.num_segments):
            rec = self.pool.segments[seg]
            if rec.group >= 0:
                occ[rec.group] += rec.valid_count()
        return occ

    def mapping_table(self) -> dict[int, int]:
        """Final LBA → encoded location table (only mapped LBAs)."""
        return dict(self.mapping)

    def check_invariants(self) -> None:
        """Self-consistency of the oracle itself (slow, loop-based)."""
        pool = self.pool
        for seg in range(pool.num_segments):
            rec = pool.segments[seg]
            if rec.state == "free" and (rec.valid_count() or rec.fill):
                raise AssertionError(f"oracle free segment {seg} not empty")
            for slot in range(rec.fill, pool.segment_blocks):
                if rec.valid[slot]:
                    raise AssertionError(
                        f"oracle segment {seg}: valid slot past fill")
        for lba, loc in self.mapping.items():
            seg, slot = divmod(loc, pool.segment_blocks)
            rec = pool.segments[seg]
            if not rec.valid[slot]:
                raise AssertionError(
                    f"oracle lba {lba} maps to invalid slot {loc}")
            if rec.lba[slot] != lba:
                raise AssertionError(
                    f"oracle lba {lba} maps to slot holding {rec.lba[slot]}")
        total_valid = sum(pool.segments[s].valid_count()
                          for s in range(pool.num_segments))
        if total_valid != len(self.mapping):
            raise AssertionError(
                f"oracle: {total_valid} valid slots but "
                f"{len(self.mapping)} mapped LBAs")
