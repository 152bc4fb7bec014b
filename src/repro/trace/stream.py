"""Chunked trace streams: O(chunk) ingestion for fleet-scale replay.

Whole-trace expansion is what caps the single-process runner: a volume's
four int64 columns (plus their per-block expansion) must fit in
memory before the first request is replayed.  A
:class:`SyntheticVolumeStream` instead hands the replay loop one bounded
chunk at a time — per-volume memory is O(``chunk_requests``), not
O(trace) — and the stream is *resumable*: chunk ``i`` plus the small
carried state after it is enough to regenerate chunks ``i+1...``
bit-identically, which is what fleet checkpoint/resume
(:mod:`repro.fleet`) builds on.

Each chunk draws from an independent RNG keyed on ``(seed, volume,
chunk index)`` (:func:`repro.common.rng.tenant_rng`), with the Zipf
popularity layout fixed per volume and only a tiny carried state (time
cursor, sequential-run cursor) crossing chunk boundaries.  The stream is
therefore deterministic, order-independent across tenants, and seekable
to any chunk.

Note the determinism contract: a synthetic stream is its *own* trace
definition.  It does not reproduce ``generate_volume``'s whole-trace
output (that generator draws all n requests from one RNG stream, which
cannot be chunked without replaying everything); fleets that stream must
compare against the same stream, and they do — serial, sharded and
resumed replays of one stream are bit-identical.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.common.rng import tenant_rng
from repro.trace.model import OP_READ, OP_WRITE, Trace
from repro.trace.synthetic.arrivals import BurstyArrivalModel
from repro.trace.synthetic.cloud import (
    _SIZE_CHOICES,
    CloudProfile,
    VolumeSpec,
    _apply_sequential_runs,
    profile_by_name,
)
from repro.trace.synthetic.zipf import ZipfSampler

#: Default requests per chunk — a few MB of transient arrays per worker.
DEFAULT_CHUNK_REQUESTS = 8192


class SyntheticVolumeStream:
    """One volume's cloud-profile request sequence as ``num_chunks``
    consecutive :class:`Trace` chunks whose concatenation is the full
    trace (see module docstring).

    Generation state that must flow across chunk boundaries travels
    through a small picklable ``state`` dict, seeded by
    :meth:`initial_state`.

    Args:
        profile: a :class:`CloudProfile` or its name.
        volume: tenant identity; combined with ``seed`` it fully
            determines the stream, independent of any other tenant.
        unique_blocks: volume footprint in 4 KiB blocks.
        num_requests: total requests to generate.
        seed: fleet master seed (hashed with the volume name — never
            enumerated positionally).
        chunk_requests: chunk size bound.
    """

    def __init__(self, profile: CloudProfile | str, volume: str,
                 unique_blocks: int, num_requests: int, seed: int,
                 chunk_requests: int = DEFAULT_CHUNK_REQUESTS) -> None:
        if isinstance(profile, str):
            profile = profile_by_name(profile)
        if chunk_requests < 1:
            raise ValueError("chunk_requests must be >= 1")
        if num_requests < 0:
            raise ValueError("num_requests must be >= 0")
        self.profile = profile
        self.volume = volume
        self.unique_blocks = unique_blocks
        self.num_requests = num_requests
        self.seed = seed
        self.chunk_requests = chunk_requests
        #: Per-volume draws: one spec (rate/skew/read-ratio), one fixed
        #: Zipf rank->block shuffle.  Both keyed on the volume name so
        #: they are identical on every shard that instantiates the
        #: stream.
        self.spec = VolumeSpec.draw(profile, volume, unique_blocks,
                                    num_requests,
                                    tenant_rng(seed, volume, "spec"))
        self._sampler = ZipfSampler(unique_blocks, self.spec.zipf_alpha,
                                    rng=tenant_rng(seed, volume, "zipf"))
        self._arrivals = BurstyArrivalModel(
            mean_rate=self.spec.mean_rate,
            mean_burst_len=profile.mean_burst_len,
            intra_burst_gap_us=profile.intra_burst_gap_us)

    @property
    def num_chunks(self) -> int:
        return -(-self.num_requests // self.chunk_requests)

    def initial_state(self) -> dict:
        """Carried state preceding chunk 0."""
        return {"t_cursor": 0, "prev_end": None}

    def chunk(self, index: int, state: dict) -> tuple[Trace, dict]:
        """Return ``(chunk_trace, state_after)`` for chunk ``index``.

        ``state`` must be the state returned by chunk ``index - 1`` (or
        :meth:`initial_state` for chunk 0); passing anything else breaks
        the bit-identical resume contract.
        """
        if not 0 <= index < self.num_chunks:
            raise IndexError(
                f"chunk {index} out of range [0, {self.num_chunks})")
        lo = index * self.chunk_requests
        n = min(lo + self.chunk_requests, self.num_requests) - lo
        rng = tenant_rng(self.seed, self.volume, f"chunk:{index}")
        prof = self.profile

        ts = self._arrivals.generate(n, rng=rng) + int(state["t_cursor"])
        ops = np.where(rng.random(n) < self.spec.read_ratio, OP_READ,
                       OP_WRITE).astype(np.uint8)
        sizes = rng.choice(_SIZE_CHOICES, size=n,
                           p=np.asarray(prof.write_size_probs))
        offsets = self._sampler.sample(n, rng=rng)

        seq = rng.random(n) < prof.sequential_prob
        prev_end = state["prev_end"]
        if prev_end is None:
            seq[0] = False
        offsets, prev_end = _apply_sequential_runs(
            offsets, sizes, seq, self.unique_blocks, prev_end=prev_end)
        offsets = np.minimum(offsets,
                             np.maximum(self.unique_blocks - sizes, 0))

        trace = Trace(ts, ops, offsets, sizes,
                      volume=self.volume).validate()
        return trace, {"t_cursor": int(ts[-1]) + 1, "prev_end": prev_end}

    def chunks(self, start: int = 0, state: dict | None = None
               ) -> Iterator[tuple[int, Trace, dict]]:
        """Yield ``(index, chunk_trace, state_after)`` from ``start`` on.

        ``state`` is required when ``start > 0`` (it is whatever chunk
        ``start - 1`` returned — a resuming caller restores it from its
        checkpoint).
        """
        if start == 0 and state is None:
            state = self.initial_state()
        for i in range(start, self.num_chunks):
            trace, state = self.chunk(i, state)
            yield i, trace, state

    def materialize(self) -> Trace:
        """Concatenate every chunk into one in-memory :class:`Trace`
        (tests and small runs; defeats the purpose at scale)."""
        return Trace.concat([trace for _, trace, _ in self.chunks()],
                            volume=self.volume)


__all__ = ["DEFAULT_CHUNK_REQUESTS", "SyntheticVolumeStream"]
