"""Chunked trace streams: O(chunk) ingestion for fleet-scale replay.

Whole-trace expansion is what caps the single-process runner: a volume's
four int64 columns (plus their per-block expansion) must fit in
memory before the first request is replayed.  A :class:`TraceStream`
instead hands the replay loop one bounded chunk at a time — per-volume
memory is O(``chunk_requests``), not O(trace) — and every stream is
*resumable*: chunk ``i`` plus the small carried state after it is enough
to regenerate chunks ``i+1...`` bit-identically, which is what fleet
checkpoint/resume (:mod:`repro.fleet`) builds on.

Three sources implement the protocol:

* :class:`SyntheticVolumeStream` — chunked cloud-profile generation.
  Each chunk draws from an independent RNG keyed on ``(seed, volume,
  chunk index)`` (:func:`repro.common.rng.tenant_rng`), with the Zipf
  popularity layout fixed per volume and only a tiny carried state (time
  cursor, sequential-run cursor) crossing chunk boundaries.  The stream
  is therefore deterministic, order-independent across tenants, and
  seekable to any chunk.
* :class:`MaterializedStream` — slices an in-memory :class:`Trace`
  (adapter for small traces and tests; memory is obviously O(trace)).
* :class:`FileChunkStream` — reads chunks lazily from an ``.npz`` file
  written by :func:`write_chunk_file` (NumPy loads one member array per
  access, so a multi-gigabyte on-disk trace replays in O(chunk) RAM).

Note the determinism contract: a synthetic stream is its *own* trace
definition.  It does not reproduce ``generate_volume``'s whole-trace
output (that generator draws all n requests from one RNG stream, which
cannot be chunked without replaying everything); fleets that stream must
compare against the same stream, and they do — serial, sharded and
resumed replays of one stream are bit-identical.
"""

from __future__ import annotations

import os
import tempfile
from typing import Any, Iterator

import numpy as np

from repro.common.errors import TraceFormatError
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

#: On-disk chunk-file format version (see :func:`write_chunk_file`).
CHUNK_FILE_VERSION = 1


class TraceStream:
    """Base chunked-trace protocol.

    A stream describes one volume's request sequence as ``num_chunks``
    consecutive :class:`Trace` chunks whose concatenation is the full
    trace.  Subclasses implement :meth:`chunk`; generation state that
    must flow across chunk boundaries travels through the opaque
    ``state`` value (picklable, small), seeded by :meth:`initial_state`.

    Attributes:
        volume: tenant/volume label (also the seed-derivation identity
            for synthetic streams).
        unique_blocks: size of the volume's logical address space.
        num_requests: total requests across all chunks.
        chunk_requests: maximum requests per chunk.
    """

    volume: str
    unique_blocks: int
    num_requests: int
    chunk_requests: int

    @property
    def num_chunks(self) -> int:
        return -(-self.num_requests // self.chunk_requests) \
            if self.num_requests else 0

    def initial_state(self) -> Any:
        """Carried state preceding chunk 0 (default: none)."""
        return None

    def chunk(self, index: int, state: Any) -> tuple[Trace, Any]:
        """Return ``(chunk_trace, state_after)`` for chunk ``index``.

        ``state`` must be the state returned by chunk ``index - 1`` (or
        :meth:`initial_state` for chunk 0); passing anything else breaks
        the bit-identical resume contract.
        """
        raise NotImplementedError

    def chunks(self, start: int = 0,
               state: Any = None) -> Iterator[tuple[int, Trace, Any]]:
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
        parts = [trace for _, trace, _ in self.chunks()]
        if not parts:
            return Trace.empty(self.volume)
        return Trace(
            np.concatenate([t.timestamps for t in parts]),
            np.concatenate([t.ops for t in parts]),
            np.concatenate([t.offsets for t in parts]),
            np.concatenate([t.sizes for t in parts]),
            volume=self.volume)

    def _bounds(self, index: int) -> tuple[int, int]:
        """Request range ``[lo, hi)`` of chunk ``index`` (with checks)."""
        if not 0 <= index < self.num_chunks:
            raise IndexError(
                f"chunk {index} out of range [0, {self.num_chunks})")
        lo = index * self.chunk_requests
        return lo, min(lo + self.chunk_requests, self.num_requests)


class MaterializedStream(TraceStream):
    """Adapter presenting an in-memory :class:`Trace` as a stream."""

    def __init__(self, trace: Trace,
                 chunk_requests: int = DEFAULT_CHUNK_REQUESTS) -> None:
        if chunk_requests < 1:
            raise ValueError("chunk_requests must be >= 1")
        self._trace = trace
        self.volume = trace.volume
        self.unique_blocks = trace.max_lba() + 1
        self.num_requests = len(trace)
        self.chunk_requests = chunk_requests

    def chunk(self, index: int, state: Any) -> tuple[Trace, Any]:
        lo, hi = self._bounds(index)
        return self._trace[lo:hi], None


class SyntheticVolumeStream(TraceStream):
    """Chunked cloud-profile trace generation (see module docstring).

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

    def initial_state(self) -> dict:
        return {"t_cursor": 0, "prev_end": None}

    def chunk(self, index: int, state: dict) -> tuple[Trace, dict]:
        lo, hi = self._bounds(index)
        n = hi - lo
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


# ----------------------------------------------------------------------
# on-disk chunk files
# ----------------------------------------------------------------------
def write_chunk_file(stream: TraceStream, path: str) -> str:
    """Persist ``stream`` as an uncompressed ``.npz`` of per-chunk arrays.

    Uncompressed on purpose: :class:`numpy.lib.npyio.NpzFile` reads one
    member per access, so :class:`FileChunkStream` replays the file in
    O(chunk) memory.  The write is atomic (temp + ``os.replace``), same
    discipline as :mod:`repro.perf.tracecache`.
    """
    arrays: dict[str, np.ndarray] = {
        "version": np.int64(CHUNK_FILE_VERSION),
        "volume": np.array(stream.volume),
        "unique_blocks": np.int64(stream.unique_blocks),
        "num_requests": np.int64(stream.num_requests),
        "chunk_requests": np.int64(stream.chunk_requests),
        "num_chunks": np.int64(stream.num_chunks),
    }
    for i, trace, _ in stream.chunks():
        arrays[f"c{i}_timestamps"] = trace.timestamps
        arrays[f"c{i}_ops"] = trace.ops
        arrays[f"c{i}_offsets"] = trace.offsets
        arrays[f"c{i}_sizes"] = trace.sizes
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            np.savez(f, **arrays)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


class FileChunkStream(TraceStream):
    """Stream a chunk file written by :func:`write_chunk_file`.

    The backing :class:`NpzFile` is opened lazily and dropped on pickle
    (worker processes reopen it on first access), so the stream object
    itself ships cheaply across process boundaries.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._npz = None
        meta = self._file()
        if int(meta["version"]) != CHUNK_FILE_VERSION:
            raise TraceFormatError(
                f"{path}: chunk-file version {int(meta['version'])}, "
                f"expected {CHUNK_FILE_VERSION}")
        self.volume = str(meta["volume"])
        self.unique_blocks = int(meta["unique_blocks"])
        self.num_requests = int(meta["num_requests"])
        self.chunk_requests = int(meta["chunk_requests"])

    def _file(self):
        if self._npz is None:
            try:
                self._npz = np.load(self.path, allow_pickle=False)
            except (OSError, ValueError) as exc:
                raise TraceFormatError(
                    f"cannot read chunk file {self.path}: {exc}") from exc
        return self._npz

    def chunk(self, index: int, state: Any) -> tuple[Trace, Any]:
        self._bounds(index)
        z = self._file()
        try:
            trace = Trace(z[f"c{index}_timestamps"], z[f"c{index}_ops"],
                          z[f"c{index}_offsets"], z[f"c{index}_sizes"],
                          volume=self.volume)
        except KeyError as exc:
            raise TraceFormatError(
                f"{self.path}: missing chunk {index}") from exc
        try:
            trace.validate()
        except TraceFormatError as exc:
            raise TraceFormatError(
                f"{self.path}: chunk {index}: {exc}") from exc
        return trace, None

    def close(self) -> None:
        if self._npz is not None:
            self._npz.close()
            self._npz = None

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_npz"] = None
        return state


__all__ = ["CHUNK_FILE_VERSION", "DEFAULT_CHUNK_REQUESTS",
           "FileChunkStream", "MaterializedStream", "SyntheticVolumeStream",
           "TraceStream", "write_chunk_file"]
