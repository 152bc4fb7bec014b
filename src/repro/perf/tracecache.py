"""On-disk cache for synthetic trace fleets.

Generating a paper-scale fleet costs longer than replaying it at smoke
scale, and every figure driver, the bench harness, and CI regenerate the
exact same deterministic fleets (fixed seed, fixed scale).  This module
memoises them on disk: a fleet is keyed by the SHA-256 of its generator
name + parameters + seed (plus a format version), and stored as one
compressed ``.npz`` holding each trace's four columns.

Layout and controls:

* cache root: ``$ADAPT_REPRO_CACHE_DIR`` or ``~/.cache/adapt-repro/``,
  one ``traces/<key>.npz`` per fleet;
* opt-out: ``ADAPT_REPRO_NO_TRACE_CACHE=1`` in the environment, or
  :func:`set_enabled` in code;
* writes are atomic (temp file + ``os.replace``), so concurrent
  processes can only ever observe complete files;
* corrupt or unreadable cache files are treated as misses and
  overwritten, never raised;
* total size is capped: ``ADAPT_REPRO_TRACE_CACHE_MAX_MB`` (default
  :data:`DEFAULT_MAX_MB`) bounds the ``traces/`` directory, with
  least-recently-*used* entries evicted after each store — a cache hit
  refreshes the entry's mtime, so hot fleets survive.

The key deliberately includes a ``_FORMAT_VERSION`` that must be bumped
whenever generator semantics change; stale entries then simply stop
being hit (``clear`` prunes them, and the size cap ages them out).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Callable, Sequence

import numpy as np

from repro.trace.model import Trace

#: Bump when generator output or the npz layout changes incompatibly.
#: v2: per-tenant hashed seed derivation replaced order-dependent
#: ``spawn_rngs`` enumeration in ``generate_fleet``.
_FORMAT_VERSION = 2

#: Default size cap (MiB) for the trace cache directory.
DEFAULT_MAX_MB = 512

#: Environment override for the size cap; ``0`` disables eviction.
MAX_MB_ENV = "ADAPT_REPRO_TRACE_CACHE_MAX_MB"

#: Module-level switch flipped by :func:`set_enabled`; a set
#: ``ADAPT_REPRO_NO_TRACE_CACHE`` disables the cache regardless.
_enabled = True


def set_enabled(enabled: bool) -> None:
    """Enable/disable the cache for this process."""
    global _enabled
    _enabled = enabled


def cache_enabled() -> bool:
    """Whether lookups/stores are active right now."""
    if os.environ.get("ADAPT_REPRO_NO_TRACE_CACHE"):
        return False
    return _enabled


def cache_dir() -> str:
    """Resolved cache root (not created until first store)."""
    root = os.environ.get("ADAPT_REPRO_CACHE_DIR")
    if not root:
        root = os.path.join(os.path.expanduser("~"), ".cache",
                            "adapt-repro")
    return root


def fleet_key(generator: str, params: dict) -> str:
    """Stable content key for one fleet request.

    ``params`` must be JSON-serialisable; the generator's seed belongs in
    it — two fleets differing only by seed must never collide.
    """
    payload = json.dumps(
        {"v": _FORMAT_VERSION, "generator": generator, "params": params},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def max_cache_bytes() -> int:
    """Resolved size cap in bytes; ``0`` means unlimited."""
    raw = os.environ.get(MAX_MB_ENV)
    if raw is None or raw == "":
        return DEFAULT_MAX_MB * 1024 * 1024
    try:
        mb = float(raw)
    except ValueError:
        return DEFAULT_MAX_MB * 1024 * 1024
    return max(0, int(mb * 1024 * 1024))


def _path_for(key: str) -> str:
    return os.path.join(cache_dir(), "traces", f"{key}.npz")


def _touch(path: str) -> None:
    """Refresh ``path``'s mtime so LRU eviction sees it as recently used."""
    try:
        os.utime(path)
    except OSError:
        pass


def evict_lru(limit_bytes: int | None = None) -> int:
    """Evict least-recently-used entries until under the cap.

    ``limit_bytes`` defaults to :func:`max_cache_bytes`; ``0`` (or less)
    disables eviction.  Returns the number of files removed.  Races with
    concurrent processes are benign: an unlink of an already-removed file
    is ignored, and a concurrently re-stored entry simply survives until
    the next store.
    """
    if limit_bytes is None:
        limit_bytes = max_cache_bytes()
    if limit_bytes <= 0:
        return 0
    root = os.path.join(cache_dir(), "traces")
    entries = []
    try:
        names = os.listdir(root)
    except OSError:
        return 0
    for name in names:
        if not name.endswith(".npz"):
            continue
        path = os.path.join(root, name)
        try:
            st = os.stat(path)
        except OSError:
            continue
        entries.append((st.st_mtime, st.st_size, path))
    total = sum(size for _, size, _ in entries)
    removed = 0
    for _, size, path in sorted(entries):
        if total <= limit_bytes:
            break
        try:
            os.unlink(path)
        except OSError:
            continue
        total -= size
        removed += 1
    return removed


def load_fleet(key: str) -> list[Trace] | None:
    """Return the cached fleet for ``key``, or ``None`` on miss/corruption."""
    if not cache_enabled():
        return None
    path = _path_for(key)
    try:
        with np.load(path, allow_pickle=False) as z:
            count = int(z["count"])
            volumes = [str(v) for v in z["volumes"]]
            traces = []
            for i in range(count):
                traces.append(Trace(
                    z[f"t{i}_timestamps"], z[f"t{i}_ops"],
                    z[f"t{i}_offsets"], z[f"t{i}_sizes"],
                    volume=volumes[i]))
        _touch(path)
        return traces
    except (OSError, KeyError, ValueError, IndexError):
        return None


def store_fleet(key: str, traces: Sequence[Trace]) -> str | None:
    """Atomically persist ``traces`` under ``key``; returns the path, or
    ``None`` when the cache is disabled or the filesystem refuses."""
    if not cache_enabled():
        return None
    path = _path_for(key)
    arrays: dict[str, np.ndarray] = {
        "count": np.int64(len(traces)),
        "volumes": np.array([t.volume for t in traces]),
    }
    for i, t in enumerate(traces):
        arrays[f"t{i}_timestamps"] = t.timestamps
        arrays[f"t{i}_ops"] = t.ops
        arrays[f"t{i}_offsets"] = t.offsets
        arrays[f"t{i}_sizes"] = t.sizes
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                   suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as f:
                np.savez_compressed(f, **arrays)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError:
        return None
    evict_lru()
    return path


def cached_fleet(generator: str, params: dict,
                 build: Callable[[], Sequence[Trace]]) -> list[Trace]:
    """Memoise ``build()`` under ``(generator, params)``.

    The returned traces are fresh objects either way (a cache hit
    deserialises new arrays), so callers may mutate them freely.
    """
    key = fleet_key(generator, params)
    fleet = load_fleet(key)
    if fleet is not None:
        return fleet
    fleet = list(build())
    store_fleet(key, fleet)
    return fleet


def clear() -> int:
    """Delete every cached fleet; returns the number of files removed."""
    root = os.path.join(cache_dir(), "traces")
    removed = 0
    try:
        names = os.listdir(root)
    except OSError:
        return 0
    for name in names:
        if name.endswith(".npz"):
            try:
                os.unlink(os.path.join(root, name))
                removed += 1
            except OSError:
                pass
    return removed


__all__ = ["DEFAULT_MAX_MB", "MAX_MB_ENV", "cache_dir", "cache_enabled",
           "cached_fleet", "clear", "evict_lru", "fleet_key",
           "load_fleet", "max_cache_bytes", "set_enabled", "store_fleet"]
