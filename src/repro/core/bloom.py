"""Bloom filters and the cascaded RA discriminator (§3.4).

The re-access identifier must answer "how often has this LBA been migrated
back into GC group K?" on the write critical path with nanosecond-ish cost
and bounded memory.  The paper's design is a FIFO cascade of bloom filters
per group: each filter absorbs a bounded number of inserts; the score of an
LBA is the number of filters that (probably) contain it; the oldest filter
is evicted when the cascade is full, which ages out stale history.
"""

from __future__ import annotations

import math

import numpy as np

#: 64-bit mixing constants (splitmix64) for the double-hashing scheme.
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1


def _mix64(x: int) -> int:
    x = (x ^ (x >> 30)) * _MIX1 & _MASK
    x = (x ^ (x >> 27)) * _MIX2 & _MASK
    return x ^ (x >> 31)


def _mix64_batch(x: np.ndarray) -> np.ndarray:
    """Vectorized :func:`_mix64` over a uint64 array (wrapping multiply)."""
    x = x.astype(np.uint64, copy=False)
    with np.errstate(over="ignore"):
        x = (x ^ (x >> np.uint64(30))) * np.uint64(_MIX1)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(_MIX2)
    return x ^ (x >> np.uint64(31))


class BloomFilter:
    """Classic bloom filter over int keys with double hashing.

    Sized from ``(capacity, fp_rate)``:
    ``m = -n·ln(p)/ln(2)²`` bits and ``k = m/n·ln(2)`` hash functions.
    """

    __slots__ = ("capacity", "fp_rate", "num_bits", "num_hashes", "_bits",
                 "count")

    def __init__(self, capacity: int, fp_rate: float = 0.01) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if not 0 < fp_rate < 1:
            raise ValueError("fp_rate must be in (0, 1)")
        self.capacity = capacity
        self.fp_rate = fp_rate
        m = max(8, int(-capacity * math.log(fp_rate) / (math.log(2) ** 2)))
        self.num_bits = m
        self.num_hashes = max(1, round(m / capacity * math.log(2)))
        self._bits = np.zeros((m + 7) // 8, dtype=np.uint8)
        self.count = 0

    def _positions(self, key: int) -> list[int]:
        h1 = _mix64(key)
        h2 = _mix64(key ^ _MIX1) | 1
        return [((h1 + i * h2) & _MASK) % self.num_bits
                for i in range(self.num_hashes)]

    def add(self, key: int) -> None:
        for pos in self._positions(key):
            self._bits[pos >> 3] |= 1 << (pos & 7)
        self.count += 1

    def __contains__(self, key: int) -> bool:
        for pos in self._positions(key):
            if not self._bits[pos >> 3] & (1 << (pos & 7)):
                return False
        return True

    @property
    def is_full(self) -> bool:
        return self.count >= self.capacity

    def memory_bytes(self) -> int:
        return int(self._bits.nbytes)


class CascadedDiscriminator:
    """FIFO cascade of bloom filters: insert into the newest, score by
    counting filters that contain the key (§3.4).

    Two operating modes:

    * **exact** (default) — each cascade slot is backed by an exact member
      set and scores count true membership.  In CPython a set probe is both
      faster *and* more accurate than simulating the bit array, so this is
      the hot-path default; :meth:`memory_bytes` still reports the bloom
      budget the paper's design would occupy, because that is the quantity
      Fig 12b accounts.
    * ``use_bloom=True`` — real :class:`BloomFilter` probes, including
      false positives.  Tests cross-check the two modes.

    ``holders`` maps key -> how many live member sets hold it.  It is the
    cascade's own unless several cascades share one (proactive demotion
    does); inserts and evictions keep it exact, so a key it lacks scores
    0 in every cascade that shares it.
    """

    __slots__ = ("num_filters", "capacity", "fp_rate", "use_bloom",
                 "_filters", "_members", "_counts", "evictions",
                 "_bytes_per_filter", "_holders")

    def __init__(self, num_filters: int = 4, capacity: int = 4096,
                 fp_rate: float = 0.01, use_bloom: bool = False,
                 holders: dict[int, int] | None = None) -> None:
        if num_filters < 1:
            raise ValueError("num_filters must be >= 1")
        self.num_filters = num_filters
        self.capacity = capacity
        self.fp_rate = fp_rate
        self.use_bloom = use_bloom
        self._filters: list[BloomFilter | None] = [self._new_filter()]
        self._members: list[set[int]] = [set()]
        self._counts: list[int] = [0]
        self.evictions = 0
        self._bytes_per_filter = \
            BloomFilter(capacity, fp_rate).memory_bytes()
        self._holders: dict[int, int] = {} if holders is None else holders

    def _new_filter(self) -> BloomFilter | None:
        return BloomFilter(self.capacity, self.fp_rate) \
            if self.use_bloom else None

    def insert(self, key: int) -> None:
        self.insert_many([key])

    def insert_many(self, keys: list[int]) -> None:
        """Insert ``keys`` in order: the state ``insert`` per key leaves,
        with one set update per cascade filter they reach."""
        holders = self._holders
        done = 0
        while done < len(keys):
            if self._counts[-1] >= self.capacity:
                self._filters.append(self._new_filter())
                self._members.append(set())
                self._counts.append(0)
                if len(self._filters) > self.num_filters:
                    self._filters.pop(0)
                    evicted = self._members.pop(0)
                    self._counts.pop(0)
                    self.evictions += 1
                    for key in evicted:
                        left = holders[key] - 1
                        if left:
                            holders[key] = left
                        else:
                            del holders[key]
            part = keys[done:done + self.capacity - self._counts[-1]]
            if self.use_bloom:
                for key in part:
                    self._filters[-1].add(key)
            new = set(part)
            new -= self._members[-1]
            self._members[-1] |= new
            get = holders.get
            for key in new:
                holders[key] = get(key, 0) + 1
            self._counts[-1] += len(part)
            done += len(part)

    def maybe_member(self, key: int) -> bool:
        """Exact membership over the live cascade (pre-filter fast path)."""
        return any(key in m for m in self._members)

    def score(self, key: int) -> int:
        """Number of cascade filters containing ``key`` (0..num_filters)."""
        if self.use_bloom:
            if not self.maybe_member(key):
                return 0
            return sum(1 for f in self._filters if key in f)
        score = 0
        for m in self._members:
            if key in m:
                score += 1
        return score

    def memory_bytes(self) -> int:
        """The bloom-bit budget of the cascade (what a production
        implementation carries), independent of operating mode."""
        return self._bytes_per_filter * len(self._filters)
