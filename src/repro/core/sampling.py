"""SHARDS-style spatial sampling (§3.2, after Waldspurger et al. FAST'15).

Request blocks are sampled by address hash — ``hash(lba) mod P < r·P`` —
so that *all* accesses of a sampled block are observed, which is what makes
reuse-interval statistics of the sampled stream unbiased estimates of the
full stream's (after scaling by ``1/r``).
"""

from __future__ import annotations

import numpy as np

#: 64-bit mixing constants (splitmix64's finalizer).
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


#: Hash-space modulus for the sampling test.
_P = 1 << 24


class SpatialSampler:
    """Deterministic hash-based spatial sampler.

    Args:
        rate: target sampling rate in (0, 1].
        salt: perturbs the hash so independent samplers disagree.
    """

    __slots__ = ("rate", "salt", "_threshold")

    def __init__(self, rate: float, salt: int = 0) -> None:
        if not 0 < rate <= 1:
            raise ValueError(f"rate must be in (0, 1], got {rate}")
        self.rate = rate
        self.salt = salt
        self._threshold = max(1, int(rate * _P))

    def is_sampled(self, lba: int) -> bool:
        return _mix64(lba ^ self.salt) % _P < self._threshold

    def is_sampled_batch(self, lbas: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`is_sampled` (bool array, same semantics)."""
        h = _mix64_batch(lbas.astype(np.uint64) ^ np.uint64(self.salt))
        return (h % np.uint64(_P)) < np.uint64(self._threshold)

    @property
    def effective_rate(self) -> float:
        """The exact rate implied by the integer threshold."""
        return self._threshold / _P
