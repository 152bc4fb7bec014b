"""SHARDS-style spatial sampling (§3.2, after Waldspurger et al. FAST'15).

Request blocks are sampled by address hash — ``hash(lba) mod P < r·P`` —
so that *all* accesses of a sampled block are observed, which is what makes
reuse-interval statistics of the sampled stream unbiased estimates of the
full stream's (after scaling by ``1/r``).
"""

from __future__ import annotations

import numpy as np

from repro.core.bloom import _mix64, _mix64_batch

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
