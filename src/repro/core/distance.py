"""Reuse-interval tracking over the sampled stream (the paper's "distance
tree", §3.2).

The access interval of a block is the number of *other intervening unique*
blocks referenced since its previous access.  The classic structure is an
order-statistic tree over last-access positions; because new positions are
always appended at the maximum, a sorted array of live positions gives the
same counts with one ``bisect`` per re-access and an O(n) delete — and the
sampled working set is small by construction, so the memmove cost is far
below a pointer-chasing tree in CPython (see the HPC guides on preferring
flat arrays).
"""

from __future__ import annotations

from bisect import bisect_right


class DistanceTracker:
    """Tracks per-key reuse intervals in unique-key units.

    ``access(key)`` returns the number of distinct *other* keys seen since
    ``key``'s previous access, or ``None`` on first access.
    """

    __slots__ = ("_clock", "_last_pos", "_live_positions")

    def __init__(self) -> None:
        self._clock = 0
        self._last_pos: dict[int, int] = {}
        self._live_positions: list[int] = []  # sorted ascending

    def __len__(self) -> int:
        """Number of distinct keys ever accessed and still tracked."""
        return len(self._last_pos)

    def access(self, key: int) -> int | None:
        """Record an access; return the reuse interval or ``None``."""
        pos = self._clock
        self._clock += 1
        prev = self._last_pos.get(key)
        if prev is None:
            distance = None
        else:
            # Unique keys touched strictly after prev: live positions > prev,
            # excluding this key's own marker at prev itself.
            idx = bisect_right(self._live_positions, prev)
            distance = len(self._live_positions) - idx
            # Remove the stale marker (it is at idx - 1 by construction).
            del self._live_positions[idx - 1]
        self._last_pos[key] = pos
        self._live_positions.append(pos)  # pos is the global maximum
        return distance

    def access_many(self, keys: list[int]) -> list[int | None]:
        """Array-in/array-out :meth:`access`: one interval per key, in
        order, identical to sequential scalar calls.

        The structure is inherently sequential (each access mutates the
        position list the next one reads), so this is a tight loop with
        the lookups hoisted rather than a NumPy kernel — the vector win
        on the ADAPT path comes from filtering the stream down to the
        sampled survivors *before* this call.
        """
        out: list[int | None] = []
        append_out = out.append
        last_pos = self._last_pos
        live = self._live_positions
        append_live = live.append
        clock = self._clock
        get = last_pos.get
        for key in keys:
            prev = get(key)
            if prev is None:
                append_out(None)
            else:
                idx = bisect_right(live, prev)
                append_out(len(live) - idx)
                del live[idx - 1]
            last_pos[key] = clock
            append_live(clock)
            clock += 1
        self._clock = clock
        return out

    def memory_bytes(self) -> int:
        """Approximate footprint: the paper budgets ~44 bytes per sampled
        block (key, last position, tree linkage)."""
        return 44 * len(self._last_pos)

    def check_invariants(self) -> None:
        """Test hook: positions list mirrors the last-position map."""
        expect = sorted(self._last_pos.values())
        if expect != self._live_positions:
            raise AssertionError("live positions diverged from key map")
