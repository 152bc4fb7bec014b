"""Placement-policy protocol shared by the baselines and ADAPT.

A policy declares its groups, routes every user block write and every GC
migration to a group, and — as the store's first observer
(:mod:`repro.common.observer`) — may override any store event (chunk
flushes, seals, GC migrations, reclaims).  Policies hold
their own per-LBA metadata in NumPy arrays (never per-block objects),
read and write single entries through scalar views of those arrays
(:class:`~repro.common.views.ScalarViews`), and report its footprint
through :meth:`memory_bytes` for the Fig 12b experiment.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.common.observer import StoreObserver
from repro.common.views import ScalarViews
from repro.lss.config import LSSConfig
from repro.lss.group import Group, GroupSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.lss.store import LogStructuredStore


def _unbound() -> None:
    """What :attr:`PlacementPolicy._store` answers before :meth:`bind`."""
    return None


class PlacementPolicy(ScalarViews, StoreObserver):
    """Base class for placement policies.

    Lifecycle: construct with the store config, pass to
    :class:`~repro.lss.store.LogStructuredStore`, which calls :meth:`bind`.
    Events a policy overrides reach it before every other observer.
    """

    __slots__ = ("config", "_store")

    #: Registry name; subclasses override.
    name = "abstract"

    def __init__(self, config: LSSConfig) -> None:
        self.config = config
        #: A weak reference to the bound store (:meth:`bind`): call it
        #: once per call of a hook to get the store.
        self._store = _unbound

    # ------------------------------------------------------------------
    # required interface
    # ------------------------------------------------------------------
    def group_specs(self) -> Sequence[GroupSpec]:
        """Declare the groups this policy writes to (fixed for the run)."""
        raise NotImplementedError

    def place_user(self, lba: int, now_us: int) -> int:
        """Route one user block write; return a group id.

        Called *before* the block is appended; implementations typically
        read their per-LBA metadata, decide, then update it.
        """
        raise NotImplementedError

    def place_gc(self, lba: int, victim_group: int, now_us: int) -> int:
        """Route one GC-migrated valid block; return a group id."""
        raise NotImplementedError

    def plan_user_writes(self, lbas: np.ndarray, ts_us: np.ndarray,
                         start_seq: int) -> None:
        """Optional: precompute what the trace alone decides for the next
        ``len(lbas)`` user writes (no-op here; a policy that keeps it
        loses nothing).

        Contract (see ``docs/extending.md``): ``store.replay`` calls this
        once per window with the window's block stream — block ``i``
        will be placed by ``place_user(lbas[i], ts_us[i])`` at logical
        clock ``start_seq + i`` — and GC runs, deadline flushes and
        every GC hook may fall between any two of those calls.  An
        override may therefore read and advance only state that user
        writes alone mutate (per-LBA write history, sampled-stream
        statistics) and must leave alone everything GC hooks or
        ``place_gc*`` read or write; ``place_user`` then consumes the
        plan block by block and must raise if ``(user_seq, lba)`` is
        not the block the plan expects.  An empty window drops the
        plan: the store sends one whenever ``replay`` returns or raises.
        """

    # pinned by the frozen `bench/` harness — no caller
    def candidate_user_gids(self, *args, **kwargs):
        raise NotImplementedError("pinned by the frozen bench/ harness")

    def place_gc_batch(self, lbas: np.ndarray, victim_group: int,
                       now_us: int) -> np.ndarray:
        """Route one victim's GC-migrated valid blocks; one group id each.

        Contract (see ``docs/extending.md``): called by GC with one
        victim segment's valid LBAs in slot order.  Each LBA appears at
        most once (the mapping is a bijection onto valid slots) and both
        clocks are constant across the batch, so there are no in-batch
        chains to model.  Implementations must return exactly what a
        scalar :meth:`place_gc` loop would and leave their metadata in
        the same final state.  The base implementation is that scalar
        loop.
        """
        out = np.empty(int(lbas.shape[0]), dtype=np.int64)
        for i, lba in enumerate(lbas.tolist()):
            out[i] = self.place_gc(lba, victim_group, now_us)
        return out

    # ------------------------------------------------------------------
    # optional hooks
    # ------------------------------------------------------------------
    def bind(self, store: "LogStructuredStore") -> None:
        """Receive the store, and keep only a weak reference to it.

        The store owns its policy, so a strong reference back would make
        a cycle that keeps every finished store in memory until the
        cyclic collector runs.  The store is alive whenever it calls the
        policy: a hook reads it as ``self._store()``, once per call.
        Decisions worth observing fire through its ``events``.
        """
        self._store = weakref.ref(store)

    def before_padding_flush(self, group: Group, now_us: int) -> bool:
        """Last chance to avert an SLA padding flush for ``group``.

        Return ``True`` if the policy persisted the pending data some other
        way (ADAPT's cross-group aggregation); ``False`` lets the store pad.
        """
        return False

    def memory_bytes(self) -> int:
        """Approximate resident metadata footprint of this policy."""
        return 0

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    @property
    def user_seq(self) -> int:
        """The store's logical clock (user blocks written so far)."""
        store = self._store()
        if store is None:
            raise RuntimeError(
                f"policy {self.name!r} is not bound to a live store")
        return store.user_seq
