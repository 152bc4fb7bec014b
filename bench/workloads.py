"""The four benchmark workloads: inputs, cells, counters and checks.

Everything here runs inside a child process of ``run.py`` and drives
``repro`` through the calls a user makes: ``store.replay(trace,
engine="auto")`` on a fresh store for the three replay workloads
(:class:`ReplayWorkload`), and ``run_fleet(...)`` for ``fleet_e2e``
(:class:`FleetWorkload`).  A *cell* is the unit that is timed: one
(scheme, volume, victim) replay, or one whole fleet run.

Inputs come from ``--seed`` in a fixed way.  Each volume's *parameters*
(request rate, Zipf skew, read ratio) are drawn from its cloud profile
at :data:`SPEC_SEED`, so "sparse" and "dense" mean the same volumes on
every seed; the *requests* of each volume are drawn at ``--seed``.  With
``--seed 1`` the replay volumes are exactly
``generate_fleet(profile, n, seed=1)``.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import tempfile
import time
import traceback
from dataclasses import dataclass

from repro.common.rng import tenant_rng
from repro.experiments.runner import store_config_for
from repro.fleet import FleetSpec, run_fleet
from repro.lss.store import LogStructuredStore
from repro.placement.registry import make_policy
from repro.trace.stream import SyntheticVolumeStream
from repro.trace.synthetic.cloud import (
    VolumeSpec,
    generate_volume,
    profile_by_name,
)
from repro.validate.audit import InvariantAuditor

#: Seed of the per-volume parameter draw (see the module docstring).
SPEC_SEED = 1

BASELINES = ("sepgc", "dac", "warcip", "mida", "sepbit")

#: (scheme, profile, volume index, victim policy) per replay cell.
REPLAY_CELLS = {
    "adapt_sparse": [("adapt", "ali", i, "greedy") for i in range(2)]
    + [("adapt", "msrc", i, "greedy") for i in range(3)],
    "adapt_dense": [("adapt", "tencent", i, "greedy") for i in range(2)],
    "baselines_sweep": [(s, "ali", 0, "greedy") for s in BASELINES]
    + [(s, "tencent", 0, "cost-benefit") for s in BASELINES],
}

clock = time.perf_counter


@dataclass(frozen=True)
class Sizes:
    """Input size of one workload: per-volume address space and request
    count, and for the fleet its tenant count and streaming chunk."""

    blocks: int
    requests: int
    volumes: int = 0
    chunk: int = 0


#: Sized so that a cell takes at most ~0.6 s and a pass ~1-2 s on the
#: 2-core reference host: a run of ``run_seconds`` then sees every cell
#: 6-12 times, and the fastest observation of a short cell is far
#: steadier on a noisy host than that of a long one (README, "Sizing").
#: Each volume is still overwritten 2.5-7x, so GC reaches steady state.
FULL = {
    "adapt_sparse": Sizes(blocks=8_192, requests=8_000),
    "adapt_dense": Sizes(blocks=8_192, requests=6_000),
    "baselines_sweep": Sizes(blocks=8_192, requests=5_000),
    "fleet_e2e": Sizes(blocks=4_096, requests=4_000, volumes=6,
                       chunk=1_024),
}
QUICK = {
    "adapt_sparse": Sizes(blocks=4_096, requests=1_500),
    "adapt_dense": Sizes(blocks=4_096, requests=1_500),
    "baselines_sweep": Sizes(blocks=4_096, requests=1_500),
    "fleet_e2e": Sizes(blocks=4_096, requests=1_500, volumes=3,
                       chunk=512),
}


# ----------------------------------------------------------------------
# counters and checks shared by both kinds of workload
# ----------------------------------------------------------------------
def store_counters(store) -> dict:
    """Counters read off one finished store (``StoreStats``,
    ``GroupTraffic`` and the policy)."""
    stats = store.stats
    demotion = getattr(store.policy, "demotion", None)
    return {
        "flash": stats.flash_blocks_written,
        "gc": stats.gc_blocks_written,
        "padding": stats.padding_blocks_written,
        "shadow": stats.shadow_blocks_written,
        "user": stats.user_blocks_requested,
        "chunk_flushes": sum(g.chunk_flushes for g in stats.groups),
        "deadline_flushes": sum(g.deadline_flushes for g in stats.groups),
        "gc_segments": stats.gc_segments_reclaimed,
        "gc_migrated": stats.gc_blocks_migrated,
        "segment_slots": (stats.gc_segments_reclaimed
                          * store.config.segment_blocks),
        "logical_blocks": store.config.logical_blocks,
        "policy_bytes": store.policy.memory_bytes(),
        "demotions": demotion.demotions if demotion is not None else 0,
    }


def report_counters(stats_summary: dict) -> dict:
    """The traffic counters of :func:`store_counters` from a
    ``StoreStats.summary()`` dict (what fleet volume reports carry)."""
    s = stats_summary
    return {"flash": int(s["flash_blocks_written"]),
            "gc": int(s["gc_blocks_written"]),
            "padding": int(s["padding_blocks_written"]),
            "shadow": int(s["shadow_blocks_written"]),
            "user": int(s["user_blocks_requested"])}


def audit(store) -> None:
    """The per-store output check: raises on the first broken invariant."""
    store.check_invariants()
    InvariantAuditor(every_blocks=0).audit(store)


def _cross_check(name: str, replay, want: dict, got_of) -> dict:
    """Run ``replay()`` (a scalar-engine reference replay), audit its
    store and demand ``got_of(store) == want``."""
    try:
        store = replay()
        audit(store)
        got = got_of(store)
        if got != want:
            return {"name": name, "error": f"scalar {got} != auto {want}"}
        return {"name": name}
    except Exception as exc:
        traceback.print_exc()
        return {"name": name, "error": repr(exc)}


# ----------------------------------------------------------------------
# the three replay workloads
# ----------------------------------------------------------------------
def volume_trace(profile: str, index: int, sizes: Sizes, seed: int):
    """Volume ``index`` of ``profile``: parameters at SPEC_SEED, requests
    at ``seed``."""
    prof = profile_by_name(profile)
    name = f"{prof.name}-{index:03d}"
    spec = VolumeSpec.draw(prof, name, sizes.blocks, sizes.requests,
                           tenant_rng(SPEC_SEED, name, "spec"))
    return generate_volume(spec, rng=tenant_rng(seed, name, "data"))


class ReplayWorkload:
    """One-shot replays of (scheme, volume, victim) cells."""

    def __init__(self, name: str, sizes: Sizes, seed: int) -> None:
        self.sizes = sizes
        self.cells = REPLAY_CELLS[name]
        self.names = [f"{s}:{p}-{i:03d}:{v}" for s, p, i, v in self.cells]
        t0 = clock()
        self._traces = {(p, i): volume_trace(p, i, sizes, seed)
                        for _, p, i, _ in self.cells}
        self.generate_s = clock() - t0
        #: The cell with the fewest user blocks: warm-up and cross-check.
        self._smallest = min(
            range(len(self.cells)),
            key=lambda c: self._trace(c).total_write_blocks())

    def _trace(self, c: int):
        return self._traces[self.cells[c][1:3]]

    def _replay(self, c: int, engine: str = "auto"):
        scheme, _, _, victim = self.cells[c]
        cfg = store_config_for(self.sizes.blocks, victim=victim)
        store = LogStructuredStore(cfg, make_policy(scheme, cfg))
        store.replay(self._trace(c), engine=engine)
        return store

    def warm_up(self) -> None:
        self._replay(self._smallest)

    def run_pass(self, on_store) -> list[dict]:
        """Run every cell once.  Each entry is ``{"name", "seconds",
        "volumes"}`` — ``volumes`` the counters of each store the cell
        finished — or ``{"name", "error"}`` if the cell raised.
        ``on_store(store)`` sees each store outside the clock."""
        out = []
        for c, name in enumerate(self.names):
            try:
                t0 = clock()
                store = self._replay(c)
                seconds = clock() - t0
                on_store(store)
                out.append({"name": name, "seconds": seconds,
                            "volumes": [store_counters(store)]})
            except Exception as exc:
                traceback.print_exc()
                out.append({"name": name, "error": repr(exc)})
        return out

    def traces(self) -> dict:
        """``{volume name: Trace}`` of every volume the workload reads."""
        return {t.volume: t for t in self._traces.values()}

    def cell_volumes(self) -> list[list[str]]:
        """The names of the volumes each cell reads."""
        return [[self._trace(c).volume] for c in range(len(self.cells))]

    def cross_check(self, reference: list[dict]) -> dict:
        """The smallest cell on the scalar engine must give the counters
        ``auto`` gave."""
        c = self._smallest
        return _cross_check("scalar:" + self.names[c],
                            lambda: self._replay(c, engine="scalar"),
                            reference[c]["volumes"][0], store_counters)


# ----------------------------------------------------------------------
# fleet_e2e
# ----------------------------------------------------------------------
class _SeededStream(SyntheticVolumeStream):
    """A fleet tenant whose parameters and Zipf layout are drawn at
    SPEC_SEED and whose request chunks are drawn at the fleet seed."""

    def __init__(self, profile, volume, unique_blocks, num_requests,
                 seed, chunk_requests) -> None:
        super().__init__(profile, volume, unique_blocks, num_requests,
                         seed=SPEC_SEED, chunk_requests=chunk_requests)
        self.seed = seed


@dataclass(frozen=True)
class BenchFleetSpec(FleetSpec):
    """``FleetSpec`` with the benchmark's seeding rule for tenants."""

    def volume_stream(self, tenant_id: str) -> SyntheticVolumeStream:
        return _SeededStream(self.profile, tenant_id, self.volume_blocks,
                             self.volume_requests, seed=self.seed,
                             chunk_requests=self.chunk_requests)


class FleetWorkload:
    """One cell: the whole ``run_fleet`` command, generation included.

    ``work_dir`` is where each run's output directory is made (and
    removed again); ``collect`` attaches the metrics and attribution
    recorders, as the measured workload does.
    """

    names = ["adapt:fleet:greedy"]
    generate_s = 0.0  # tenants are generated inside the clock

    def __init__(self, sizes: Sizes, seed: int, work_dir: str,
                 collect: bool = True) -> None:
        self.work_dir = work_dir
        self.spec = BenchFleetSpec(
            profile="ali", scheme="adapt", num_volumes=sizes.volumes,
            volume_blocks=sizes.blocks, volume_requests=sizes.requests,
            chunk_requests=sizes.chunk, seed=seed,
            collect_metrics=collect, collect_attribution=collect)

    def _run(self, spec: FleetSpec):
        """``(seconds, FleetRunResult)``; only ``run_fleet`` itself is
        inside the clock, not the directory's creation and removal."""
        out_dir = tempfile.mkdtemp(dir=self.work_dir, prefix=".bench_work-")
        try:
            t0 = clock()
            result = run_fleet(spec, workers=1, checkpoint_every=2,
                               out_dir=out_dir)
            seconds = clock() - t0
            if not result.complete \
                    or not os.path.exists(result.summary_path):
                raise RuntimeError("fleet run did not complete")
            return seconds, result
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def warm_up(self) -> None:
        self._run(dataclasses.replace(
            self.spec, num_volumes=1,
            volume_requests=self.spec.chunk_requests))

    def run_pass(self, on_store) -> list[dict]:
        """As :meth:`ReplayWorkload.run_pass`; the fleet's stores are
        not reachable from here (the traced pass sees them through its
        ``volume_report`` wrapper), so ``on_store`` is not called."""
        try:
            seconds, result = self._run(self.spec)
            return [{"name": self.names[0], "seconds": seconds,
                     "volumes": [report_counters(v["stats"])
                                 for v in result.volumes],
                     "fleet_chunks": result.chunks_replayed}]
        except Exception as exc:
            traceback.print_exc()
            return [{"name": self.names[0], "error": repr(exc)}]

    def traces(self) -> dict:
        """The tenants' traces, materialised for fingerprints and the
        cross-check (never for the timed run)."""
        return {t: self.spec.volume_stream(t).materialize()
                for t in self.spec.tenant_ids()}

    def cell_volumes(self) -> list[list[str]]:
        return [self.spec.tenant_ids()]

    def cross_check(self, reference: list[dict]) -> dict:
        """The tenant with the fewest user blocks, replayed in one shot
        on the scalar engine (no chunks, no checkpoints, no recorders),
        must give the counters of its volume report."""
        spec = self.spec
        traces = self.traces()
        tenant = min(traces, key=lambda t: traces[t].total_write_blocks())

        def replay():
            cfg = store_config_for(spec.volume_blocks, victim=spec.victim,
                                   seed=spec.store_seed(tenant))
            store = LogStructuredStore(cfg, make_policy(spec.scheme, cfg))
            store.replay(traces[tenant], engine="scalar")
            return store

        return _cross_check(
            f"scalar:{tenant}", replay,
            reference[0]["volumes"][sorted(traces).index(tenant)],
            lambda store: report_counters(store.stats.summary()))


def make_workload(name: str, seed: int, quick: bool, work_dir: str,
                  collect: bool = True):
    sizes = (QUICK if quick else FULL)[name]
    if name == "fleet_e2e":
        return FleetWorkload(sizes, seed, work_dir, collect)
    return ReplayWorkload(name, sizes, seed)
