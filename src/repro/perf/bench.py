"""Replay-throughput bench harness and regression gate.

Measures end-to-end replay throughput (user blocks written per second)
for every placement policy on one volume of each cloud profile, under
both replay engines, and writes a ``BENCH_<date>.json`` snapshot at the
repo root.  Snapshots are diffable across commits: :func:`compare_bench`
flags any cell whose throughput dropped by more than a configurable
threshold against a previous snapshot, which is what the CI smoke job
gates on.

Timing methodology: each cell replays a *fresh* store ``repeats`` times
and keeps the best wall-clock run — the quantity under test is the
engine's cost, not the machine's scheduling noise — and the same cached
trace objects are reused across every cell so generation never pollutes
the measurement.

``batched`` cells exist only where
:meth:`BatchedReplayEngine.ineligible_reason` allows the engine:
multi-group policies and per-event tracing are skipped, and the
snapshot's ``engine_skips`` map says why.

Observability modes form a third axis (``obs_modes``): ``off`` (no
recorder), ``metrics`` (default batch-capable :class:`ObsRecorder`), and
``trace`` (``trace_events=True``, scalar engine only).
The snapshot's ``obs_overhead`` section reports the metrics-mode
slowdown factor (off-throughput over metrics-throughput) per cell.

Attribution forms a fourth axis (``attr_modes``): ``off`` (null sink)
and ``on`` (an :class:`AttributionRecorder` collecting chunk-bound
causes and the GC provenance ledger).  Attr-on cells run only at
``obs=off`` and feed the snapshot's ``attr_overhead`` map.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from dataclasses import asdict, dataclass

from repro.experiments.scale import Scale
from repro.experiments.workloads import PROFILES, fleet_for
from repro.lss.store import LogStructuredStore
from repro.perf.engine import BatchedReplayEngine
from repro.placement.registry import available_policies, make_policy

#: Snapshot format version (bump on incompatible layout changes).
#: v2: cells carry an ``obs`` mode, snapshots an ``obs_overhead`` map.
#: v3: optional ``fleet`` section (sharded-replay scaling cells).
#: v4: cells carry an ``attr`` mode, snapshots an ``attr_overhead`` map.
SCHEMA_VERSION = 4

#: Default fractional throughput drop that counts as a regression.
DEFAULT_THRESHOLD = 0.25

#: Valid observability modes for the bench axis.
OBS_MODES = ("off", "metrics", "trace")

#: Valid attribution modes for the bench axis.
ATTR_MODES = ("off", "on")


@dataclass(frozen=True)
class BenchCell:
    """One (policy, workload, engine, obs, attr) throughput measurement."""

    policy: str
    workload: str
    engine: str
    seconds: float
    user_blocks: int
    blocks_per_sec: float
    obs: str = "off"
    attr: str = "off"


def _make_recorder(obs: str):
    """Fresh recorder for one timed replay (``None`` when obs is off)."""
    if obs == "off":
        return None
    from repro.obs.recorder import ObsRecorder
    if obs == "metrics":
        return ObsRecorder()
    if obs == "trace":
        return ObsRecorder(trace_events=True)
    raise ValueError(f"unknown obs mode {obs!r}; choose from {OBS_MODES}")


def _make_attribution(attr: str):
    """Fresh attribution sink for one timed replay (``None`` when off)."""
    if attr == "off":
        return None
    from repro.obs.attribution import AttributionRecorder
    if attr == "on":
        return AttributionRecorder()
    raise ValueError(
        f"unknown attr mode {attr!r}; choose from {ATTR_MODES}")


def run_bench(scale: Scale,
              policies: list[str] | None = None,
              profiles: tuple[str, ...] = PROFILES,
              engines: tuple[str, ...] = ("scalar", "batched"),
              repeats: int = 2,
              seed: int = 0,
              date: str | None = None,
              obs_modes: tuple[str, ...] = ("off",),
              attr_modes: tuple[str, ...] = ("off",)) -> dict:
    """Run the full bench matrix; returns the snapshot dict.

    One volume per profile (the first of the standard experiment fleet,
    so the trace cache is shared with the figure drivers).  ``obs_modes``
    adds instrumented cells.  A ``batched`` cell the engine's
    eligibility predicate rejects (multi-group policy, per-event
    tracing) is skipped and its reason kept in ``engine_skips``.
    ``attr_modes`` adds attribution-instrumented cells; ``attr=on``
    cells only run at ``obs=off`` so the two overhead axes never
    confound each other.
    """
    from repro.experiments.runner import store_config_for
    if policies is None:
        policies = available_policies()
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    for mode in obs_modes:
        if mode not in OBS_MODES:
            raise ValueError(
                f"unknown obs mode {mode!r}; choose from {OBS_MODES}")
    for mode in attr_modes:
        if mode not in ATTR_MODES:
            raise ValueError(
                f"unknown attr mode {mode!r}; choose from {ATTR_MODES}")
    traces = {p: fleet_for(p, scale)[0] for p in profiles}

    def fresh_store(policy_name: str, obs: str, attr: str):
        cfg = store_config_for(scale.volume_blocks, seed=seed)
        return LogStructuredStore(cfg, make_policy(policy_name, cfg),
                                  recorder=_make_recorder(obs),
                                  attribution=_make_attribution(attr))

    cells: list[BenchCell] = []
    engine_skips: dict[str, str] = {}
    for policy_name in policies:
        for profile in profiles:
            trace = traces[profile]
            for engine in engines:
                for obs in obs_modes:
                    for attr in attr_modes:
                        if attr != "off" and obs != "off":
                            continue
                        if engine == "batched":
                            reason = BatchedReplayEngine.ineligible_reason(
                                fresh_store(policy_name, obs, attr))
                            if reason is not None:
                                engine_skips[f"{policy_name}/{obs}"] = reason
                                continue
                        best = None
                        blocks = 0
                        for _ in range(repeats):
                            store = fresh_store(policy_name, obs, attr)
                            t0 = time.perf_counter()
                            stats = store.replay(trace, engine=engine)
                            dt = time.perf_counter() - t0
                            blocks = stats.user_blocks_requested
                            if best is None or dt < best:
                                best = dt
                        cells.append(BenchCell(
                            policy=policy_name, workload=profile,
                            engine=engine, obs=obs, attr=attr,
                            seconds=round(best, 6), user_blocks=blocks,
                            blocks_per_sec=round(blocks / best, 1)
                            if best else 0.0))
    return {
        "schema": SCHEMA_VERSION,
        "date": date or time.strftime("%Y-%m-%d"),
        "scale": scale.name,
        "repeats": repeats,
        "seed": seed,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "cells": [asdict(c) for c in cells],
        "speedups": _speedups(cells),
        "obs_overhead": _obs_overhead(cells),
        "attr_overhead": _attr_overhead(cells),
        "engine_skips": engine_skips,
    }


def _speedups(cells: list[BenchCell]) -> dict[str, float]:
    """batched-over-scalar throughput ratio per (policy, workload).

    Only uninstrumented cells count — the engine comparison must not be
    polluted by recorder overhead.
    """
    by_key: dict[tuple[str, str], dict[str, float]] = {}
    for c in cells:
        if c.obs != "off" or c.attr != "off":
            continue
        by_key.setdefault((c.policy, c.workload), {})[c.engine] = \
            c.blocks_per_sec
    out = {}
    for (policy, workload), eng in sorted(by_key.items()):
        if eng.get("scalar") and eng.get("batched"):
            out[f"{policy}/{workload}"] = round(
                eng["batched"] / eng["scalar"], 3)
    return out


def _obs_overhead(cells: list[BenchCell]) -> dict[str, float]:
    """Metrics-mode slowdown (off blk/s over metrics blk/s) per
    (policy, workload, engine); 1.0 means free instrumentation."""
    by_key: dict[tuple[str, str, str], dict[str, float]] = {}
    for c in cells:
        if c.attr != "off":
            continue
        by_key.setdefault((c.policy, c.workload, c.engine), {})[c.obs] = \
            c.blocks_per_sec
    out = {}
    for (policy, workload, engine), modes in sorted(by_key.items()):
        if modes.get("off") and modes.get("metrics"):
            out[f"{policy}/{workload}/{engine}"] = round(
                modes["off"] / modes["metrics"], 3)
    return out


def _attr_overhead(cells: list[BenchCell]) -> dict[str, float]:
    """Attribution slowdown (off blk/s over attr-on blk/s) per
    (policy, workload, engine), measured at ``obs=off`` on both sides;
    1.0 means free attribution."""
    by_key: dict[tuple[str, str, str], dict[str, float]] = {}
    for c in cells:
        if c.obs != "off":
            continue
        by_key.setdefault((c.policy, c.workload, c.engine), {})[c.attr] = \
            c.blocks_per_sec
    out = {}
    for (policy, workload, engine), modes in sorted(by_key.items()):
        if modes.get("off") and modes.get("on"):
            out[f"{policy}/{workload}/{engine}"] = round(
                modes["off"] / modes["on"], 3)
    return out


def run_fleet_bench(scale: Scale,
                    workers_list: tuple[int, ...] = (1, 2),
                    volumes: int = 8,
                    scheme: str = "adapt",
                    profile: str = "ali",
                    seed: int = 0) -> dict:
    """Fleet-replay scaling: blocks/sec vs worker count.

    One cell per worker count, all replaying the *same* fleet spec (so
    the per-volume work is identical and the only variable is the
    sharding).  Unlike the single-volume cells there is no best-of —
    a fleet run at smoke scale is long enough to dominate pool startup,
    and the quantity of interest is achieved end-to-end throughput.
    Returns the snapshot's ``fleet`` section.
    """
    from repro.fleet import FleetSpec, run_fleet
    spec = FleetSpec(profile=profile, scheme=scheme, num_volumes=volumes,
                     volume_blocks=scale.volume_blocks,
                     volume_requests=scale.volume_requests, seed=seed)
    cells = []
    for workers in workers_list:
        if workers < 1:
            raise ValueError("worker counts must be >= 1")
        result = run_fleet(spec, workers=workers)
        user_blocks = sum(v["stats"]["user_blocks_requested"]
                          for v in result.volumes)
        cells.append({
            "workers": workers,
            "volumes": volumes,
            "seconds": round(result.seconds, 6),
            "user_blocks": int(user_blocks),
            "blocks_per_sec": round(user_blocks / result.seconds, 1)
            if result.seconds else 0.0,
        })
    base = cells[0]["blocks_per_sec"] if cells else 0.0
    return {
        "scheme": scheme,
        "profile": profile,
        "cells": cells,
        "scaling": {
            f"{c['workers']}w": round(c["blocks_per_sec"] / base, 3)
            for c in cells if base},
    }


def bench_filename(date: str) -> str:
    return f"BENCH_{date.replace('-', '')}.json"


def write_bench(result: dict, out_dir: str = ".") -> str:
    """Write the snapshot as ``BENCH_<date>.json`` in ``out_dir``."""
    from repro.obs.atomicio import atomic_write
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, bench_filename(result["date"]))
    with atomic_write(path) as f:
        json.dump(result, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def find_previous_bench(out_dir: str = ".",
                        exclude: str | None = None) -> str | None:
    """Latest ``BENCH_*.json`` in ``out_dir`` (dates sort lexically)."""
    try:
        names = sorted(n for n in os.listdir(out_dir)
                       if n.startswith("BENCH_") and n.endswith(".json"))
    except OSError:
        return None
    if exclude:
        ex = os.path.basename(exclude)
        names = [n for n in names if n != ex]
    return os.path.join(out_dir, names[-1]) if names else None


def compare_bench(current: dict, baseline: dict,
                  threshold: float = DEFAULT_THRESHOLD) -> list[dict]:
    """Cells whose throughput regressed by more than ``threshold``.

    Cells are matched on (policy, workload, engine, obs, attr); cells
    present in only one snapshot are ignored (policies and profiles may
    come and go).  Schema-1 baselines have no ``obs`` field and pre-v4
    baselines no ``attr`` field — their cells compare as ``off``, which
    is what they measured.  Snapshots from different scales never
    compare — a scale change is a workload change, not a regression.
    """
    if current.get("scale") != baseline.get("scale"):
        return []
    base = {(c["policy"], c["workload"], c["engine"],
             c.get("obs", "off"), c.get("attr", "off")): c
            for c in baseline.get("cells", [])}
    regressions = []
    for c in current.get("cells", []):
        b = base.get((c["policy"], c["workload"], c["engine"],
                      c.get("obs", "off"), c.get("attr", "off")))
        if b is None or not b["blocks_per_sec"]:
            continue
        change = c["blocks_per_sec"] / b["blocks_per_sec"] - 1.0
        if change < -threshold:
            regressions.append({
                "policy": c["policy"], "workload": c["workload"],
                "engine": c["engine"], "obs": c.get("obs", "off"),
                "baseline_blocks_per_sec": b["blocks_per_sec"],
                "current_blocks_per_sec": c["blocks_per_sec"],
                "change": round(change, 4),
            })
    return regressions


def render_bench(result: dict,
                 regressions: list[dict] | None = None,
                 baseline_path: str | None = None) -> str:
    """Human-readable table for the CLI and CI logs.

    The main table shows uninstrumented (``obs=off``) throughput; when
    the snapshot has instrumented cells, a second block lists the
    metrics-mode overhead factors.
    """
    from repro.experiments.report import render_table
    by_key: dict[tuple[str, str], dict[str, dict]] = {}
    for c in result["cells"]:
        if c.get("obs", "off") != "off" or c.get("attr", "off") != "off":
            continue
        by_key.setdefault((c["policy"], c["workload"]), {})[c["engine"]] = c
    rows = []
    slower = 0
    for (policy, workload), eng in sorted(by_key.items()):
        row = [policy, workload]
        for name in ("scalar", "batched"):
            c = eng.get(name)
            row.append(f"{c['blocks_per_sec']:,.0f}" if c else "-")
        ratio = result["speedups"].get(f"{policy}/{workload}")
        if ratio and ratio < 1.0:
            # The batched engine LOST to the scalar loop on this cell —
            # worth a loud marker: it usually means the chunk bounds
            # collapsed (heavy GC pressure) or the trace is too short to
            # amortize the vectorization overhead.
            row.append(f"{ratio:.2f}x !")
            slower += 1
        else:
            row.append(f"{ratio:.2f}x" if ratio else "-")
        rows.append(row)
    out = render_table(
        ["policy", "workload", "scalar blk/s", "batched blk/s", "speedup"],
        rows,
        title=f"replay throughput ({result['scale']} scale, best of "
              f"{result['repeats']})")
    if slower:
        out += (f"\n! {slower} cell(s) slower batched than scalar "
                f"(speedup < 1.00x)")
    overhead = result.get("obs_overhead") or {}
    if overhead:
        worst = max(overhead.values())
        out += (f"\nmetrics-mode overhead (off/metrics blk/s, "
                f"worst {worst:.3f}x):")
        for key, factor in sorted(overhead.items()):
            out += f"\n  {key}: {factor:.3f}x"
    attr_overhead = result.get("attr_overhead") or {}
    if attr_overhead:
        worst = max(attr_overhead.values())
        out += (f"\nattribution overhead (off/on blk/s, "
                f"worst {worst:.3f}x):")
        for key, factor in sorted(attr_overhead.items()):
            out += f"\n  {key}: {factor:.3f}x"
    for key, reason in sorted((result.get("engine_skips") or {}).items()):
        out += f"\nno batched cell for {key}: {reason}"
    fleet = result.get("fleet")
    if fleet:
        out += (f"\nfleet scaling ({fleet['scheme']}, "
                f"{fleet['cells'][0]['volumes']} x {fleet['profile']} "
                f"volumes):")
        for c in fleet["cells"]:
            ratio = fleet["scaling"].get(f"{c['workers']}w")
            out += (f"\n  {c['workers']} worker(s): "
                    f"{c['blocks_per_sec']:,.0f} blk/s"
                    + (f" ({ratio:.2f}x)" if ratio else ""))
    if regressions is None:
        return out
    if baseline_path:
        out += f"\nbaseline: {baseline_path}"
    if regressions:
        out += f"\n{len(regressions)} cell(s) regressed:"
        for r in regressions:
            out += (f"\n  {r['policy']}/{r['workload']}/{r['engine']}: "
                    f"{r['baseline_blocks_per_sec']:,.0f} -> "
                    f"{r['current_blocks_per_sec']:,.0f} blk/s "
                    f"({r['change'] * 100:+.1f}%)")
    else:
        out += "\nno cells regressed beyond threshold"
    return out


__all__ = ["ATTR_MODES", "BenchCell", "DEFAULT_THRESHOLD", "OBS_MODES",
           "SCHEMA_VERSION", "bench_filename", "compare_bench",
           "find_previous_bench", "render_bench", "run_bench",
           "run_fleet_bench", "write_bench"]
