#!/usr/bin/env python3
"""The repository benchmark: four workloads, end to end and by layer.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S]
                         [--trace 0|1] [--quick] [--out FILE]

Without ``--workload`` all four workloads run one after another; without
``--trace`` each gets both its untraced measurement (the end-to-end
metrics) and its traced pass (the per-layer metrics).  Every workload
runs closed-loop and single-threaded in fresh child processes
(``child.py``).  The metric names, units and regression bounds live in
``BENCHMARK.json`` at the repository root; README.md explains them.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The command
exits non-zero if any cell raised or failed an output check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")

#: Set-up is timed in this many fresh processes per run (the measuring
#: child plus set-up-only children); ``setup_s`` is their median.
SETUP_SAMPLES = 7
#: Fewest timed passes per run; more are made while ``--seconds`` lasts.
MIN_PASSES = 3
#: Passes of the fleet with metrics and attribution off (obs.overhead_pct).
OBS_OFF_PASSES = 3
#: Largest accepted gap between the traced pass's wall time and the sum
#: of all spans' self times, as a share of the wall time.
SELF_TIME_TOLERANCE = 0.02


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def child(mode: str, *args: str) -> dict:
    """Run one ``child.py`` mode to completion and return its result."""
    env = dict(os.environ, OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, CHILD, mode, *args], env=env,
                          stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"child {mode} {' '.join(args)} exited with "
                           f"code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------
#: The simulated counters every pass must reproduce exactly.
COUNTERS = ("flash", "gc", "padding", "shadow", "user")


def volume_key(volume: dict) -> tuple:
    return tuple(volume[k] for k in COUNTERS)


def cell_key(cell: dict):
    """The simulated counters of a cell's stores, or None if it raised."""
    if "error" in cell:
        return None
    return [volume_key(v) for v in cell["volumes"]]


class Checks:
    """Cells attempted and the ones that failed, with the reason."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, name: str, error: str | None) -> None:
        self.attempted += 1
        if error:
            self.failures.append(f"{name}: {error}")

    def add_pass(self, label: str, cells: list[dict],
                 reference: list[dict]) -> None:
        """A pass's cells must not raise and must reproduce the reference
        pass's simulated counters exactly."""
        for cell, ref in zip(cells, reference):
            error = cell.get("error")
            if error is None and cell_key(cell) != cell_key(ref):
                error = "counters differ from the first pass"
            self.add(f"{label}:{cell['name']}", error)


def pass_seconds(cells: list[dict]) -> float:
    return sum(c.get("seconds", 0.0) for c in cells)


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def run_workload(name: str, seed: int, seconds: float, quick: bool,
                 want_e2e: bool, want_layers: bool,
                 chrome: str | None) -> dict:
    """Measure one workload; returns its metrics, audit trail and checks."""
    base = ["--workload", name, "--seed", str(seed)]
    if quick:
        base.append("--quick")
    min_passes = 1 if quick else MIN_PASSES
    measure_args = base + ["--min-passes", str(min_passes),
                           "--seconds", str(0 if quick else seconds)]
    measured = child("measure", *measure_args)
    passes = [p["cells"] for p in measured["passes"]]
    first = passes[0]
    checks = Checks()
    for i, cells in enumerate(passes):
        checks.add_pass(f"pass{i}", cells, first)
    checks.add(measured["cross_check"]["name"],
               measured["cross_check"].get("error"))

    ok_cells = [i for i, c in enumerate(first) if "error" not in c]
    # The fastest observation of each cell: the work is deterministic
    # and CPU-bound, so whatever else the host does only ever adds time.
    best = {i: min(p[i]["seconds"] for p in passes if "seconds" in p[i])
            for i in ok_cells}
    totals = {k: sum(v[k] for i in ok_cells for v in first[i]["volumes"])
              for k in COUNTERS}
    user = totals["user"]
    wa = totals["flash"] / user
    terms = 1 + (totals["gc"] + totals["padding"] + totals["shadow"]) / user
    checks.add("wa_terms", None if abs(wa - terms) < 1e-12 else
               f"1 + gc + padding + shadow per user block = {terms}, "
               f"write amplification = {wa}")
    pass_s = [pass_seconds(p) for p in passes]
    out = {"audit": {
        "pass_s": pass_s, "pass_s_median": statistics.median(pass_s),
        "pass_s_quartiles": quartiles(pass_s),
        "measured_s": measured["measured_s"],
        "cells": [{"name": first[i]["name"], "best_s": best[i],
                   "user_blocks": sum(v["user"]
                                      for v in first[i]["volumes"])}
                  for i in ok_cells],
        "counters": totals}}

    if want_e2e:
        samples = [measured["setup_s"]]
        for _ in range((3 if quick else SETUP_SAMPLES) - 1):
            samples.append(child("setup", *base)["setup_s"])
        out["audit"]["setup_samples_s"] = samples
        out["end_to_end"] = {
            "user_blocks_per_s": user / sum(best.values()),
            "write_amplification": wa,
            "peak_rss_mb": measured["peak_rss_mb"],
            "setup_s": statistics.median(samples)}

    if want_layers:
        traced_args = base + (["--chrome", chrome] if chrome else [])
        traced = child("traced", *traced_args)
        checks.add_pass("traced", traced["cells"], first)
        gap = abs(traced["self_sum_s"] - traced["wall_s"]) \
            / traced["wall_s"]
        checks.add("traced:self_time_sum", None
                   if gap <= SELF_TIME_TOLERANCE else
                   f"self times sum to {traced['self_sum_s']} s, the "
                   f"pass took {traced['wall_s']} s")
        layers = dict(traced["metrics"])
        fastest_pass = min(pass_s)
        layers["bench.trace_overhead_pct"] = 100 * (
            pass_seconds(traced["cells"]) / fastest_pass - 1)
        layers["bench.pass_spread_pct"] = 100 * (
            max(pass_s) / fastest_pass - 1)
        cell_s = sorted(best.values())
        layers["experiments.cells"] = len(first)
        layers["experiments.cell_s_p50"] = statistics.median(cell_s)
        layers["experiments.cell_s_max"] = cell_s[-1]
        for i in ok_cells:
            key = "experiments.scheme_s." + first[i]["name"].split(":")[0]
            layers[key] = layers.get(key, 0.0) + best[i]
        layers["obs.overhead_pct"] = 0.0
        if name == "fleet_e2e":
            off = child("measure", *base, "--no-collect", "--min-passes",
                        str(1 if quick else OBS_OFF_PASSES))
            off_s = [pass_seconds(p["cells"]) for p in off["passes"]]
            layers["obs.overhead_pct"] = 100 * (fastest_pass / min(off_s)
                                                - 1)
            out["audit"]["obs_off_pass_s"] = off_s
        out["per_layer"] = layers
        out["audit"]["traced"] = {
            k: traced[k] for k in ("wall_s", "root_s", "self_sum_s",
                                   "span_records", "spans")}

    out["fingerprints"] = measured["fingerprints"]
    out["attempted"] = checks.attempted
    out["failures"] = checks.failures
    return out


# ----------------------------------------------------------------------
# the whole command
# ----------------------------------------------------------------------
def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def fill_declared(spec: dict, section: str, values: dict) -> dict:
    """``values`` restricted to the metrics ``BENCHMARK.json`` declares
    for ``section``; a declared layer metric whose layer did not run on
    this workload reads 0.  An undeclared metric is a harness bug."""
    declared = [m["name"] for m in spec[section]]
    extra = sorted(set(values) - set(declared))
    if extra:
        raise RuntimeError(f"metrics not in BENCHMARK.json: {extra}")
    if section == "end_to_end":
        return {n: values[n] for n in declared}
    return {n: values.get(n, 0) for n in declared}


def render(spec: dict, name: str, why: str, result: dict) -> str:
    lines = [f"== {name}: {why}"]
    for section in ("end_to_end", "per_layer"):
        if section not in result:
            continue
        for m in spec[section]:
            bound = f"  [may worsen {m['bound']:.0%}]" \
                if "bound" in m else ""
            value = result[section][m["name"]]
            shown = f"{value:.6g}" if isinstance(value, float) else value
            lines.append(f"  {m['name']:<44}{shown:>14} {m['unit']}"
                         f"  ({m['better']} is better){bound}")
    audit = result["audit"]
    lines.append(f"  passes: {len(audit['pass_s'])}, seconds per pass "
                 f"{[round(s, 3) for s in audit['pass_s']]}")
    for failure in result["failures"]:
        lines.append(f"  FAILED {failure}")
    return "\n".join(lines)


def main(argv=None) -> int:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("bench/run.py: no src/repro beside bench/ — nothing to "
              "measure", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names,
                    help="run one workload (default: all four)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="how long the timed passes of a workload last")
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="0: end-to-end metrics only; 1: per-layer "
                         "metrics only (default: both)")
    ap.add_argument("--quick", action="store_true",
                    help="tiny inputs, one pass: a smoke test, not a "
                         "measurement")
    ap.add_argument("--out", help="write the full report as JSON")
    args = ap.parse_args(argv)
    want_e2e = args.trace in (None, 0)
    want_layers = args.trace in (None, 1)
    selected = [args.workload] if args.workload else names

    header = {"seed": args.seed, "quick": args.quick,
              "seconds": args.seconds, "git_sha": git_sha(),
              "python": platform.python_version(),
              "nproc": os.cpu_count()}
    shared_layers = {}
    attempted, failures = 0, []
    if want_layers:
        calib = child("calib")
        header["numpy"] = calib.pop("numpy")
        header["calib"] = calib
        sweep = child("validate", "--seed", str(args.seed))
        attempted += sweep["cells"]
        failures += [f"validate:{c}: diverges from the oracle"
                     for c in sweep["divergent"]]
        shared_layers = {
            "bench.calib_py_s": calib["calib_py_s"],
            "bench.calib_np_s": calib["calib_np_s"],
            "validate.cells": sweep["cells"],
            "validate.divergent_cells": len(sweep["divergent"]),
            "validate.sweep_s": sweep["sweep_s"]}

    report = {"schema": 1, "header": header, "workloads": {}}
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    for name in selected:
        chrome = None
        if args.out and want_layers:
            chrome = f"{os.path.splitext(args.out)[0]}.{name}.trace.json"
        result = run_workload(name, args.seed, args.seconds, args.quick,
                              want_e2e, want_layers, chrome)
        if want_e2e:
            result["end_to_end"] = fill_declared(spec, "end_to_end",
                                                 result["end_to_end"])
        if want_layers:
            result["per_layer"] = fill_declared(
                spec, "per_layer", {**result["per_layer"], **shared_layers})
        print(render(spec, name, whys[name], result), flush=True)
        attempted += result["attempted"]
        failures += result["failures"]
        report["workloads"][name] = result

    report["cells_attempted"] = attempted
    report["cells_failed"] = len(failures)
    report["failed_cell_share"] = len(failures) / attempted
    report["failures"] = failures
    print(f"cells attempted {attempted}, failed {len(failures)}, "
          f"failed_cell_share {report['failed_cell_share']:.4f}")
    for failure in failures:
        print(f"FAILED {failure}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")

    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}

    def final(result: dict) -> dict:
        values = {**result.get("end_to_end", {}),
                  **result.get("per_layer", {})}
        return {k: {"value": v, "unit": units[k]}
                for k, v in values.items()}

    metrics = final(report["workloads"][selected[0]]) \
        if len(selected) == 1 else \
        {n: final(report["workloads"][n]) for n in selected}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
