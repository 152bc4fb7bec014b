#!/usr/bin/env python3
"""Compare two reports written by ``run.py --out``.

    python3 bench/compare.py A.json B.json

A is the baseline, B the candidate.  The two must have replayed the same
inputs: same seed, same mode, and the same per-volume trace fingerprints
(request count, user blocks, content hash) on every workload they share;
otherwise nothing is compared and the exit code is 2.

For each shared workload, every end-to-end metric's change is printed
against the bound ``BENCHMARK.json`` fixes for it.  Simulated metrics
(``write_amplification``) repeat exactly on equal inputs, so any increase
counts as a regression, whatever the bound.  Per-layer metrics that are
counts or ratios of simulated events must match exactly and are listed
when they do not.  Exit code 1 if B regressed or has failed cells, else 0.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: End-to-end metrics computed from simulated counters only.
EXACT = {"write_amplification"}
#: Units of per-layer metrics that depend on host time; every other
#: per-layer metric is a count or a ratio of simulated events.
TIMED_UNITS = {"s", "%"}


def mismatch(a: dict, b: dict) -> str | None:
    """Why the two reports cannot be compared, or None."""
    for key in ("seed", "quick"):
        if a["header"][key] != b["header"][key]:
            return (f"{key} differs: {a['header'][key]} vs "
                    f"{b['header'][key]}")
    for name in sorted(set(a["workloads"]) & set(b["workloads"])):
        fa = a["workloads"][name]["fingerprints"]
        fb = b["workloads"][name]["fingerprints"]
        if fa != fb:
            return f"trace fingerprints of {name} differ"
    if not set(a["workloads"]) & set(b["workloads"]):
        return "no workload in common"
    return None


def worsening(better: str, old: float, new: float) -> float:
    """Relative change of ``new`` against ``old``, positive when worse."""
    change = (new - old) / old
    return -change if better == "higher" else change


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as f:
        a = json.load(f)
    with open(argv[1]) as f:
        b = json.load(f)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    why = mismatch(a, b)
    if why:
        print(f"refusing to compare: {why}", file=sys.stderr)
        return 2

    for side, rep in (("A", a), ("B", b)):
        h = rep["header"]
        calib = h.get("calib") or {}
        print(f"{side}: git {h['git_sha'][:12]} python {h['python']} "
              f"numpy {h.get('numpy')} nproc {h['nproc']} "
              f"calib_py_s {calib.get('calib_py_s')} "
              f"calib_np_s {calib.get('calib_np_s')}")
    regressed = b["cells_failed"] > 0
    if regressed:
        print(f"B has {b['cells_failed']} failed cells")
    for name in sorted(set(a["workloads"]) & set(b["workloads"])):
        wa, wb = a["workloads"][name], b["workloads"][name]
        print(f"== {name}")
        for m in spec["end_to_end"]:
            if m["name"] not in wa.get("end_to_end", {}) \
                    or m["name"] not in wb.get("end_to_end", {}):
                continue
            old = wa["end_to_end"][m["name"]]
            new = wb["end_to_end"][m["name"]]
            worse = worsening(m["better"], old, new)
            limit = 0.0 if m["name"] in EXACT else m["bound"]
            verdict = "REGRESSED" if worse > limit else "ok"
            regressed |= worse > limit
            print(f"  {m['name']:<22}{old:>14.6g} -> {new:<14.6g}"
                  f"{worse:+8.2%} worse  (bound {limit:.0%})  {verdict}")
        for m in spec["per_layer"]:
            if m["unit"] in TIMED_UNITS:
                continue
            old = wa.get("per_layer", {}).get(m["name"])
            new = wb.get("per_layer", {}).get(m["name"])
            if old is not None and new is not None and old != new:
                print(f"  simulated metric differs: {m['name']} "
                      f"{old} -> {new}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
