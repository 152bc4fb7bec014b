#!/usr/bin/env python3
"""Paired runs of the repository benchmark on two commits.

    python3 benchmarks/pairs.py A B [--workload W] [--pairs N] [--seed S]
                                [--out FILE]

Exports commits ``A`` (the baseline) and ``B`` (the candidate) into
scratch directories with ``git archive`` and runs ``bench/run.py --trace
0`` on them in pairs, alternating which side goes first from one pair to
the next, so that a slow episode of a shared host lands on both sides
alike.  Before each run the host calibration kernels
(``bench/child.py calib``) are timed, so every run carries the speed of
the host at that moment (``calib_py_s``, ``calib_np_s``).

Every pair must have replayed the same inputs: the two reports are put
through ``bench/compare.py``'s fingerprint check, and a mismatch stops
the command.  Per workload and end-to-end metric it prints and records:

* each side's median and quartiles over its runs;
* the paired median ratio B/A and the quartiles of the per-pair ratios;
* the sign count — in how many pairs B was better;
* ``resolves``: B better in at least 90 % of the pairs *and* the median
  gain larger than A's interquartile range, the bar a claimed gain has
  to clear.

``--out`` writes all of it, with every run's metrics and calibration,
as one JSON file (the ``BENCH_<date>_<tag>.json`` snapshots at the
repository root).  ``--workload`` is passed to ``bench/run.py``; without
it each run measures all four workloads.  Run length is the benchmark's
own.
"""

from __future__ import annotations

import argparse
import datetime
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEMA = 1


def bench_module(name: str):
    """A module of the frozen harness in this checkout's ``bench/``
    (``compare``, ``run``: standard library only), loaded from its file
    so that ``bench/`` never shadows other modules on ``sys.path``."""
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", os.path.join(ROOT, "bench", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev: str, into: str) -> str:
    """Extract the tree of commit ``rev`` into ``into``; return its SHA."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    os.makedirs(into)
    archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", into], stdin=archive.stdout,
                   check=True)
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {sha} failed")
    return sha


def run_side(checkout: str, workload: str | None, seed: int,
             out: str) -> dict:
    """Calibrate, then run the benchmark once in ``checkout``."""
    calib = json.loads(subprocess.run(
        [sys.executable, "bench/child.py", "calib"], cwd=checkout,
        check=True, capture_output=True, text=True).stdout.splitlines()[-1])
    cmd = [sys.executable, "bench/run.py", "--trace", "0", "--seed",
           str(seed), "--out", out]
    if workload:
        cmd += ["--workload", workload]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if not os.path.exists(out):
        raise RuntimeError(f"{' '.join(cmd)} wrote no report "
                           f"(exit {proc.returncode}):\n{proc.stderr}")
    with open(out) as f:
        report = json.load(f)
    report["header"]["calib"] = {k: calib[k]
                                 for k in ("calib_py_s", "calib_np_s")}
    return report


def summarize(pairs: list[tuple[dict, dict]], spec: dict) -> dict:
    """Per workload and end-to-end metric, the paired statistics of the
    module docstring.  ``pairs`` holds ``(report A, report B)`` per pair,
    each a ``bench/run.py --out`` report."""
    quartiles = bench_module("run").quartiles
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    out: dict = {}
    for name in pairs[0][0]["workloads"]:
        rows = {}
        for metric, direction in better.items():
            a = [p[0]["workloads"][name]["end_to_end"][metric]
                 for p in pairs]
            b = [p[1]["workloads"][name]["end_to_end"][metric]
                 for p in pairs]
            ratios = [y / x if x else float("nan") for x, y in zip(a, b)]
            sign = (lambda x, y: y > x) if direction == "higher" \
                else (lambda x, y: y < x)
            ahead = sum(sign(x, y) for x, y in zip(a, b))
            qa, qb, qr = quartiles(a), quartiles(b), quartiles(ratios)
            gain = statistics.median(b) - statistics.median(a)
            if direction == "lower":
                gain = -gain
            rows[metric] = {
                "better": direction,
                "a_median": qa[1], "a_quartiles": [qa[0], qa[2]],
                "b_median": qb[1], "b_quartiles": [qb[0], qb[2]],
                "median_ratio": statistics.median(ratios),
                "ratio_quartiles": [qr[0], qr[2]],
                "b_ahead": ahead, "pairs": len(pairs),
                "resolves": ahead >= 0.9 * len(pairs)
                and gain > qa[2] - qa[0],
            }
        out[name] = rows
    return out


def run_record(report: dict, side: str, pair: int, order: int) -> dict:
    return {"pair": pair, "side": side, "order": order,
            **report["header"]["calib"],
            "failed": report["cells_failed"],
            "end_to_end": {n: w["end_to_end"]
                           for n, w in report["workloads"].items()}}


def render(summary: dict, runs: list[dict]) -> str:
    lines = []
    for name, rows in summary.items():
        lines.append(f"== {name}")
        for metric, r in rows.items():
            lines.append(
                f"  {metric:<20} A {r['a_median']:<12.6g} "
                f"B {r['b_median']:<12.6g} B/A {r['median_ratio']:.3f} "
                f"[{r['ratio_quartiles'][0]:.3f}, "
                f"{r['ratio_quartiles'][1]:.3f}]  B better in "
                f"{r['b_ahead']}/{r['pairs']}"
                + ("  resolves" if r["resolves"] else ""))
    for run in runs:
        lines.append(f"  pair {run['pair']} {run['side']} "
                     f"(#{run['order'] + 1} of the pair): calib_py_s "
                     f"{run['calib_py_s']:.4f} calib_np_s "
                     f"{run['calib_np_s']:.4f}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", help="baseline commit")
    ap.add_argument("b", help="candidate commit")
    ap.add_argument("--workload",
                    help="passed to bench/run.py (default: all four)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", help="write the JSON snapshot here")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    mismatch = bench_module("compare").mismatch
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    with tempfile.TemporaryDirectory(prefix="pairs-") as work:
        sides = {}
        for side, rev in (("A", args.a), ("B", args.b)):
            sides[side] = {"rev": rev, "dir": os.path.join(work, side)}
            sides[side]["sha"] = export(rev, sides[side]["dir"])
        pairs, runs = [], []
        for i in range(args.pairs):
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            got = {}
            for pos, side in enumerate(order):
                report = run_side(sides[side]["dir"], args.workload,
                                  args.seed,
                                  os.path.join(work, f"{side}{i}.json"))
                got[side] = report
                runs.append(run_record(report, side, i, pos))
                print(f"pair {i} {side}: done", file=sys.stderr, flush=True)
            why = mismatch(got["A"], got["B"])
            if why:
                print(f"pair {i}: refusing to compare: {why}",
                      file=sys.stderr)
                return 2
            pairs.append((got["A"], got["B"]))

    summary = summarize(pairs, spec)
    print(render(summary, runs))
    if args.out:
        snapshot = {
            "schema": SCHEMA, "tool": "benchmarks/pairs.py",
            "date": datetime.date.today().isoformat(),
            "a": {k: sides["A"][k] for k in ("rev", "sha")},
            "b": {k: sides["B"][k] for k in ("rev", "sha")},
            "seed": args.seed, "pairs": args.pairs,
            "host": {"python": platform.python_version(),
                     "machine": platform.machine(),
                     "nproc": os.cpu_count()},
            "summary": summary, "runs": runs,
            "failed_cells": sum(r["failed"] for r in runs)}
        with open(args.out, "w") as f:
            json.dump(snapshot, f, indent=1, sort_keys=True)
            f.write("\n")
    return 1 if any(r["failed"] for r in runs) else 0


if __name__ == "__main__":
    sys.exit(main())
