#!/usr/bin/env python3
"""In-process A/B of a commit against the working tree.

    python3 benchmarks/ab_inproc.py BASE [--workload W] [--seconds S]

Exports commit ``BASE`` with ``git archive`` (twice) and copies the
working tree's ``src/repro``, renaming each copy's package (``repro`` →
``repro_base``, ``repro_head``, and ``repro_base2`` for the second copy
of ``BASE``) so that all three import in one process.  Each copy also
gets its own renamed ``bench/workloads.py``, which supplies the replay
cells (``REPLAY_CELLS``), their sizes (``FULL``) and their traces
(``volume_trace``), drawn at the seed ``bench/run.py`` runs at by
default (:data:`SEED`).

Per replay workload, every cell is first replayed once on each side and
``StoreStats.summary()`` must be equal on all three; a difference stops
the command (exit 2).  Then the cells are replayed round after round
for ``--seconds`` (at least one round), the sides alternating which goes
first from cell to cell, and the fastest time per cell and side is
kept.  It prints, per workload, each side's summed fastest time and
user blocks per second, ``B/A`` (the working tree's speed over
``BASE``'s) and ``A/A`` (``BASE``'s over its second copy's: how far two
identical sides read apart in this process, at this moment).

One process sees the same host state on both sides, so on a noisy host
this resolves a smaller change than paired runs of two processes
(``benchmarks/pairs.py``), which is what the repository benchmark does
and what a claimed gain must also pass.
"""

from __future__ import annotations

import argparse
import importlib
import os
import re
import shutil
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from benchmarks.pairs import export  # noqa: E402

#: The package name as an import target: ``repro.x``, ``from repro
#: import``, ``"repro.core.policy"`` — not ``adapt-repro`` or
#: ``reproduce``.
_PACKAGE = re.compile(r"(?<![\w-])repro(?=\.\w|\s+import\b)")

#: The benchmark's own seed (``bench/run.py --seed`` defaults to it).
SEED = 1

clock = time.perf_counter


class Mismatch(Exception):
    """Two sides replayed a cell to different ``StoreStats.summary()``."""


def renamed(source: str, package: str) -> str:
    """``source`` with every import of ``repro`` pointed at ``package``."""
    return _PACKAGE.sub(package, source)


class Side:
    """One copy of the package, imported as ``repro_<tag>``."""

    def __init__(self, label: str, tree: str, tag: str, into: str) -> None:
        self.label = label
        self.package = f"repro_{tag}"
        dest = os.path.join(into, self.package)
        shutil.copytree(os.path.join(tree, "src", "repro"), dest,
                        ignore=shutil.ignore_patterns("__pycache__"))
        for folder, _, files in os.walk(dest):
            for name in files:
                if name.endswith(".py"):
                    _rewrite(os.path.join(folder, name), self.package)
        workloads = f"workloads_{tag}"
        shutil.copy(os.path.join(tree, "bench", "workloads.py"),
                    os.path.join(into, workloads + ".py"))
        _rewrite(os.path.join(into, workloads + ".py"), self.package)
        if into not in sys.path:
            sys.path.insert(0, into)
        importlib.invalidate_caches()
        self.workloads = importlib.import_module(workloads)
        pkg = self.package
        self._config_for = importlib.import_module(
            f"{pkg}.experiments.runner").store_config_for
        self._store = importlib.import_module(
            f"{pkg}.lss.store").LogStructuredStore
        self._policy = importlib.import_module(
            f"{pkg}.placement.registry").make_policy

    def cells(self, workload: str, sizes=None) -> list:
        """``(name, scheme, trace, victim, logical blocks)`` per cell of
        ``workload`` (``sizes`` defaults to the benchmark's ``FULL``)."""
        w = self.workloads
        sizes = sizes or w.FULL[workload]
        return [(f"{s}:{p}-{i:03d}:{v}", s,
                 w.volume_trace(p, i, sizes, SEED), v, sizes.blocks)
                for s, p, i, v in w.REPLAY_CELLS[workload]]

    def replay(self, cell):
        """A fresh store that replayed ``cell``."""
        _, scheme, trace, victim, blocks = cell
        cfg = self._config_for(blocks, victim=victim)
        store = self._store(cfg, self._policy(scheme, cfg))
        store.replay(trace)
        return store


def _rewrite(path: str, package: str) -> None:
    with open(path, encoding="utf-8") as f:
        text = f.read()
    with open(path, "w", encoding="utf-8") as f:
        f.write(renamed(text, package))


def guard(workload: str, sides: list, cells: list) -> None:
    """Replay every cell once per side; raise :class:`Mismatch` unless
    all sides end with equal ``StoreStats.summary()``."""
    for c, cell in enumerate(cells[0]):
        want = sides[0].replay(cell).stats.summary()
        for side, own in zip(sides[1:], cells[1:]):
            got = side.replay(own[c]).stats.summary()
            if got != want:
                raise Mismatch(f"{workload} {cell[0]}: {side.label} "
                               f"{got} != {sides[0].label} {want}")


def race(sides: list, cells: list, seconds: float) -> tuple[list, int]:
    """Fastest replay time per side and cell over rounds of all cells
    for ``seconds`` (at least one round); the first side rotates from
    one cell to the next.  Returns ``(best[side][cell], rounds)``."""
    n = len(sides)
    best = [[float("inf")] * len(cells[0]) for _ in sides]
    rounds = turn = 0
    stop = clock() + seconds
    while rounds == 0 or clock() < stop:
        for c in range(len(cells[0])):
            for k in range(n):
                s = (turn + k) % n
                t0 = clock()
                sides[s].replay(cells[s][c])
                best[s][c] = min(best[s][c], clock() - t0)
            turn += 1
        rounds += 1
    return best, rounds


def render(workload: str, labels: list[str], best: list, blocks: int,
           rounds: int) -> list[str]:
    """The lines printed for one workload; ``labels`` and ``best`` are
    in side order A, B, A2."""
    totals = [sum(row) for row in best]
    lines = [f"== {workload}: {len(best[0])} cells, {rounds} rounds, "
             f"{blocks} user blocks per pass"]
    for name, label, total in zip(("A", "B", "A2"), labels, totals):
        lines.append(f"  {name:<2} {label:<20} {total:8.4f} s "
                     f"{blocks / total:12.0f} blocks/s")
    lines.append(f"  B/A {totals[0] / totals[1]:.3f}")
    lines.append(f"  A/A {totals[0] / totals[2]:.3f}")
    return lines


def compare(sides: list, workload: str, seconds: float,
            sizes=None) -> list[str]:
    """Guard, race and render one workload for sides A, B, A2."""
    cells = [side.cells(workload, sizes) for side in sides]
    guard(workload, sides, cells)
    best, rounds = race(sides, cells, seconds)
    blocks = sum(cell[2].total_write_blocks() for cell in cells[0])
    return render(workload, [s.label for s in sides], best, blocks, rounds)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", help="baseline commit")
    ap.add_argument("--workload", help="one replay workload (default: "
                    "every workload in bench/workloads.py REPLAY_CELLS)")
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="racing time per workload (default 20)")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="ab-inproc-") as work:
        trees = os.path.join(work, "trees")
        base = os.path.join(trees, "base")
        sha = export(args.base, base)
        packages = os.path.join(work, "packages")
        os.makedirs(packages)
        sides = [Side(f"{args.base} ({sha[:10]})", base, "base", packages),
                 Side("working tree", ROOT, "head", packages),
                 Side(f"{args.base} (copy)", base, "base2", packages)]
        names = list(sides[1].workloads.REPLAY_CELLS)
        if args.workload:
            if args.workload not in names:
                ap.error(f"--workload must be one of {', '.join(names)}")
            names = [args.workload]
        try:
            for name in names:
                print("\n".join(compare(sides, name, args.seconds)),
                      flush=True)
        except Mismatch as exc:
            print(f"refusing to compare: {exc}", file=sys.stderr)
            return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
