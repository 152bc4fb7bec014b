"""The figure gate: every figure driver's smoke-scale table, pinned by
its sha256.

A change that moves any figure (a reseed, a workload or a simulator
change) fails here and names the figure; it then regenerates
``benchmarks/results/`` and EXPERIMENTS.md and, in the same change, the
digests:

    PYTHONPATH=src python -m tests.experiments.test_figure_digests

Each table is rendered in-process by the function its CLI command runs
(``adapt-repro <figure> --scale smoke``), so the digest covers the same
bytes the CLI prints.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from repro.cli import _FIGS
from repro.experiments.scale import PRESETS

DIGESTS = pathlib.Path(__file__).parent / "data" / "figure_digests.json"


def _digest(figure: str) -> str:
    text = _FIGS[figure](PRESETS["smoke"])
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("figure", sorted(_FIGS))
def test_smoke_figure_table_matches_its_digest(figure):
    committed = json.loads(DIGESTS.read_text())
    assert sorted(committed) == sorted(_FIGS)
    assert _digest(figure) == committed[figure], (
        f"the smoke-scale {figure} table moved: regenerate the figures "
        f"and the digests (see this module's docstring)")


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps({f: _digest(f) for f in sorted(_FIGS)},
                                  indent=2, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
