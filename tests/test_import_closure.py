"""A replay process loads only what it runs.

A fresh interpreter makes exactly the imports of the benchmark's
``bench/workloads.py``, replays one ``sepgc`` and one ``adapt`` smoke
volume, audits each store as the benchmark does, and reports which of
the modules no replay runs it has loaded: the oracle and the
differential sweep, the analyzer, the exporters and the attribution
ledger, a process pool, and ``numpy.ma``.  Each one costs resident
memory in every replay process (``docs/performance.md``, "What a replay
process loads").  The check times nothing.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.common.errors import InvariantViolation
from repro.lss.config import LSSConfig
from repro.lss.store import LogStructuredStore
from repro.placement.registry import make_policy
from repro.validate.audit import check_mapping_bijection

#: Modules a replay process must not load.
NOT_LOADED = (
    "repro.validate.oracle",
    "repro.validate.differential",
    "repro.obs.analyze",
    "repro.obs.exporters",
    "repro.obs.attribution",
    "concurrent.futures",
    "multiprocessing",
)

#: Run in the fresh interpreter; prints one JSON line.
CHILD = """
import json
import sys

import numpy

bare_numpy_ma = "numpy.ma" in sys.modules

# The imports of bench/workloads.py, in its order.
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

# One smoke-scale ali volume (8 192 blocks, 6 000 requests).
spec = VolumeSpec.draw(profile_by_name("ali"), "ali-000", 8_192, 6_000,
                       tenant_rng(1, "ali-000", "spec"))
trace = generate_volume(spec, rng=tenant_rng(1, "ali-000", "data"))
for scheme in ("sepgc", "adapt"):
    cfg = store_config_for(8_192)
    store = LogStructuredStore(cfg, make_policy(scheme, cfg))
    store.replay(trace)
    InvariantAuditor(every_blocks=0).audit(store)
print(json.dumps({"modules": sorted(sys.modules),
                  "bare_numpy_ma": bare_numpy_ma}))
"""


def _child_modules() -> dict:
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", CHILD], env=env,
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_a_replay_process_loads_no_oracle_analyzer_or_pool():
    got = _child_modules()
    loaded = set(got["modules"])
    assert "repro.lss.store" in loaded and "repro.core.policy" in loaded
    assert sorted(loaded & set(NOT_LOADED)) == []
    if not got["bare_numpy_ma"]:
        # NumPy 1.x imports numpy.ma with numpy itself; NumPy 2 only on
        # first use (np.unique, np.percentile).
        assert "numpy.ma" not in loaded


def test_mapping_bijection_still_catches_a_doubly_mapped_slot():
    cfg = LSSConfig(logical_blocks=16_384, segment_blocks=64)
    store = LogStructuredStore(cfg, make_policy("sepgc", cfg))
    for lba in range(8):
        store.write_block(lba, now_us=lba)
    store.finalize()
    check_mapping_bijection(store)
    store.mapping[5] = store.mapping[3]      # LBAs 3 and 5 share a slot
    with pytest.raises(InvariantViolation) as err:
        check_mapping_bijection(store)
    assert err.value.invariant == "mapping-bijection"
