"""A replay process, and a fleet process, load only what they run.

A fresh interpreter makes exactly the imports of the benchmark's
``bench/workloads.py``, replays one ``sepgc`` and one ``adapt`` smoke
volume, audits each store as the benchmark does, and reports which of
the modules no replay runs it has loaded: the oracle and the
differential sweep, the analyzer, the exporters and the attribution
ledger, a process pool, and ``numpy.ma``.  Another runs a two-tenant
``run_fleet`` with metrics and attribution on, which needs the
exporters and the ledger but neither the oracle, the analyzer, a pool
nor ``numpy.ma``.  Each one costs resident memory in every such
process (``docs/performance.md``, "What a replay process loads").  The
check times nothing.
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

#: Modules a one-worker fleet process must not load.
FLEET_NOT_LOADED = (
    "repro.validate.oracle",
    "repro.validate.differential",
    "repro.obs.analyze",
    "concurrent.futures",
    "multiprocessing",
)

#: The fresh interpreter's imports; a body and :data:`REPORT` follow.
IMPORTS = """
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
"""

REPLAY = """
# One smoke-scale ali volume (8 192 blocks, 6 000 requests).
spec = VolumeSpec.draw(profile_by_name("ali"), "ali-000", 8_192, 6_000,
                       tenant_rng(1, "ali-000", "spec"))
trace = generate_volume(spec, rng=tenant_rng(1, "ali-000", "data"))
for scheme in ("sepgc", "adapt"):
    cfg = store_config_for(8_192)
    store = LogStructuredStore(cfg, make_policy(scheme, cfg))
    store.replay(trace)
    InvariantAuditor(every_blocks=0).audit(store)
"""

FLEET = """
# Two smoke-scale ali tenants, with the summary, checkpoints, metrics
# and attribution of the benchmark's fleet workload.
spec = FleetSpec(profile="ali", scheme="adapt", num_volumes=2,
                 volume_blocks=8_192, volume_requests=2_048,
                 chunk_requests=1_024, collect_metrics=True,
                 collect_attribution=True)
with tempfile.TemporaryDirectory() as out:
    result = run_fleet(spec, workers=1, checkpoint_every=2, out_dir=out)
    assert result.complete and os.path.exists(result.summary_path)
"""

#: Prints one JSON line.
REPORT = """
print(json.dumps({"modules": sorted(sys.modules),
                  "bare_numpy_ma": bare_numpy_ma}))
"""


def _child_modules(body: str) -> dict:
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", IMPORTS + body + REPORT],
                          env=env,
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _assert_loads_none_of(got: dict, not_loaded: tuple[str, ...]) -> None:
    loaded = set(got["modules"])
    assert "repro.lss.store" in loaded and "repro.core.policy" in loaded
    assert sorted(loaded & set(not_loaded)) == []
    if not got["bare_numpy_ma"]:
        # NumPy 1.x imports numpy.ma with numpy itself; NumPy 2 only on
        # first use (np.unique, np.percentile).
        assert "numpy.ma" not in loaded


def test_a_replay_process_loads_no_oracle_analyzer_or_pool():
    _assert_loads_none_of(_child_modules(REPLAY), NOT_LOADED)


def test_a_fleet_process_loads_no_oracle_analyzer_pool_or_numpy_ma():
    got = _child_modules(FLEET)
    assert "repro.obs.attribution" in got["modules"]
    _assert_loads_none_of(got, FLEET_NOT_LOADED)


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
    assert "maps to a slot holding a different lba" in err.value.detail
