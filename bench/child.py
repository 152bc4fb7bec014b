"""Child process of ``run.py``: one mode of one workload, one JSON line.

Each mode starts in a fresh interpreter so that set-up (importing
``repro``, generating the traces, one warm-up cell) is paid and timed
from the process's first line, and so that ``ru_maxrss`` belongs to one
workload only.  The last line of standard output is the result.

Modes: ``setup`` (set up and exit), ``measure`` (timed untraced passes
and the output checks), ``traced`` (one pass with the span wrappers of
``layers.py`` installed), ``validate`` (the differential sweep against
the oracle) and ``calib`` (the two host-calibration kernels).
"""

import time

_ENTRY = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
clock = time.perf_counter


def use_repro():
    """Put the checkout's ``src`` on the path and switch the on-disk
    trace cache off: every input is generated from the seed."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.perf import tracecache
    tracecache.set_enabled(False)


def set_up(args, collect: bool = True):
    """Import ``repro``, generate the inputs, run the warm-up cell.
    Returns the workload and the seconds since process entry."""
    use_repro()
    from workloads import make_workload
    workload = make_workload(args.workload, args.seed, args.quick,
                             work_dir=ROOT, collect=collect)
    workload.warm_up()
    return workload, clock() - _ENTRY


def fingerprints(traces: dict) -> list[dict]:
    """Request count, user blocks and a content hash per volume."""
    out = []
    for name in sorted(traces):
        t = traces[name]
        h = hashlib.sha256()
        for col in (t.timestamps, t.ops, t.offsets, t.sizes):
            h.update(col.tobytes())
        out.append({"volume": name, "requests": len(t),
                    "user_blocks": t.total_write_blocks(),
                    "sha256": h.hexdigest()})
    return out


def trace_stats(traces: dict, cell_volumes: list[list[str]]) -> dict:
    """Totals over the cells' input volumes (a volume replayed by five
    schemes counts five times, as its blocks are written five times)."""
    used = [traces[v] for volumes in cell_volumes for v in volumes]
    return {"requests": sum(len(t) for t in used),
            "user_blocks": sum(t.total_write_blocks() for t in used),
            "unique_lbas": sum(t.unique_write_blocks() for t in used)}


# ----------------------------------------------------------------------
# modes
# ----------------------------------------------------------------------
def mode_setup(args) -> dict:
    return {"setup_s": set_up(args)[1]}


def mode_measure(args) -> dict:
    workload, setup_s = set_up(args, collect=not args.no_collect)
    from workloads import audit
    passes = []
    started = clock()
    while True:
        gc.collect()
        t0 = clock()
        cells = workload.run_pass(audit)
        passes.append({"seconds": clock() - t0, "cells": cells})
        spent = clock() - started
        if len(passes) >= args.min_passes \
                and spent + 0.5 * passes[-1]["seconds"] >= args.seconds:
            break
    out = {"setup_s": setup_s, "passes": passes,
           "measured_s": clock() - started,
           "peak_rss_mb":
               resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if not args.no_collect:
        # The obs-off comparison run needs the pass times only.
        out["cross_check"] = workload.cross_check(passes[0]["cells"])
        out["fingerprints"] = fingerprints(workload.traces())
    return out


def mode_traced(args) -> dict:
    workload, _ = set_up(args)
    from layers import ROOT_SPAN, install_all, traced_metrics
    from spans import Tracer
    from workloads import store_counters
    tracer = Tracer()
    fleet_stores = []
    install_all(tracer, lambda store: fleet_stores.append(
        store_counters(store)))
    try:
        gc.collect()
        t0 = clock()
        cells = tracer.wrap(workload.run_pass, ROOT_SPAN)(lambda store: None)
        wall = clock() - t0
    finally:
        tracer.uninstall()
    errors = [c for c in cells if "error" in c]
    if errors:
        raise RuntimeError(f"traced pass: cells raised: {errors}")
    # Replay cells return their stores' full counters; the fleet's
    # stores were seen by the volume_report wrapper.
    full = fleet_stores or [v for c in cells for v in c["volumes"]]
    counters = {k: sum(v[k] for v in full) for k in full[0]}
    spans = tracer.aggregates()
    metrics = traced_metrics(
        spans, counters,
        trace_stats(workload.traces(), workload.cell_volumes()),
        sum(c.get("fleet_chunks", 0) for c in cells))
    metrics["trace.generate_s"] = workload.generate_s \
        + spans["trace.generate"]["self_s"]
    if args.chrome:
        tracer.write_chrome_trace(args.chrome, {
            "workload": args.workload, "seed": args.seed})
    return {"wall_s": wall, "root_s": tracer.rec_dur[0],
            "self_sum_s": tracer.total_self_s(),
            "spans": spans, "span_records": len(tracer.rec_dur),
            "cells": cells, "metrics": metrics}


def mode_validate(args) -> dict:
    use_repro()
    from repro.validate.differential import run_differential
    t0 = clock()
    report = run_differential(engine="auto", seed=args.seed)
    return {"sweep_s": clock() - t0, "cells": len(report.cells),
            "divergent": [f"{c.policy}:{c.workload}"
                          for c in report.failures]}


def mode_calib(args) -> dict:
    """Two fixed kernels that let snapshots from different hosts be put
    on one scale: an interpreter-bound loop and a NumPy-bound sort.
    Each reports the fastest of five runs."""
    import numpy as np

    def py_loop():
        x = 0
        for i in range(2_000_000):
            x += i * i % 7
        return x

    data = np.random.default_rng(0).integers(0, 1 << 40, 4_000_000)

    def np_kernel():
        return int(np.cumsum(np.sort(data))[-1])

    def fastest(fn):
        best = float("inf")
        for _ in range(5):
            t0 = clock()
            fn()
            best = min(best, clock() - t0)
        return best

    return {"calib_py_s": fastest(py_loop), "calib_np_s": fastest(np_kernel),
            "numpy": np.__version__}


MODES = {"setup": mode_setup, "measure": mode_measure,
         "traced": mode_traced, "validate": mode_validate,
         "calib": mode_calib}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("mode", choices=sorted(MODES))
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--min-passes", type=int, default=1)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--no-collect", action="store_true",
                    help="fleet_e2e with metrics and attribution off")
    ap.add_argument("--chrome", help="write the traced pass's spans here")
    args = ap.parse_args(argv)
    result = MODES[args.mode](args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
