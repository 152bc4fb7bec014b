"""Command-line interface: regenerate any figure of the paper.

Examples::

    adapt-repro list
    adapt-repro fig8 --scale smoke
    adapt-repro fig11 --scale default
    adapt-repro replay --scheme adapt --profile ali --volumes 3
    adapt-repro replay --scheme adapt --metrics-out out/
    adapt-repro obs --scheme adapt --out obs-out/
    adapt-repro obs --scheme adapt --timeline-every 4096
    adapt-repro obs --scheme adapt --attribution
    adapt-repro analyze --trace run.trace.json --attribution a.json
    adapt-repro fleet --volumes 64 --workers 4 --out fleet-out
    adapt-repro fleet --volumes 64 --workers 4 --out fleet-out --resume
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.experiments import scale as scale_mod
from repro.experiments.report import render_table


def _get_scale(name: str):
    return scale_mod._PRESETS[name]


def _cmd_fig2(args) -> str:
    from repro.experiments.fig2 import render_fig2, run_fig2
    return render_fig2(run_fig2(_get_scale(args.scale)))


def _cmd_fig3(args) -> str:
    from repro.experiments.fig3 import render_fig3, run_fig3
    return render_fig3(run_fig3(_get_scale(args.scale)))


def _cmd_fig8(args) -> str:
    from repro.experiments.fig8 import render_fig8, run_fig8
    return render_fig8(run_fig8(_get_scale(args.scale)))


def _cmd_fig9(args) -> str:
    from repro.experiments.fig9 import render_fig9, run_fig9
    return render_fig9(run_fig9(_get_scale(args.scale)))


def _cmd_fig10(args) -> str:
    from repro.experiments.fig10 import render_fig10, run_fig10
    return render_fig10(run_fig10(_get_scale(args.scale)))


def _cmd_fig11(args) -> str:
    from repro.experiments.fig11 import (render_fig11, run_fig11_density,
                                         run_fig11_skew)
    s = _get_scale(args.scale)
    return render_fig11(run_fig11_density(s) + run_fig11_skew(s))


def _cmd_fig12(args) -> str:
    from repro.experiments.fig12 import (render_fig12, run_fig12a,
                                         run_fig12b)
    s = _get_scale(args.scale)
    return render_fig12(run_fig12a(s), run_fig12b(s))


def _cmd_ablation(args) -> str:
    from repro.experiments.ablation import (render_ablation,
                                            run_mechanism_ablation,
                                            run_victim_ablation)
    s = _get_scale(args.scale)
    return render_ablation(run_mechanism_ablation(s) +
                           run_victim_ablation(s))


def _cmd_multistream(args) -> str:
    from repro.experiments.multistream import (render_multistream,
                                               run_multistream)
    return render_multistream(run_multistream(_get_scale(args.scale)))


def _cmd_shared(args) -> str:
    from repro.experiments.shared_store import (render_shared_store,
                                                run_shared_store)
    return render_shared_store(run_shared_store(_get_scale(args.scale)))


def _export_observability(recorder, out_dir: str, stem: str) -> list[str]:
    """Write the observability artifacts for one replay; returns the
    paths written.  Exporters create parent directories and write
    atomically, so ``out_dir`` may not exist yet."""
    from repro.obs.exporters import (write_events_jsonl, write_prometheus,
                                     write_timeline_csv)
    events = os.path.join(out_dir, f"{stem}.events.jsonl")
    timeline = os.path.join(out_dir, f"{stem}.timeline.csv")
    prom = os.path.join(out_dir, f"{stem}.prom")
    write_events_jsonl(recorder.tracer, events)
    write_timeline_csv(recorder.timeline, timeline)
    write_prometheus(recorder.registry, prom)
    return [events, timeline, prom]


def _cmd_replay(args) -> str:
    from repro.experiments.runner import replay_volume
    from repro.obs.recorder import ObsRecorder
    from repro.trace.synthetic.cloud import generate_fleet
    s = _get_scale(args.scale)
    fleet = generate_fleet(args.profile, args.volumes,
                           unique_blocks=s.volume_blocks,
                           num_requests=s.volume_requests, seed=args.seed)
    rows = []
    written: list[str] = []
    for trace in fleet:
        recorder = None
        if args.metrics_out:
            spill = os.path.join(args.metrics_out,
                                 f"{trace.volume}.events.jsonl")
            recorder = ObsRecorder(spill_path=spill)
        r = replay_volume(args.scheme, trace, victim=args.victim,
                          logical_blocks=s.volume_blocks, seed=args.seed,
                          recorder=recorder)
        if recorder is not None:
            written += _export_observability(recorder, args.metrics_out,
                                             trace.volume)
        rows.append([r.volume, r.write_amplification, r.padding_ratio,
                     r.gc_ratio])
    table = render_table(["volume", "WA", "padding_ratio", "gc_ratio"],
                         rows, title=f"{args.scheme} on {args.profile} "
                                     f"({args.victim})")
    if written:
        table += "\nmetrics written:\n" + "\n".join(
            f"  {p}" for p in written)
    return table


def _cmd_validate(args) -> tuple[str, bool]:
    """Differential sweep: every requested policy vs the dict-based oracle.

    Returns the rendered report and whether every cell matched.
    """
    from repro.validate.differential import (default_workloads,
                                             render_report,
                                             run_differential)
    policies = args.policies.split(",") if args.policies else None
    requests = 600 if args.scale == "smoke" else 1200
    workloads = default_workloads(num_requests=requests, seed=args.seed)
    report = run_differential(policies=policies, workloads=workloads,
                              victim=args.victim, seed=args.seed)
    out = render_report(report)
    if not report.ok:
        out += (f"\nVALIDATION FAILED: {len(report.failures)} cell(s) "
                f"diverged from the oracle")
    return out, report.ok


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _cmd_obs(args) -> str:
    """Replay one volume with observability and export artifacts: every
    chunk flush as its own event, and a timeline sampled every
    ``--timeline-every`` user blocks."""
    from repro.experiments.runner import replay_volume
    from repro.obs.recorder import ObsRecorder
    from repro.trace.synthetic.cloud import generate_fleet
    s = _get_scale(args.scale)
    trace = generate_fleet(args.profile, 1, unique_blocks=s.volume_blocks,
                           num_requests=s.volume_requests,
                           seed=args.seed)[0]
    spill = os.path.join(args.out, f"{trace.volume}.events.jsonl")
    recorder = ObsRecorder(args.timeline_every, spill_path=spill)
    attribution = None
    if args.attribution:
        from repro.obs.attribution import AttributionRecorder
        attribution = AttributionRecorder()
    result = replay_volume(args.scheme, trace, victim=args.victim,
                           logical_blocks=s.volume_blocks, seed=args.seed,
                           recorder=recorder, attribution=attribution)
    written = _export_observability(recorder, args.out, trace.volume)
    if attribution is not None:
        from repro.obs.attribution import write_attribution_json
        attr_path = os.path.join(args.out,
                                 f"{trace.volume}.attribution.json")
        write_attribution_json(result.attribution, attr_path)
        written.append(attr_path)
    counts = recorder.tracer.counts
    rows = [[k, counts[k]] for k in sorted(counts)]
    rows.append(["(timeline rows)", len(recorder.timeline)])
    table = render_table(
        ["event", "count"], rows,
        title=f"{args.scheme} on {trace.volume}: "
              f"WA={result.write_amplification:.3f} "
              f"padding={result.padding_ratio:.3f} "
              f"gc={result.gc_ratio:.3f}")
    return (table + "\nartifacts:\n"
            + "\n".join(f"  {p}" for p in written))


def _cmd_analyze(args) -> tuple[str, bool]:
    """Bottleneck explainer over profiler/attribution/timeline artifacts.

    Returns the rendered report and whether at least one artifact was
    readable (so a typo'd path exits non-zero instead of printing an
    empty report).
    """
    from repro.obs.analyze import (analyze, load_chrome_trace,
                                   load_timeline_tail, render_report,
                                   write_report_json)
    import json as _json
    trace = attribution = timeline = None
    errors: list[str] = []
    if args.trace:
        try:
            trace = load_chrome_trace(args.trace)
        except (OSError, ValueError) as exc:
            errors.append(f"cannot read trace {args.trace}: {exc}")
    if args.attribution:
        try:
            with open(args.attribution, encoding="utf-8") as f:
                attribution = _json.load(f)
        except (OSError, ValueError) as exc:
            errors.append(
                f"cannot read attribution {args.attribution}: {exc}")
    if args.timeline:
        try:
            timeline = load_timeline_tail(args.timeline)
        except (OSError, ValueError) as exc:
            errors.append(f"cannot read timeline {args.timeline}: {exc}")
    loaded = [x for x in (trace, attribution, timeline) if x is not None]
    report = analyze(trace=trace, attribution=attribution,
                     timeline=timeline)
    out = render_report(report)
    if errors:
        out += "\n".join(errors) + "\n"
    if args.out:
        path = write_report_json(report, args.out)
        out += f"report written: {path}"
    return out.rstrip(), bool(loaded) and not errors


def _cmd_fleet(args) -> tuple[str, bool]:
    """Sharded fleet replay with checkpoint/resume.

    Returns the rendered fleet report and whether the run completed
    (an interrupted run exits non-zero so scripts notice and resume).
    """
    from repro.fleet import FleetSpec, render_fleet, run_fleet
    s = _get_scale(args.scale)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.chunk_requests is not None:
        overrides["chunk_requests"] = args.chunk_requests
    spec = FleetSpec(
        profile=args.profile, scheme=args.scheme, victim=args.victim,
        num_volumes=args.volumes,
        volume_blocks=args.volume_blocks or s.volume_blocks,
        volume_requests=args.volume_requests or s.volume_requests,
        collect_metrics=args.metrics,
        timeline_every=args.timeline_every,
        collect_attribution=args.attribution, **overrides)
    result = run_fleet(spec, workers=args.workers,
                       checkpoint_every=args.checkpoint_every,
                       out_dir=args.out, resume=args.resume)
    if not result.complete:
        done = len(result.volumes)
        out = (f"fleet run interrupted: {done}/{spec.num_volumes} "
               f"volume(s) finished")
        if args.out:
            out += (f"\ncheckpoints in {args.out}; rerun with --resume "
                    f"and the same --workers to continue")
        return out, False
    out = render_fleet(result.summary)
    out += (f"\n{result.chunks_replayed} chunk(s) replayed across "
            f"{result.num_shards} shard(s) in {result.seconds:.2f}s")
    if result.summary_path:
        out += f"\nsummary written: {result.summary_path}"
    return out, True


_FIGS = {
    "fig2": _cmd_fig2, "fig3": _cmd_fig3, "fig8": _cmd_fig8,
    "fig9": _cmd_fig9, "fig10": _cmd_fig10, "fig11": _cmd_fig11,
    "fig12": _cmd_fig12, "ablation": _cmd_ablation,
    "multistream": _cmd_multistream, "shared-store": _cmd_shared,
}


def build_parser() -> argparse.ArgumentParser:
    from repro.lss.victim import available_victim_policies
    from repro.obs.timeline import TIMELINE_EVERY
    from repro.placement import available_policies
    schemes = available_policies()
    victims = available_victim_policies()
    parser = argparse.ArgumentParser(
        prog="adapt-repro",
        description="Regenerate the ADAPT (ICPP'25) evaluation figures.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    def add_profile_out(p):
        p.add_argument("--profile-out", default=None, metavar="JSON",
                       help="write a Chrome trace_event phase profile "
                            "of the run to JSON (load in about:tracing "
                            "or speedscope) and print the top phases")

    for name in _FIGS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--scale", default="smoke",
                       choices=["smoke", "default", "paper"])
        add_profile_out(p)

    p = sub.add_parser("replay", help="replay one scheme on a fleet")
    p.add_argument("--scheme", default="adapt", choices=schemes)
    p.add_argument("--profile", default="ali",
                   choices=["ali", "tencent", "msrc"])
    p.add_argument("--victim", default="greedy", choices=victims)
    p.add_argument("--volumes", type=int, default=2)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--scale", default="smoke",
                   choices=["smoke", "default", "paper"])
    p.add_argument("--metrics-out", default=None, metavar="DIR",
                   help="export per-volume observability artifacts "
                        "(events JSONL, timeline CSV, Prometheus "
                        "snapshot) into DIR")
    add_profile_out(p)

    p = sub.add_parser("obs", help="replay one volume with full "
                                   "observability and export artifacts")
    p.add_argument("--scheme", default="adapt", choices=schemes)
    p.add_argument("--profile", default="ali",
                   choices=["ali", "tencent", "msrc"])
    p.add_argument("--victim", default="greedy", choices=victims)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--scale", default="smoke",
                   choices=["smoke", "default", "paper"])
    p.add_argument("--out", default="obs-out", metavar="DIR",
                   help="artifact output directory (default: obs-out)")
    p.add_argument("--timeline-every", type=_positive_int,
                   default=TIMELINE_EVERY, metavar="BLOCKS",
                   help="timeline sampling period in user blocks "
                        "(default: %(default)s)")
    p.add_argument("--attribution", action="store_true",
                   help="collect causal attribution (GC provenance, "
                        "per-group WA ledger) and export "
                        "<volume>.attribution.json")
    add_profile_out(p)

    p = sub.add_parser("analyze",
                       help="explain a run's bottlenecks from its "
                            "profiler trace, attribution JSON, and/or "
                            "timeline artifacts")
    p.add_argument("--trace", default=None, metavar="JSON",
                   help="Chrome trace_event profile "
                        "(from any command's --profile-out)")
    p.add_argument("--attribution", default=None, metavar="JSON",
                   help="attribution snapshot "
                        "(from obs --attribution or fleet --attribution)")
    p.add_argument("--timeline", default=None, metavar="CSV",
                   help="replay timeline CSV (from obs, replay "
                        "--metrics-out or fleet --timeline-every)")
    p.add_argument("--out", default=None, metavar="JSON",
                   help="also write the report as JSON (atomic)")

    p = sub.add_parser("validate",
                       help="differential sweep: fast store vs the "
                            "dict-based oracle for every placement policy")
    p.add_argument("--policies", default=None, metavar="A,B,...",
                   help="comma-separated policy names "
                        "(default: all registered)")
    p.add_argument("--victim", default="greedy",
                   choices=["greedy", "cost-benefit"],
                   help="victim policy (the oracle supports only the "
                        "deterministic ones)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--scale", default="smoke",
                   choices=["smoke", "default"])

    p = sub.add_parser("fleet",
                       help="sharded multi-process fleet replay with "
                            "streaming ingestion and checkpoint/resume")
    p.add_argument("--volumes", type=_positive_int, default=8,
                   help="tenant volume count (default: 8)")
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="worker process count == shard count; a resumed "
                        "run must reuse it (default: 1)")
    p.add_argument("--checkpoint-every", type=int, default=0,
                   metavar="CHUNKS",
                   help="checkpoint each shard every CHUNKS replayed "
                        "chunks (0 disables; requires --out)")
    p.add_argument("--resume", action="store_true",
                   help="resume from checkpoints in --out")
    p.add_argument("--out", default=None, metavar="DIR",
                   help="artifact directory: fleet_summary.json, "
                        "fleet_runinfo.json, checkpoints/, timelines/")
    p.add_argument("--scheme", default="adapt", choices=schemes)
    p.add_argument("--profile", default="ali",
                   choices=["ali", "tencent", "msrc"])
    p.add_argument("--victim", default="greedy", choices=victims)
    p.add_argument("--scale", default="smoke",
                   choices=["smoke", "default", "paper"],
                   help="per-volume size preset (default: smoke); "
                        "--volume-blocks/--volume-requests override")
    p.add_argument("--volume-blocks", type=_positive_int, default=None,
                   help="per-volume logical blocks (overrides --scale)")
    p.add_argument("--volume-requests", type=_positive_int, default=None,
                   help="per-volume request count (overrides --scale)")
    p.add_argument("--seed", type=int, default=None,
                   help="fleet master seed (default: the experiment "
                        "fleets' seed)")
    p.add_argument("--chunk-requests", type=_positive_int, default=None,
                   metavar="N",
                   help="streaming chunk size in requests (per-volume "
                        "replay memory is O(N))")
    p.add_argument("--metrics", action="store_true",
                   help="attach a metrics recorder per volume and carry "
                        "snapshots into the summary")
    p.add_argument("--attribution", action="store_true",
                   help="collect per-volume causal attribution and merge "
                        "it deterministically into the summary")
    p.add_argument("--timeline-every", type=_positive_int, default=None,
                   metavar="BLOCKS",
                   help="export a per-volume replay timeline CSV sampled "
                        "every BLOCKS user blocks (requires --out)")
    add_profile_out(p)
    return parser


def _dispatch(args) -> tuple[str, bool]:
    if args.command == "replay":
        return _cmd_replay(args), True
    if args.command == "obs":
        return _cmd_obs(args), True
    if args.command == "validate":
        return _cmd_validate(args)
    if args.command == "fleet":
        return _cmd_fleet(args)
    if args.command == "analyze":
        return _cmd_analyze(args)
    return _FIGS[args.command](args), True


def _check_fleet_args(parser: argparse.ArgumentParser, args) -> None:
    """Reject in the parser what ``run_fleet`` would refuse (or, for
    ``--timeline-every``, silently skip) without an artifact directory."""
    if args.checkpoint_every < 0:
        parser.error("argument --checkpoint-every: must be >= 0")
    if args.out:
        return
    for flag, value in (("--checkpoint-every", args.checkpoint_every),
                        ("--resume", args.resume),
                        ("--timeline-every", args.timeline_every)):
        if value:
            parser.error(f"argument {flag}: requires --out")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "fleet":
        _check_fleet_args(parser, args)
    if args.command == "list":
        print("experiments:", ", ".join(sorted(_FIGS)),
              "+ replay, obs, analyze, validate, fleet")
        return 0
    profile_out = getattr(args, "profile_out", None)
    if not profile_out:
        out, ok = _dispatch(args)
        print(out)
        return 0 if ok else 1
    # Install a process-global phase profiler around the whole command;
    # stores constructed during the run pick it up and report spans.
    from repro.obs import profile as obs_profile
    profiler = obs_profile.PhaseProfiler()
    obs_profile.set_current(profiler)
    try:
        out, ok = _dispatch(args)
    finally:
        obs_profile.set_current(None)
    profiler.write_chrome_trace(profile_out)
    print(out)
    print(profiler.top_table())
    print(f"profile written: {profile_out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
