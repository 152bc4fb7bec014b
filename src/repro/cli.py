"""Command-line interface: regenerate any figure of the paper.

``replay`` replays one scheme on a synthetic fleet and prints each
volume's WA; with ``--out`` it also writes each volume's events,
timeline and Prometheus snapshot (and attribution with
``--attribution``).

Examples::

    adapt-repro list
    adapt-repro fig8 --scale smoke
    adapt-repro fig11 --scale default
    adapt-repro replay --scheme adapt --profile ali --volumes 3
    adapt-repro replay --scheme adapt --volumes 1 --out obs-out/
    adapt-repro replay --volumes 1 --timeline-every 4096 --out obs-out/
    adapt-repro replay --volumes 1 --attribution --out obs-out/
    adapt-repro analyze --trace run.trace.json --attribution a.json
    adapt-repro fleet --volumes 64 --workers 4 --out fleet-out
    adapt-repro fleet --volumes 64 --workers 4 --out fleet-out --resume
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.experiments.report import render_table
from repro.experiments.scale import PRESETS, Scale


def _cmd_fig2(s: Scale) -> str:
    from repro.experiments.fig2 import render_fig2, run_fig2
    return render_fig2(run_fig2(s))


def _cmd_fig3(s: Scale) -> str:
    from repro.experiments.fig3 import render_fig3, run_fig3
    return render_fig3(run_fig3(s))


def _cmd_fig8(s: Scale) -> str:
    from repro.experiments.fig8 import render_fig8, run_fig8
    return render_fig8(run_fig8(s))


def _cmd_fig9(s: Scale) -> str:
    from repro.experiments.fig9 import render_fig9, run_fig9
    return render_fig9(run_fig9(s))


def _cmd_fig10(s: Scale) -> str:
    from repro.experiments.fig10 import render_fig10, run_fig10
    return render_fig10(run_fig10(s))


def _cmd_fig11(s: Scale) -> str:
    from repro.experiments.fig11 import (render_fig11, run_fig11_density,
                                         run_fig11_skew)
    return render_fig11(run_fig11_density(s) + run_fig11_skew(s))


def _cmd_fig12(s: Scale) -> str:
    from repro.experiments.fig12 import (render_fig12, run_fig12a,
                                         run_fig12b)
    return render_fig12(run_fig12a(s), run_fig12b(s))


def _cmd_ablation(s: Scale) -> str:
    from repro.experiments.ablation import (render_ablation,
                                            run_mechanism_ablation,
                                            run_victim_ablation)
    return render_ablation(run_mechanism_ablation(s) +
                           run_victim_ablation(s))


def _cmd_multistream(s: Scale) -> str:
    from repro.experiments.multistream import (render_multistream,
                                               run_multistream)
    return render_multistream(run_multistream(s))


def _cmd_shared(s: Scale) -> str:
    from repro.experiments.shared_store import (render_shared_store,
                                                run_shared_store)
    return render_shared_store(run_shared_store(s))


def _cmd_replay(args) -> tuple[str, bool]:
    """Replay one scheme on a synthetic fleet and print each volume's WA.

    With ``--out`` each volume gets a recorder whose events spill to
    ``<volume>.events.jsonl``; its timeline and Prometheus snapshot (and
    with ``--attribution`` its attribution) are written beside it.
    Exporters create parent directories and write atomically, so the
    directory may not exist yet.
    """
    from repro.experiments.runner import replay_volume
    from repro.obs.attribution import (AttributionRecorder,
                                       write_attribution_json)
    from repro.obs.exporters import (write_events_jsonl, write_prometheus,
                                     write_timeline_csv)
    from repro.obs.recorder import ObsRecorder
    from repro.obs.timeline import TIMELINE_EVERY
    from repro.trace.synthetic.cloud import generate_fleet
    s = PRESETS[args.scale]
    fleet = generate_fleet(args.profile, args.volumes,
                           unique_blocks=s.volume_blocks,
                           num_requests=s.volume_requests, seed=args.seed)
    rows = []
    written: list[str] = []
    for trace in fleet:
        recorder = attribution = None
        if args.out:
            stem = os.path.join(args.out, trace.volume)
            recorder = ObsRecorder(args.timeline_every or TIMELINE_EVERY,
                                   spill_path=f"{stem}.events.jsonl")
            if args.attribution:
                attribution = AttributionRecorder()
        r = replay_volume(args.scheme, trace, victim=args.victim,
                          logical_blocks=s.volume_blocks, seed=args.seed,
                          recorder=recorder, attribution=attribution)
        if recorder is not None:
            paths = [f"{stem}.{ext}"
                     for ext in ("events.jsonl", "timeline.csv", "prom")]
            write_events_jsonl(recorder.tracer, paths[0])
            write_timeline_csv(recorder.timeline, paths[1])
            write_prometheus(recorder.metrics(), paths[2])
            if attribution is not None:
                paths.append(f"{stem}.attribution.json")
                write_attribution_json(r.attribution, paths[3])
            written += paths
        rows.append([r.volume, r.write_amplification, r.padding_ratio,
                     r.gc_ratio])
    table = render_table(["volume", "WA", "padding_ratio", "gc_ratio"],
                         rows, title=f"{args.scheme} on {args.profile} "
                                     f"({args.victim})")
    if written:
        table += "\nartifacts:\n" + "\n".join(f"  {p}" for p in written)
    return table, True


def _cmd_validate(args) -> tuple[str, bool]:
    """Differential sweep: every requested policy vs the dict-based oracle.

    Returns the rendered report and whether every cell matched.
    """
    from repro.validate.differential import (default_workloads,
                                             render_report,
                                             run_differential)
    requests = 600 if args.scale == "smoke" else 1200
    workloads = default_workloads(num_requests=requests, seed=args.seed)
    report = run_differential(policies=args.policies, workloads=workloads,
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
    s = PRESETS[args.scale]
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
    result = run_fleet(spec, workers=args.workers, out_dir=args.out,
                       resume=args.resume)
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


def _cmd_list(args) -> tuple[str, bool]:
    return ("experiments: " + ", ".join(sorted(_FIGS))
            + " + replay, analyze, validate, fleet"), True


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

    def policy_list(text: str) -> list[str]:
        names = text.split(",")
        for name in names:
            if name not in schemes:
                raise argparse.ArgumentTypeError(f"invalid choice: {name!r}")
        return names

    parser = argparse.ArgumentParser(
        prog="adapt-repro",
        description="Regenerate the ADAPT (ICPP'25) evaluation figures.")
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags more than one subcommand takes, each declared once.
    sized = argparse.ArgumentParser(add_help=False)
    sized.add_argument("--scale", default="smoke", choices=PRESETS,
                       help="workload size preset (default: %(default)s)")
    sized.add_argument("--profile-out", default=None, metavar="JSON",
                       help="write a Chrome trace_event phase profile "
                            "of the run to JSON (load in about:tracing "
                            "or speedscope) and print the top phases")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=1)
    volumes = argparse.ArgumentParser(add_help=False)
    volumes.add_argument("--scheme", default="adapt", choices=schemes)
    volumes.add_argument("--profile", default="ali",
                         choices=["ali", "tencent", "msrc"])
    volumes.add_argument("--victim", default="greedy",
                         choices=available_victim_policies())
    volumes.add_argument("--attribution", action="store_true",
                         help="collect per-volume causal attribution (GC "
                              "provenance, per-group WA ledger): replay "
                              "writes <volume>.attribution.json into "
                              "--out, fleet merges it into the summary")
    volumes.add_argument("--timeline-every", type=_positive_int,
                         default=None, metavar="BLOCKS",
                         help="write a per-volume replay timeline CSV "
                              "into --out, sampled every BLOCKS user "
                              f"blocks (default: {TIMELINE_EVERY})")

    sub.add_parser("list", help="list available experiments").set_defaults(
        run=_cmd_list)

    for name, fig in _FIGS.items():
        p = sub.add_parser(name, parents=[sized],
                           help=f"run the {name} experiment")
        p.set_defaults(run=lambda args, fig=fig: (fig(PRESETS[args.scale]),
                                                  True))

    p = sub.add_parser("replay", parents=[sized, seeded, volumes],
                       help="replay one scheme on a fleet and print each "
                            "volume's WA")
    p.add_argument("--volumes", type=_positive_int, default=2)
    p.add_argument("--out", default=None, metavar="DIR",
                   help="attach a recorder per volume and write "
                        "<volume>.events.jsonl, .timeline.csv and .prom "
                        "into DIR")
    p.set_defaults(run=_cmd_replay)

    p = sub.add_parser("analyze",
                       help="explain a run's bottlenecks from its "
                            "profiler trace, attribution JSON, and/or "
                            "timeline artifacts")
    p.add_argument("--trace", default=None, metavar="JSON",
                   help="Chrome trace_event profile "
                        "(from any command's --profile-out)")
    p.add_argument("--attribution", default=None, metavar="JSON",
                   help="attribution snapshot "
                        "(from replay or fleet --attribution)")
    p.add_argument("--timeline", default=None, metavar="CSV",
                   help="replay timeline CSV (from replay --out or "
                        "fleet --timeline-every)")
    p.add_argument("--out", default=None, metavar="JSON",
                   help="also write the report as JSON (atomic)")
    p.set_defaults(run=_cmd_analyze)

    p = sub.add_parser("validate", parents=[seeded],
                       help="differential sweep: fast store vs the "
                            "dict-based oracle for every placement policy")
    p.add_argument("--policies", type=policy_list, default=None,
                   metavar="A,B,...",
                   help="comma-separated policy names "
                        "(default: all registered)")
    p.add_argument("--victim", default="greedy",
                   choices=["greedy", "cost-benefit"],
                   help="victim policy (the oracle supports only the "
                        "deterministic ones)")
    p.add_argument("--scale", default="smoke",
                   choices=["smoke", "default"])
    p.set_defaults(run=_cmd_validate)

    p = sub.add_parser("fleet", parents=[sized, volumes],
                       help="sharded multi-process fleet replay with "
                            "streaming ingestion and checkpoint/resume")
    p.add_argument("--volumes", type=_positive_int, default=8,
                   help="tenant volume count (default: 8)")
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="worker process count == shard count; a resumed "
                        "run must reuse it (default: 1)")
    p.add_argument("--resume", action="store_true",
                   help="resume from checkpoints in --out")
    p.add_argument("--out", default=None, metavar="DIR",
                   help="artifact directory: fleet_summary.json, "
                        "fleet_runinfo.json, checkpoints/, timelines/")
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
    p.set_defaults(run=_cmd_fleet)
    return parser


# Flags whose output lives in ``--out``: without it ``run_fleet`` refuses a
# resume, and a timeline or replay's attribution would be computed and
# dropped.
_NEEDS_OUT = {"fleet": ("--resume", "--timeline-every"),
              "replay": ("--attribution", "--timeline-every")}


def _check_needs_out(parser: argparse.ArgumentParser, args) -> None:
    """Reject in the parser a flag that needs ``--out`` when none is
    given."""
    for flag in _NEEDS_OUT.get(args.command, ()):
        if getattr(args, flag[2:].replace("-", "_")) and not args.out:
            parser.error(f"argument {flag}: requires --out")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_needs_out(parser, args)
    profile_out = getattr(args, "profile_out", None)
    if not profile_out:
        out, ok = args.run(args)
        print(out)
        return 0 if ok else 1
    # Install a process-global phase profiler around the whole command;
    # stores constructed during the run pick it up and report spans.
    from repro.obs import profile as obs_profile
    profiler = obs_profile.PhaseProfiler()
    obs_profile.set_current(profiler)
    try:
        out, ok = args.run(args)
    finally:
        obs_profile.set_current(None)
    profiler.write_chrome_trace(profile_out)
    print(out)
    print(profiler.top_table())
    print(f"profile written: {profile_out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
