"""Command-line entry point: gptsched gen|schedule|simulate|compare.

gen       write a seeded synthetic workload trace (JSON Lines)
schedule  run one algorithm over a trace, write outcome + report
simulate  replay a timed trace through the event-loop simulator,
          write a report and a snapshot CSV into an output directory
compare   run all three algorithms from identical initial clusters,
          write the comparison table

Exit codes: 0 success, 2 usage/validation/configuration error, 3 run
completed but some requests were unallocated. Data goes to files, and
only this module writes to stderr: errors, and with GPTSCHED_LOG=info|debug
(read by each main() call) an "INFO gptsched:" line per step.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from .config import ExperimentConfig, default_config, load_cluster_config
from .metrics import Report
from .model import GptRequest, GptSchedError, Node, Threshold, echo, replace
from .reportio import write_comparison, write_outcome_document, write_report
from .scheduling import ALGORITHMS, AllocationOutcome, ClusterState
from .simulator import EventKind, SimEvent, run_batch, run_timeline
from .workload import generate_synthetic, load_trace, write_trace


def _note(args: argparse.Namespace, message: str) -> None:
    if args.log_info:
        print(f"INFO gptsched: {message}", file=sys.stderr)


def _add_common_flags(parser: argparse.ArgumentParser, *, algorithm: bool) -> None:
    parser.add_argument("--workload", required=True, help="workload trace path (JSON Lines)")
    parser.add_argument("--config", help="experiment config path (JSON)")
    if algorithm:
        parser.add_argument(
            "--algorithm", required=True, choices=tuple(ALGORITHMS), help="scheduling algorithm"
        )
    parser.add_argument("--threshold", type=float, help="override scheduler threshold (0, 1]")
    parser.add_argument(
        "--autoscale", choices=("on", "off"), help="override autoscale (on uses the config template)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gptsched",
        description="Deterministic resource allocation and cluster simulation for GPT inference requests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic workload trace")
    gen.add_argument("--config", help="experiment config path (generator section)")
    gen.add_argument("--count", type=int, help="number of requests")
    gen.add_argument("--seed", type=int, help="generator seed (unsigned 64-bit)")
    gen.add_argument("--out", required=True, help="output trace path")
    gen.set_defaults(handler=cmd_gen)

    schedule = sub.add_parser("schedule", help="run one algorithm over a workload")
    _add_common_flags(schedule, algorithm=True)
    schedule.add_argument("--out", required=True, help="output report path")
    schedule.add_argument("--format", choices=("json", "csv"), default="json")
    schedule.set_defaults(handler=cmd_schedule)

    simulate = sub.add_parser("simulate", help="replay a timed workload event by event")
    _add_common_flags(simulate, algorithm=True)
    simulate.add_argument(
        "--snapshot-interval", type=float, default=60.0, help="snapshot grid in seconds (finite, > 0)"
    )
    simulate.add_argument("--out", required=True, help="output directory")
    simulate.add_argument("--format", choices=("json", "csv"), default="json")
    simulate.set_defaults(handler=cmd_simulate)

    compare = sub.add_parser("compare", help="run all three algorithms side by side")
    _add_common_flags(compare, algorithm=False)
    compare.add_argument("--out", required=True, help="output table path")
    compare.add_argument("--format", choices=("json", "csv"), default="csv")
    compare.set_defaults(handler=cmd_compare)
    return parser


def _load_config(args: argparse.Namespace, *, record_scans: bool) -> ExperimentConfig:
    # Only the schedule JSON document writes decisions' scanned ids and
    # power estimates; a run for any other output keeps neither.
    config = load_cluster_config(args.config) if args.config else default_config()
    scheduler = config.scheduler if record_scans else replace(config.scheduler, record_scans=False)
    if args.threshold is not None:
        scheduler = replace(scheduler, threshold=Threshold(args.threshold))
    if args.autoscale == "off":
        scheduler = replace(scheduler, autoscale_template=None)
    elif args.autoscale == "on" and scheduler.autoscale_template is None:
        scheduler = replace(scheduler, autoscale_template=config.initial_nodes[0].template)
    if scheduler is not config.scheduler:
        config = replace(config, scheduler=scheduler)
    return config


def cmd_gen(args: argparse.Namespace) -> int:
    config = load_cluster_config(args.config) if args.config else default_config()
    spec = config.generator
    overrides = {}
    if args.count is not None:
        overrides["request_count"] = args.count
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        spec = replace(spec, **overrides)
    requests = generate_synthetic(spec)
    write_trace(requests, args.out)
    _note(args, f"wrote {len(requests)} requests to {args.out}")
    return 0


def _run_batch(
    args: argparse.Namespace, config: ExperimentConfig, workload: Sequence[GptRequest], name: str
) -> Tuple[AllocationOutcome, Report]:
    state = ClusterState(config.initial_nodes, config.power_policy)
    outcome, report = run_batch(workload, state, name, config.scheduler, coeffs=config.coefficients)
    _note(
        args,
        f"batch {name}: {report.request_count} requests, "
        f"{report.unallocated_count} unallocated, {report.node_count} nodes",
    )
    return outcome, report


def cmd_schedule(args: argparse.Namespace) -> int:
    config = _load_config(args, record_scans=args.format == "json")
    workload = load_trace(args.workload)
    outcome, report = _run_batch(args, config, workload, args.algorithm)
    if args.format == "json":
        write_outcome_document(args.algorithm, outcome, report, args.out)
    else:
        write_report(report, "csv", args.out, algorithm=args.algorithm)
    _note(args, f"schedule {args.algorithm}: wrote {args.out}")
    return 3 if report.unallocated_count else 0


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _load_config(args, record_scans=False)
    workload = load_trace(args.workload)

    def note_removal(event: SimEvent, nodes: Sequence[Node]) -> None:
        if event.kind is EventKind.SCALE_CHECK:
            _note(args, f"scaled down node {event.node_id} at t={event.time_s:.3f}")

    result = run_timeline(
        workload,
        config.initial_nodes,
        args.algorithm,
        config.scheduler,
        config.adaptor,
        args.snapshot_interval,
        coeffs=config.coefficients,
        on_event=note_removal if args.log_info else None,  # no per-event call by default
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    # The large table first: a failure there leaves an existing report as it was.
    write_report(result.snapshots, "csv", out_dir / "snapshots.csv")
    report_path = out_dir / ("report.json" if args.format == "json" else "report.csv")
    write_report(result.report, args.format, report_path, algorithm=args.algorithm)
    _note(
        args,
        f"simulate {args.algorithm}: {len(result.snapshots)} snapshots, "
        f"{result.report.energy_wh or 0.0:.6f} Wh, wrote {out_dir}",
    )
    return 3 if result.report.unallocated_count else 0


def cmd_compare(args: argparse.Namespace) -> int:
    config = _load_config(args, record_scans=False)
    workload = load_trace(args.workload)
    results: List[Tuple[str, Report]] = []
    worst = 0
    for name in ALGORITHMS:
        _, report = _run_batch(args, config, workload, name)
        results.append((name, report))
        if report.unallocated_count:
            worst = 3
    write_comparison(results, args.format, args.out)
    _note(args, f"compare: wrote {args.out}")
    return worst


def main(argv: Optional[Sequence[str]] = None) -> int:
    level = os.environ.get("GPTSCHED_LOG", "error").lower()
    if level not in ("error", "info", "debug"):
        print(f"gptsched: ignoring unknown GPTSCHED_LOG value {echo(level)}", file=sys.stderr)
        level = "error"
    args = build_parser().parse_args(argv)
    args.log_info = level != "error"
    try:
        return args.handler(args)
    except (GptSchedError, OSError) as exc:
        print(f"gptsched: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
