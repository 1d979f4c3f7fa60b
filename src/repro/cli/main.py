"""CLI dispatcher and argument parsing."""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.cli import commands


def __getattr__(name: str):
    # ``EXPERIMENTS`` (id -> registry row) resolves on first use, so
    # importing the CLI loads no experiment module.
    if name == "EXPERIMENTS":
        from repro.experiments.registry import EXPERIMENTS

        return EXPERIMENTS
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _smoke_ids(experiments) -> list[str]:
    """The experiments whose grid has a ``--smoke`` protocol."""
    return [key for key, row in experiments.items() if row.smoke]


def build_parser() -> argparse.ArgumentParser:
    from repro.experiments.registry import EXPERIMENTS

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'ALPS: An Application-Level Proportional-"
            "Share Scheduler' (HPDC 2006)."
        ),
    )
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("list", help="list reproducible experiments")

    run = sub.add_parser("run", help="reproduce one paper artifact")
    run.add_argument("experiment", choices=sorted(EXPERIMENTS))
    run.add_argument(
        "--full",
        action="store_true",
        help="use the paper's full protocol (much slower) instead of the "
        "benchmark-sized one",
    )
    run.add_argument("--seed", type=int, default=0, help="master RNG seed")
    run.add_argument(
        "--csv", metavar="PATH", default=None, help="also write results to CSV"
    )
    run.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="sweep process-pool size (default: serial for quick runs, "
        "$REPRO_SWEEP_WORKERS or CPUs-1 for --full)",
    )
    run.add_argument(
        "--no-cache",
        action="store_true",
        help="skip the content-addressed sweep result cache "
        "($REPRO_SWEEP_CACHE) and recompute every cell",
    )
    run.add_argument(
        "--smoke",
        action="store_true",
        help=f"CI-sized protocol ({', '.join(_smoke_ids(EXPERIMENTS))} "
        "only): fewest load points, short horizon",
    )

    live = sub.add_parser(
        "live", help="run ALPS over real processes on this Linux host"
    )
    live.add_argument(
        "--shares",
        default="1,2,3",
        help="comma-separated integer shares, one spinner per share",
    )
    live.add_argument(
        "--duration", type=float, default=8.0, help="seconds to control"
    )
    live.add_argument(
        "--quantum", type=float, default=0.05, help="ALPS quantum in seconds"
    )
    live.add_argument(
        "--groups",
        default=None,
        metavar="SPEC",
        help=(
            "schedule groups instead of single processes: "
            "'share×members,share×members', e.g. '1x2,3x1' runs a "
            "1-share group of two spinners against a 3-share group of one"
        ),
    )

    report = sub.add_parser(
        "report", help="run every experiment and write a markdown report"
    )
    report.add_argument("--out", default="reproduction_report.md")
    report.add_argument("--seed", type=int, default=0)
    report.add_argument(
        "--full", action="store_true", help="use the paper's full protocol"
    )
    report.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="sweep process-pool size for the experiment sections",
    )
    report.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute every sweep cell instead of reusing cached results",
    )

    demo = sub.add_parser(
        "demo", help="simulated quickstart (shares 1:2:3, 30 virtual seconds)"
    )
    demo.add_argument("--shares", default="1,2,3")
    demo.add_argument("--quantum-ms", type=float, default=10.0)
    demo.add_argument("--seconds", type=float, default=30.0)
    demo.add_argument("--seed", type=int, default=0)

    perf = sub.add_parser(
        "perf", help="performance tooling for the simulation substrate"
    )
    perf_sub = perf.add_subparsers(dest="perf_command")
    perf_report = perf_sub.add_parser(
        "report", help="run a workload and print its perf counter report"
    )
    perf_report.add_argument("--shares", default="5,5,5,5,5")
    perf_report.add_argument("--quantum-ms", type=float, default=10.0)
    perf_report.add_argument("--seconds", type=float, default=10.0)
    perf_report.add_argument("--seed", type=int, default=0)
    perf_report.add_argument(
        "--profile",
        action="store_true",
        help="also run the simulation under cProfile and print the top rows",
    )
    perf_report.add_argument(
        "--backend",
        choices=["auto", "strict", "optimized", "batch", "resident", "all"],
        default="auto",
        help=(
            "kernel backend to run the workload on (default: auto); "
            "'all' runs every backend and prints events/sec side-by-side"
        ),
    )
    perf_diff = perf_sub.add_parser(
        "diff",
        help="strict-vs-challenger differential equivalence sweep (Table 2)",
    )
    perf_diff.add_argument("--sizes", default="5,10,20")
    perf_diff.add_argument("--seeds", default="0,1,2")
    perf_diff.add_argument("--quantum-ms", type=float, default=10.0)
    perf_diff.add_argument("--seconds", type=float, default=5.0)
    perf_diff.add_argument(
        "--backend",
        choices=["optimized", "batch", "resident"],
        default="optimized",
        help="challenger backend compared against strict (default: optimized)",
    )

    top = sub.add_parser(
        "top", help="live share-vs-attained view of a simulated workload"
    )
    top.add_argument("--shares", default="1,2,4")
    top.add_argument("--quantum-ms", type=float, default=10.0)
    top.add_argument("--seed", type=int, default=0)
    top.add_argument(
        "--frame-ms",
        type=float,
        default=500.0,
        help="virtual time advanced per rendered frame",
    )
    top.add_argument(
        "--frames",
        type=int,
        default=None,
        help="render N frames then exit (default: run until Ctrl-C)",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=0.5,
        help="wall-clock seconds between frames",
    )
    top.add_argument(
        "--skip-cycles",
        type=int,
        default=0,
        help="warm-up cycles excluded from attained fractions",
    )
    top.add_argument(
        "--tree",
        action="store_true",
        help="hierarchical view over the demo share tree "
        "(docs/share_tree.md) instead of the flat --shares list",
    )
    top.add_argument(
        "--cells",
        type=int,
        default=1,
        help="with --tree: shard the tree over N supervised plane cells "
        "and render per-cell health (docs/share_tree.md, 'Plane fault "
        "tolerance')",
    )

    chaos = sub.add_parser(
        "chaos",
        help="seeded fault campaigns with machine-checked invariants",
    )
    chaos_sub = chaos.add_subparsers(dest="chaos_command")

    def _chaos_common(p) -> None:
        p.add_argument("--seed", type=int, default=0, help="campaign seed")
        p.add_argument(
            "--suite",
            choices=("resilience", "overload", "plane"),
            default="resilience",
            help="fault suite: 'resilience' (journal/signal/crash faults), "
            "'overload' (arrival storms, nice-bombs, thousand-process "
            "herds against the degradation ladder), or 'plane' (cell "
            "crashes, torn migrations, and re-homing on the sharded "
            "control plane)",
        )
        p.add_argument(
            "--episodes", type=int, default=8, help="episodes per campaign"
        )
        p.add_argument(
            "--rates",
            default="0.02,0.05,0.1,0.2",
            help="comma-separated fault rates cycled across episodes",
        )
        p.add_argument(
            "--shares",
            default=None,
            help="comma-separated worker shares "
            "(default: per-suite standard mix)",
        )
        p.add_argument("--quantum-ms", type=float, default=10.0)
        p.add_argument(
            "--cycles", type=int, default=60, help="target cycles per episode"
        )
        p.add_argument(
            "--workers", type=int, default=None, metavar="N",
            help="sweep process-pool size (default: serial)",
        )
        p.add_argument(
            "--no-cache", action="store_true",
            help="recompute every episode instead of reusing cached results",
        )

    chaos_run = chaos_sub.add_parser(
        "run", help="run one campaign; non-zero exit on invariant violation"
    )
    _chaos_common(chaos_run)
    chaos_report = chaos_sub.add_parser(
        "report", help="run one campaign and write full JSON detail"
    )
    _chaos_common(chaos_report)
    chaos_report.add_argument("--out", default="chaos_report.json")

    obs = sub.add_parser(
        "obs", help="observability tooling (structured events and metrics)"
    )
    obs_sub = obs.add_subparsers(dest="obs_command")
    obs_tail = obs_sub.add_parser(
        "tail", help="run an observed workload, print its last events as JSONL"
    )
    obs_tail.add_argument("--shares", default="1,2,4")
    obs_tail.add_argument("--quantum-ms", type=float, default=10.0)
    obs_tail.add_argument("--seconds", type=float, default=5.0)
    obs_tail.add_argument("--seed", type=int, default=0)
    obs_tail.add_argument(
        "-n", "--count", type=int, default=20, help="events to print"
    )
    obs_tail.add_argument(
        "--kind",
        default=None,
        help="filter by event kind; 'prefix.*' matches a family "
        "(e.g. --kind 'fault.*')",
    )
    obs_export = obs_sub.add_parser(
        "export", help="run an observed workload and export its metrics"
    )
    obs_export.add_argument("--shares", default="1,2,4")
    obs_export.add_argument("--quantum-ms", type=float, default=10.0)
    obs_export.add_argument("--seconds", type=float, default=5.0)
    obs_export.add_argument("--seed", type=int, default=0)
    obs_export.add_argument(
        "--format",
        dest="fmt",
        choices=("jsonl", "csv", "prometheus"),
        default="prometheus",
        help="metrics exposition format",
    )
    obs_export.add_argument(
        "--out", default=None, metavar="PATH", help="write metrics to a file"
    )
    obs_export.add_argument(
        "--events",
        dest="events_out",
        default=None,
        metavar="PATH",
        help="also write the buffered event stream as JSONL",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    from repro.experiments.registry import EXPERIMENTS

    if args.command == "list":
        width = max(len(k) for k in EXPERIMENTS)
        for key in sorted(EXPERIMENTS):
            print(f"  {key.ljust(width)}  {EXPERIMENTS[key].title}")
        return 0
    if args.command == "run":
        row = EXPERIMENTS[args.experiment]
        if args.smoke and not row.smoke:
            runs = " or ".join(f"'run {k}'" for k in _smoke_ids(EXPERIMENTS))
            parser.error(f"--smoke is only supported by {runs}")
        return commands.cmd_run(
            row,
            full=args.full,
            seed=args.seed,
            smoke=args.smoke,
            csv=args.csv,
            workers=args.workers,
            no_cache=args.no_cache,
        )
    if args.command == "report":
        from repro.experiments.report import generate_report

        out = generate_report(
            seed=args.seed,
            quick=not args.full,
            path=args.out,
            workers=args.workers,
            no_cache=args.no_cache,
        )
        print(f"report written to {out}")
        return 0
    if args.command == "live":
        return commands.cmd_live(
            shares=args.shares,
            duration=args.duration,
            quantum=args.quantum,
            groups=args.groups,
        )
    if args.command == "demo":
        return commands.cmd_demo(
            shares=args.shares,
            quantum_ms=args.quantum_ms,
            seconds=args.seconds,
            seed=args.seed,
        )
    if args.command == "perf":
        if args.perf_command == "report":
            return commands.cmd_perf_report(
                shares=args.shares,
                quantum_ms=args.quantum_ms,
                seconds=args.seconds,
                seed=args.seed,
                profile=args.profile,
                backend=args.backend,
            )
        if args.perf_command == "diff":
            return commands.cmd_perf_diff(
                sizes=args.sizes,
                seeds=args.seeds,
                quantum_ms=args.quantum_ms,
                seconds=args.seconds,
                backend=args.backend,
            )
        parser.parse_args(["perf", "--help"])
        return 2
    if args.command == "top":
        return commands.cmd_top(
            shares=args.shares,
            quantum_ms=args.quantum_ms,
            seed=args.seed,
            frame_ms=args.frame_ms,
            frames=args.frames,
            interval=args.interval,
            skip_cycles=args.skip_cycles,
            tree=args.tree,
            cells=args.cells,
        )
    if args.command == "chaos":
        if args.chaos_command == "run":
            return commands.cmd_chaos_run(
                seed=args.seed,
                episodes=args.episodes,
                rates=args.rates,
                shares=args.shares,
                quantum_ms=args.quantum_ms,
                cycles=args.cycles,
                suite=args.suite,
                workers=args.workers,
                no_cache=args.no_cache,
            )
        if args.chaos_command == "report":
            return commands.cmd_chaos_report(
                seed=args.seed,
                episodes=args.episodes,
                rates=args.rates,
                shares=args.shares,
                quantum_ms=args.quantum_ms,
                cycles=args.cycles,
                out=args.out,
                suite=args.suite,
                workers=args.workers,
                no_cache=args.no_cache,
            )
        parser.parse_args(["chaos", "--help"])
        return 2
    if args.command == "obs":
        if args.obs_command == "tail":
            return commands.cmd_obs_tail(
                shares=args.shares,
                quantum_ms=args.quantum_ms,
                seconds=args.seconds,
                seed=args.seed,
                count=args.count,
                kind=args.kind,
            )
        if args.obs_command == "export":
            return commands.cmd_obs_export(
                shares=args.shares,
                quantum_ms=args.quantum_ms,
                seconds=args.seconds,
                seed=args.seed,
                fmt=args.fmt,
                out=args.out,
                events_out=args.events_out,
            )
        parser.parse_args(["obs", "--help"])
        return 2
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover
