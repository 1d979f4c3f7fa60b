"""Command line of the ledger (see the package docstring for the forms)."""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import sys
from typing import Sequence

from . import diff as diff_mod
from . import runner, spec


def _fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def render_result(result: dict) -> str:
    """Every metric by name, with its unit."""
    lines = [
        f"ledger seed={result['seed']} profile={result['profile']} "
        f"machine={json.dumps(result['machine'])}"
    ]
    for name, w in result["workloads"].items():
        lines.append(f"\n== {name}  (dominant: {', '.join(w['dominant'])})")
        for metric, m in w["end_to_end"].items():
            extra = ""
            if "q1" in m:
                extra = (f"  [q1 {_fmt(m['q1'])}  q3 {_fmt(m['q3'])}  "
                         f"min {_fmt(m['min'])}  n {m['n']}]")
            lines.append(f"  {metric:<34} {_fmt(m['value']):>12} {m['unit']}{extra}")
        sim = w["sim"]
        lines.append(f"  {'sim_events':<34} {sim['sim_events']:>12}")
        lines.append(f"  {'sim_final_us':<34} {sim['sim_final_us']:>12}")
        lines.append(f"  {'sim_digest':<34} {sim['sim_digest'][:16]}")
        if w["op_ms"]:
            lines.append(f"  {'op_ms':<34} {json.dumps(w['op_ms'])}")
        for violation in w["violations"]:
            lines.append(
                f"  ! violation {violation['suite']} ep{violation['episode']} "
                f"{violation['invariant']}: {violation['detail']}"
            )
        for failure, times in collections.Counter(w["failures"]).items():
            lines.append(f"  ! FAILED {failure} (x{times})")
        for metric, m in w["per_layer"].items():
            lines.append(f"  {metric:<34} {_fmt(m['value']):>12} {m['unit']}")
    if result["per_layer"]:
        lines.append("\n== direct calls and counts (untraced)")
        for metric, m in result["per_layer"].items():
            note = f"  (skipped: {m['skipped']})" if "skipped" in m else ""
            lines.append(f"  {metric:<34} {_fmt(m['value']):>12} {m['unit']}{note}")
    lines.append(f"\ncorrect: {result['correct']}")
    return "\n".join(lines)


def cmd_run(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(prog="ledger run")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="short horizons, 1 repeat, same names (<= 60 s)")
    parser.add_argument("--out", default=None,
                        help="result file (default benchmarks/ledger/out/ledger.json)")
    args = parser.parse_args(argv)
    result = runner.run_ledger(args.seed, "smoke" if args.smoke else "standard")
    print(render_result(result))
    out = args.out or os.path.join(runner.OUT_DIR, "ledger.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"result written to {out}")
    return 0 if result["correct"] else 1


def cmd_diff(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(prog="ledger diff")
    parser.add_argument("a")
    parser.add_argument("b")
    args = parser.parse_args(argv)
    return diff_mod.main(args.a, args.b)


def cmd_manifest(argv: Sequence[str]) -> int:
    argparse.ArgumentParser(prog="ledger manifest").parse_args(argv)
    sys.stdout.write(json.dumps(spec.manifest(), indent=2) + "\n")
    return 0


def cmd_contract(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(prog="ledger")
    parser.add_argument("--workload", required=True, choices=spec.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    result = runner.run_ledger(
        args.seed, "contract", [args.workload], seconds=args.seconds,
        timed=not args.trace, traced=bool(args.trace),
    )
    entry = result["workloads"][args.workload]
    if args.trace:
        declared = spec.PER_LAYER
        measured = {**entry["per_layer"], **result["per_layer"]}
    else:
        declared = spec.CONTRACT_END_TO_END
        measured = entry["end_to_end"]
    metrics = {}
    for m in declared:
        value = measured.get(m.name, {}).get("value")
        # The contract wants a number for every declared name; a per-layer
        # target that no longer exists has none.
        metrics[m.name] = {
            "value": math.nan if value is None else value, "unit": m.unit,
        }
    for failure in entry["failures"]:
        print(f"FAILED {failure}")
    for name, m in metrics.items():
        print(f"{name:<36} {_fmt(m['value']):>12} {m['unit']}")
    print(json.dumps({
        "correct": entry["failed"] == 0, "attempted": entry["attempted"],
        "failed": entry["failed"], "metrics": metrics,
    }))
    return 0  # the verdict is in the result line; non-zero means "did not run"


def main(argv: Sequence[str]) -> int:
    commands = {"run": cmd_run, "diff": cmd_diff, "manifest": cmd_manifest}
    try:
        if argv and argv[0] == "worker":
            from . import worker

            return worker.main(list(argv[1:]))
        if argv and argv[0] in commands:
            return commands[argv[0]](argv[1:])
        return cmd_contract(argv)
    except runner.LedgerError as exc:
        print(f"ledger: {exc}", file=sys.stderr)
        return 2
