"""The subprocess side: one workload (or the micro suite) per process.

A worker is started by :mod:`benchmarks.ledger.runner` with a cleaned
environment.  Its set-up — imports, input generation, a quarter-horizon
warm-up — ends with one ``ready`` line on stdout; after that it answers
one JSON command per stdin line with one JSON line, until ``quit`` or
end of input.  Everything else the process prints goes to stderr.
"""

from __future__ import annotations

import dataclasses
import gc
import importlib
import json
import os
import platform
import resource
import sys
from typing import Any, Callable, Optional, TextIO

from . import refclock
from .micro import run_micro
from .spec import LAYERS, MICRO, PROFILES
from .symbols import MissingTarget, sym
from .tracer import (
    UNATTRIBUTED,
    LayerTracer,
    calibrate,
    code_objects,
    repro_classifier,
    write_spans,
)
from .workloads import CENSUS, Outcome, build, verify_stacked


def _repro_dir(root: str) -> str:
    """Directory of the ``repro`` under test; it must be this checkout's."""
    package = importlib.import_module("repro")
    package_dir = os.path.dirname(os.path.realpath(package.__file__))
    expected = os.path.join(os.path.realpath(root), "src", "repro")
    if package_dir != expected:
        raise SystemExit(
            f"ledger: imported repro from {package_dir}, expected {expected}"
        )
    return package_dir


def machine_info() -> dict:
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        fastloop = sym("ACTIVE_IMPL")
    except MissingTarget:
        fastloop = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "fastloop": fastloop,
        "platform": platform.platform(),
    }


def _peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_repeat(run: Callable[[], Outcome]) -> tuple[dict, Outcome]:
    timing = refclock.timed(run)
    outcome = timing.result
    reply = dataclasses.asdict(outcome)
    del reply["cell_digests"]
    reply["wall_s"] = timing.seconds
    reply["raw_wall_s"] = timing.raw_seconds
    reply["op_ms"] = [ms * timing.factor for ms in outcome.op_ms]
    return reply, outcome


def traced_run(
    workload: str, run_quarter: Callable[[], Outcome], package_dir: str,
    spans_path: Optional[str],
) -> dict:
    """Untraced then traced quarter-horizon run -> per-layer metrics."""
    timing = refclock.timed(run_quarter)
    untraced, untraced_wall = timing.result, timing.raw_seconds
    # The run loops that call event callbacks: a call out of one of them
    # into another layer is one engine event.  The census holds the public
    # two unwrapped; the fused loop is internal and may not exist.
    try:
        fused = importlib.import_module("repro.sim._fastloop").run_fused
    except (ImportError, AttributeError):
        fused = None
    loops = list(CENSUS.originals.values())
    loops += [getattr(sym("Engine"), "_run_until_fused", None), fused]
    tracer = LayerTracer(
        repro_classifier(package_dir), dispatch_codes=code_objects(loops)
    )
    gc.collect()
    tracer.start()
    try:
        traced = run_quarter()
    finally:
        tracer.stop()
    if spans_path is not None:
        write_spans(spans_path, tracer, workload=workload)

    # Self times are reported as untraced-equivalent estimates at reference
    # speed; the raw ones (which add up to the traced wall time) are kept
    # beside them.
    hook_cost = calibrate()
    self_ns, slowdown = tracer.estimate_ns(hook_cost, untraced_wall * 1e9)
    self_ns = [ns * timing.factor for ns in self_ns]
    total_ns = max(1.0, sum(self_ns))
    events = max(1, traced.sim_events)
    metrics: dict[str, dict] = {}
    for index, layer in enumerate(LAYERS):
        metrics[f"{layer}.self_us_per_event"] = {
            "value": self_ns[index] / 1e3 / events, "unit": "us/event"}
        metrics[f"{layer}.self_frac"] = {
            "value": self_ns[index] / total_ns, "unit": "ratio"}
        metrics[f"{layer}.calls_in_per_event"] = {
            "value": tracer.calls_into(index) / events, "unit": "1/event"}
    metrics["trace.overhead_x"] = {
        "value": tracer.wall_ns / 1e9 / untraced_wall, "unit": "x"}
    metrics["trace.unattributed_frac"] = {
        "value": self_ns[UNATTRIBUTED] / total_ns, "unit": "ratio"}
    metrics["total.us_per_event"] = {
        "value": timing.seconds / max(1, untraced.sim_events) * 1e6,
        "unit": "us/event"}
    metrics["total.sim_events"] = {"value": untraced.sim_events, "unit": "count"}
    return {
        "per_layer": metrics,
        "attempted": untraced.attempted + traced.attempted,
        "failures": untraced.failures + traced.failures,
        "digest_stable": untraced.sim_digest == traced.sim_digest,
        "trace": {
            "wall_ns": tracer.wall_ns,
            "raw_self_ns": dict(zip(LAYERS + ("unattributed",), tracer.self_ns)),
            "hook_cost_ns": dataclasses.asdict(hook_cost),
            "python_slowdown_x": slowdown,
            "events_seen": tracer.events,
            "events_census": traced.sim_events,
            "spans_kept": len(tracer.spans),
            "spans_file": spans_path,
            "edges": tracer.edges(),
        },
    }


def serve(
    workload: str, seed: int, profile: str, root: str, scratch: str,
    stdin: TextIO, stdout: TextIO,
) -> None:
    def reply(obj: Any) -> None:
        stdout.write(json.dumps(obj) + "\n")
        stdout.flush()

    package_dir = _repro_dir(root)
    sizes = PROFILES[profile]
    if workload == MICRO:
        per_layer, notes = run_micro(seed, scratch)
        reply({"ready": True, "per_layer": per_layer, "notes": notes,
               "machine": machine_info()})
        return

    CENSUS.install()
    run_full = build(workload, seed, sizes)
    run_quarter = build(workload, seed, sizes.quarter())
    run_quarter()  # warm-up
    reply({"ready": True, "machine": machine_info()})

    last: Optional[Outcome] = None
    for line in stdin:
        command = json.loads(line)
        op = command["op"]
        if op == "run":
            answer, last = timed_repeat(run_full)
            reply(answer)
        elif op == "verify":
            failures: list[str] = []
            if workload == "table2_stacked" and last is not None:
                failures = verify_stacked(seed, sizes, last)
            reply({"failures": failures})
        elif op == "rss":
            reply({"peak_rss_mb": _peak_rss_mb()})
        elif op == "trace":
            reply(traced_run(
                workload, run_quarter, package_dir, command.get("spans_path")
            ))
        elif op == "quit":
            break
        else:
            reply({"error": f"unknown op {op!r}"})


def main(argv: list[str]) -> int:
    workload, seed, profile, root, scratch = argv
    # Replies own the real stdout; stray prints from the code under test
    # must not corrupt the protocol.
    channel = os.fdopen(os.dup(sys.stdout.fileno()), "w", encoding="utf-8")
    sys.stdout = sys.stderr
    serve(workload, int(seed), profile, root, scratch, sys.stdin, channel)
    return 0
