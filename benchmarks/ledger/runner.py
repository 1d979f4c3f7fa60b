"""The parent side: environment hygiene, worker processes, the run itself.

``run_ledger`` puts every workload in its own subprocess, interleaves the
timed repeats round-robin across the workloads (a slow spell on a shared
box then spreads over all of them instead of landing in one workload's
median), then makes the traced runs and the micro suite.  ``python -m
benchmarks.ledger run`` is all of that; the one-workload form that
``BENCHMARK.json`` declares is the same function with one workload and
either the timed half (``--trace 0``) or the traced half (``--trace 1``).
"""

from __future__ import annotations

import contextlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Iterator, Optional, Sequence

from . import refclock, spec

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
#: The contract lets one run take 180 s; no single reply may take longer.
REPLY_TIMEOUT_S = 170.0


class LedgerError(RuntimeError):
    """The benchmark itself could not run (not a measured failure)."""


def require_checkout() -> None:
    """Refuse to run where there is no ``repro`` source to measure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        raise LedgerError(
            f"no src/repro under {ROOT}: the ledger measures the repro "
            "package of the checkout it sits in"
        )


def clean_env(scratch: str) -> dict[str, str]:
    """The workers' environment: no ``REPRO_*`` knob survives."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_SWEEP_CACHE"] = os.path.join(scratch, "sweep-cache")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT]
        + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    env["TMPDIR"] = scratch
    return env


class Worker:
    """One worker subprocess; construction blocks until its set-up is done."""

    def __init__(self, workload: str, seed: int, profile: str, scratch: str) -> None:
        self.workload = workload
        self._args = [workload, str(seed), profile, ROOT, scratch]
        self._env = clean_env(scratch)
        timing = refclock.timed(self._start)
        self.ready = timing.result
        self.setup_s, self.raw_setup_s = timing.seconds, timing.raw_seconds

    def _start(self) -> dict:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "benchmarks.ledger", "worker", *self._args],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=self._env, cwd=ROOT, text=True, bufsize=1,
        )
        try:
            return self._read()
        except BaseException:
            self.close()
            raise

    def _read(self) -> dict:
        assert self.proc.stdout is not None
        readable, _, _ = select.select([self.proc.stdout], [], [], REPLY_TIMEOUT_S)
        line = self.proc.stdout.readline() if readable else ""
        if not line:
            code = self.proc.poll()
            raise LedgerError(
                f"worker {self.workload!r} gave no reply "
                f"({'timed out' if code is None else f'exit code {code}'})"
            )
        return json.loads(line)

    def call(self, op: str, **args: Any) -> dict:
        assert self.proc.stdin is not None
        self.proc.stdin.write(json.dumps({"op": op, **args}) + "\n")
        self.proc.stdin.flush()
        reply = self._read()
        if "error" in reply:
            raise LedgerError(f"worker {self.workload!r}: {reply['error']}")
        return reply

    def close(self) -> None:
        """Stop the process and wait until it has ended."""
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None:
                stream.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def setups(
    tally: "Tally", seed: int, profile: str, scratch: str, samples: int
) -> Worker:
    """Set the workload up ``samples`` times; keep the last worker alive."""
    worker: Optional[Worker] = None
    for _ in range(samples):
        if worker is not None:
            worker.close()
        worker = Worker(tally.workload, seed, profile, scratch)
        tally.setups.append(worker.setup_s)
        tally.raw_setups.append(worker.raw_setup_s)
    assert worker is not None
    return worker


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------
def summarize(samples: Sequence[float]) -> dict:
    """Median, quartiles, min and count of a timing sample."""
    if len(samples) >= 2:
        q1, _median, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {
        "value": statistics.median(samples),
        "q1": q1, "q3": q3, "min": min(samples), "n": len(samples),
        "samples": list(samples),
    }


def tail_percentile(samples: Sequence[float]) -> Optional[dict]:
    """Median and the highest percentile with ten samples beyond it."""
    n = len(samples)
    eligible = [p for p in (90.0, 95.0, 99.0, 99.9) if n * (1 - p / 100) >= 10]
    if not eligible:
        return None
    p = eligible[-1]
    ordered = sorted(samples)
    return {
        "p50": statistics.median(ordered),
        f"p{p:g}": ordered[min(n - 1, int(n * p / 100))],
        "n": n,
    }


class Tally:
    """Everything one workload's set-ups and runs produced."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.setups: list[float] = []  # at reference speed, as are the walls
        self.raw_setups: list[float] = []
        self.walls: list[float] = []
        self.raw_walls: list[float] = []
        self.op_ms: list[float] = []
        self.ops_per_repeat = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.first: Optional[dict] = None
        self.peak_rss_mb = 0.0

    def add(self, reply: dict) -> None:
        self.walls.append(reply["wall_s"])
        self.raw_walls.append(reply["raw_wall_s"])
        self.op_ms += reply["op_ms"]
        self.ops_per_repeat = reply["attempted"]
        self.attempted += reply["attempted"]
        self.failed += reply["failed"]
        self.failures += reply["failures"]
        if self.first is None:
            self.first = reply
        elif reply["sim_digest"] != self.first["sim_digest"]:
            self.fail("sim_digest differs between repeats of one seed")

    def fail(self, why: str) -> None:
        # A broken check counts as one failed operation, never more than
        # were attempted.
        self.failed = min(self.attempted, self.failed + 1)
        self.failures.append(why)

    def end_to_end(self) -> dict:
        assert self.first is not None
        decl = spec.workload_decl(self.workload)
        out = {
            "setup_s": {
                **summarize(self.setups), "unit": "s",
                "raw_median": statistics.median(self.raw_setups),
            },
            "wall_s": {
                **summarize(self.walls), "unit": "s",
                "raw_median": statistics.median(self.raw_walls),
            },
            "peak_rss_mb": {"value": self.peak_rss_mb, "unit": "MB"},
            "failed_frac": {
                "value": self.failed / max(1, self.attempted), "unit": "ratio"},
        }
        if decl.share_err and self.first["share_err_pct"] is not None:
            out["share_err_pct"] = {
                "value": self.first["share_err_pct"], "unit": "%"}
        if decl.alps_overhead and self.first["alps_overhead_pct"] is not None:
            out["alps_overhead_pct"] = {
                "value": self.first["alps_overhead_pct"], "unit": "%"}
        return out

    def sim(self) -> dict:
        assert self.first is not None
        return {k: self.first[k] for k in ("sim_events", "sim_final_us", "sim_digest")}


def check_trace(traced: dict, tally: Tally) -> None:
    """The tracer's own invariants; a breach is a failed check."""
    trace = traced["trace"]
    raw_sum = sum(trace["raw_self_ns"].values())
    if abs(raw_sum - trace["wall_ns"]) > 0.02 * trace["wall_ns"]:
        tally.fail("traced self times do not add up to the traced wall time")
    if trace["events_seen"] != trace["events_census"]:
        tally.fail("tracer and census disagree on the event count")
    if not traced["digest_stable"]:
        tally.fail("tracing changed the simulated outputs")
    for why in traced["failures"]:
        tally.fail(f"traced run: {why}")


def git_sha() -> Optional[str]:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None  # an exported checkout: do not let git search above it
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def spans_path(workload: str) -> str:
    return os.path.join(OUT_DIR, f"spans_{workload}.jsonl")


@contextlib.contextmanager
def scratch_dir() -> Iterator[str]:
    """A temp directory inside the checkout, removed on exit."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def timed_rounds(
    workers: dict[str, Worker], tallies: dict[str, Tally],
    rounds: int, seconds: Optional[float],
) -> None:
    """Timed repeats, round-robin across the workloads.

    At least ``rounds`` of them; with ``seconds``, as many more as end
    within that time.  Peak RSS is read after ``rounds``: it grows with
    the number of repeats, which must not depend on how fast the host is.
    """
    started = time.perf_counter()
    done = 0
    while True:
        for name, worker in workers.items():
            tallies[name].add(worker.call("run"))
        done += 1
        if done == rounds:
            for name, worker in workers.items():
                tallies[name].peak_rss_mb = worker.call("rss")["peak_rss_mb"]
        elapsed = time.perf_counter() - started
        if done >= rounds and (
            seconds is None or elapsed + elapsed / done > seconds
        ):
            return


def run_ledger(
    seed: int, profile: str, workloads: Sequence[str] = spec.WORKLOAD_NAMES,
    *, seconds: Optional[float] = None, timed: bool = True, traced: bool = True,
) -> dict:
    """Measure ``workloads``; see the module docstring for the two halves."""
    require_checkout()
    result: dict[str, Any] = {
        "schema": spec.SCHEMA_VERSION, "seed": seed, "profile": profile,
        "machine": {"git_sha": git_sha()},
        "workloads": {}, "per_layer": {}, "notes": [],
    }
    with scratch_dir() as scratch:
        workers: dict[str, Worker] = {}
        try:
            tallies = {name: Tally(name) for name in workloads}
            for name in workloads:
                workers[name] = setups(
                    tallies[name], seed, profile, scratch,
                    spec.SETUP_SAMPLES[profile] if timed else 1,
                )
                result["machine"].update(workers[name].ready["machine"])
            if timed:
                timed_rounds(workers, tallies, spec.RUN_REPEATS[profile], seconds)
            for name in workloads:
                worker, tally = workers[name], tallies[name]
                entry: dict[str, Any] = {
                    "dominant": list(spec.workload_decl(name).dominant),
                }
                if timed:
                    for why in worker.call("verify")["failures"]:
                        tally.fail(why)
                if traced:
                    reply = worker.call("trace", spans_path=spans_path(name))
                    tally.attempted += reply["attempted"]
                    check_trace(reply, tally)
                    entry.update(per_layer=reply["per_layer"], trace=reply["trace"])
                if timed:
                    entry.update(
                        end_to_end=tally.end_to_end(),
                        sim=tally.sim(),
                        repeats=len(tally.walls),
                        violations=tally.first["violations"],
                        op_ms=(
                            tail_percentile(tally.op_ms)
                            if tally.ops_per_repeat >= 20 else None
                        ),
                    )
                entry.update(
                    attempted=tally.attempted, failed=tally.failed,
                    failures=tally.failures,
                )
                result["workloads"][name] = entry
        finally:
            for worker in workers.values():
                worker.close()
        if traced:
            micro = Worker(spec.MICRO, seed, profile, scratch)
            micro.close()
            result["per_layer"] = micro.ready["per_layer"]
            result["notes"] += micro.ready["notes"]
    result["correct"] = all(w["failed"] == 0 for w in result["workloads"].values())
    return result
