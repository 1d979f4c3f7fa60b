"""End to end: ``run --smoke`` and the contract form, as subprocesses."""

import json
import math
import os
import subprocess
import sys

import pytest

from benchmarks.ledger import spec
from benchmarks.ledger.runner import ROOT

ENTRY = os.path.join(ROOT, "benchmarks", "ledger", "__main__.py")


def ledger(*args, timeout=300):
    return subprocess.run(
        [sys.executable, ENTRY, *args], cwd=ROOT, capture_output=True, text=True,
        timeout=timeout,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger") / "smoke.json"
    done = ledger("run", "--smoke", "--seed", "0", "--out", str(out))
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(out.read_text()), done.stdout


def test_smoke_emits_exactly_the_declared_names(smoke):
    result, stdout = smoke
    assert sorted(result["workloads"]) == sorted(spec.WORKLOAD_NAMES)
    traced = {m.name for m in spec.TRACED_METRICS}
    micro = {m.name for m in spec.MICRO_METRICS}
    for name, workload in result["workloads"].items():
        assert set(workload["per_layer"]) == traced, name
        decl = spec.workload_decl(name)
        expected = {"setup_s", "wall_s", "peak_rss_mb", "failed_frac"}
        if decl.share_err:
            expected.add("share_err_pct")
        if decl.alps_overhead:
            expected.add("alps_overhead_pct")
        assert set(workload["end_to_end"]) == expected, name
    assert set(result["per_layer"]) == micro
    emitted = traced | micro | {"setup_s", "wall_s", "peak_rss_mb"}
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    declared = {m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]}
    assert declared == emitted
    for name in emitted:
        assert spec.NAME_RE.match(name)
        assert name in stdout  # printed by name


def test_smoke_is_correct_and_nothing_was_skipped(smoke):
    result, _ = smoke
    assert result["correct"] is True
    for workload in result["workloads"].values():
        assert workload["failed"] == 0 and workload["attempted"] >= 1
        for metric in workload["end_to_end"].values():
            assert metric["value"] is not None
        assert len(workload["sim"]["sim_digest"]) == 64
    for name, metric in result["per_layer"].items():
        assert "skipped" not in metric and metric["value"] is not None, name
    machine = result["machine"]
    assert machine["nproc"] and machine["python"] and machine["fastloop"]


def test_traced_self_times_account_for_the_traced_wall_time(smoke):
    result, _ = smoke
    for name, workload in result["workloads"].items():
        trace = workload["trace"]
        raw = sum(trace["raw_self_ns"].values())
        assert abs(raw - trace["wall_ns"]) <= 0.02 * trace["wall_ns"], name
        assert workload["per_layer"]["trace.unattributed_frac"]["value"] <= 0.02, name
        assert trace["events_seen"] == trace["events_census"], name
        assert workload["per_layer"]["trace.overhead_x"]["value"] > 1.0
        fractions = sum(
            workload["per_layer"][f"{layer}.self_frac"]["value"]
            for layer in spec.LAYERS
        )
        assert fractions == pytest.approx(1.0, abs=0.03), name
        assert os.path.isfile(trace["spans_file"])


def test_trace_names_the_predicted_dominant_layers(smoke):
    result, _ = smoke

    def frac(workload, *layers):
        per_layer = result["workloads"][workload]["per_layer"]
        return sum(per_layer[f"{layer}.self_frac"]["value"] for layer in layers)

    assert frac("kernel_decay_3000", "kernel") > 0.5
    control = frac("fig8_scale", "alps.agent", "alps.algorithm", "kapi")
    assert control > frac("fig8_scale", "kernel")
    optional = ("obs", "resilience", "overload", "sharetree", "faults")
    stacked = {layer: frac("table2_stacked", layer) for layer in optional}
    assert max(stacked, key=stacked.get) == "resilience"
    assert all(frac("table2_bare", layer) == 0 for layer in optional)
    assert frac("web_sec5", "webserver") > 0.05
    assert frac("chaos_campaign", "faults") > 0
    assert frac("chaos_campaign", "sharetree") > 0


def test_stacked_schedule_equals_bare(smoke):
    result, _ = smoke
    bare = result["workloads"]["table2_bare"]["end_to_end"]
    stacked = result["workloads"]["table2_stacked"]["end_to_end"]
    assert stacked["share_err_pct"]["value"] == pytest.approx(
        bare["share_err_pct"]["value"])
    assert stacked["alps_overhead_pct"]["value"] == pytest.approx(
        bare["alps_overhead_pct"]["value"])


def test_a_second_seed_runs_clean_and_diffs_against_itself(tmp_path):
    out = tmp_path / "seed1.json"
    done = ledger("run", "--smoke", "--seed", "1", "--out", str(out))
    assert done.returncode == 0, done.stderr[-2000:]
    assert json.loads(out.read_text())["correct"] is True
    same = ledger("diff", str(out), str(out))
    assert same.returncode == 0 and "regressed: 0" in same.stdout


@pytest.mark.parametrize("trace", ["0", "1"])
def test_contract_form_prints_the_declared_metrics_last(trace):
    done = ledger("--workload", "web_sec5", "--seed", "5", "--seconds", "3",
                  "--trace", trace)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = spec.PER_LAYER if trace == "1" else spec.CONTRACT_END_TO_END
    assert list(result["metrics"]) == [m.name for m in declared]
    for metric in declared:
        entry = result["metrics"][metric.name]
        assert entry["unit"] == metric.unit
        assert isinstance(entry["value"], (int, float))
        assert not math.isnan(entry["value"])
    if trace == "0":
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
