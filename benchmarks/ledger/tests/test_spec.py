"""BENCHMARK.json is what spec.py says, and obeys the builder's contract."""

import json
import os
import re

from benchmarks.ledger import spec
from benchmarks.ledger.runner import ROOT

MANIFEST = os.path.join(ROOT, "BENCHMARK.json")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load():
    with open(MANIFEST, encoding="utf-8") as fh:
        return json.load(fh)


def test_manifest_is_generated_from_spec():
    assert load() == spec.manifest()


def test_contract_limits():
    manifest = load()
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert os.path.getsize(MANIFEST) <= 64 * 1024
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    assert isinstance(manifest["run_seconds"], int)
    assert 1 <= manifest["run_seconds"] <= 60
    assert manifest["paths"] == ["benchmarks/ledger"]
    assert len(manifest["command"]) <= 32
    assert manifest["command"][1].startswith(manifest["paths"][0] + "/")
    for workload in manifest["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in manifest["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in manifest["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = [m for m in manifest["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in manifest["end_to_end"])


def test_names_and_units():
    manifest = load()
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in manifest[key]
    ]
    assert len(names) == len(set(names))
    for name in names:
        assert spec.NAME_RE.match(name), name
    for key in ("end_to_end", "per_layer"):
        for metric in manifest[key]:
            assert UNIT_RE.match(metric["unit"]), metric
            assert metric["better"] in ("lower", "higher")


def test_every_layer_has_its_three_traced_metrics():
    declared = {m.name for m in spec.TRACED_METRICS}
    for layer in spec.LAYERS:
        for suffix in ("self_us_per_event", "self_frac", "calls_in_per_event"):
            assert f"{layer}.{suffix}" in declared


def test_moves_point_at_real_metrics_and_workloads():
    gated = {m.name for m in spec.CONTRACT_END_TO_END}
    for metric in spec.PER_LAYER:
        for move in metric.moves:
            name, _, workload = move.partition("@")
            assert name in gated and workload in spec.WORKLOAD_NAMES, move


def test_layer_of():
    assert spec.layer_of("kernel/kapi.py") == "kapi"
    assert spec.layer_of("kernel/kernel.py") == "kernel"
    assert spec.layer_of("alps/agent.py") == "alps.agent"
    assert spec.layer_of("alps/algorithm.py") == "alps.algorithm"
    assert spec.layer_of("sharetree/resilience.py") == "sharetree"
    assert spec.layer_of("units.py") == "other"
    assert spec.layer_of("metrics/accuracy.py") == "other"
