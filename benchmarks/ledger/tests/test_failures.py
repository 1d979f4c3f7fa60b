"""Failures are counted, optional targets may vanish, end-to-end ones may not."""

import dataclasses
import io
import json
import math

import pytest

from benchmarks.ledger import cli, micro, runner, spec, symbols, worker, workloads
from benchmarks.ledger.runner import ROOT

SMOKE = spec.PROFILES["smoke"]


@pytest.fixture
def census():
    """Undo whatever census the test installs on ``Engine``."""
    yield workloads.CENSUS
    engine_cls = symbols.sym("Engine")
    for name, original in workloads.CENSUS.originals.items():
        setattr(engine_cls, name, original)
    workloads.CENSUS.originals.clear()


def test_failing_cell_raises_failed_frac(monkeypatch, census):
    real = workloads.run_table2_cell

    def flaky(shares, seed, horizon_us, layers=frozenset()):
        if len(shares) == 10 and shares[0] == shares[-1]:  # the equal n=10 cells
            raise RuntimeError("injected")
        return real(shares, seed, horizon_us, layers)

    monkeypatch.setattr(workloads, "run_table2_cell", flaky)
    stdin = io.StringIO('{"op": "run"}\n{"op": "quit"}\n')
    stdout = io.StringIO()
    worker.serve("table2_bare", 0, "smoke", ROOT, "/nonexistent", stdin, stdout)
    ready, reply = (json.loads(line) for line in stdout.getvalue().splitlines())
    assert ready["ready"]
    assert reply["attempted"] == 27 and reply["failed"] == 3
    assert all("injected" in why for why in reply["failures"])

    tally = runner.Tally("table2_bare")
    tally.add(reply)
    tally.setups = tally.raw_setups = [1.0]
    entry = tally.end_to_end()
    assert entry["failed_frac"]["value"] == pytest.approx(3 / 27)


def test_failed_workload_sets_the_exit_code(monkeypatch, tmp_path, capsys):
    def fake_run(seed, profile):
        return {
            "schema": 1, "seed": seed, "profile": profile,
            "machine": {}, "workloads": {}, "per_layer": {}, "notes": [],
            "correct": False,
        }

    monkeypatch.setattr(runner, "run_ledger", fake_run)
    assert cli.main(["run", "--smoke", "--out", str(tmp_path / "r.json")]) == 1
    assert json.loads((tmp_path / "r.json").read_text())["correct"] is False


def test_digest_instability_is_a_failure():
    tally = runner.Tally("web_sec5")
    reply = {
        "wall_s": 1.0, "raw_wall_s": 1.1, "op_ms": [], "attempted": 1, "failed": 0, "failures": [],
        "sim_digest": "a", "violations": [],
    }
    tally.add(reply)
    tally.add({**reply, "sim_digest": "b"})
    assert tally.failed == 1 and "differs between repeats" in tally.failures[0]


@dataclasses.dataclass
class FakeVerdict:
    name: str
    ok: bool
    detail: str = "fake"


@dataclasses.dataclass
class FakeEpisode:
    error_pct: float
    invariants: list


CAMPAIGN_SEEDS = []


def fake_campaign(seed, *, suite, episodes, workers, cache):
    """Every suite's episode 1 breaks two invariants; the rest hold."""
    CAMPAIGN_SEEDS.append(seed)
    report = type("Report", (), {})()
    report.episodes = [
        FakeEpisode(1.0, [FakeVerdict("bounded_fairness", i != 1),
                          FakeVerdict("no_wedged_process", i != 1)])
        for i in range(episodes)
    ]
    return report


def test_chaos_verdicts_are_failed_operations(monkeypatch):
    monkeypatch.setitem(symbols.TABLE, "run_chaos_campaign", (__name__, "fake_campaign"))
    sizes = dataclasses.replace(SMOKE, chaos_episodes=4)
    out = workloads.build("chaos_campaign", 7, sizes)()
    assert out.attempted == 12 and out.failed == 3  # one per episode, not per verdict
    assert len(out.violations) == 6
    assert {"suite": "overload", "episode": 1, "invariant": "bounded_fairness",
            "detail": "fake"} in out.violations
    assert "overload ep1" in " ".join(out.failures)

    tally = runner.Tally("chaos_campaign")
    tally.add({**dataclasses.asdict(out), "wall_s": 1.0, "raw_wall_s": 1.1})
    tally.setups = tally.raw_setups = [1.0]
    assert tally.end_to_end()["failed_frac"]["value"] == pytest.approx(0.25)


def test_contract_form_draws_chaos_seeds_from_the_clean_pool(monkeypatch):
    monkeypatch.setitem(symbols.TABLE, "run_chaos_campaign", (__name__, "fake_campaign"))
    contract = spec.PROFILES["contract"]
    pool = contract.chaos_seed_pool
    assert len(pool) == len(set(pool)) >= 8
    del CAMPAIGN_SEEDS[:]
    workloads.build("chaos_campaign", len(pool) + 2, contract)()
    assert set(CAMPAIGN_SEEDS) == {pool[2]}
    assert spec.PROFILES["standard"].chaos_seed_pool == ()  # ledger run: as given


def test_missing_optional_target_is_skipped_not_fatal(monkeypatch, tmp_path):
    monkeypatch.setitem(
        symbols.TABLE, "MemoryJournal", ("repro.resilience.journal", "GoneJournal"))
    monkeypatch.setitem(
        symbols.TABLE, "KERNEL_BACKENDS", ("benchmarks.ledger.tests.test_failures",
                                           "FEWER_BACKENDS"))
    wanted = {"resilience.journal_append_us", "kernel.batch.n20_us_per_event",
              "sim.dispatch_us_per_event"}
    all_groups = micro.groups(str(tmp_path))
    monkeypatch.setattr(micro, "groups", lambda scratch: [
        g for g in all_groups if wanted & set(g[0])])
    results, _notes = micro.run_micro(0, str(tmp_path))
    assert results["resilience.journal_append_us"]["value"] is None
    assert "missing" in results["resilience.journal_append_us"]["skipped"]
    assert results["kernel.batch.decay3000_us_per_event"]["value"] is None
    assert "not registered" in results["kernel.batch.n20_us_per_event"]["skipped"]
    assert results["sim.dispatch_us_per_event"]["value"] > 0


FEWER_BACKENDS = frozenset({"strict", "optimized", "resident"})


def test_contract_form_reports_a_skipped_metric_as_nan(monkeypatch, capsys):
    gone = "kernel.batch.n20_us_per_event"

    def fake_run(seed, profile, workloads, *, seconds, timed, traced):
        assert (profile, list(workloads), timed, traced) == (
            "contract", ["web_sec5"], False, True)
        per_layer = {m.name: {"value": 1.0, "unit": m.unit} for m in spec.PER_LAYER}
        per_layer[gone] = {"value": None, "unit": "us/event", "skipped": "missing"}
        entry = {"per_layer": {}, "failures": [], "failed": 0, "attempted": 2}
        return {"workloads": {"web_sec5": entry}, "per_layer": per_layer}

    monkeypatch.setattr(runner, "run_ledger", fake_run)
    assert cli.main(["--workload", "web_sec5", "--seed", "0",
                     "--seconds", "1", "--trace", "1"]) == 0
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert math.isnan(last["metrics"][gone]["value"])  # not -1: lower is better
    assert last["metrics"]["sim.self_frac"]["value"] == 1.0
    assert last["correct"] is True and last["attempted"] == 2


def test_backends_come_from_the_registry(monkeypatch):
    monkeypatch.setitem(
        symbols.TABLE, "KERNEL_BACKENDS", ("benchmarks.ledger.tests.test_failures",
                                           "MORE_BACKENDS"))
    assert micro.backend_names()[-1] == "zeta"


MORE_BACKENDS = frozenset({"strict", "optimized", "batch", "resident", "zeta"})


def test_end_to_end_workload_may_not_be_skipped(monkeypatch):
    monkeypatch.setitem(
        symbols.TABLE, "run_webserver_experiment", ("repro.experiments.webserver", "gone"))
    with pytest.raises(symbols.MissingTarget):
        workloads.build("web_sec5", 0, SMOKE)


def test_refuses_a_directory_without_the_source(monkeypatch, tmp_path):
    monkeypatch.setattr(runner, "ROOT", str(tmp_path))
    with pytest.raises(runner.LedgerError):
        runner.require_checkout()
    assert cli.main(["--workload", "web_sec5", "--seed", "0",
                     "--seconds", "1", "--trace", "0"]) == 2
