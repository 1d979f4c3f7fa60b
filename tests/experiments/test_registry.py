"""The experiment registry is the one source of ``repro list``/``run``."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import commands
from repro.cli.main import build_parser, main
from repro.experiments.registry import EXPERIMENTS, REGISTRY
from tests.test_import_footprint import loaded_after, repro_modules

#: Every ``repro`` module ``import repro.experiments.scalability`` may
#: load: the sweep ledger times this import, so it must not grow.  No
#: optional layer (faults, journal, supervisor, overload, share tree) is
#: among them.
SCALABILITY_IMPORTS = frozenset("""
repro repro._surface repro.alps repro.alps.agent repro.alps.algorithm
repro.alps.config repro.alps.costs repro.alps.instrumentation
repro.alps.policy repro.alps.state repro.alps.step repro.alps.subjects
repro.errors repro.experiments repro.experiments.common
repro.experiments.scalability repro.kernel repro.kernel.actions
repro.kernel.behaviors repro.kernel.kapi repro.kernel.kconfig
repro.kernel.kernel repro.kernel.loadavg repro.kernel.priorities
repro.kernel.process repro.kernel.runqueue repro.kernel.signals
repro.metrics repro.metrics.accuracy repro.metrics.breakdown
repro.metrics.overhead repro.obs repro.obs.registry repro.sim
repro.sim._fastloop repro.sim.clock repro.sim.engine repro.sim.event_queue
repro.sim.fastloop repro.sim.rng repro.sim.trace repro.sweep
repro.sweep.cache repro.sweep.codec repro.sweep.fingerprint
repro.sweep.scheduler repro.units repro.workloads repro.workloads.scenarios
repro.workloads.shares repro.workloads.spinner
""".split())


def test_list_prints_exactly_the_registry(capsys):
    assert main(["list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    listed = [tuple(line.split(None, 1)) for line in lines]
    assert listed == sorted((row.id, row.title) for row in REGISTRY)


def test_ids_are_unique_and_match_the_lookup():
    assert len({row.id for row in REGISTRY}) == len(REGISTRY)
    assert list(EXPERIMENTS.values()) == list(REGISTRY)


@pytest.mark.parametrize("key", sorted(EXPERIMENTS))
def test_every_id_parses_under_run(key):
    assert build_parser().parse_args(["run", key]).experiment == key


@pytest.mark.parametrize("key", sorted(EXPERIMENTS))
def test_smoke_is_accepted_exactly_where_a_smoke_grid_exists(
    key, monkeypatch, capsys
):
    runs = []
    monkeypatch.setattr(
        commands, "cmd_run", lambda row, **kwargs: runs.append(kwargs) or 0
    )
    if EXPERIMENTS[key].smoke:
        assert main(["run", key, "--smoke"]) == 0
        assert runs[0]["smoke"] is True
    else:
        with pytest.raises(SystemExit):
            main(["run", key, "--smoke"])
        assert not runs
        assert (
            "--smoke is only supported by 'run sharetree'"
            in capsys.readouterr().err
        )


@pytest.mark.parametrize("key", sorted(EXPERIMENTS))
def test_every_grid_is_nonempty(key):
    row = EXPERIMENTS[key]
    for full in (False, True):
        cells = row.cells(full=full, seed=7)
        assert cells
        assert all(cell.experiment == row.experiment for cell in cells)
    assert callable(row.point_fn)


def test_docs_name_exactly_the_registry_ids():
    root = Path(__file__).resolve().parents[2]
    ids = sorted(EXPERIMENTS)
    experiments_md = (root / "EXPERIMENTS.md").read_text(encoding="utf-8")
    assert f"python -m repro run <{'|'.join(ids)}>" in experiments_md
    readme = (root / "README.md").read_text(encoding="utf-8")
    listed = readme.split("# reproduce one:")[1].split("python -m repro")[0]
    assert listed.replace("#", " ").split() == ids


def test_cli_import_loads_no_experiment_module():
    loaded = loaded_after("import repro.cli.main")
    assert not {m for m in loaded if m.startswith("repro.experiments")}


def test_scalability_import_footprint_does_not_grow():
    loaded = repro_modules(loaded_after("import repro.experiments.scalability"))
    assert loaded - SCALABILITY_IMPORTS == set()
