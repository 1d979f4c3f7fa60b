"""What each entry point imports: a run loads only the layers it uses.

Every probe runs in a fresh interpreter, so what this test session has
already imported cannot hide a module the entry point pulls in.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]

#: The kernel-only path the ``kernel_decay_3000`` benchmark drives.
DECAY_RUN = """
from repro import Engine
from repro.kernel import make_kernel
from repro.workloads.spinner import spinner_behavior
engine = Engine(seed=0)
kernel = make_kernel(engine)
for i in range(3):
    kernel.spawn(f"p{i}", spinner_behavior())
engine.run_until(2_000_000)
"""

#: Layers a bare kernel run must not load.
OPTIONAL_LAYERS = (
    "repro.alps", "repro.resilience", "repro.faults", "repro.overload",
    "repro.sharetree", "repro.obs", "repro.experiments",
)


def _probe(code: str):
    """Run ``code`` in a fresh interpreter; its last line, as JSON."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True,
        text=True, env=env,
    ).stdout
    return json.loads(out.splitlines()[-1])


def loaded_after(statement: str) -> set[str]:
    """Every module a fresh interpreter holds after ``statement``."""
    return set(_probe(
        f"{statement}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    ))


def repro_modules(modules: set[str]) -> set[str]:
    return {m for m in modules if m == "repro" or m.startswith("repro.")}


def _under(modules: set[str], packages) -> set[str]:
    return {m for m in modules for p in packages if m == p or m.startswith(p + ".")}


def test_decay_path_loads_no_optional_layer():
    loaded = repro_modules(loaded_after(DECAY_RUN))
    assert not _under(loaded, OPTIONAL_LAYERS)
    assert len(loaded) <= 25, sorted(loaded)


def test_bare_import_loads_nothing_else():
    assert repro_modules(loaded_after("import repro")) == {"repro", "repro._surface"}


def test_host_controller_loads_no_numpy_and_no_simulator():
    loaded = loaded_after("import repro.hostos.controller")
    assert "numpy" not in loaded
    assert not _under(loaded, ("repro.sim", "repro.kernel.kernel"))
    assert not _under(loaded, OPTIONAL_LAYERS[1:])


def test_cli_main_loads_no_numpy():
    loaded = loaded_after("import repro.cli.main")
    assert "numpy" not in loaded
    assert not _under(loaded, ("repro.kernel",))


def _packages() -> list[str]:
    names = ["repro"]
    for info in pkgutil.walk_packages([str(SRC / "repro")], prefix="repro."):
        if info.ispkg:
            names.append(info.name)
    return names


def test_every_package_surface_resolves_and_lists_its_names():
    """Each name in a package's ``__all__`` resolves (in a fresh
    interpreter, so nothing resolved it eagerly first) and is in
    ``dir()``."""
    assert _probe(
        "import importlib, json\n"
        "bad = []\n"
        f"for name in {_packages()!r}:\n"
        "    module = importlib.import_module(name)\n"
        "    for attr in module.__all__:\n"
        "        if attr not in dir(module):\n"
        "            bad.append(f'{name}.{attr} not in dir()')\n"
        "        try:\n"
        "            getattr(module, attr)\n"
        "        except Exception as exc:\n"
        "            bad.append(f'{name}.{attr}: {exc!r}')\n"
        "print(json.dumps(bad))"
    ) == []


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from repro.kernel import no_such_name  # noqa: F401


def test_every_benchmark_symbol_resolves():
    """The benchmark ledger reads ``repro`` through one table of
    ``(module, attribute)`` pairs; one that stops resolving would turn
    into a missing metric."""
    from benchmarks.ledger.symbols import TABLE

    for name, (module, attr) in TABLE.items():
        assert hasattr(importlib.import_module(module), attr), name
