"""Cache-key stability: equal configs hash equal, any change moves the key.

The content-addressed cache is only sound if (a) the same logical
configuration produces the same key in every process and under every
dict ordering, and (b) every semantically meaningful change — seed,
quantum, fault plan, kernel config, or library source — produces a
different key.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.kernel.kconfig import KernelConfig
from repro.sweep.cache import cache_key, canonical_json, canonicalize, logical_key
from repro.sweep.fingerprint import clear_fingerprint_cache, code_fingerprint
from repro.workloads.shares import ShareDistribution

PARAMS = {
    "model": "skewed",
    "n": 10,
    "quantum_ms": 12.5,
    "cycles": 200,
    "seeds": [0, 1, 2],
}


def test_same_key_across_dict_orderings():
    reordered = dict(reversed(list(PARAMS.items())))
    assert PARAMS == reordered
    assert cache_key("fig4", PARAMS, "fp") == cache_key("fig4", reordered, "fp")
    assert logical_key("fig4", PARAMS) == logical_key("fig4", reordered)


def test_same_key_across_processes():
    src = Path(repro.__file__).resolve().parent.parent
    code = (
        "from repro.sweep.cache import cache_key\n"
        "print(cache_key('fig4', {'seeds': [0, 1, 2], 'cycles': 200,"
        " 'quantum_ms': 12.5, 'n': 10, 'model': 'skewed'}, 'fp'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="random")
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, env=env,
    )
    assert out.stdout.strip() == cache_key("fig4", PARAMS, "fp")


@pytest.mark.parametrize(
    "change",
    (
        {"seeds": [0, 1, 3]},
        {"quantum_ms": 12.500001},
        {"n": 11},
        {"cycles": 199},
    ),
)
def test_changed_param_changes_key(change):
    assert cache_key("fig4", dict(PARAMS, **change), "fp") != cache_key(
        "fig4", PARAMS, "fp"
    )


def test_experiment_id_and_fingerprint_are_part_of_the_key():
    assert cache_key("fig4", PARAMS, "fp") != cache_key("fig5", PARAMS, "fp")
    assert cache_key("fig4", PARAMS, "fp") != cache_key("fig4", PARAMS, "fp2")
    # ... but the logical key ignores the fingerprint (that is its job).
    assert logical_key("fig4", PARAMS) == logical_key("fig4", PARAMS)


def test_changed_fault_plan_changes_key():
    from repro.experiments.robustness import ROBUSTNESS_EXPERIMENT

    base = {"fault_rate": 0.1}
    faster = {"fault_rate": 0.2}
    no_crash = {"fault_rate": 0.1, "agent_crash": False}
    fp = "fp"
    keys = {
        cache_key(ROBUSTNESS_EXPERIMENT, params, fp)
        for params in (base, faster, no_crash)
    }
    assert len(keys) == 3


def test_dataclasses_and_enums_canonicalize_structurally():
    cfg = canonicalize(KernelConfig())
    assert cfg["__dataclass__"].endswith("KernelConfig")
    changed = canonicalize(KernelConfig(ctx_switch_us=0))
    assert cfg != changed
    assert canonical_json({"k": KernelConfig()}) != canonical_json(
        {"k": KernelConfig(ctx_switch_us=0)}
    )
    enum_form = canonicalize(ShareDistribution.SKEWED)
    assert enum_form["name"] == "SKEWED"


def test_numpy_scalars_canonicalize_to_exact_python_values():
    assert canonicalize(np.int64(7)) == 7
    assert canonicalize(np.float64(0.1)) == 0.1
    assert canonical_json({"a": np.int64(7)}) == canonical_json({"a": 7})


def test_uncanonicalizable_values_are_rejected():
    with pytest.raises(TypeError, match="canonicalize"):
        canonical_json({"fn": lambda: None})


def test_monkeypatched_module_source_changes_fingerprint(tmp_path, monkeypatch):
    pkg = tmp_path / "fp_probe_pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("X = 1\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        clear_fingerprint_cache()
        before = code_fingerprint(("fp_probe_pkg",))
        # Memoized until explicitly cleared.
        (pkg / "__init__.py").write_text("X = 2\n")
        assert code_fingerprint(("fp_probe_pkg",)) == before
        clear_fingerprint_cache()
        after = code_fingerprint(("fp_probe_pkg",))
    finally:
        sys.modules.pop("fp_probe_pkg", None)
        clear_fingerprint_cache()
    assert before != after
    assert cache_key("e", PARAMS, before) != cache_key("e", PARAMS, after)


def test_repro_fingerprint_is_stable_within_a_process():
    assert code_fingerprint() == code_fingerprint()
