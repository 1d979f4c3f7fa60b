"""The shipped examples must keep running (smoke, subprocess)."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

pytestmark = pytest.mark.slow


def run_example(name: str, *args: str, timeout: int = 240) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "mean per-cycle RMS relative error" in out
    assert "ALPS overhead" in out


def test_adaptive_mesh():
    out = run_example("adaptive_mesh.py")
    assert "Before refinement" in out
    assert "After refinement" in out


def test_multi_tenant():
    out = run_example("multi_tenant.py")
    assert "Table 3 (reproduced)" in out
    assert "average relative error" in out


@pytest.mark.hostos
def test_live_alps():
    out = run_example("live_alps.py", "1")
    assert "achieved" in out
    assert "cycles completed" in out
