"""Benchmark harness helpers.

Each benchmark file regenerates one paper table/figure: it runs the
experiment under pytest-benchmark timing, prints the same rows/series
the paper reports (run with ``-s`` to see them inline), and writes a
CSV copy under ``benchmarks/results/``.  A file that reproduces a
``repro run`` artifact takes its cells, table and CSV from the
artifact's row in :mod:`repro.experiments.registry`
(:func:`reproduce`).
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.analysis.export import write_csv

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def emit(title: str, body: str) -> None:
    """Print a labelled result block (visible with ``pytest -s``)."""
    line = "=" * 72
    # Write to stderr as well so output survives default capture in logs.
    for stream in (sys.stdout,):
        print(f"\n{line}\n{title}\n{line}\n{body}\n", file=stream)


def reproduce(benchmark, results_dir: Path, row, csv_name: str, cells=None):
    """Time one registry row's sweep, print its table, write its CSV.

    ``cells`` defaults to the row's quick protocol at seed 0; the sweep
    runs serially and uncached.  Returns the decoded points.
    """
    cells = row.cells() if cells is None else cells
    points = benchmark.pedantic(
        lambda: row.run(cells).values, rounds=1, iterations=1
    )
    emit(row.title, row.render(points))
    write_csv(results_dir / csv_name, row.csv_rows(points))
    return points
