"""The repo's perf ledger: six named workloads, end-to-end and per-layer
metrics, and a traced layer attribution — the simulator's own version of
the paper's Table 1 / Figure 5 cost breakdown.

Entry points (see ``README.md`` beside this file):

* ``python -m benchmarks.ledger run --seed 0`` — every workload, every
  metric, one machine-readable result;
* ``python -m benchmarks.ledger diff A.json B.json`` — the comparator;
* ``python3 benchmarks/ledger/__main__.py --workload W --seed N
  --seconds S --trace 0|1`` — the one-workload form ``BENCHMARK.json``
  declares.

The package measures ``repro`` from outside: it imports nothing from it
at module import time (symbols resolve lazily through
:mod:`benchmarks.ledger.symbols`) and changes nothing under ``src/``.
"""
