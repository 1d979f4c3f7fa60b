"""Entry point for both ``python -m benchmarks.ledger`` and
``python3 benchmarks/ledger/__main__.py`` (the form ``BENCHMARK.json`` names)."""

import os
import sys

if __package__ in (None, ""):
    # Run as a file: this directory is sys.path[0], which would expose the
    # package's modules as top-level names.  Put the repo root there instead.
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[0] = os.path.dirname(os.path.dirname(here))
    from benchmarks.ledger.cli import main
else:
    from .cli import main

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
