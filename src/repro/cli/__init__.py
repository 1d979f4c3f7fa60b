"""Command-line interface: ``python -m repro <command>``.

Commands reproduce individual paper artifacts (``fig4``, ``sec5``, …),
run the live Linux controller (``live``), or print the experiment
index (``list``).
"""

from repro._surface import lazy_surface

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "main": "repro.cli.main",
})
