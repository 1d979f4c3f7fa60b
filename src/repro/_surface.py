"""Lazy package surfaces (PEP 562).

Each package ``__init__`` names its public surface in one table, public
name -> defining module, and hands it to :func:`lazy_surface`::

    __getattr__, __dir__, __all__ = lazy_surface(__name__, {
        "Engine": "repro.sim.engine",
    })

Nothing in the table is imported until first access, so importing a
package (or any module below it) costs only the modules a run uses.
A resolved name is cached in the package namespace, so the hook runs
once per name.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping


def lazy_surface(
    package: str, table: Mapping[str, str]
) -> tuple[Callable[[str], Any], Callable[[], list[str]], list[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package`` from ``table``."""
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        if name not in table:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(table[name]), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | table.keys())

    return __getattr__, __dir__, sorted(table)
