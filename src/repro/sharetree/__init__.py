"""Hierarchical share trees and the sharded multi-cell control plane.

The architectural layer that turns "N processes, N shares" into
"tenants are subtrees" (docs/share_tree.md):

* :class:`ShareTree` / :class:`ShareNode` — recursive proportional
  allocation (Solaris-SRM-style), resolved to exact flat integer
  shares for the unmodified Figure 3 algorithm, with per-subtree
  admission gates;
* :class:`ShardedAlpsPlane` — many concurrent ALPS cells across
  simulated SMP cores, each owning whole subtrees, with a rebalancer
  migrating subtrees between cells as weights change;
* :func:`demo_tree` — the worked example used by the docs chapter and
  ``repro top --tree``;
* :class:`PlaneResilience` / :class:`PlaneResilienceConfig` — the
  plane's fault-tolerance stack (per-cell supervision with re-homing,
  journaled two-phase migrations, epoch-fenced salvage; docs chapter
  "Plane fault tolerance").
"""

from repro._surface import lazy_surface

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "PlaneResilience": "repro.sharetree.resilience",
    "PlaneResilienceConfig": "repro.sharetree.resilience",
    "ShardedAlpsPlane": "repro.sharetree.plane",
    "ShareNode": "repro.sharetree.tree",
    "ShareTree": "repro.sharetree.tree",
    "demo_tree": "repro.sharetree.tree",
})
