"""Hierarchical share trees: recursive proportional allocation.

ALPS (the paper) manages one *flat* group: N subjects, N integer
shares, proportions ``share_i / S``.  Solaris SRM — Gunther's "Unfair
Advantage" and "UNIX Resource Managers" capacity-planning papers — show
the production-scale generalisation: entitlements form a *tree* (users
→ groups → processes) and each node's fraction of the machine is its
weight relative to its **siblings**, recursively::

    f(node) = f(parent) * weight(node) / sum(weight(sibling))

:class:`ShareTree` resolves that recursion into the flat integer shares
the unmodified :class:`~repro.alps.algorithm.AlpsCore` understands, so
hierarchical policy rides on the exact Figure 3 algorithm.

Effective-share arithmetic (exact, and flat-identical)
------------------------------------------------------
For leaf ℓ let ``N_ℓ`` be the product of weights along its path (root
excluded) and ``D_ℓ`` the product of each ancestor level's
sibling-weight sum, so ``f(ℓ) = N_ℓ / D_ℓ`` exactly.  With
``D = lcm(all D_ℓ)`` the integer

    eff(ℓ) = N_ℓ * D / D_ℓ

preserves every ratio exactly (no floats, no rounding).  The products
are deliberately **unreduced** — mirroring the flat model, which never
rescales shares by their GCD — so a depth-1 tree yields each leaf's raw
weight verbatim: ``D_ℓ = S`` for every leaf, hence ``eff(ℓ) =
weight(ℓ)``.  That identity is what makes attaching a flat-equivalent
tree schedule-invisible (``AlpsCore.set_share`` no-ops on a zero
delta); the differential tests in
``tests/sharetree/test_flat_equivalence.py`` pin it byte-for-byte.

Admission composes per subtree: any group node may carry a bounded
:class:`~repro.overload.admission.AdmissionQueue` (``capacity=``), and
arrivals into that subtree queue FIFO against the subtree's *own*
member count — one noisy tenant's herd cannot consume another tenant's
admission headroom (docs/share_tree.md).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterator, Mapping, Optional, Sequence, Union

from repro.errors import SchedulerConfigError
from repro.overload.admission import AdmissionQueue


class ShareNode:
    """One node of a share tree: a group or (with a ``sid``) a leaf."""

    __slots__ = ("name", "weight", "parent", "children", "sid", "admission")

    def __init__(
        self,
        name: str,
        weight: int,
        parent: Optional["ShareNode"],
        *,
        sid: Optional[int] = None,
        capacity: Optional[int] = None,
    ) -> None:
        self.name = name
        self.weight = weight
        self.parent = parent
        #: Insertion-ordered children (determinism: every walk below
        #: iterates in creation order).
        self.children: dict[str, ShareNode] = {}
        #: Scheduling subject id; ``None`` marks a group node.
        self.sid = sid
        #: Per-subtree admission gate; ``None`` admits unboundedly.
        self.admission: Optional[AdmissionQueue] = (
            AdmissionQueue(capacity) if capacity is not None else None
        )

    @property
    def is_leaf(self) -> bool:
        return self.sid is not None

    @property
    def path(self) -> str:
        """Slash-joined path from the root (the root itself is ``""``)."""
        parts: list[str] = []
        node: Optional[ShareNode] = self
        while node is not None and node.parent is not None:
            parts.append(node.name)
            node = node.parent
        return "/".join(reversed(parts))

    @property
    def depth(self) -> int:
        """Edges between this node and the root."""
        d = 0
        node = self.parent
        while node is not None:
            d += 1
            node = node.parent
        return d

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = f"leaf sid={self.sid}" if self.is_leaf else "group"
        return f"ShareNode({self.path!r}, w={self.weight}, {kind})"


class ShareTree:
    """A weight tree resolving to flat integer shares for ``AlpsCore``.

    Paths are slash-joined names (``"tenants/alice/worker0"``); the
    root is the empty path.  Groups are created with :meth:`group`,
    leaves (the schedulable subjects) with :meth:`leaf`.  All weights
    are positive integers, like the paper's shares.
    """

    def __init__(self) -> None:
        self.root = ShareNode("", 1, None)
        self._by_sid: dict[int, ShareNode] = {}
        #: Group nodes carrying an admission queue (drain sweep set).
        self._gates: list[ShareNode] = []
        #: Leaves moved between cells by a plane rebalance
        #: (:meth:`note_migration`; surfaces as the
        #: ``alps_sharetree_migrations`` bridge counter).
        self.migrations = 0
        #: Weight mutations applied via :meth:`set_weight`.
        self.reweighs = 0

    # ------------------------------------------------------------------
    # Construction / mutation
    # ------------------------------------------------------------------
    def node(self, path: str) -> ShareNode:
        """Resolve ``path`` to its node; raises on a missing segment."""
        node = self.root
        if path:
            for part in path.split("/"):
                child = node.children.get(part)
                if child is None:
                    raise SchedulerConfigError(
                        f"share tree has no node {path!r} (missing {part!r})"
                    )
                node = child
        return node

    def _attach(
        self,
        path: str,
        weight: int,
        *,
        sid: Optional[int] = None,
        capacity: Optional[int] = None,
    ) -> ShareNode:
        if not path:
            raise SchedulerConfigError("cannot re-create the root node")
        if not isinstance(weight, int) or weight <= 0:
            raise SchedulerConfigError(
                f"weight for {path!r} must be a positive integer, got {weight!r}"
            )
        parent_path, _, name = path.rpartition("/")
        parent = self.node(parent_path)
        if parent.is_leaf:
            raise SchedulerConfigError(
                f"cannot attach {path!r} under leaf {parent.path!r}"
            )
        if name in parent.children:
            raise SchedulerConfigError(f"node {path!r} already exists")
        node = ShareNode(name, weight, parent, sid=sid, capacity=capacity)
        parent.children[name] = node
        if node.admission is not None:
            self._gates.append(node)
        return node

    def group(
        self, path: str, weight: int, *, capacity: Optional[int] = None
    ) -> ShareNode:
        """Create an internal group node (a tenant, user, or job class).

        ``capacity`` bounds the subtree's admitted membership with a
        FIFO :class:`AdmissionQueue` (docs/overload.md semantics, scoped
        to this subtree).
        """
        return self._attach(path, weight, capacity=capacity)

    def leaf(self, path: str, *, sid: int, weight: int) -> ShareNode:
        """Create a leaf bound to scheduling subject ``sid``."""
        if sid in self._by_sid:
            raise SchedulerConfigError(
                f"sid {sid} is already bound to {self._by_sid[sid].path!r}"
            )
        node = self._attach(path, weight, sid=sid)
        self._by_sid[sid] = node
        return node

    def set_weight(self, path: str, weight: int) -> None:
        """Reweight a node; every descendant leaf's fraction follows."""
        if not isinstance(weight, int) or weight <= 0:
            raise SchedulerConfigError(
                f"weight for {path!r} must be a positive integer, got {weight!r}"
            )
        node = self.node(path)
        if node is self.root:
            raise SchedulerConfigError("the root carries no weight")
        if node.weight != weight:
            node.weight = weight
            self.reweighs += 1

    def remove(self, path: str) -> ShareNode:
        """Prune a node (and its whole subtree) from the tree."""
        node = self.node(path)
        if node is self.root:
            raise SchedulerConfigError("cannot remove the root")
        assert node.parent is not None
        del node.parent.children[node.name]
        for n in self._walk(node):
            if n.sid is not None:
                del self._by_sid[n.sid]
            if n.admission is not None:
                self._gates.remove(n)
        return node

    def discard_sid(self, sid: int) -> bool:
        """Drop the leaf bound to ``sid`` if present (subject death)."""
        node = self._by_sid.get(sid)
        if node is None:
            return False
        self.remove(node.path)
        return True

    def find_sid(self, sid: int) -> Optional[ShareNode]:
        """The leaf bound to ``sid``, or None."""
        return self._by_sid.get(sid)

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def _walk(self, start: Optional[ShareNode] = None) -> Iterator[ShareNode]:
        """Depth-first, creation-order walk (start node included)."""
        stack = [self.root if start is None else start]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(list(node.children.values())))

    def nodes(self) -> list[ShareNode]:
        """Every node below the root, depth-first in creation order."""
        return [n for n in self._walk() if n is not self.root]

    def leaves(self, under: Optional[ShareNode] = None) -> list[ShareNode]:
        """Leaves below ``under`` (default: the whole tree), in order."""
        return [n for n in self._walk(under) if n.is_leaf]

    def subtrees(self) -> list[ShareNode]:
        """The root's children — the sharding unit of the plane."""
        return list(self.root.children.values())

    @property
    def node_count(self) -> int:
        return sum(1 for _ in self._walk()) - 1  # root excluded

    @property
    def leaf_count(self) -> int:
        return len(self._by_sid)

    @property
    def depth(self) -> int:
        """Deepest leaf's distance from the root (0 for an empty tree)."""
        return max((leaf.depth for leaf in self._by_sid.values()), default=0)

    # ------------------------------------------------------------------
    # Effective shares (the heart of the module)
    # ------------------------------------------------------------------
    def _terms(self, node: ShareNode) -> tuple[int, int]:
        """Unreduced path products ``(N, D)`` with ``f(node) = N/D``."""
        n = d = 1
        while node.parent is not None:
            n *= node.weight
            d *= sum(c.weight for c in node.parent.children.values())
            node = node.parent
        return n, d

    def _scale(self) -> int:
        """``lcm`` of every leaf's unreduced denominator (1 if empty)."""
        denoms = [self._terms(leaf)[1] for leaf in self.leaves()]
        return lcm(*denoms) if denoms else 1

    def fraction_of(self, path: str) -> Fraction:
        """A node's exact machine fraction under full contention."""
        n, d = self._terms(self.node(path))
        return Fraction(n, d)

    def effective_shares(self) -> dict[int, int]:
        """Flat integer shares, one per leaf sid, preserving all ratios.

        Depth-1 trees return each leaf's raw weight verbatim (see the
        module docstring) — the flat-equivalence identity.
        """
        scale = self._scale()
        shares: dict[int, int] = {}
        for leaf in self.leaves():
            n, d = self._terms(leaf)
            shares[leaf.sid] = n * (scale // d)  # type: ignore[index]
        return shares

    def effective_weight(self, path: str) -> int:
        """Any node's effective integer share on the leaves' scale.

        ``D(node)`` divides every descendant leaf's ``D_ℓ`` and hence
        the lcm, so this is always exact; children's effective weights
        sum to their parent's (the conservation property the Hypothesis
        tests pin at every level).
        """
        n, d = self._terms(self.node(path))
        return n * (self._scale() // d)

    # ------------------------------------------------------------------
    # Admission (per-subtree gates)
    # ------------------------------------------------------------------
    def admission_for(self, node: ShareNode) -> Optional[ShareNode]:
        """Nearest ancestor-or-self carrying an admission queue."""
        cur: Optional[ShareNode] = node
        while cur is not None:
            if cur.admission is not None:
                return cur
            cur = cur.parent
        return None

    def gates(self) -> list[ShareNode]:
        """Group nodes carrying an admission queue, in creation order."""
        return list(self._gates)

    @property
    def pending_admissions(self) -> int:
        """Entries waiting in any subtree's admission queue."""
        if not self._gates:
            return 0
        return sum(g.admission.depth for g in self._gates)  # type: ignore[union-attr]

    # ------------------------------------------------------------------
    # Bookkeeping hooks
    # ------------------------------------------------------------------
    def note_migration(self, count: int = 1) -> None:
        """Record leaves moved between cells (plane rebalancer hook)."""
        self.migrations += count

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def flat(
        cls, shares: Union[Sequence[int], Mapping[int, int]]
    ) -> "ShareTree":
        """The flat model as a depth-1 tree: leaf ``p{sid}`` per share.

        A sequence maps position to sid; a mapping uses its keys as
        sids directly (the ``HostAlps`` form, where sids are pids).
        ``ShareTree.flat(shares).effective_shares()`` reproduces the
        input exactly — attaching it to an agent is a schedule no-op.
        """
        tree = cls()
        items = (
            shares.items()
            if isinstance(shares, Mapping)
            else enumerate(shares)
        )
        for sid, share in items:
            tree.leaf(f"p{sid}", sid=sid, weight=share)
        return tree

    def check_conservation(self) -> None:
        """Assert children's effective weights sum to their parent's.

        Cheap enough for tests and the chaos-style invariants; raises
        :class:`SchedulerConfigError` on the first violation.
        """
        for node in self._walk():
            if not node.children:
                continue
            parent_eff = (
                sum(self.effective_shares().values())
                if node is self.root
                else self.effective_weight(node.path)
            )
            child_sum = sum(
                self.effective_weight(c.path) for c in node.children.values()
            )
            if child_sum != parent_eff:
                raise SchedulerConfigError(
                    f"conservation violated at {node.path!r}: "
                    f"children sum {child_sum} != parent {parent_eff}"
                )


def demo_tree() -> ShareTree:
    """The docs chapter's worked example, ready to attach.

    Tenant ``a`` (weight 3) runs a 2:1 pair of workers; tenants ``b``
    (weight 2) and ``c`` (weight 1) run one worker each.  Effective
    shares resolve to ``{0: 6, 1: 3, 2: 6, 3: 3}`` on a scale of 18 —
    half the machine to tenant ``a``, split 2:1 inside it.
    """
    tree = ShareTree()
    tree.group("a", 3)
    tree.leaf("a/a0", sid=0, weight=2)
    tree.leaf("a/a1", sid=1, weight=1)
    tree.group("b", 2)
    tree.leaf("b/b0", sid=2, weight=1)
    tree.group("c", 1)
    tree.leaf("c/c0", sid=3, weight=1)
    return tree
