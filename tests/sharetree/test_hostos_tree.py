"""HostAlps with an attached share tree (no live processes needed)."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.errors import HostOSError
from repro.hostos.controller import HostAlps
from repro.sharetree import ShareTree


def test_flat_tree_attach_leaves_shares_untouched():
    shares = {11: 1, 12: 2, 13: 4}
    tree = ShareTree.flat(shares)
    assert tree.effective_shares() == shares  # mapping form: sids = pids
    bare = HostAlps(dict(shares), quantum_s=0.05)
    treed = HostAlps(dict(shares), quantum_s=0.05, sharetree=tree)
    assert {
        pid: s.share for pid, s in treed.core.subjects.items()
    } == {pid: s.share for pid, s in bare.core.subjects.items()}


def test_nonflat_tree_resolves_effective_shares_at_attach():
    tree = ShareTree()
    tree.group("g", 4)
    tree.leaf("g/a", sid=11, weight=1)
    tree.leaf("g/b", sid=12, weight=1)
    tree.leaf("c", sid=13, weight=1)
    alps = HostAlps({11: 1, 12: 1, 13: 1}, quantum_s=0.05, sharetree=tree)
    assert {
        pid: s.share for pid, s in alps.core.subjects.items()
    } == tree.effective_shares()


def test_path_submit_requires_a_tree():
    alps = HostAlps({os.getpid(): 1}, quantum_s=0.05)
    with pytest.raises(HostOSError):
        alps.submit_pid(os.getpid(), 1, path="g/x")
    with pytest.raises(HostOSError):
        alps.set_tree_weight("g", 2)


def test_tree_submit_places_the_pid_and_reweighs():
    tree = ShareTree()
    tree.group("g", 2)
    tree.leaf("g/a", sid=os.getpid(), weight=1)
    alps = HostAlps({os.getpid(): 1}, quantum_s=0.05, sharetree=tree)
    proc = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    try:
        child = proc.pid
        assert alps.submit_pid(child, 1, path="g/b")
        assert tree.find_sid(child) is not None
        assert alps.core.subjects[child].share == tree.effective_shares()[child]
    finally:
        proc.kill()
        proc.wait()


def test_set_tree_weight_reweighs_the_core():
    tree = ShareTree()
    tree.group("g", 1)
    tree.leaf("g/a", sid=os.getpid(), weight=1)
    tree.group("h", 1)
    tree.leaf("h/b", sid=1, weight=1)
    alps = HostAlps({os.getpid(): 1, 1: 1}, quantum_s=0.05, sharetree=tree)
    alps.set_tree_weight("g", 3)
    eff = tree.effective_shares()
    assert eff[os.getpid()] == 3 * eff[1]
    assert alps.core.subjects[os.getpid()].share == eff[os.getpid()]
