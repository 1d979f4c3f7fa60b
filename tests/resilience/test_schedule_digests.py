"""Faulted schedules, pinned byte for byte.

The chaos payloads and the faulted robustness cell exercise every path
around the agent's loop: crashes and their restarts, journaled
recovery and reconciliation, stalls, supervision and stand-down, and a
plane cell's crash, tear and re-home.  A change to how the loop or its
host is written must leave each of them byte-identical.  The digests
were computed before the agent's loop was rewritten as a generator.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.faults.plan import default_fault_plan
from repro.perf.differential import fingerprint_run
from repro.resilience.chaos import run_chaos_episode
from repro.sweep import codec
from repro.units import sec

#: sha256 of ``repr(codec.encode(episode))`` per (suite, variant, seed):
#: the variant is the plane suite's ``plane_kind``, or ``stand-down`` for
#: a resilience episode whose restart budget of 1 runs out.
EPISODE_DIGESTS = {
    ("resilience", None, 0): (
        "fa55914751c69ee190b6fdd98eebbd81048749acc88bb56c36dd2fa614a23937"
    ),
    ("resilience", None, 1): (
        "c93cea54f673734d05897c91336e690db2e5f625b08b7d37720aa06e26d31108"
    ),
    ("resilience", "stand-down", 0): (
        "15da23e6529b15905be03c4f1f475535e25e7a5276626eb7ecf5ca1396b8e44c"
    ),
    ("resilience", "stand-down", 1): (
        "28efc33068a2d8b331bca626dfcb11c10c95fb2d65b62bcb76e828031f94c0a5"
    ),
    ("overload", None, 0): (
        "70ee53e8914f9f3162b28f779d78846caaf387c5245ef75f695e4d3e6d52d473"
    ),
    ("overload", None, 1): (
        "28ed1bb2fe89e2d685a224b35782a437da65019db7923e0c863b13e344a25094"
    ),
    ("plane", "crash", 0): (
        "181648c3488b42588d238d0f34b0b0ee254975b9d98809656edc38e127a11edb"
    ),
    ("plane", "crash", 1): (
        "b27498c0d0d1c2494c81a2f925cc0afa77a03934af468612647c0a86a088cc18"
    ),
    ("plane", "tear", 0): (
        "3b7cfff169de6e39f07457310dda14c41cc888f8413a6fbfd8368a44dd3a19cc"
    ),
    ("plane", "tear", 1): (
        "38238f42daa6e26262e4afaf1b41cef0f12f7c88badafa0613208dc69ce9a026"
    ),
    ("plane", "rehome", 0): (
        "67020cd21deb1729c7e01c25c5559934cbc28f63215301a4f8628b0d01ad8e90"
    ),
    ("plane", "rehome", 1): (
        "1de9b1afb1f4afd7006cafb8cab841f7dec82b66490cd834ddbebd61a134124e"
    ),
}

#: sha256 of the robustness cell's fingerprint (cycle log, engine trace
#: and the injector's trace lines): ``default_fault_plan(0.1)`` adds an
#: agent crash, and an injector without a supervisor hosts the agent.
ROBUSTNESS_DIGEST = (
    "831df9617351cd260554b35f737e60261786298d8f4cb55c4845f24786cdc683"
)

ROBUSTNESS_HORIZON_US = sec(4)


def episode_digest(suite: str, variant, seed: int) -> str:
    if variant == "stand-down":
        kwargs = {"restart_budget": 1}
    elif variant is not None:
        kwargs = {"plane_kind": variant}
    else:
        kwargs = {}
    episode = run_chaos_episode(
        seed, 0.05, suite=suite, cycles=20, warmup_cycles=2, **kwargs
    )
    return hashlib.sha256(repr(codec.encode(episode)).encode()).hexdigest()


def robustness_fingerprint():
    plan = default_fault_plan(0.1, seed=0, horizon_us=ROBUSTNESS_HORIZON_US)
    return fingerprint_run(
        [1, 2, 3], seed=0, horizon_us=ROBUSTNESS_HORIZON_US, fault_plan=plan
    )


def robustness_digest(fp) -> str:
    h = hashlib.sha256()
    h.update(fp.cycle_log)
    h.update(b"\x00")
    h.update(fp.trace)
    h.update(f"\x00{fp.events}\x00{fp.final_now}".encode())
    return h.hexdigest()


@pytest.mark.parametrize(
    "suite,variant,seed",
    list(EPISODE_DIGESTS),
    ids=lambda v: "-" if v is None else str(v),
)
def test_chaos_episode_payload_is_pinned(suite, variant, seed):
    assert episode_digest(suite, variant, seed) == EPISODE_DIGESTS[
        (suite, variant, seed)
    ]


def test_faulted_robustness_cell_is_pinned():
    fp = robustness_fingerprint()
    # Not vacuous: the agent crashed, restarted and was stalled.
    assert b"agent-crash" in fp.trace
    assert b"stall" in fp.trace
    assert robustness_digest(fp) == ROBUSTNESS_DIGEST
