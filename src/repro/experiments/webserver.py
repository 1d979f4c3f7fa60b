"""Section 5: isolating three shared-hosting users with ALPS.

Three prefork sites (users u1, u2, u3) on one single-CPU web server,
each driven by 325 closed-loop clients.  Without ALPS the kernel
spreads the CPU roughly evenly (paper: {29, 30, 40} req/s).  With one
ALPS scheduling the three *users* as principals with shares {1, 2, 3}
(Q = 100 ms, membership refresh 1 s), throughput is reapportioned
(paper: {18, 35, 53} req/s).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.alps.agent import spawn_alps
from repro.alps.config import AlpsConfig
from repro.alps.subjects import UserSubject
from repro.kernel.kernel import Kernel
from repro.sim.engine import Engine
from repro.units import SEC, ms, sec
from repro.webserver.apache import PreforkSite
from repro.webserver.clients import ClosedLoopClients
from repro.webserver.database import DatabaseServer
from repro.webserver.requests import RequestFactory

#: Site user ids.
SITE_UIDS = (1001, 1002, 1003)


@dataclass(slots=True, frozen=True)
class WebServerResult:
    """Throughputs (req/s) and latency medians with and without ALPS."""

    baseline_rps: tuple[float, float, float]
    alps_rps: tuple[float, float, float]
    shares: tuple[int, int, int]
    alps_overhead_pct: float
    db_utilization: float
    #: Median response latency per site (ms), kernel-only / with ALPS.
    baseline_p50_ms: tuple[float, float, float] = (0.0, 0.0, 0.0)
    alps_p50_ms: tuple[float, float, float] = (0.0, 0.0, 0.0)

    @property
    def baseline_fractions(self) -> tuple[float, ...]:
        total = sum(self.baseline_rps)
        return tuple(r / total for r in self.baseline_rps) if total else (0.0,) * 3

    @property
    def alps_fractions(self) -> tuple[float, ...]:
        total = sum(self.alps_rps)
        return tuple(r / total for r in self.alps_rps) if total else (0.0,) * 3


def _build(
    *,
    seed: int,
    n_clients: int,
    max_workers: int,
    regulated: bool = False,
) -> tuple[Engine, Kernel, DatabaseServer, list[PreforkSite], list[ClosedLoopClients]]:
    engine = Engine(seed=seed)
    kernel = Kernel(engine)
    db = DatabaseServer(engine, kernel, capacity=2)
    sites: list[PreforkSite] = []
    clients: list[ClosedLoopClients] = []
    for i, uid in enumerate(SITE_UIDS):
        if regulated:
            from repro.webserver.regulation import RegulationPolicy, regulated_site

            site, _master, _mproc = regulated_site(
                kernel,
                db,
                name=f"site{i + 1}",
                uid=uid,
                policy=RegulationPolicy(max_workers=max_workers),
            )
        else:
            site = PreforkSite(
                kernel, db, name=f"site{i + 1}", uid=uid, max_workers=max_workers
            )
        factory = RequestFactory(rng=engine.rng.stream(f"requests:site{i + 1}"))
        drv = ClosedLoopClients(engine, site, factory, n_clients=n_clients)
        drv.start()
        sites.append(site)
        clients.append(drv)
    return engine, kernel, db, sites, clients


def run_webserver_experiment(
    *,
    shares: Sequence[int] = (1, 2, 3),
    quantum_ms: float = 100.0,
    n_clients: int = 325,
    max_workers: int = 50,
    warmup_s: float = 20.0,
    measure_s: float = 60.0,
    seed: int = 0,
    regulated: bool = False,
) -> WebServerResult:
    """Run the baseline and the ALPS-controlled configuration.

    ``regulated=True`` replaces fixed worker pools with Apache-style
    MinSpare/MaxSpare regulation (dynamic membership exercises the
    principals' once-per-second refresh, as in the paper's setup).
    """
    baseline = _run_one(
        shares=None,
        quantum_ms=quantum_ms,
        n_clients=n_clients,
        max_workers=max_workers,
        warmup_s=warmup_s,
        measure_s=measure_s,
        seed=seed,
        regulated=regulated,
    )
    controlled = _run_one(
        shares=tuple(shares),
        quantum_ms=quantum_ms,
        n_clients=n_clients,
        max_workers=max_workers,
        warmup_s=warmup_s,
        measure_s=measure_s,
        seed=seed,
        regulated=regulated,
    )
    return WebServerResult(
        baseline_rps=baseline[0],
        alps_rps=controlled[0],
        shares=tuple(shares),  # type: ignore[arg-type]
        alps_overhead_pct=controlled[1],
        db_utilization=controlled[2],
        baseline_p50_ms=baseline[3],
        alps_p50_ms=controlled[3],
    )


def _run_one(
    *,
    shares: Optional[tuple[int, ...]],
    quantum_ms: float,
    n_clients: int,
    max_workers: int,
    warmup_s: float,
    measure_s: float,
    seed: int,
    regulated: bool = False,
) -> tuple[
    tuple[float, float, float], float, float, tuple[float, float, float]
]:
    engine, kernel, db, sites, clients = _build(
        seed=seed,
        n_clients=n_clients,
        max_workers=max_workers,
        regulated=regulated,
    )
    alps_proc = None
    if shares is not None:
        subjects = [
            UserSubject(sid=i, share=share, uid=uid)
            for i, (share, uid) in enumerate(zip(shares, SITE_UIDS))
        ]
        cfg = AlpsConfig(quantum_us=ms(quantum_ms), principal_refresh_us=1 * SEC)
        alps_proc, _agent = spawn_alps(kernel, subjects, cfg, name="alps-web")
    lo = sec(warmup_s)
    hi = sec(warmup_s + measure_s)
    engine.run_until(hi)
    rps = tuple(drv.throughput(lo, hi) for drv in clients)
    overhead = (
        100.0 * kernel.getrusage(alps_proc.pid) / kernel.now if alps_proc else 0.0
    )
    util = db.utilization(kernel.now)
    from repro.metrics.latency import summarize_latencies

    p50s = tuple(
        summarize_latencies(drv.responses, window=(lo, hi)).p50_us / 1000
        for drv in clients
    )
    return rps, overhead, util, p50s  # type: ignore[return-value]
