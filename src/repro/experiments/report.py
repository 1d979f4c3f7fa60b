"""One-shot reproduction report: every artifact, one markdown file.

``python -m repro report`` runs benchmark-sized versions of every
experiment and writes a self-contained markdown report with
paper-vs-measured tables — a cheap way to re-validate the whole
reproduction after a change.
"""

from __future__ import annotations

import time
from pathlib import Path

#: The registry rows the report shows, in order.
REPORT_IDS = ("table1", "fig4", "fig5", "fig6", "fig7", "fig8", "sec5", "ablation")
#: Heading of the closing observability section.
OBS_HEADING = "Observability snapshot — canonical observed run"


def generate_report(
    *,
    seed: int = 0,
    quick: bool = True,
    path: str | Path = "reproduction_report.md",
    only: str | None = None,
    workers: int | None = None,
    no_cache: bool = False,
) -> Path:
    """Run all experiments and write the markdown report to ``path``.

    ``only`` filters sections by a case-insensitive substring (useful
    for partial regeneration and for fast tests).  Every experiment
    section dispatches through the content-addressed sweep cache, so a
    re-run after an interrupted or repeated ``repro report`` only
    recomputes cells whose configuration or code changed; ``no_cache``
    forces full recomputation and ``workers`` sizes the process pool.
    """
    from repro.experiments.registry import EXPERIMENTS, run_experiment

    def wanted(heading: str) -> bool:
        return only is None or only.lower() in heading.lower()

    sections: list[tuple[str, str]] = []
    t0 = time.time()
    for row in (EXPERIMENTS[key] for key in REPORT_IDS):
        if not wanted(row.heading):
            continue
        outcome = run_experiment(
            row, full=not quick, seed=seed, workers=workers, no_cache=no_cache
        )
        sections.append(
            (row.heading, f"{row.render(outcome.values)}\n\n{outcome.footer()}")
        )
    if wanted(OBS_HEADING):
        sections.append((OBS_HEADING, obs_snapshot(full=not quick, seed=seed)))

    out = Path(path)
    lines = [
        "# ALPS reproduction report",
        "",
        f"Generated by `python -m repro report` (seed {seed}, "
        f"{'quick' if quick else 'full'} protocol) in "
        f"{time.time() - t0:.0f} s.",
        "",
    ]
    for name, body in sections:
        lines.append(f"## {name}")
        lines.append("")
        lines.append("```")
        lines.append(body.rstrip())
        lines.append("```")
        lines.append("")
    out.write_text("\n".join(lines))
    return out


def obs_snapshot(*, full: bool, seed: int) -> str:
    """Canonical observed run: entitlement table + Table 1 cost spans.

    The report's observability section — everything below is produced
    by the ``repro.obs`` exporters from one observed workload, so the
    numbers are exactly reproducible from the seed.
    """
    from repro.alps.config import AlpsConfig
    from repro.obs import Observer
    from repro.obs.bridge import collect_workload
    from repro.obs.export import rows_to_markdown
    from repro.units import ms, sec
    from repro.workloads.scenarios import build_controlled_workload

    cw = build_controlled_workload(
        [1, 2, 4], AlpsConfig(quantum_us=ms(10.0)), seed=seed, observer=Observer()
    )
    cw.engine.run_until(sec(30 if full else 10))
    obs = collect_workload(cw, skip_cycles=5)
    reg = obs.metrics
    rows = []
    for sid in range(len(cw.shares)):
        lbl = {"sid": str(sid)}
        target = reg.get("alps_subject_target_fraction", lbl).value
        got = reg.get("alps_subject_attained_fraction", lbl).value
        rows.append(
            [sid, int(reg.get("alps_subject_share", lbl).value),
             f"{target:.1%}", f"{got:.1%}", f"{got - target:+.2%}"]
        )
    return "\n".join([
        "Shares 1:2:4, Q = 10 ms, skip 5 warm-up cycles "
        f"(seed {seed}, `python -m repro obs export`):\n",
        rows_to_markdown(["sid", "share", "target", "attained", "drift"], rows),
        f"\nRMS error {reg.get('alps_rms_error_pct').value:.2f}%, "
        f"overhead {reg.get('alps_overhead_fraction').value:.2%}, "
        f"{int(reg.get('alps_cycles_completed').value)} cycles, "
        f"{obs.events.emitted} structured events.\n",
        "Agent cost breakdown (virtual µs, Table 1 cost model):\n",
        obs.spans.format_breakdown(),
    ])
