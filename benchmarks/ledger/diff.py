"""``ledger diff A.json B.json``: the single regression comparator.

A is the parent, B the change.  One verdict per (metric, workload):

* timing metrics (a declared ``bound``): ``regressed`` when B's median is
  worse than A's by more than the bound; ``improved`` when it is better
  and the two interquartile ranges do not overlap (a single reading such
  as ``peak_rss_mb`` must be better by more than the bound); ``unresolved`` when
  either side's own spread (IQR / median) is wider than the bound and
  the samples overlap; else ``unchanged``;
* simulated statistics (``exact_tol``): ``unchanged`` only when equal;
  otherwise ``improved``/``regressed`` by direction, or — inside the
  tolerance a declared model change is allowed — ``unchanged`` with a
  "schedule changed" note from the digest comparison;
* ``sim_events`` / ``sim_final_us`` / ``sim_digest`` compare exactly and
  print "schedule changed";
* per-layer metrics have no bound: their change is listed, not judged.

Exit code 1 on any ``regressed``, including a larger ``failed_frac``.
"""

from __future__ import annotations

import json
from typing import Optional

from . import spec

VERDICTS = ("improved", "regressed", "unchanged", "unresolved")


def _worse_by(a: float, b: float, better: str) -> float:
    """Signed change of b against a, positive = worse (share of ``a``)."""
    delta = (b - a) / abs(a) if a else float(b - a)
    return delta if better == "lower" else -delta


def judge_timing(a: dict, b: dict, decl: spec.MetricDecl) -> tuple[str, str]:
    bound = decl.bound or 0.0
    worse = _worse_by(a["value"], b["value"], decl.better)
    note = f"{worse:+.1%} vs bound {bound:.0%}"
    a_lo, a_hi = a.get("q1", a["value"]), a.get("q3", a["value"])
    b_lo, b_hi = b.get("q1", b["value"]), b.get("q3", b["value"])
    spread = max(
        (a_hi - a_lo) / a["value"] if a["value"] else 0.0,
        (b_hi - b_lo) / b["value"] if b["value"] else 0.0,
    )
    if spread > bound:
        a_all = a.get("samples", [a["value"]])
        b_all = b.get("samples", [b["value"]])
        if decl.better == "lower":
            b_wins, a_wins = max(b_all) < min(a_all), max(a_all) < min(b_all)
        else:
            b_wins, a_wins = min(b_all) > max(a_all), min(a_all) > max(b_all)
        if b_wins:
            return "improved", note
        if a_wins and worse > bound:
            return "regressed", note
        return "unresolved", f"{note}; spread {spread:.1%} exceeds the bound"
    if worse > bound:
        return "regressed", note
    if "q1" in a and "q1" in b:
        separated = b_hi < a_lo if decl.better == "lower" else b_lo > a_hi
    else:  # single readings: nothing but the bound to go by
        separated = worse < -bound
    if worse < 0 and separated:
        return "improved", note
    return "unchanged", note


def judge_exact(a: dict, b: dict, decl: spec.MetricDecl) -> tuple[str, str]:
    if a["value"] == b["value"]:
        return "unchanged", "identical"
    change = b["value"] - a["value"]
    if decl.better == "higher":
        change = -change
    note = f"{a['value']:.6g} -> {b['value']:.6g} {decl.unit}"
    if abs(change) <= (decl.exact_tol or 0.0):
        return "unchanged", note + " (within the declared-model-change tolerance)"
    return ("regressed" if change > 0 else "improved"), note


def diff(a: dict, b: dict) -> tuple[list[dict], list[str]]:
    """Rows ``{workload, metric, verdict, note}`` and free-form remarks."""
    rows: list[dict] = []
    remarks: list[str] = []
    if a.get("seed") != b.get("seed") or a.get("profile") != b.get("profile"):
        remarks.append(
            f"different inputs: seed {a.get('seed')}/{b.get('seed')}, "
            f"profile {a.get('profile')}/{b.get('profile')} — simulated "
            "statistics are not comparable"
        )
    gated = {m.name: m for m in spec.CONTRACT_END_TO_END + spec.LEDGER_END_TO_END}
    for name in spec.WORKLOAD_NAMES:
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        if wa is None or wb is None:
            if wa is not None or wb is not None:
                rows.append({"workload": name, "metric": "*", "verdict": "unresolved",
                             "note": "present on one side only"})
            continue
        if wa["sim"] != wb["sim"]:
            changed = [k for k in wa["sim"] if wa["sim"][k] != wb["sim"].get(k)]
            remarks.append(f"{name}: schedule changed ({', '.join(changed)})")
        for metric, decl in gated.items():
            ma, mb = wa["end_to_end"].get(metric), wb["end_to_end"].get(metric)
            if ma is None and mb is None:
                continue
            if ma is None or mb is None:
                verdict, note = "unresolved", "defined on one side only"
            elif decl.bound is not None:
                verdict, note = judge_timing(ma, mb, decl)
            else:
                verdict, note = judge_exact(ma, mb, decl)
            rows.append({"workload": name, "metric": metric,
                         "verdict": verdict, "note": note})
        for metric, ma in wa.get("per_layer", {}).items():
            mb = wb.get("per_layer", {}).get(metric)
            rows.append(_informational(name, metric, ma, mb))
    for metric, ma in a.get("per_layer", {}).items():
        rows.append(_informational("-", metric, ma, b.get("per_layer", {}).get(metric)))
    return rows, remarks


def _informational(workload: str, metric: str, a: dict, b: Optional[dict]) -> dict:
    va = a.get("value")
    vb = None if b is None else b.get("value")
    if va is None or vb is None:
        note = f"{va} -> {vb} (skipped on one side)"
    elif va == vb:
        note = "identical"
    elif va:
        note = f"{va:.4g} -> {vb:.4g} ({(vb - va) / abs(va):+.1%})"
    else:
        note = f"{va:.4g} -> {vb:.4g}"
    return {"workload": workload, "metric": metric, "verdict": "listed", "note": note}


def render(rows: list[dict], remarks: list[str]) -> str:
    lines = [f"{'workload':<18} {'metric':<34} {'verdict':<10} note"]
    # Judged rows first, the per-layer listing after them.
    for row in sorted(rows, key=lambda r: r["verdict"] == "listed"):
        lines.append(
            f"{row['workload']:<18} {row['metric']:<34} "
            f"{row['verdict']:<10} {row['note']}"
        )
    lines += remarks
    counts = {v: sum(r["verdict"] == v for r in rows) for v in VERDICTS}
    lines.append("  ".join(f"{v}: {n}" for v, n in counts.items()))
    return "\n".join(lines)


def main(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as fa, open(path_b, encoding="utf-8") as fb:
        a, b = json.load(fa), json.load(fb)
    rows, remarks = diff(a, b)
    print(render(rows, remarks))
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0
