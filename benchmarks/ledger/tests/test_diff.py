"""The comparator's verdicts and exit code."""

import json

from benchmarks.ledger import diff


def timing(samples):
    ordered = sorted(samples)
    n = len(ordered)
    return {
        "value": ordered[n // 2], "q1": ordered[n // 4], "q3": ordered[(3 * n) // 4],
        "min": ordered[0], "n": n, "samples": list(samples), "unit": "s",
    }


def result(wall, *, failed_frac=0.0, share_err=2.0, digest="d0"):
    return {
        "seed": 0, "profile": "standard", "per_layer": {},
        "workloads": {
            "table2_bare": {
                "end_to_end": {
                    "setup_s": timing([1.0, 1.01, 1.02]),
                    "wall_s": timing(wall),
                    "peak_rss_mb": {"value": 40.0, "unit": "MB"},
                    "failed_frac": {"value": failed_frac, "unit": "ratio"},
                    "share_err_pct": {"value": share_err, "unit": "%"},
                },
                "sim": {"sim_events": 10, "sim_final_us": 5, "sim_digest": digest},
                "per_layer": {"kernel.self_frac": {"value": 0.4, "unit": "ratio"}},
            }
        },
    }


def verdicts(a, b):
    rows, remarks = diff.diff(a, b)
    return {r["metric"]: r["verdict"] for r in rows}, remarks


BASE = [2.00, 2.01, 2.02, 2.03, 2.04]


def test_same_run_is_unchanged():
    got, remarks = verdicts(result(BASE), result(BASE))
    assert set(got.values()) <= {"unchanged", "listed"}
    assert not remarks


def test_regressed_and_improved():
    slow = [v * 1.4 for v in BASE]
    fast = [v * 0.7 for v in BASE]
    assert verdicts(result(BASE), result(slow))[0]["wall_s"] == "regressed"
    assert verdicts(result(BASE), result(fast))[0]["wall_s"] == "improved"


def test_within_bound_is_unchanged():
    assert verdicts(result(BASE), result([v * 1.05 for v in BASE]))[0]["wall_s"] == "unchanged"


def test_noisy_overlap_is_unresolved():
    noisy_a = [1.0, 1.5, 2.0, 2.5, 3.0]
    noisy_b = [1.2, 1.7, 2.2, 2.7, 3.2]
    assert verdicts(result(noisy_a), result(noisy_b))[0]["wall_s"] == "unresolved"


def test_schedule_change_is_named():
    got, remarks = verdicts(result(BASE), result(BASE, digest="d1", share_err=2.5))
    assert got["share_err_pct"] == "regressed"
    assert any("schedule changed (sim_digest)" in r for r in remarks)


def test_small_model_change_is_tolerated_but_named():
    got, remarks = verdicts(result(BASE), result(BASE, digest="d1", share_err=2.05))
    assert got["share_err_pct"] == "unchanged"
    assert remarks


def test_larger_failed_frac_exits_nonzero(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(result(BASE)))
    b.write_text(json.dumps(result(BASE, failed_frac=0.1)))
    assert diff.main(str(a), str(a)) == 0
    assert diff.main(str(a), str(b)) == 1


def test_single_reading_needs_the_bound_to_improve():
    a, b = result(BASE), result(BASE)
    b["workloads"]["table2_bare"]["end_to_end"]["peak_rss_mb"]["value"] = 39.9
    assert verdicts(a, b)[0]["peak_rss_mb"] == "unchanged"
    b["workloads"]["table2_bare"]["end_to_end"]["peak_rss_mb"]["value"] = 30.0
    assert verdicts(a, b)[0]["peak_rss_mb"] == "improved"
    b["workloads"]["table2_bare"]["end_to_end"]["peak_rss_mb"]["value"] = 50.0
    assert verdicts(a, b)[0]["peak_rss_mb"] == "regressed"
