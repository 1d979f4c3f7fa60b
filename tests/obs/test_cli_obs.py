"""CLI surface: ``repro top`` and ``repro obs tail|export``."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.cli.main import main
from repro.obs.export import parse_metrics_csv, parse_prometheus_text


def test_top_renders_frames_and_exits(capsys):
    rc = main(
        ["top", "--frames", "2", "--interval", "0", "--frame-ms", "200"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("repro top") == 2
    assert "SHARE" in out


def test_top_rejects_bad_shares(capsys):
    assert main(["top", "--shares", "0,-1", "--frames", "1"]) == 2


def test_obs_tail_prints_jsonl(capsys):
    rc = main(["obs", "tail", "--seconds", "0.5", "-n", "5"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1].startswith("#")  # summary trailer
    events = [json.loads(line) for line in lines[:-1]]
    assert 0 < len(events) <= 5
    assert all("kind" in e and "t" in e for e in events)


#: sha256 of ``obs tail --seconds 1 -n 5`` (five events and the
#: summary), and of the same with ``--kind 'eligibility.*'``, as printed
#: when the command still built every buffered event to print five.
TAIL_DIGEST = "9f9daed4df21fc2d1654ae8881b32215ae21f4f9dfff3beead77db84d6417072"
TAIL_KIND_DIGEST = (
    "0d9572d3eb62adbafa0aa7410d1c9b06575ef9d666b1a95872c31adaf3324022"
)


@pytest.mark.parametrize(
    "extra, digest",
    [([], TAIL_DIGEST), (["--kind", "eligibility.*"], TAIL_KIND_DIGEST)],
    ids=["all", "kind"],
)
def test_obs_tail_prints_the_same_last_events(extra, digest, capsys):
    assert main(["obs", "tail", "--seconds", "1", "-n", "5", *extra]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 6
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("count", ["0", "-3"])
def test_obs_tail_rejects_a_count_below_one(count):
    with pytest.raises(SystemExit):
        main(["obs", "tail", "--seconds", "0.1", "-n", count])


def test_obs_tail_kind_filter(capsys):
    rc = main(
        ["obs", "tail", "--seconds", "0.5", "-n", "100",
         "--kind", "cycle.complete"]
    )
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    events = [json.loads(line) for line in lines[:-1]]
    assert events
    assert all(e["kind"] == "cycle.complete" for e in events)


@pytest.mark.parametrize("fmt", ("jsonl", "csv", "prometheus"))
def test_obs_export_formats_are_parseable(fmt, capsys):
    rc = main(["obs", "export", "--seconds", "0.5", "--format", fmt])
    assert rc == 0
    out = capsys.readouterr().out
    if fmt == "jsonl":
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert any(r["name"] == "alps_cycles_completed" for r in records)
    elif fmt == "csv":
        reg = parse_metrics_csv(out)
        assert reg.get("alps_cycles_completed").value > 0
    else:
        samples = parse_prometheus_text(out)
        assert samples[("alps_cycles_completed", ())] > 0


def test_obs_export_writes_files(tmp_path, capsys):
    metrics = tmp_path / "metrics.prom"
    events = tmp_path / "events.jsonl"
    rc = main(
        ["obs", "export", "--seconds", "0.5",
         "--out", str(metrics), "--events", str(events)]
    )
    assert rc == 0
    assert parse_prometheus_text(metrics.read_text())
    lines = events.read_text().strip().splitlines()
    assert lines and all(json.loads(l)["v"] == 1 for l in lines)


def test_obs_without_subcommand_shows_help(capsys):
    with pytest.raises(SystemExit):
        main(["obs"])
