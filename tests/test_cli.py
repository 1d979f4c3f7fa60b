"""Command-line interface."""

import pytest

from repro.cli.main import EXPERIMENTS, build_parser, main


def test_list_prints_all_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for key in EXPERIMENTS:
        assert key in out


def test_no_command_prints_help(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().out.lower()


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["run", "fig99"])


def test_demo_runs_and_reports(capsys):
    assert main(["demo", "--shares", "1,3", "--seconds", "5"]) == 0
    out = capsys.readouterr().out
    assert "achieved" in out
    assert "overhead" in out


def test_demo_rejects_bad_shares(capsys):
    assert main(["demo", "--shares", "0,-1"]) == 2


def test_run_fig7_outputs_table3(capsys):
    assert main(["run", "fig7"]) == 0
    out = capsys.readouterr().out
    assert "Table 3" in out
    assert "average relative error" in out


def test_run_with_csv(tmp_path, capsys):
    csv = tmp_path / "t3.csv"
    assert main(["run", "fig7", "--csv", str(csv)]) == 0
    assert csv.exists()
    assert "share" in csv.read_text().splitlines()[0]


def test_parser_structure():
    parser = build_parser()
    args = parser.parse_args(["run", "fig4", "--full", "--seed", "7"])
    assert args.experiment == "fig4"
    assert args.full
    assert args.seed == 7
    assert args.workers is None
    assert not args.no_cache


def test_parser_sweep_flags():
    parser = build_parser()
    args = parser.parse_args(["run", "fig5", "--workers", "3", "--no-cache"])
    assert args.workers == 3
    assert args.no_cache
    args = parser.parse_args(["report", "--workers", "2", "--no-cache"])
    assert args.workers == 2
    assert args.no_cache


def test_run_footer_reports_cache_hits_on_second_invocation(capsys):
    # Cold run computes and stores; the warm rerun is served entirely
    # from the content-addressed cache (REPRO_SWEEP_CACHE is pointed at
    # a per-test directory by the suite-wide fixture).
    assert main(["run", "fig7"]) == 0
    cold = capsys.readouterr().out
    assert "[sweep: 1 cells, 0 cache hits, 1 misses, 1 worker(s)]" in cold
    assert main(["run", "fig7"]) == 0
    warm = capsys.readouterr().out
    assert "[sweep: 1 cells, 1 cache hits, 0 misses, 1 worker(s)]" in warm
    # Identical table either way — the differential guarantee.
    assert cold.split("[sweep:")[0] == warm.split("[sweep:")[0]


def test_run_no_cache_recomputes(capsys):
    assert main(["run", "fig7"]) == 0
    capsys.readouterr()
    assert main(["run", "fig7", "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "[sweep: 1 cells, 0 cache hits, 1 misses, 1 worker(s)]" in out


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["demo", "--shares", "1,a"], "shares"),
        (["perf", "report", "--shares", "2,x"], "shares"),
        (["perf", "diff", "--sizes", "5,x"], "sizes"),
        (["perf", "diff", "--seeds", "0,?"], "seeds"),
        (["obs", "tail", "--shares", "1,b"], "shares"),
        (["chaos", "run", "--shares", "1,c", "--episodes", "1"], "shares"),
    ],
)
def test_integer_list_flags_reject_bad_tokens(argv, flag):
    with pytest.raises(SystemExit, match=f"invalid --{flag} "):
        main(argv)


def test_chaos_shares_skip_empty_tokens_like_demo(capsys):
    assert main(["demo", "--shares", "1,,2", "--seconds", "1"]) == 0
    rc = main(["chaos", "run", "--shares", "1,,2", "--episodes", "1",
               "--cycles", "10", "--rates", "0.05", "--no-cache"])
    assert rc == 0
    assert "verdict=PASS" in capsys.readouterr().out
