"""Tests for the command-line interface."""

import pytest

from repro.cli import EXPERIMENTS, build_parser, main
from repro.harness.runner import SCHEMES


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for scheme in SCHEMES:
        assert scheme in out
    for experiment in EXPERIMENTS:
        assert experiment in out


def test_run_command_executes_flow(capsys):
    assert main(["run", "--scheme", "bbr", "--duration", "1",
                 "--carriers", "1", "--sinr", "12"]) == 0
    out = capsys.readouterr().out
    assert "bbr" in out
    assert "tput" in out


def test_run_rejects_unknown_scheme():
    with pytest.raises(SystemExit):
        main(["run", "--scheme", "warp-drive"])


def test_compare_command(capsys):
    assert main(["compare", "--schemes", "bbr,cubic", "--duration",
                 "1", "--carriers", "1", "--sinr", "12"]) == 0
    out = capsys.readouterr().out
    assert "bbr" in out and "cubic" in out


def test_experiment_command_cheap(capsys):
    assert main(["experiment", "fig11"]) == 0
    out = capsys.readouterr().out
    assert "Figure 11" in out


def test_experiment_rejects_unknown():
    with pytest.raises(SystemExit):
        main(["experiment", "fig99"])


def test_sweep_command_with_cache(capsys, tmp_path):
    args = ["sweep", "--schemes", "pbe,bbr", "--busy", "1", "--idle",
            "1", "--duration", "1", "--cache-dir",
            str(tmp_path / "cache"), "--save",
            str(tmp_path / "sweep.json")]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "Stationary sweep" in out
    assert "pbe" in out and "bbr" in out
    assert (tmp_path / "sweep.json").is_file()

    # warm-cache rerun: same table, no simulation (cached on stderr)
    assert main(args) == 0
    captured = capsys.readouterr()
    assert captured.out == out
    assert "cached" in captured.err


def test_sweep_command_table1_view(capsys):
    assert main(["sweep", "--schemes", "pbe,bbr,verus,copa", "--busy",
                 "1", "--idle", "1", "--duration", "1", "--view",
                 "table1"]) == 0
    assert "Table 1" in capsys.readouterr().out


def test_sweep_isolates_bad_scheme(capsys):
    # a poisoned configuration: the sweep still prints the good rows,
    # reports the failure on stderr, and exits non-zero
    assert main(["sweep", "--schemes", "bbr,warp-drive", "--busy", "1",
                 "--idle", "1", "--duration", "1"]) == 1
    captured = capsys.readouterr()
    assert "bbr" in captured.out
    assert "FAILED" in captured.err
    assert "warp-drive" in captured.err


def test_sweep_strict_aborts_on_bad_scheme():
    with pytest.raises(ValueError):
        main(["sweep", "--schemes", "bbr,warp-drive", "--busy", "1",
              "--idle", "1", "--duration", "1", "--strict"])


def test_sweep_failure_budget_exit_code():
    # every job fails, budget 10% -> circuit breaker (exit code 3)
    assert main(["sweep", "--schemes", "warp-drive", "--busy", "2",
                 "--idle", "1", "--duration", "1",
                 "--failure-budget", "10"]) == 3


def test_cache_verify_and_gc(capsys, tmp_path):
    cache = tmp_path / "cache"
    assert main(["sweep", "--schemes", "bbr", "--busy", "1", "--idle",
                 "1", "--duration", "1", "--cache-dir",
                 str(cache)]) == 0
    capsys.readouterr()

    assert main(["cache", "verify", "--cache-dir", str(cache)]) == 0
    out = capsys.readouterr().out
    assert "checked 2 entries: 2 ok" in out
    assert "0 quarantined" in out

    # tamper with one entry: verify quarantines it and exits 1
    entry = next(cache.glob("??/*.json"))
    entry.write_text('{"broken json')
    assert main(["cache", "verify", "--cache-dir", str(cache)]) == 1
    out = capsys.readouterr().out
    assert "1 quarantined" in out
    assert (cache / "quarantine" / entry.name).is_file()

    # gc reclaims the quarantined bytes; verify is clean afterwards
    assert main(["cache", "gc", "--cache-dir", str(cache)]) == 0
    out = capsys.readouterr().out
    assert "removed" in out and "reclaimed" in out
    assert not (cache / "quarantine" / entry.name).exists()
    assert main(["cache", "verify", "--cache-dir", str(cache)]) == 0
