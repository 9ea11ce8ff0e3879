"""Tests for the command-line interface."""

import argparse

import pytest

from repro.cli import build_parser, main
from repro.harness import claims
from repro.harness.runner import SCHEMES

_SUPERVISION = ["--jobs", "--cache-dir", "--timeout", "--retries",
                "--strict", "--failure-budget"]

#: Every subcommand's arguments, in declaration order (positionals by
#: dest, subcommand choosers left out).  Adding one is meant to show
#: up here as a diff.
CLI_INVENTORY = {
    "run": ["--scheme", "--sinr", "--carriers", "--busy",
            "--internet-mbps", "--duration", "--seed"],
    "experiment": ["name", "--jobs", "--cache-dir"],
    "sweep": ["--schemes", "--busy", "--idle", "--duration", "--seed",
              "--save", *_SUPERVISION],
    "cache": ["action", "--cache-dir", "--tmp-grace"],
    "list": [],
}


def _inventory(parser, path=()):
    out = {}
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                out.update(_inventory(sub, path + (name,)))
        elif path:
            out.setdefault(" ".join(path), []).append(
                action.option_strings[0] if action.option_strings
                else action.dest)
    if path:
        out.setdefault(" ".join(path), [])
    return out


def test_cli_inventory_is_pinned():
    inventory = _inventory(build_parser())
    assert inventory == CLI_INVENTORY
    assert sum(len(flags) for flags in inventory.values()) == 25


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for scheme in SCHEMES:
        assert scheme in out
    names = ", ".join(f.name for f in claims.FIGURES)
    assert f"experiments: {names}" in out.splitlines()


def test_experiment_choices_are_the_registrys_figures():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    name = next(a for a in sub.choices["experiment"]._actions
                if a.dest == "name")
    assert list(name.choices) == [f.name for f in claims.FIGURES]


def test_run_command_executes_flow(capsys):
    assert main(["run", "--scheme", "bbr", "--duration", "1",
                 "--carriers", "1", "--sinr", "12"]) == 0
    out = capsys.readouterr().out
    assert "bbr" in out
    assert "tput" in out


def test_run_rejects_unknown_scheme():
    with pytest.raises(SystemExit):
        main(["run", "--scheme", "warp-drive"])


def test_run_rejects_unknown_scheme_in_a_list(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["run", "--scheme", "bbr,warp-drive"])
    assert exit_.value.code == 2
    assert "'warp-drive'" in capsys.readouterr().err


def test_run_rejects_reno_naming_the_known_schemes(capsys):
    # Reno is not one of the paper's schemes (§6.1): the registry has
    # no entry for it, and the parser says which names it knows.
    with pytest.raises(SystemExit) as exit_:
        main(["run", "--scheme", "reno"])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "'reno'" in err
    assert "known: " + ", ".join(sorted(SCHEMES)) in err
    assert len(SCHEMES) == 9


def test_run_command_compares_schemes(capsys):
    assert main(["run", "--scheme", "bbr,cubic", "--duration",
                 "1", "--carriers", "1", "--sinr", "12"]) == 0
    captured = capsys.readouterr()
    rows = [line.split()[0] for line in captured.out.splitlines()[2:]]
    assert sorted(rows) == ["bbr", "cubic"]
    assert captured.err.splitlines() == ["running bbr...",
                                         "running cubic..."]


@pytest.mark.parametrize("argv", [["compare"], ["experiment", "fig13"],
                                  ["experiment", "fig16"],
                                  ["experiment", "fig18"],
                                  ["experiment", "fig11", "--duration",
                                   "1"],
                                  ["sweep", "--view", "fig15"],
                                  ["resilience"], ["metro"],
                                  ["sweep", "--fleet-dir", "fleet"],
                                  ["fleet", "status", "--dir", "fleet"],
                                  ["fleet", "worker", "--dir", "fleet",
                                   "--max-jobs", "1"]])
def test_removed_commands_exit_2(argv):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2


def test_fleet_worker_is_not_a_command(capsys):
    """A backend starts its own worker processes; the CLI has none."""
    with pytest.raises(SystemExit) as exit_:
        main(["fleet", "worker", "--dir", "X"])
    assert exit_.value.code == 2
    assert "invalid choice: 'fleet'" in capsys.readouterr().err


def test_experiment_command_cheap(capsys):
    # fig11 runs no simulation: its lines are the registry's, exactly
    assert main(["experiment", "fig11"]) == 0
    entries = claims.entries(claims.Runs(), claims.by_name("fig11"))
    assert len(entries) == 7
    assert capsys.readouterr().out.splitlines() == \
        [claims.claim_line(e) for e in entries]


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


def test_sweep_schemes_default_to_pbe_and_bbr():
    assert build_parser().parse_args(["sweep"]).schemes == ("pbe", "bbr")


@pytest.mark.parametrize("argv,option", [
    (["sweep", "--schemes", "pbe,warp", "--busy", "1", "--idle", "0",
      "--duration", "0.2"], "--schemes"),
])
def test_bad_grid_exits_2_before_any_job(capsys, monkeypatch, argv,
                                         option):
    def no_jobs(*args, **kwargs):
        raise AssertionError("a job ran before the arguments were checked")

    monkeypatch.setattr("repro.cli._make_runner", no_jobs)
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert f"argument {option}:" in capsys.readouterr().err


@pytest.fixture
def broken_scheme(monkeypatch):
    """A scheme the parser accepts whose every flow fails to start: the
    sweep's failure isolation is under test, not its argument check."""
    def fail(**kwargs):
        raise ValueError("scheme 'warp-drive' cannot start")

    monkeypatch.setitem(SCHEMES, "warp-drive", fail)


def test_sweep_isolates_bad_scheme(capsys, broken_scheme):
    # a poisoned configuration: the sweep still prints the good rows,
    # reports the failure on stderr, and exits non-zero
    assert main(["sweep", "--schemes", "bbr,warp-drive", "--busy", "1",
                 "--idle", "1", "--duration", "1"]) == 1
    captured = capsys.readouterr()
    assert "bbr" in captured.out
    assert "FAILED" in captured.err
    assert "warp-drive" in captured.err


def test_sweep_strict_aborts_on_bad_scheme(broken_scheme):
    with pytest.raises(ValueError):
        main(["sweep", "--schemes", "bbr,warp-drive", "--busy", "1",
              "--idle", "1", "--duration", "1", "--strict"])


def test_sweep_failure_budget_exit_code(broken_scheme):
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
