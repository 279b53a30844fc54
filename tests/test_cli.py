"""Tests for the command-line interface."""

import pytest

from repro.__main__ import main


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "water" in out and "fig15" in out


def test_cli_table1(capsys):
    assert main(["table", "1"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out and "RPC" in out


def test_cli_table_unknown(capsys):
    assert main(["table", "3"]) == 2


def test_cli_figure_small(capsys):
    assert main(["figure", "fig7", "--cpus", "4"]) == 0
    out = capsys.readouterr().out
    assert "fig7" in out and "speedup" in out


def test_cli_figure_unknown():
    assert main(["figure", "fig99"]) == 2


def test_cli_app_run(capsys):
    assert main(["app", "atpg", "--variant", "optimized",
                 "--clusters", "2", "--nodes", "2"]) == 0
    out = capsys.readouterr().out
    assert "atpg/optimized on 2x2" in out


def test_cli_requires_command():
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize("argv", [
    ["app", "tsp", "--clusters", "0"],
    ["profile", "tsp", "--clusters", "0"],
    ["trace", "tsp", "--clusters", "0"],
    ["chains", "tsp", "--clusters", "0"],
    ["scenario", "tsp", "--clusters", "0"],
    ["tune", "--nodes", "0"],
    ["bench", "--repeat", "0"],
])
def test_cli_rejects_non_positive_counts(argv, capsys):
    """A zero geometry or repeat count is a usage error (exit 2), not a
    traceback from deep inside the run."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"repro {argv[0]}: error: argument {argv[-2]}: 0 must be >= 1" \
        in err


def test_cli_app_pdes_runs_through_the_runner(tmp_path, monkeypatch, capsys):
    """``--pdes on`` takes the same path as every other run: the trace
    flags apply, and the (uncached) run reports its PDES counters —
    also on a second invocation, which a result cache would have
    answered without them."""
    import json

    from repro.apps import small_params
    from repro.sim.pdes import shutdown_pool

    monkeypatch.setattr("repro.__main__.bench_params", small_params)
    traces = tmp_path / "traces"
    argv = ["app", "sor", "--clusters", "2", "--nodes", "2", "--pdes", "on",
            "--pdes-workers", "2", "--trace-dir", str(traces)]
    try:
        assert main(argv) == 0
        assert main(argv[:-2]) == 0
        assert main(argv[:-2]) == 0
    finally:
        shutdown_pool()
    out = capsys.readouterr().out
    assert out.count("sor/original on 2x2") == 3
    assert out.count("pdes: 2 partitions,") == 3
    (path,) = traces.glob("sor-original-2x2-*.trace.json")
    events = json.loads(path.read_text())["traceEvents"]
    assert {"M", "X"} <= {ev["ph"] for ev in events}


# ------------------------------------------------- the option surface

_SWEEP = "--jobs --no-cache --trace-dir --trace-ring --trace-sample"
_PDES = "--pdes --pdes-workers"
_GEOMETRY = "--variant --clusters --nodes"
_BOUND = "--ring --sample"
_IMPAIR = ("--wan-jitter --wan-loss --wan-dip --cross-traffic --fault "
           "--cluster")
_SEEDS = "--seed --seeds"

#: verb -> (positionals, every option string it accepts).  Pinned at the
#: commit before the flag groups became shared argparse parents.
VERB_SURFACE = {
    "list": ("", ""),
    "table": ("number", _SWEEP),
    "figure": ("figure", f"--cpus --plot {_PDES} {_SWEEP}"),
    "app": ("app", f"{_GEOMETRY} --decision {_PDES} {_SWEEP}"),
    "profile": ("app", f"{_GEOMETRY} --diff {_BOUND}"),
    "trace": ("app", f"{_GEOMETRY} --format --out --kinds {_BOUND}"),
    "chains": ("app", f"{_GEOMETRY} --sequencer --limit"),
    "bench": ("", "--write --check --repeat --threshold --suite"),
    "scenario": ("apps",
                 f"{_GEOMETRY} {_IMPAIR} --decision {_SEEDS} {_SWEEP}"),
    "tune": ("", f"--sizes --clusters --nodes --reps {_IMPAIR} {_SEEDS} "
                 f"--out --apply --apps --variant --apply-nodes {_SWEEP}"),
    "cache": ("action", ""),
}

#: verb -> (--clusters, --nodes) defaults; --nodes differs per verb.
GEOMETRY_DEFAULTS = {"app": (4, 15), "profile": (4, 8), "trace": (4, 8),
                     "chains": (4, 8), "scenario": (4, 8),
                     "tune": ([2, 4], 4)}


def _subparsers(monkeypatch):
    """{verb: its argparse subparser}, captured from a real ``main()``
    call at the moment it parses."""
    import argparse

    seen = []

    def capture(self, argv=None):
        seen.append(self)
        raise SystemExit(0)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", capture)
    with pytest.raises(SystemExit):
        main([])
    (sub,) = [a for a in seen[0]._actions
              if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def test_cli_option_surface_is_pinned(monkeypatch):
    verbs = _subparsers(monkeypatch)
    assert set(verbs) == set(VERB_SURFACE)
    for verb, (positionals, options) in VERB_SURFACE.items():
        actions = [a for a in verbs[verb]._actions if a.dest != "help"]
        assert [a.dest for a in actions if not a.option_strings] \
            == positionals.split(), verb
        assert sorted(s for a in actions for s in a.option_strings) \
            == sorted(options.split()), verb
    for verb, geometry in GEOMETRY_DEFAULTS.items():
        assert (verbs[verb].get_default("clusters"),
                verbs[verb].get_default("nodes")) == geometry, verb
