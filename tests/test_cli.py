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
