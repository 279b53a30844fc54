"""Unit tests for the perf-baseline harness (no real measuring here:
the measure functions are stubbed, so these stay milliseconds-fast)."""

import json

from repro.harness import bench


def test_flat_engine_handles_both_layouts():
    # Pre-tier flat layout (old committed baselines) passes through...
    flat = {"timeout_chain": 100, "TOTAL": 100}
    assert bench._flat_engine(flat) == flat
    # ...and the sectioned per-tier layout flattens to tier/name keys.
    sectioned = {"python": {"timeout_chain": 100, "TOTAL": 100},
                 "compiled": {"timeout_chain": 400, "TOTAL": 400}}
    assert bench._flat_engine(sectioned) == {
        "python/timeout_chain": 100, "python/TOTAL": 100,
        "compiled/timeout_chain": 400, "compiled/TOTAL": 400}


def _fake_engine_suite(tmp_path, committed, measured, monkeypatch):
    path = tmp_path / "BENCH_engine.json"
    path.write_text(json.dumps({"bench": "engine", "results": committed}))
    monkeypatch.setitem(bench.SUITES, "engine",
                        (path, lambda repeat: measured, bench._flat_engine))
    return path


def test_check_skips_tier_unavailable_on_this_machine(tmp_path, capsys,
                                                      monkeypatch):
    """A baseline with a compiled section still checks cleanly where the
    compiled core cannot build — skipped with a log line, not failed."""
    committed = {"python": {"a": 100, "TOTAL": 100},
                 "compiled": {"a": 400, "TOTAL": 400}}
    measured = {"python": {"a": 100, "TOTAL": 100}}  # no compiler here
    _fake_engine_suite(tmp_path, committed, measured, monkeypatch)
    rc = bench.check_baselines(repeat=1, threshold=0.30, suites=["engine"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "compiled tier unavailable" in out
    assert "skipping its baselines" in out
    assert "compiled/a" not in out  # skipped rows don't show as MISSING


def test_check_still_fails_on_regression_in_available_tier(tmp_path, capsys,
                                                           monkeypatch):
    committed = {"python": {"a": 100, "TOTAL": 100}}
    measured = {"python": {"a": 10, "TOTAL": 10}}  # 90% drop
    _fake_engine_suite(tmp_path, committed, measured, monkeypatch)
    rc = bench.check_baselines(repeat=1, threshold=0.30, suites=["engine"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "REGRESSION" in out


def test_committed_engine_baseline_is_sectioned_per_tier():
    """The committed BENCH_engine.json carries at least the python tier
    in the per-tier layout (the compiled section depends on the writer
    machine having a C compiler)."""
    data = json.loads(bench.ENGINE_JSON.read_text())
    results = data["results"]
    assert "python" in results
    assert all(isinstance(v, dict) for v in results.values())
    for section in results.values():
        assert {"TOTAL", "occupy_lockstep", "occupy_quiet"} <= set(section)
    # Every baseline says what host and engine tier it was written on.
    assert data["host_cores"] >= 1
    assert data["engine_tier"] in ("python", "compiled")


def test_parse_suite_request():
    suites, tier = bench.parse_suite_request("all")
    assert suites == sorted(bench.SUITES) and tier is None
    assert "collectives" in suites
    assert bench.parse_suite_request("orca") == (["orca"], None)
    assert bench.parse_suite_request("engine:compiled") \
        == (["engine"], "compiled")
    import pytest
    with pytest.raises(ValueError, match="unknown suite"):
        bench.parse_suite_request("nosuch")
    with pytest.raises(ValueError, match="no tiers"):
        bench.parse_suite_request("orca:python")
    with pytest.raises(ValueError, match="empty tier"):
        bench.parse_suite_request("engine:")


def test_check_explicit_tier_fails_when_not_committed(tmp_path, capsys,
                                                      monkeypatch):
    """suite:tier names a section the baseline file lacks -> hard fail,
    unlike the auto-discovery skip."""
    committed = {"python": {"a": 100, "TOTAL": 100}}
    measured = {"python": {"a": 100, "TOTAL": 100},
                "compiled": {"a": 400, "TOTAL": 400}}
    _fake_engine_suite(tmp_path, committed, measured, monkeypatch)
    rc = bench.check_baselines(repeat=1, threshold=0.30, suites=["engine"],
                               tier="compiled")
    out = capsys.readouterr().out
    assert rc == 1
    assert "no committed baseline section" in out


def test_check_explicit_tier_fails_when_unmeasurable(tmp_path, capsys,
                                                     monkeypatch):
    """An explicitly requested tier this host cannot measure fails
    instead of skipping loudly."""
    committed = {"python": {"a": 100, "TOTAL": 100},
                 "compiled": {"a": 400, "TOTAL": 400}}
    measured = {"python": {"a": 100, "TOTAL": 100}}  # no compiler here
    _fake_engine_suite(tmp_path, committed, measured, monkeypatch)
    rc = bench.check_baselines(repeat=1, threshold=0.30, suites=["engine"],
                               tier="compiled")
    out = capsys.readouterr().out
    assert rc == 1
    assert "explicitly requested tiers fail instead of skipping" in out


def test_check_explicit_tier_restricts_to_that_tier(tmp_path, capsys,
                                                    monkeypatch):
    committed = {"python": {"a": 100, "TOTAL": 100},
                 "compiled": {"a": 400, "TOTAL": 400}}
    measured = {"python": {"a": 5, "TOTAL": 5},  # would regress...
                "compiled": {"a": 400, "TOTAL": 400}}
    _fake_engine_suite(tmp_path, committed, measured, monkeypatch)
    rc = bench.check_baselines(repeat=1, threshold=0.30, suites=["engine"],
                               tier="compiled")
    out = capsys.readouterr().out
    assert rc == 0  # ...but only the requested tier is checked
    assert "python/a" not in out


def test_committed_collectives_baseline_exists():
    """PR 8 commits BENCH_collectives.json with the shaped/striped
    fan-out workloads and the tuner probe loop."""
    data = json.loads(bench.COLLECTIVES_JSON.read_text())
    assert data["bench"] == "collectives"
    names = set(data["results"])
    assert {"fanout_flat", "fanout_chain", "fanout_binomial", "stripe4",
            "tune_probe"} <= names
    for entry in data["results"].values():
        assert entry["ops_per_s"] > 0


def test_committed_fabric_baseline_has_impaired_and_striped_rows():
    data = json.loads(bench.FABRIC_JSON.read_text())
    assert {"wan", "wan_impaired", "wan_striped"} <= set(data["results"])
    for doc in (data, json.loads(bench.ORCA_JSON.read_text())):
        assert doc["host_cores"] >= 1
        # Baselined on the slower tier: one floor for both engine tiers.
        assert doc["engine_tier"] == "python"
        for entry in doc["results"].values():
            assert "speedup_vs_legacy" not in entry


def test_committed_orca_baseline_is_the_micro_suite(monkeypatch):
    """BENCH_orca.json holds exactly what ``measure_orca`` measures: one
    ``micro/<workload>`` row per ``bench_orca_micro`` workload (whole-app
    host time is the end-to-end benchmark's, not this file's)."""
    bench._import_benchmarks()
    import bench_orca_micro

    monkeypatch.setattr(
        bench_orca_micro, "run_suite",
        lambda repeat: ("", {name: {"ops_per_s": 1.0}
                             for name, _fn in bench_orca_micro.WORKLOADS}))
    committed = json.loads(bench.ORCA_JSON.read_text())["results"]
    assert set(bench.measure_orca(repeat=1)) == set(committed)
