"""Unit tests for the perf-baseline harness.  Nothing here measures at
full size: the check tests stub ``measure`` outright, the ledger tests
run the real loop over workloads shrunk to a handful of operations."""

import functools
import json

import pytest

from repro.harness import bench

SUITE_NAMES = sorted(bench.SUITES)


def _fake_suite(tmp_path, monkeypatch, suite, committed, measured):
    """Commit ``committed`` as ``suite``'s results in ``tmp_path`` and
    make measuring it return ``measured``."""
    monkeypatch.setattr(bench, "baseline_path",
                        lambda s: tmp_path / f"BENCH_{s}.json")
    bench.baseline_path(suite).write_text(
        json.dumps({"bench": suite, "results": committed, "info": {}}))
    monkeypatch.setitem(bench.SUITES, suite,
                        lambda _suite, _repeat: (measured, {}))


BOTH_TIERS = {"python/a": 100, "python/TOTAL": 100,
              "compiled/a": 400, "compiled/TOTAL": 400}
PYTHON_ONLY = {"python/a": 100, "python/TOTAL": 100}  # no compiler here


def test_check_skips_tier_unavailable_on_this_machine(tmp_path, capsys,
                                                      monkeypatch):
    """A baseline with compiled numbers still checks cleanly where the
    compiled core cannot build — skipped with a log line, not failed."""
    _fake_suite(tmp_path, monkeypatch, "engine", BOTH_TIERS, PYTHON_ONLY)
    rc = bench.check_baselines(repeat=1, threshold=0.30, suites=["engine"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "compiled tier unavailable" in out
    assert "skipping its baselines" in out
    assert "compiled/a" not in out  # skipped rows don't show as MISSING


def test_check_still_fails_on_regression_in_available_tier(tmp_path, capsys,
                                                           monkeypatch):
    """A throughput is a floor: 90% below it fails, 90% above is fine."""
    _fake_suite(tmp_path, monkeypatch, "engine", PYTHON_ONLY,
                {"python/a": 10, "python/TOTAL": 190})
    rc = bench.check_baselines(repeat=1, threshold=0.30, suites=["engine"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "engine/python/a: 10 is 90% below baseline 100" in out
    assert out.count("REGRESSION") == 1


def test_check_overhead_is_a_ceiling(tmp_path, capsys, monkeypatch):
    """``overhead_us_per_epoch`` is a cost: a drop is an improvement and
    only a rise beyond the threshold fails."""
    committed = {"sor_4x4/overhead_us_per_epoch": 100.0,
                 "ra_4x2/overhead_us_per_epoch": 100.0}
    _fake_suite(tmp_path, monkeypatch, "pdes", committed,
                {"sor_4x4/overhead_us_per_epoch": 10.0,
                 "ra_4x2/overhead_us_per_epoch": 129.0})
    assert bench.check_baselines(repeat=1, threshold=0.30,
                                 suites=["pdes"]) == 0
    _fake_suite(tmp_path, monkeypatch, "pdes", committed,
                {"sor_4x4/overhead_us_per_epoch": 10.0,
                 "ra_4x2/overhead_us_per_epoch": 140.0})
    capsys.readouterr()
    assert bench.check_baselines(repeat=1, threshold=0.30,
                                 suites=["pdes"]) == 1
    out = capsys.readouterr().out
    assert "ra_4x2/overhead_us_per_epoch: 140.0 is 40% above" in out
    assert out.count("REGRESSION") == 1


def test_check_reports_a_committed_metric_nobody_measured(tmp_path, capsys,
                                                          monkeypatch):
    _fake_suite(tmp_path, monkeypatch, "orca",
                {"bcast_pb": 100, "retired": 100}, {"bcast_pb": 100})
    assert bench.check_baselines(repeat=1, threshold=0.30,
                                 suites=["orca"]) == 1
    assert "MISSING" in capsys.readouterr().out


def test_committed_engine_baseline_is_sectioned_per_tier():
    """The committed BENCH_engine.json carries at least the python tier,
    every metric under a ``<tier>/`` prefix (the compiled numbers depend
    on the writer machine having a C compiler)."""
    data = json.loads(bench.baseline_path("engine").read_text())
    tiers = {bench._tier_of(name) for name in data["results"]}
    assert "python" in tiers and tiers <= {"python", "compiled"}
    for tier in tiers:
        assert {f"{tier}/TOTAL", f"{tier}/occupy_lockstep",
                f"{tier}/occupy_quiet"} <= set(data["results"])
    assert data["engine_tier"] in ("python", "compiled")


def test_parse_suite_request():
    suites, tier = bench.parse_suite_request("all")
    assert suites == SUITE_NAMES and tier is None
    assert "collectives" in suites
    assert bench.parse_suite_request("orca") == (["orca"], None)
    assert bench.parse_suite_request("engine:compiled") \
        == (["engine"], "compiled")
    with pytest.raises(ValueError, match="unknown suite"):
        bench.parse_suite_request("nosuch")
    with pytest.raises(ValueError, match="no tiers"):
        bench.parse_suite_request("orca:python")
    with pytest.raises(ValueError, match="empty tier"):
        bench.parse_suite_request("engine:")


def test_check_explicit_tier_fails_when_not_committed(tmp_path, capsys,
                                                      monkeypatch):
    """suite:tier names a tier the baseline file lacks -> hard fail,
    unlike the auto-discovery skip."""
    _fake_suite(tmp_path, monkeypatch, "engine", PYTHON_ONLY, BOTH_TIERS)
    rc = bench.check_baselines(repeat=1, threshold=0.30, suites=["engine"],
                               tier="compiled")
    out = capsys.readouterr().out
    assert rc == 1
    assert "no committed baseline for that tier" in out


def test_check_explicit_tier_fails_when_unmeasurable(tmp_path, capsys,
                                                     monkeypatch):
    """An explicitly requested tier this host cannot measure fails
    instead of skipping loudly."""
    _fake_suite(tmp_path, monkeypatch, "engine", BOTH_TIERS, PYTHON_ONLY)
    rc = bench.check_baselines(repeat=1, threshold=0.30, suites=["engine"],
                               tier="compiled")
    out = capsys.readouterr().out
    assert rc == 1
    assert "explicitly requested tiers fail instead of skipping" in out


def test_check_explicit_tier_restricts_to_that_tier(tmp_path, capsys,
                                                    monkeypatch):
    measured = dict(BOTH_TIERS, **{"python/a": 5, "python/TOTAL": 5})
    _fake_suite(tmp_path, monkeypatch, "engine", BOTH_TIERS, measured)
    rc = bench.check_baselines(repeat=1, threshold=0.30, suites=["engine"],
                               tier="compiled")
    out = capsys.readouterr().out
    assert rc == 0  # python would regress, but only compiled is checked
    assert "python/a" not in out


def test_committed_collectives_baseline_exists():
    """PR 8 commits BENCH_collectives.json with the shaped/striped
    fan-out workloads and the tuner probe loop."""
    data = json.loads(bench.baseline_path("collectives").read_text())
    assert data["bench"] == "collectives"
    assert {"fanout_flat", "fanout_chain", "fanout_binomial", "stripe4",
            "tune_probe"} <= set(data["results"])
    assert all(rate > 0 for rate in data["results"].values())


def test_committed_fabric_baseline_has_impaired_and_striped_rows():
    data = json.loads(bench.baseline_path("fabric").read_text())
    assert {"wan", "wan_impaired", "wan_striped"} <= set(data["results"])
    for suite in ("fabric", "orca", "collectives"):
        # Baselined on the slower tier: one floor for both engine tiers.
        doc = json.loads(bench.baseline_path(suite).read_text())
        assert doc["engine_tier"] == "python"


# ------------------------------------------------------ the one ledger

@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_every_baseline_has_the_one_shape(suite):
    text = bench.baseline_path(suite).read_text()
    data = json.loads(text)
    assert list(data) == ["bench", "python", "machine", "host_cores",
                          "engine_tier", "results", "info"]
    assert data["bench"] == suite and data["host_cores"] >= 1
    assert data["results"]
    for section in (data["results"], data["info"]):
        assert all(type(v) in (int, float) for v in section.values())
    assert text.count("host_cores") == 1  # stamped once, not per section


def _shrunk(workloads):
    """The same ``(name, fn)`` table, each ``fn`` doing 5 operations."""
    return [(name, functools.partial(fn, 5)) for name, fn in workloads]


@pytest.fixture
def tiny_suites(monkeypatch):
    """Every suite at a few operations per workload; the engine suite's
    per-tier subprocess runs in this process (one tier is as good as the
    other for *which* metrics exist)."""
    for suite in ("collectives", "engine", "fabric", "orca"):
        module = bench._module(suite)
        monkeypatch.setattr(module, "WORKLOADS", _shrunk(module.WORKLOADS))
    pdes = bench._module("pdes")
    monkeypatch.setattr(pdes, "WORKLOADS", [
        (name, app, 2, 2) for name, app, _clusters, _per in pdes.WORKLOADS])
    monkeypatch.setattr(
        bench, "_time_in_tier", lambda suite, _tier, repeat:
        bench._time(bench._module(suite).WORKLOADS, repeat))
    yield


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_committed_results_are_what_the_suite_measures(suite, tiny_suites):
    """``BENCH_<suite>.json`` holds exactly the metrics ``measure(suite)``
    produces (per tier for the engine suite): a renamed or added
    workload fails here, not in CI's perf-smoke, until ``--write``."""
    from repro.sim._build import compiler_available

    committed = json.loads(bench.baseline_path(suite).read_text())
    results, info = bench.measure(suite, 1)
    if suite == "engine" and not compiler_available():
        committed["results"] = {
            name: v for name, v in committed["results"].items()
            if bench._tier_of(name) == "python"}
    assert set(results) == set(committed["results"])
    assert set(info) == set(committed["info"])
    assert all(v > 0 for name, v in results.items()
               if not name.endswith(bench.LOWER_IS_BETTER_SUFFIXES))


def test_bare_bench_prints_a_table_and_writes_nothing(tiny_suites, capsys):
    """``repro bench --suite orca`` with neither --write nor --check:
    measure, print next to the committed numbers, exit 0, touch no file."""
    from repro.__main__ import main

    before = {s: bench.baseline_path(s).read_bytes() for s in SUITE_NAMES}
    assert main(["bench", "--suite", "orca", "--repeat", "1"]) == 0
    out = capsys.readouterr().out
    committed = json.loads(before["orca"])["results"]
    for name, base in committed.items():
        (row,) = [ln for ln in out.splitlines()
                  if ln.startswith(f"orca/{name} ")]
        assert row.split()[1] == str(base)
    assert "perf-smoke" not in out
    assert before == {s: bench.baseline_path(s).read_bytes()
                      for s in SUITE_NAMES}


def test_bare_bench_filters_by_tier_without_a_baseline(tmp_path, capsys,
                                                       monkeypatch):
    _fake_suite(tmp_path, monkeypatch, "engine", {}, BOTH_TIERS)
    bench.baseline_path("engine").unlink()
    assert bench.show(1, ["engine"], "compiled") == 0
    out = capsys.readouterr().out
    assert "engine/compiled/a" in out and "engine/python/a" not in out
