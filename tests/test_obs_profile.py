"""The bottleneck profiler, its CLI verbs, and trace non-interference."""

import json

import numpy
import pytest

from repro.__main__ import main
from repro.apps import PAPER_ORDER, make_app, small_params
from repro.harness import run_app
from repro.obs.analyzers import BREAKDOWN_NARRATIVE
from repro.obs.profile import (
    PROFILE_KINDS,
    format_bottleneck,
    format_profile_diff,
    format_profile_table,
    profile_app,
)
from repro.obs.schema import KINDS
from repro.sim import Tracer


# ----------------------------------------------------------- profile_app

@pytest.mark.parametrize("app_name", PAPER_ORDER)
def test_profile_every_app(app_name):
    report = profile_app(app_name, "original", 2, 2,
                         params=small_params(app_name))
    assert report.app == app_name
    assert report.elapsed > 0
    assert report.n_records > 0
    assert set(report.categories) == set(BREAKDOWN_NARRATIVE)
    assert report.dominant in BREAKDOWN_NARRATIVE  # 2 clusters: never none
    assert 0.0 < report.dominant_share <= 1.0
    assert 0.0 <= report.cpu_mean <= 1.0
    assert report.narrative == BREAKDOWN_NARRATIVE[report.dominant]
    assert format_bottleneck(report)  # renders


def test_profile_kinds_filter_is_a_strict_subset():
    assert PROFILE_KINDS < set(KINDS)
    # The analyzers' inputs all survive the filter.
    for needed in ("link.busy", "gw.forward", "wan.xfer", "rpc.complete",
                   "seq.request", "seq.grant", "seq.acquire",
                   "bcast.complete"):
        assert needed in PROFILE_KINDS


def test_profile_reuses_and_clears_a_shared_tracer():
    tracer = Tracer()
    r1 = profile_app("tsp", "original", 2, 2,
                     params=small_params("tsp"), tracer=tracer)
    assert tracer.records == []  # grid-point hygiene
    r2 = profile_app("tsp", "original", 2, 2,
                     params=small_params("tsp"), tracer=tracer)
    assert r1.elapsed == r2.elapsed
    assert r1.categories == pytest.approx(r2.categories)


def test_profile_table_renders_one_row_per_report():
    reports = [profile_app(name, "original", 2, 2,
                           params=small_params(name))
               for name in ("tsp", "asp")]
    table = format_profile_table(reports)
    assert "tsp" in table and "asp" in table
    assert len(table.splitlines()) == 3  # header + 2 rows


def test_format_profile_diff_renders_both_variants():
    params = small_params("tsp")
    before = profile_app("tsp", "original", 2, 2, params=params)
    after = profile_app("tsp", "optimized", 2, 2, params=params)
    text = format_profile_diff(before, after)
    assert "original" in text and "optimized" in text
    assert "elapsed" in text and "delta" in text
    for key in set(before.categories) | set(after.categories):
        assert key in text
    # The diff names both dominant mechanisms.
    assert before.narrative in text and after.narrative in text


def test_format_profile_diff_zero_baseline_category():
    params = small_params("asp")
    before = profile_app("asp", "original", 1, 2, params=params)
    after = profile_app("asp", "original", 2, 2, params=params)
    # Single-cluster runs attribute no intercluster time; a category
    # appearing only in the after column renders as "new", not a crash.
    text = format_profile_diff(before, after)
    assert "new" in text or all(v == 0 for v in after.categories.values())


# ----------------------------------------------- trace non-interference

@pytest.mark.parametrize("app_name", ["tsp", "asp", "ra"])
def test_tracing_does_not_change_results(app_name):
    app = make_app(app_name)
    params = small_params(app_name)
    plain = run_app(app, "original", 2, 2, params)
    traced = run_app(app, "original", 2, 2, params, tracer=Tracer())
    assert traced.elapsed == plain.elapsed  # bit-identical, not approx
    same = traced.answer == plain.answer
    assert same if isinstance(same, bool) else bool(numpy.all(same))
    assert traced.traffic == plain.traffic


# -------------------------------------------------------------- the CLI

def test_cli_profile(capsys, monkeypatch):
    monkeypatch.setattr("repro.harness.figures.bench_params", small_params)
    assert main(["profile", "tsp", "--clusters", "2", "--nodes", "2"]) == 0
    out = capsys.readouterr().out
    assert "dominant wide-area cost" in out
    assert "trace records" in out


def test_cli_profile_diff(capsys, monkeypatch):
    monkeypatch.setattr("repro.harness.figures.bench_params", small_params)
    assert main(["profile", "tsp", "--clusters", "2", "--nodes", "2",
                 "--diff", "original", "optimized"]) == 0
    out = capsys.readouterr().out
    assert "original vs optimized" in out
    assert "delta" in out


def test_cli_trace_chrome(tmp_path, capsys, monkeypatch):
    # the CLI binds bench_params once, at import
    monkeypatch.setattr("repro.__main__.bench_params", small_params)
    out_file = tmp_path / "tsp.trace.json"
    assert main(["trace", "tsp", "--clusters", "2", "--nodes", "2",
                 "--out", str(out_file)]) == 0
    assert "perfetto" in capsys.readouterr().out
    obj = json.loads(out_file.read_text())
    assert obj["traceEvents"]
    assert {ev["ph"] for ev in obj["traceEvents"]} <= {"M", "X", "i",
                                                       "s", "t", "f"}


def test_cli_trace_jsonl_with_kind_filter(tmp_path, monkeypatch):
    monkeypatch.setattr("repro.__main__.bench_params", small_params)
    out_file = tmp_path / "tsp.trace.jsonl"
    assert main(["trace", "tsp", "--clusters", "2", "--nodes", "2",
                 "--format", "jsonl", "--kinds", "msg.send,msg.deliver",
                 "--out", str(out_file)]) == 0
    lines = out_file.read_text().splitlines()
    assert json.loads(lines[0])["schema"] == "repro.trace"
    kinds = {json.loads(line)["kind"] for line in lines[1:]}
    assert kinds == {"msg.send", "msg.deliver"}


def test_cli_trace_rejects_unknown_kind(tmp_path, capsys):
    assert main(["trace", "tsp", "--kinds", "no.such_kind",
                 "--out", str(tmp_path / "x.jsonl")]) == 2
    assert "unknown kinds" in capsys.readouterr().err
