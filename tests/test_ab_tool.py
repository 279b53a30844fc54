"""``tools/ab.py``: the report over paired runs, without cloning anything."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def _load():
    spec = importlib.util.spec_from_file_location("ab", REPO / "tools" / "ab.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules["ab"] = mod
    spec.loader.exec_module(mod)
    return mod


ab = _load()
METRICS = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}]


def _run(wall, counts=None, failed=0):
    return {"header": {"host_cores": "2", "engine_tier": "compiled"},
            "counts": {"sim.events": "100"} if counts is None else counts,
            "failed": failed, "correct": failed == 0,
            "metrics": {"wall_s": wall}}


def test_summary_medians_iqr_and_wins():
    parent = [_run(w) for w in (1.0, 1.2, 1.1, 1.3, 1.0)]
    change = [_run(w) for w in (0.9, 1.1, 1.2, 1.0, 0.8)]
    lines, problems = ab.summarize(METRICS, parent, change)
    assert problems == []
    assert lines[0] == "pairs=5 host_cores=2 engine_tier=compiled"
    parent_row, change_row = lines[2].split(), lines[3].split()
    # Each side's median, then its quartiles.
    assert parent_row[:5] == ["wall_s", "parent", "1.1000", "1.0000",
                              "1.2500"]
    assert "(IQR 0.2500," in lines[2] and "bound 25%)" in lines[2]
    # Medians 1.1 -> 1.0; the change won pairs 0, 1, 3 and 4.
    assert change_row == ["change", "1.0000", "0.8500", "1.1500", "-9.1%",
                          "4/5"]


def test_summary_reports_moved_counts_and_failures():
    parent = [_run(1.0), _run(1.0)]
    change = [_run(0.9, counts={"sim.events": "101"}), _run(0.9, failed=2)]
    aa = [_run(1.1), _run(0.9)]
    lines, problems = ab.summarize(METRICS, parent, change, aa)
    assert problems == ["change run 0: counts differ: sim.events",
                        "change run 1: 2 failed, correct=False"]
    assert lines[-1].split() == ["parent-aa", "1.0000", "0.8500", "1.1500",
                                 "+0.0%", "1/2"]


def test_parse_run_reads_header_counts_and_result():
    result = {"correct": True, "attempted": 4, "failed": 0,
              "metrics": {"wall_s": {"value": 0.5, "unit": "s"}}}
    out = "\n".join([
        "# workload=bcast_4x15 seed=0 host_cores=2 engine_tier=compiled",
        "wall_s                                     0.5 s   (median of 3)",
        "  count orca.bcasts                                  1000",
        "  count sim.events                                2132361",
        "operations: 4 attempted, 0 failed",
        json.dumps(result)])
    run = ab.parse_run(out)
    assert run["header"]["engine_tier"] == "compiled"
    assert run["counts"] == {"orca.bcasts": "1000", "sim.events": "2132361"}
    assert run["metrics"] == {"wall_s": 0.5} and run["failed"] == 0


def _cmd_run(wall, stdout=b"1.2310 virtual seconds\n"):
    return {"metrics": {"wall_s": wall}, "stdout": stdout}


def test_cmd_summary_reports_wall_clock_quartiles_and_wins():
    runs = {"parent": [_cmd_run(w) for w in (2.0, 2.2, 2.1, 2.4)],
            "change": [_cmd_run(w) for w in (1.9, 2.3, 2.0, 1.8)]}
    lines, problems = ab.summarize_cmd(METRICS[0], runs)
    assert problems == []
    assert lines[0] == "pairs=4"
    assert lines[2].split()[:5] == ["wall_s", "parent", "2.1500", "2.0250",
                                    "2.3500"]
    assert lines[3].split() == ["change", "1.9500", "1.8250", "2.2250",
                                "-9.3%", "3/4"]


def test_cmd_outputs_must_match_the_parent_byte_for_byte():
    runs = {"parent": [_cmd_run(1.0), _cmd_run(1.0)],
            "change": [_cmd_run(0.9), _cmd_run(0.9, b"1.2310 virtual "
                                                    b"seconds \n")]}
    assert ab.compare_outputs(runs) == [
        "change run 1: stdout differs from parent run 0"]
    _lines, problems = ab.summarize_cmd(METRICS[0], runs)
    assert problems == ["change run 1: stdout differs from parent run 0"]
    runs["change"][1] = _cmd_run(0.9)
    assert ab.compare_outputs(runs) == []


def test_parser_takes_repeated_workloads_and_rejects_unknown(capsys):
    args = ab.parse_args(["--workload", "p2p_4x15", "--workload",
                          "rpc_4x15", "--pairs", "4"])
    assert args.workload == ["p2p_4x15", "rpc_4x15"] and args.cmd is None
    assert args.pairs == 4 and args.ref == "HEAD~1"
    assert ab.parse_args(["--cmd", "true"]).workload is None
    for argv, message in [
            (["--workload", "p2p_4x15", "--workload", "nope"],
             "unknown workload 'nope'"),
            (["--workload", "p2p_4x15", "--pairs", "0"],
             "argument --pairs: 0 must be >= 1"),
            (["--workload", "p2p_4x15", "--cmd", "true"], "not allowed"),
            ([], "required")]:
        with pytest.raises(SystemExit):
            ab.parse_args(argv)
        assert message in capsys.readouterr().err


BENCH_OUT = "\n".join([
    "metric                          baseline      current   delta  status",
    "engine/python/event_chain          90000        81000    -10%",
    "engine/compiled/event_chain      1000000      1200000    +20%",
    "orca/rpc_lan                       14778        45316   +207%",
    "orca/rpc_wan                       14778            -       -",
    "pdes/sor_4x4/overhead_us_per_epoch 173.6        142.0    -18%"])


def test_parse_bench_reads_current_and_drops_other_tiers():
    assert ab.parse_bench(BENCH_OUT)["metrics"] == {
        "engine/python/event_chain": 81000.0,
        "engine/compiled/event_chain": 1200000.0,
        "orca/rpc_lan": 45316.0,
        "pdes/sor_4x4/overhead_us_per_epoch": 142.0}
    assert list(ab.parse_bench(BENCH_OUT, "python")["metrics"]) == [
        "engine/python/event_chain", "orca/rpc_lan",
        "pdes/sor_4x4/overhead_us_per_epoch"]


def test_bench_summary_reads_rates_up_and_costs_down():
    def run(rate, cost):
        return {"metrics": {"orca/rpc_lan": rate,
                            "pdes/sor_4x4/overhead_us_per_epoch": cost}}

    runs = {"parent": [run(100, 10), run(110, 12), run(90, 11)],
            "change": [run(120, 9), run(100, 13), run(95, 10)]}
    lines, problems = ab.summarize_bench(runs)
    assert problems == [] and lines[0] == "pairs=3"
    assert lines[2].split() == ["orca/rpc_lan", "parent", "100.0000",
                                "90.0000", "110.0000", "(IQR", "20.0000)"]
    # Rates: higher wins (pairs 0 and 2); costs: lower wins (0 and 2).
    assert lines[3].split() == ["change", "100.0000", "95.0000",
                                "120.0000", "+0.0%", "2/3"]
    assert lines[5].split()[-2:] == ["-9.1%", "2/3"]
    runs["change"][1] = {"metrics": {"orca/rpc_lan": 100}}
    _lines, problems = ab.summarize_bench(runs)
    assert problems == ["change: no pdes/sor_4x4/overhead_us_per_epoch"]


def test_parser_takes_a_bench_suite_and_tier(capsys):
    args = ab.parse_args(["--bench", "orca:python", "--pairs", "3"])
    assert args.bench == "orca:python" and args.workload is None
    assert ab.parse_args(["--bench", "engine"]).bench == "engine"
    for argv, message in [
            (["--bench", "nope"], "unknown bench suite 'nope'"),
            (["--bench", "orca:gpu"], "unknown engine tier 'gpu'"),
            (["--bench", "orca", "--cmd", "true"], "not allowed")]:
        with pytest.raises(SystemExit):
            ab.parse_args(argv)
        assert message in capsys.readouterr().err
