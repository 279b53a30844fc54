"""Self-test of the end-to-end benchmark, at tiny scale.

``--tiny`` swaps every workload to a 2x2 machine with ``small_params``
(the sweep, whose grid the public API fixes, shrinks to one app), so the
whole file runs in about two minutes.  Run it with
``pytest benchmarks/e2e``; tier-1's ``testpaths`` does not collect it.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: Build products and caches any Python run leaves behind (.gitignore).
_NOISE = ("__pycache__", ".pytest_cache", ".hypothesis", "_ccore.")


def bench(tmp_path: Path, *args: str):
    """Run ``run.py --tiny`` with HOME and every output under ``tmp_path``."""
    home = tmp_path / "home"
    home.mkdir(exist_ok=True)
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--tiny", "--seconds", "0.2",
         "--out-dir", str(tmp_path / "out"), *args],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
        env=dict(os.environ, HOME=str(home)))
    assert proc.returncode == 0, proc.stderr
    return proc


def result_of(proc) -> dict:
    return json.loads(proc.stdout.splitlines()[-1])


def test_benchmark_json_names_are_well_formed_and_unique():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] \
        + WORKLOADS
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(tmp_path, workload):
    res = result_of(bench(tmp_path, "--workload", workload, "--seed", "1"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_names_match_and_counts_repeat(tmp_path, workload):
    """Two child processes: same names as BENCHMARK.json, and every count
    (``<layer>.calls`` included) identical — which is what lets a later
    change claim a count."""
    runs = [result_of(bench(tmp_path, "--workload", workload, "--seed", "1",
                            "--trace", "1")) for _ in range(2)]
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for res in runs:
        assert res["failed"] == 0
        assert {k: v["unit"] for k, v in res["metrics"].items()} == declared
        shares = sum(m["value"] for name, m in res["metrics"].items()
                     if name.endswith(".self_frac"))
        assert shares == pytest.approx(1.0, abs=0.01)
    counted = [name for name, unit in declared.items()
               if unit in ("count", "B")]
    first, second = (r["metrics"] for r in runs)
    assert {n: first[n]["value"] for n in counted} \
        == {n: second[n]["value"] for n in counted}
    spans = [json.loads(line) for line in
             (tmp_path / "out" / f"{workload}-seed1.spans.jsonl")
             .read_text(encoding="utf-8").splitlines()]
    assert {"setup", "import", "inputs", "warmup", "pass", "op"} \
        <= {s["name"] for s in spans}
    assert all(s["end"] >= s["start"] for s in spans)


def test_corrupted_expectation_is_exactly_one_failed_operation(tmp_path):
    expected = tmp_path / "expected.json"
    bench(tmp_path, "--workload", "rpc_4x15", "--write-expected",
          "--expected", str(expected))
    doc = json.loads(expected.read_text(encoding="utf-8"))
    ok = result_of(bench(tmp_path, "--workload", "rpc_4x15", "--seed", "0",
                         "--expected", str(expected)))
    assert ok["failed"] == 0
    doc["workloads"]["rpc_4x15"]["tsp-original"]["print"]["elapsed"] = "0.0"
    expected.write_text(json.dumps(doc), encoding="utf-8")
    proc = bench(tmp_path, "--workload", "rpc_4x15", "--seed", "0",
                 "--expected", str(expected))
    bad = result_of(proc)
    assert bad["failed"] == 1 and bad["correct"] is False
    assert bad["attempted"] == ok["attempted"]  # the pass continued
    assert "FAILED warmup/tsp-original: differs from expected.json" \
        in proc.stdout


def _files(root: Path) -> set:
    return {str(p) for p in root.rglob("*")
            if p.is_file() and not any(n in str(p) for n in _NOISE)}


def test_nothing_is_written_outside_the_out_dir(tmp_path):
    before = _files(ROOT)
    bench(tmp_path, "--workload", "sweep_fig15", "--seed", "2")
    bench(tmp_path, "--workload", "pdes_4x15", "--seed", "2", "--trace", "1")
    assert _files(ROOT) == before
    assert _files(tmp_path / "home") == set()  # ~/.cache/repro untouched
    assert [p.name for p in (tmp_path / "out").iterdir()] \
        == ["pdes_4x15-seed2.spans.jsonl"]  # temp dirs removed


def test_exits_nonzero_without_a_program_to_measure(tmp_path):
    """The contract's bare directory: BENCHMARK.json and ``paths`` only."""
    bare = tmp_path / "bare"
    shutil.copytree(HERE, bare / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=bare, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
