#!/usr/bin/env python3
"""End-to-end benchmark of the simulator's *host* time (README.md here).

    python3 benchmarks/e2e/run.py --workload bcast_4x15 --seed 0
    python3 benchmarks/e2e/run.py --workload bcast_4x15 --seed 0 --traced
    python3 benchmarks/e2e/run.py                    # all seven workloads
    python3 benchmarks/e2e/run.py --aa 3 --runs 4    # A/A sets vs the bounds
    python3 benchmarks/e2e/run.py --write-expected   # regenerate the oracle

This file is the hermetic driver: it strips every ``REPRO_*`` variable,
builds the compiled core *before* anything is timed, runs each workload
in one fresh child (``child.py``) under a hard deadline, and prints every
metric of ``BENCHMARK.json`` by name with its unit.  The last line of
standard output is the machine-readable result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
#: One invocation (build + child + probes) must end within the
#: contract's 180 s; a child still running at the deadline is killed.
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result (not a failed operation)."""


def hermetic_env(**extra: str) -> Dict[str, str]:
    """The child environment: no ``REPRO_*`` toggle, ``PYTHONPATH=src``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([inherited] if inherited else []))
    env.update(extra)
    return env


def _run(cmd: List[str], env: Dict[str, str], deadline: float) -> str:
    """Run ``cmd`` in its own process group; kill the group at the
    deadline or on any exit path, so no worker outlives the benchmark."""
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"deadline exceeded: {' '.join(cmd[:3])} ...") from None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[:3])} ... exited {proc.returncode}")
    return out


def build_core(deadline: float) -> Dict[str, Any]:
    """Trigger the compiled-core build outside every timed region."""
    t0 = time.monotonic()
    tier = _run([sys.executable, "-c",
                 "import repro.sim.engine as e; print(e.ENGINE_TIER)"],
                hermetic_env(), deadline).strip()
    return {"build_s": time.monotonic() - t0, "engine_tier": tier}


def git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10).stdout.strip() \
            or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 opts: argparse.Namespace) -> Dict[str, Any]:
    """One hermetic run of one workload -> header, metrics, verdict."""
    deadline = time.monotonic() + DEADLINE_S
    out_dir = Path(opts.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=out_dir)
    try:
        build = build_core(deadline)
        result = os.path.join(tmp, "result.json")
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(int(traced)), "--tmp", tmp, "--result", result,
               "--expected", opts.expected,
               "--spans", str(out_dir / f"{name}-seed{seed}.spans.jsonl")]
        if opts.tiny:
            cmd.append("--tiny")
        t_spawn = time.monotonic()
        _run(cmd, hermetic_env(), deadline)
        with open(result, encoding="utf-8") as fh:
            doc = json.load(fh)
        walls, cpus = doc["wall_s"], doc["cpu_s"]
        values = {"wall_s": statistics.median(walls),
                  "cpu_s": statistics.median(cpus),
                  "peak_rss_mb": doc["peak_rss_mb"],
                  "setup_s": (doc["ready_monotonic"] - t_spawn)
                  * doc["setup_speed"]}
        if traced:
            values = dict(doc["layer"])
            if name == "bcast_4x15":
                # The portability tier, first run of the list, in a child
                # of its own: the one REPRO_* variable this benchmark sets.
                _run(cmd + ["--probe-first-op"],
                     hermetic_env(REPRO_ENGINE="python"), deadline)
                with open(result, encoding="utf-8") as fh:
                    probe = json.load(fh)
                if probe["error"] or probe["tier"] != "python":
                    raise BenchError(f"python-tier probe failed: {probe}")
                values["sim.python_tier_x"] = probe["wall_s"] / \
                    values["run.asp-original.wall_s"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    declared = opts.spec["per_layer" if traced else "end_to_end"]
    unknown = set(values) - {m["name"] for m in declared}
    if unknown:
        raise BenchError(f"metrics missing from BENCHMARK.json: "
                         f"{sorted(unknown)}")
    # A per-layer metric that does not apply to this workload reads 0.
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in declared}
    header = dict(doc["header"], **build, git=git_sha(), workload=name,
                  traced=traced)
    return {"header": header, "metrics": metrics, "counts": doc["counts"],
            "spread": {"wall_s": [min(walls), max(walls)],
                       "cpu_s": [min(cpus), max(cpus)]},
            "raw_wall_s": statistics.median(doc["raw_wall_s"]),
            "attempted": doc["attempted"], "failures": doc["failures"],
            "prints": doc["prints"]}


def report(res: Dict[str, Any]) -> None:
    """Every metric by name with its unit, after a header that says what
    host and configuration the numbers were taken on."""
    h = res["header"]
    print("# " + " ".join(f"{k}={h[k]}" for k in (
        "workload", "seed", "traced", "passes", "geometry", "host_cores",
        "jobs", "pdes_workers", "engine_tier", "python", "git", "build_s", "tiny")))
    for name, m in res["metrics"].items():
        value = m["value"]  # counts print exactly, measurements to 6 digits
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
        line = f"{name:<34} {shown} {m['unit']}"
        if name in res["spread"]:  # <20 samples: min/max beside the median
            lo, hi = res["spread"][name]
            line += f"   (median of {h['passes']}; min {lo:.4g} max {hi:.4g})"
        print(line)
    if not h["traced"]:
        print(f"  raw wall-clock of the median pass, unadjusted: "
              f"{res['raw_wall_s']:.6g} s")
        for name, value in sorted(res["counts"].items()):
            print(f"  count {name:<32} {value:>16d}")
    print(f"operations: {res['attempted']} attempted, "
          f"{len(res['failures'])} failed")
    for why in res["failures"]:
        print(f"  FAILED {why}")


def final_line(results: List[Dict[str, Any]]) -> str:
    """The contract's last line; metric names gain a ``<workload>.``
    prefix only when several workloads were run by one command."""
    metrics = {}
    for res in results:
        prefix = f"{res['header']['workload']}." if len(results) > 1 else ""
        for name, m in res["metrics"].items():
            metrics[prefix + name] = m
    failed = sum(len(r["failures"]) for r in results)
    return json.dumps({"correct": failed == 0,
                       "attempted": sum(r["attempted"] for r in results),
                       "failed": failed, "metrics": metrics})


def write_expected(names: List[str], opts: argparse.Namespace) -> int:
    """Regenerate the committed fingerprints from traced seed-0 runs (the
    traced run also executes the serial twins, so what is written has
    been seen identical pooled, serial, cached, partitioned)."""
    path = Path(opts.expected)
    doc = {"schema": 1, "workloads": {}}
    if path.exists():
        doc = json.loads(path.read_text(encoding="utf-8"))
    opts.expected = ""  # judge by invariants only while regenerating
    for name in names:
        res = run_workload(name, 0, opts.seconds, True, opts)
        report(res)
        if res["failures"]:
            print(f"not writing {path}: {name} has failed operations",
                  file=sys.stderr)
            return 1
        doc["workloads"][name] = res["prints"]
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"wrote {path}")
    return 0


def _spread(values: List[float]) -> float:
    """IQR over median, the driver's steadiness measure (needs >= 4)."""
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def aa(names: List[str], opts: argparse.Namespace) -> int:
    """N sets of the same checkout, alternating workload order: per
    (metric, workload) the relative difference of the sets' medians and
    the widest within-set spread, against the committed bound."""
    samples: Dict[tuple, List[List[float]]] = {}
    counts: Dict[tuple, Dict[str, float]] = {}
    drift: List[str] = []
    failed = 0
    for s in range(opts.aa):
        for name in names if s % 2 == 0 else list(reversed(names)):
            for seed in range(1, opts.runs + 1):
                res = run_workload(name, seed, opts.seconds, False, opts)
                failed += len(res["failures"])
                values = {k: m["value"] for k, m in res["metrics"].items()}
                # Shown ungated, as the evidence for calibrating at all.
                values["wall_s raw"] = res["raw_wall_s"]
                for metric, value in values.items():
                    samples.setdefault(
                        (metric, name),
                        [[] for _ in range(opts.aa)])[s].append(value)
                if counts.setdefault((name, seed), res["counts"]) \
                        != res["counts"]:
                    drift.append(f"{name} seed {seed}")
                print(f"set {s + 1}/{opts.aa} {name} seed {seed}: "
                      + " ".join(f"{k}={v:.4g}" for k, v in values.items()),
                      file=sys.stderr)
    bounds = {m["name"]: m["bound"] for m in opts.spec["end_to_end"]}
    print("| metric | workload | set medians | median diff | "
          "max spread | bound | verdict |")
    print("|---|---|---|---|---|---|---|")
    wide = 0
    for (metric, name), sets in sorted(samples.items()):
        meds = [statistics.median(v) for v in sets]
        diff = (max(meds) - min(meds)) / min(meds)
        spread = max((_spread(v) for v in sets if len(v) >= 4), default=0.0)
        bound = bounds.get(metric)
        verdict = "not gated"
        if bound is not None:
            # The driver exempts setup_s from the spread check only.
            ok = diff <= bound and (spread <= bound or metric == "setup_s")
            wide += not ok
            verdict = "ok" if ok else "WIDER THAN BOUND"
        print(f"| {metric} | {name} | "
              + " / ".join(f"{m:.4g}" for m in meds)
              + f" | {diff:.3f} | {spread:.3f} | {bound or '-'} | {verdict} |")
    print("counts: " + ("identical across sets" if not drift
                         else f"DIFFER for {sorted(set(drift))}"))
    print(f"failed operations: {failed}")
    return 1 if wide or drift or failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="seconds of timed passes per run "
                         "(default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--traced", action="store_true", help="same as --trace 1")
    ap.add_argument("--aa", type=int, default=0, metavar="N",
                    help="run N>=2 full sets and compare them to the bounds")
    ap.add_argument("--runs", type=int, default=3,
                    help="runs (seeds 1..R) per workload per A/A set")
    ap.add_argument("--write-expected", action="store_true")
    ap.add_argument("--expected", default=str(HERE / "expected.json"))
    ap.add_argument("--out-dir", default=str(HERE / "out"))
    ap.add_argument("--tiny", action="store_true",
                    help="2x2 geometry, small_params (the self-test's scale)")
    opts = ap.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").exists() or not SPEC.exists():
        print(f"run.py: no program to measure: {SRC / 'repro'} or {SPEC} "
              f"is missing", file=sys.stderr)
        return 2
    with open(SPEC, encoding="utf-8") as fh:
        opts.spec = json.load(fh)
    if opts.seconds is None:
        opts.seconds = float(opts.spec["run_seconds"])
    every = [w["name"] for w in opts.spec["workloads"]]
    if opts.workload != "all" and opts.workload not in every:
        print(f"run.py: unknown workload {opts.workload!r}; choose from "
              f"{every}", file=sys.stderr)
        return 2
    names = every if opts.workload == "all" else [opts.workload]
    try:
        if opts.write_expected:
            return write_expected(names, opts)
        if opts.aa:
            if opts.aa < 2:
                ap.error("--aa needs at least 2 sets")
            return aa(names, opts)
        results = []
        for name in names:
            results.append(run_workload(name, opts.seed, opts.seconds,
                                        bool(opts.trace or opts.traced), opts))
            report(results[-1])
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(final_line(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
