#!/usr/bin/env python3
"""Alternating A/B runs of one end-to-end workload, of one command, or
of one ``repro bench`` suite, against a parent commit.

Usage::

    python tools/ab.py --workload bcast_4x15 --pairs 10
    python tools/ab.py --workload p2p_4x15 --workload rpc_4x15 --pairs 6
    python tools/ab.py --workload pdes_4x15 --pairs 8 --aa
    python tools/ab.py --workload p2p_4x15 --ref HEAD~3 --seed 1
    python tools/ab.py --cmd "python -m repro app ra --no-cache" --pairs 6
    python tools/ab.py --bench orca:python --pairs 8

The tool clones ``--ref`` (default ``HEAD~1``) into a temporary
directory; ``--aa`` adds a second clone of it, for three-way judging.
It then runs, from each tree in turn, ``--pairs`` times:

* ``--workload W``: ``benchmarks/e2e/run.py --workload W --seed S``.
  Each tree runs its own copy of the instrument and builds its own
  compiled core.  Repeated, each workload's pairs run in turn on the
  same clones and builds, and each gets its own block of the report.
* ``--cmd "..."``: the command (split like a shell would, run without
  one) in the tree's root with ``PYTHONPATH=<tree>/src``, timed by the
  wall clock.  One untimed run per tree first builds its compiled core.
* ``--bench SUITE[:TIER]``: ``python -m repro bench --suite SUITE
  --repeat 1`` in the tree's root with ``PYTHONPATH=<tree>/src``, each
  row read from the ``current`` column.  ``TIER`` (``python`` or
  ``compiled``) sets ``REPRO_ENGINE`` for both trees and drops a tiered
  suite's rows of the other tier.  A row is higher-is-better (a rate),
  except a ``_us_per_epoch`` row, a cost.

The side that goes first rotates from one round to the next; the
working tree is the change.  It prints, per end-to-end metric of
``BENCHMARK.json`` (``wall_s`` alone for ``--cmd``, every row for
``--bench``), each side's median and quartiles, the parent's
inter-quartile range and how many pairs the change won, with the
``host_cores`` and ``engine_tier`` of the workload runs.  With
``--aa`` the second clone gets the same row, read against the first.
It exits 1 if a workload run's ``count`` lines
differ or an operation failed, or if a command's standard output
differs from the parent's first run byte for byte.  The tool itself
writes nothing under ``benchmarks/e2e/`` and judges no claim: the
reader applies the claim rule to what it prints.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

REPO = Path(__file__).resolve().parent.parent
COUNT_LINE = re.compile(r"^\s+count (\S+)\s+(\S+)$")
TIERS = ("python", "compiled")


def parse_run(out: str) -> dict:
    """One ``run.py`` report: its header fields, ``count`` lines, the
    failed-operation count and the end-to-end metric values."""
    lines = out.splitlines()
    header = dict(tok.split("=", 1) for tok in lines[0].lstrip("# ").split()
                  if "=" in tok)
    counts = {m.group(1): m.group(2)
              for m in map(COUNT_LINE.match, lines) if m}
    result = json.loads(lines[-1])
    return {"header": header, "counts": counts,
            "failed": result["failed"], "correct": result["correct"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def parse_bench(out: str, tier: Optional[str] = None) -> dict:
    """One ``repro bench`` table: ``{"metrics": {row: current}}``, the
    header and unmeasured rows skipped; with ``tier``, a tiered row
    (``engine/<tier>/...``) of another tier is dropped."""
    metrics = {}
    for line in out.splitlines()[1:]:
        name, _base, cur, *_rest = line.split()
        row_tier = name.split("/")[1] if name.count("/") > 1 else None
        if cur != "-" and (tier is None or row_tier not in TIERS
                           or row_tier == tier):
            metrics[name] = float(cur)
    return {"metrics": metrics}


def _quartiles(values: List[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


HEAD_ROW = (f"{'metric':<12} {'side':<10} {'median':>10} {'q1':>10} "
            f"{'q3':>10} {'vs parent':>10} {'wins':>6}  (parent IQR, bound)")


def metric_rows(spec: dict, sides: List[Tuple[str, List[dict]]]
                ) -> Tuple[List[str], List[str]]:
    """One metric's rows, the parent first: each side's median and
    quartiles, then the change's (and A/A's) relative median and wins
    over the pairs.  ``spec`` is one BENCHMARK.json ``end_to_end``
    entry; a run lacking the metric is a problem."""
    name, lower = spec["name"], spec["better"] == "lower"
    vals = {}
    for label, runs in sides:
        got = [run["metrics"].get(name) for run in runs]
        if None in got:
            return [], [f"{label}: no {name}"]
        vals[label] = got
    base = vals["parent"]
    pmed = statistics.median(base)
    lines = []
    for label, got in vals.items():
        med = statistics.median(got)
        q1, q3 = _quartiles(got)
        row = f"{name if label == 'parent' else '':<12} {label:<10} " \
              f"{med:>10.4f} {q1:>10.4f} {q3:>10.4f}"
        if label == "parent":
            bound = (f", bound {spec['bound']:.0%}" if "bound" in spec
                     else "")
            lines.append(f"{row} {'':>10} {'':>6}  (IQR {q3 - q1:.4f}"
                         f"{bound})")
            continue
        wins = sum((v < b) if lower else (v > b) for v, b in zip(got, base))
        rel = f"{(med - pmed) / pmed:+.1%}" if pmed else "n/a"
        lines.append(f"{row} {rel:>10} {wins:>3}/{len(got):<2}")
    return lines, []


def summarize(metrics: List[dict], parent: List[dict], change: List[dict],
              aa: Optional[List[dict]] = None) -> Tuple[List[str], List[str]]:
    """The report over paired runs (``parent[i]`` pairs ``change[i]``
    and ``aa[i]``), and the problems: differing ``count`` lines, failed
    operations, a missing metric.  ``metrics`` are BENCHMARK.json's
    ``end_to_end`` entries.  Pure: no process is run."""
    problems: List[str] = []
    sides = [("parent", parent), ("change", change)]
    if aa is not None:
        sides.append(("parent-aa", aa))
    ref_counts = parent[0]["counts"] if parent else {}
    for label, runs in sides:
        for i, run in enumerate(runs):
            if run["failed"] or not run["correct"]:
                problems.append(f"{label} run {i}: {run['failed']} failed, "
                                f"correct={run['correct']}")
            if run["counts"] != ref_counts:
                moved = sorted(k for k in set(ref_counts) | set(run["counts"])
                               if ref_counts.get(k) != run["counts"].get(k))
                problems.append(f"{label} run {i}: counts differ: "
                                + ", ".join(moved))
    headers = [run["header"] for _label, runs in sides for run in runs]
    tiers = sorted({h.get("engine_tier", "?") for h in headers})
    cores = sorted({h.get("host_cores", "?") for h in headers})
    lines = [f"pairs={len(change)} host_cores={','.join(cores)} "
             f"engine_tier={','.join(tiers)}", HEAD_ROW]
    for spec in metrics:
        rows, missing = metric_rows(spec, sides)
        lines += rows
        problems += missing
    return lines, problems


def compare_outputs(runs: Dict[str, List[dict]]) -> List[str]:
    """The problems of a ``--cmd`` comparison: each run whose
    ``stdout`` is not byte-identical to the parent's first run.  Pure."""
    ref = runs["parent"][0]["stdout"]
    return [f"{label} run {i}: stdout differs from parent run 0"
            for label, side in runs.items()
            for i, run in enumerate(side) if run["stdout"] != ref]


def summarize_cmd(wall_spec: dict, runs: Dict[str, List[dict]]
                  ) -> Tuple[List[str], List[str]]:
    """The ``--cmd`` report over paired runs (``{"metrics": {"wall_s":
    seconds}, "stdout": bytes}`` per run, the parent side first): the
    ``wall_s`` rows and :func:`compare_outputs`.  Pure."""
    rows, problems = metric_rows(wall_spec, list(runs.items()))
    return ([f"pairs={len(runs['parent'])}", HEAD_ROW] + rows,
            problems + compare_outputs(runs))


def summarize_bench(runs: Dict[str, List[dict]]
                    ) -> Tuple[List[str], List[str]]:
    """The ``--bench`` report over paired runs (:func:`parse_bench` per
    run, the parent side first): every row any run measured, in
    first-seen order, with its medians, quartiles and wins, and a
    problem per row some run lacks.  A ``_us_per_epoch`` row is a cost
    (lower is better), every other row a rate.  Pure."""
    lines = [f"pairs={len(runs['parent'])}", HEAD_ROW]
    problems: List[str] = []
    names = dict.fromkeys(name for side in runs.values() for run in side
                          for name in run["metrics"])
    for name in names:
        better = "lower" if name.endswith("_us_per_epoch") else "higher"
        rows, missing = metric_rows({"name": name, "better": better},
                                    list(runs.items()))
        lines += rows
        problems += missing
    return lines, problems


def _clone(ref: str, dest: Path) -> None:
    sha = subprocess.run(["git", "rev-parse", "--verify", ref], cwd=REPO,
                         check=True, capture_output=True,
                         text=True).stdout.strip()
    subprocess.run(["git", "clone", "--quiet", "--shared", str(REPO),
                    str(dest)], check=True)
    subprocess.run(["git", "checkout", "--quiet", sha], cwd=dest, check=True)


def _run(tree: Path, workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(tree / "benchmarks" / "e2e" / "run.py"),
         "--workload", workload, "--seed", str(seed)],
        cwd=tree, check=True, capture_output=True, text=True).stdout
    return parse_run(out)


def _run_cmd(tree: Path, argv: List[str]) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    t0 = time.perf_counter()
    out = subprocess.run(argv, cwd=tree, env=env, check=True,
                         stdout=subprocess.PIPE).stdout
    return {"metrics": {"wall_s": time.perf_counter() - t0}, "stdout": out}


def _run_bench(tree: Path, suite: str, tier: Optional[str]) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    if tier is not None:
        env["REPRO_ENGINE"] = tier
    out = subprocess.run(
        [sys.executable, "-m", "repro", "bench", "--suite", suite,
         "--repeat", "1"], cwd=tree, env=env, check=True,
        capture_output=True, text=True).stdout
    return parse_bench(out, tier)


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    """The command line.  ``--workload`` repeats; each name must be a
    workload of BENCHMARK.json."""
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    what = ap.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload", action="append",
                      help="a workload of BENCHMARK.json; repeat it to "
                           "run several, one after another")
    what.add_argument("--cmd", help="a command to time in each tree")
    what.add_argument("--bench", metavar="SUITE[:TIER]",
                      help="a repro bench suite, optionally on one engine "
                           "tier (python or compiled)")
    ap.add_argument("--ref", default="HEAD~1",
                    help="the parent to clone (default HEAD~1)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--pairs", type=int, default=10,
                    help="rounds; each runs every side once (default 10)")
    ap.add_argument("--aa", action="store_true",
                    help="add a second clone of --ref (three-way judging)")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error(f"argument --pairs: {args.pairs} must be >= 1")
    known = {w["name"] for w in _benchmark()["workloads"]}
    for workload in args.workload or ():
        if workload not in known:
            ap.error(f"unknown workload {workload!r}")
    if args.bench is not None:
        suite, sep, tier = args.bench.partition(":")
        if not (REPO / "benchmarks" / f"bench_{suite}_micro.py").exists():
            ap.error(f"unknown bench suite {suite!r}")
        if sep and tier not in TIERS:
            ap.error(f"unknown engine tier {tier!r} (want python or "
                     "compiled)")
    return args


def _benchmark() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text())


def _report(args, spec: dict, workload: Optional[str],
            runs: Dict[str, List[dict]]) -> bool:
    """Print one workload's (or the command's) block; True if it found
    a problem."""
    aa = " (+A/A clone)" if args.aa else ""
    if args.bench is not None:
        print(f"# bench={args.bench} ref={args.ref}{aa}")
        lines, problems = summarize_bench(runs)
        ok = "every run: every row measured"
    elif workload is None:
        print(f"# cmd={args.cmd!r} ref={args.ref}{aa}")
        lines, problems = summarize_cmd(
            next(m for m in spec["end_to_end"] if m["name"] == "wall_s"),
            runs)
        ok = "every run: stdout byte-identical to the parent's"
    else:
        print(f"# {workload} seed={args.seed} ref={args.ref}{aa}")
        lines, problems = summarize(spec["end_to_end"], runs["parent"],
                                    runs["change"], runs.get("parent-aa"))
        ok = "every run: 0 failed, identical count lines"
    print("\n".join(lines))
    for problem in problems:
        print(f"PROBLEM {problem}")
    if not problems:
        print(ok)
    print(flush=True)
    return bool(problems)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    spec = _benchmark()
    cmd = None if args.cmd is None else shlex.split(args.cmd)
    failed = False
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        trees: Dict[str, Path] = {"parent": Path(tmp) / "parent",
                                  "change": REPO}
        if args.aa:
            trees["parent-aa"] = Path(tmp) / "parent-aa"
        for label, tree in trees.items():
            if tree != REPO:
                _clone(args.ref, tree)
        if cmd is not None:
            for tree in trees.values():
                _run_cmd(tree, cmd)
        order = list(trees)
        # One block per workload, all on the same clones and builds.
        suite, _, tier = (args.bench or "").partition(":")
        for workload in args.workload or [None]:
            runs: Dict[str, List[dict]] = {label: [] for label in trees}
            for i in range(args.pairs):
                k = i % len(order)
                for label in order[k:] + order[:k]:
                    tree = trees[label]
                    runs[label].append(
                        _run(tree, workload, args.seed) if workload else
                        _run_cmd(tree, cmd) if cmd else
                        _run_bench(tree, suite, tier or None))
                    got = runs[label][-1]["metrics"]
                    print(f"# {workload or args.bench or 'cmd'} round "
                          f"{i + 1}/{args.pairs} {label}: "
                          f"{got.get('wall_s', f'{len(got)} rows')}",
                          file=sys.stderr, flush=True)
            failed |= _report(args, spec, workload, runs)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
