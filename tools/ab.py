#!/usr/bin/env python3
"""Alternating A/B runs of one end-to-end workload against a parent commit.

Usage::

    python tools/ab.py --workload bcast_4x15 --pairs 10
    python tools/ab.py --workload pdes_4x15 --pairs 8 --aa
    python tools/ab.py --workload p2p_4x15 --ref HEAD~3 --seed 1

The tool clones ``--ref`` (default ``HEAD~1``) into a temporary
directory; ``--aa`` adds a second clone of it, for three-way judging.
It then runs ``benchmarks/e2e/run.py --workload W --seed S`` from each
tree in turn, ``--pairs`` times.  The side that goes first rotates from
one round to the next.  Each tree runs its own copy of the instrument
and builds its own compiled core; the working tree is the change.

It prints, per end-to-end metric of ``BENCHMARK.json``:

* each side's median;
* the parent's inter-quartile range;
* how many pairs the change won;

with the ``host_cores`` and ``engine_tier`` of the runs.  With ``--aa``
the second clone gets the same row, read against the first.  It checks
that every run's ``count`` lines are identical and that no operation
failed, and exits 1 if not.  The tool itself writes nothing under
``benchmarks/e2e/`` and judges no claim: the reader applies the claim
rule to what it prints.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple

REPO = Path(__file__).resolve().parent.parent
COUNT_LINE = re.compile(r"^\s+count (\S+)\s+(\S+)$")


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


def _iqr(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


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
             f"engine_tier={','.join(tiers)}",
             f"{'metric':<12} {'side':<10} {'median':>10} {'vs parent':>10} "
             f"{'wins':>6}  (parent IQR, bound)"]
    for spec in metrics:
        name, lower = spec["name"], spec["better"] == "lower"
        base = [run["metrics"].get(name) for run in parent]
        if None in base:
            problems.append(f"parent: no {name}")
            continue
        pmed = statistics.median(base)
        lines.append(f"{name:<12} {'parent':<10} {pmed:>10.4f} {'':>10} "
                     f"{'':>6}  (IQR {_iqr(base):.4f}, bound "
                     f"{spec['bound']:.0%})")
        for label, runs in sides[1:]:
            vals = [run["metrics"].get(name) for run in runs]
            if None in vals:
                problems.append(f"{label}: no {name}")
                continue
            med = statistics.median(vals)
            wins = sum((v < b) if lower else (v > b)
                       for v, b in zip(vals, base))
            rel = f"{(med - pmed) / pmed:+.1%}" if pmed else "n/a"
            lines.append(f"{'':<12} {label:<10} {med:>10.4f} {rel:>10} "
                         f"{wins:>3}/{len(vals):<2}")
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


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="one workload of BENCHMARK.json")
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
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        ap.error(f"unknown workload {args.workload!r}")
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        trees: Dict[str, Path] = {"parent": Path(tmp) / "parent",
                                  "change": REPO}
        if args.aa:
            trees["parent-aa"] = Path(tmp) / "parent-aa"
        for label, tree in trees.items():
            if tree != REPO:
                _clone(args.ref, tree)
        runs: Dict[str, List[dict]] = {label: [] for label in trees}
        order = list(trees)
        for i in range(args.pairs):
            k = i % len(order)
            for label in order[k:] + order[:k]:
                runs[label].append(_run(trees[label], args.workload,
                                        args.seed))
                print(f"# round {i + 1}/{args.pairs} {label}: wall_s "
                      f"{runs[label][-1]['metrics'].get('wall_s')}",
                      file=sys.stderr, flush=True)
    print(f"# {args.workload} seed={args.seed} ref={args.ref}"
          + (" (+A/A clone)" if args.aa else ""))
    lines, problems = summarize(spec["end_to_end"], runs["parent"],
                                runs["change"], runs.get("parent-aa"))
    print("\n".join(lines))
    for problem in problems:
        print(f"PROBLEM {problem}")
    if not problems:
        print("every run: 0 failed, identical count lines")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
