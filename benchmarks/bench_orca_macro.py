"""Macro-benchmark: whole applications per second.

Where ``bench_orca_micro`` isolates single control-plane operations,
this runs complete paper applications (test-sized problems) end to end
through ``run_app`` and reports host-side runs per second.  It answers
the question the micro numbers cannot: what a *real* app's host time
is, with application compute, barriers and mixed traffic in the loop.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_orca_macro.py [--repeat 3]

or under pytest-benchmark along with the rest of the suite.  Results
are persisted to ``benchmarks/out/bench_orca_macro.txt`` and folded
into the committed ``BENCH_orca.json`` by ``repro bench --write``.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.apps import make_app, small_params
from repro.harness.experiment import run_app

#: (label, app, n_clusters, nodes_per_cluster) — one broadcast-heavy
#: app, one RPC/job-queue app, one message-passing app.
APPS = [
    ("asp_2x3", "asp", 2, 3),
    ("tsp_2x3", "tsp", 2, 3),
    ("sor_2x3", "sor", 2, 3),
]

def _run(app_name: str, n_clusters: int, per: int):
    app = make_app(app_name)
    return run_app(app, app.variants[0], n_clusters, per,
                   small_params(app_name))


def run_suite(repeat: int = 3):
    """Return ``(text, data)``: a printable table and per-app runs/s."""
    lines = ["orca macro-benchmark: whole-app host throughput",
             f"{'app':>12} {'runs/s':>14}"]
    data = {}
    for name, app_name, n_clusters, per in APPS:
        best = float("inf")
        for _ in range(repeat):
            t0 = time.perf_counter()
            _run(app_name, n_clusters, per)
            best = min(best, time.perf_counter() - t0)
        data[name] = {"ops_per_s": 1.0 / best}
        lines.append(f"{name:>12} {1.0 / best:>14.2f}")
    return "\n".join(lines), data


def test_orca_macro(benchmark):
    """pytest-benchmark entry point: one pass over every app."""
    from conftest import emit, run_once

    text, _data = run_once(benchmark, lambda: run_suite(repeat=1))
    emit("bench_orca_macro", text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3,
                        help="repetitions per app (best is reported)")
    args = parser.parse_args(argv)
    text, _data = run_suite(repeat=args.repeat)
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
