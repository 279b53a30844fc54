"""Benchmark for the partitioned (PDES) engine: protocol overhead/epoch.

Measures *host* wall-clock for the same simulation twice — the
single-process oracle and the per-cluster partitioned engine with one
forked worker per cluster — on the PDES-capable apps.  The checked
number is the **per-epoch protocol overhead**::

    overhead_us_per_epoch = (best_pdes - best_serial) / epochs * 1e6

i.e. what every conservative synchronization round costs on top of the
work the oracle does anyway.  Unlike raw runs/s it is meaningful on any
host: on a one-core machine the partitions time-slice, the wall clock
is the *sum* of all partitions' CPU, and the difference against serial
is exactly the fast-lane protocol cost (channel codec, ring transfer,
semaphore handoff, cap algebra).  Lower is better; ``repro bench
--check`` enforces a ceiling instead of a floor for it.

Epoch counts, throughput and the wall-clock speedup ride along
informationally — the speedup approaches the partition count only when
the host has as many free cores as partitions, so it is geometry-bound
and never checked.  ``host_cores`` is recorded next to the numbers so
a committed baseline is never read without its geometry.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_pdes_micro.py [--repeat 3]

The ``repro bench`` verb turns the numbers into the committed
``BENCH_pdes.json`` the CI perf-smoke job regresses against.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.apps import make_app, small_params
from repro.harness.experiment import run_app


def _run(app_name: str, n_clusters: int, per: int, pdes: str,
         workers: int = 0):
    app = make_app(app_name)
    kwargs = {"pdes": pdes}
    if workers:
        kwargs["pdes_workers"] = workers
    return run_app(app, app.variants[0], n_clusters, per,
                   small_params(app_name), **kwargs)


#: (name, app, clusters, nodes/cluster).  4 clusters is the paper's DAS
#: configuration and the ISSUE's reference geometry.
WORKLOADS = [
    ("sor_4x4", "sor", 4, 4),
    ("ra_4x2", "ra", 4, 2),
]


def run_suite(repeat: int = 3):
    """Return ``(text, data)``: printable table and per-workload numbers."""
    cores = os.cpu_count() or 1
    header = (f"{'workload':>10} {'us/epoch':>9} {'epochs':>7} "
              f"{'serial/s':>9} {'pdes/s':>8} {'speedup':>8}")
    lines = [f"pdes micro-benchmark: per-epoch protocol overhead "
             f"(host cores: {cores})", header]
    data = {"host_cores": cores}
    for name, app_name, n_clusters, per in WORKLOADS:
        best_serial = best_pdes = float("inf")
        for _ in range(repeat):
            t0 = time.perf_counter()
            serial = _run(app_name, n_clusters, per, "off")
            best_serial = min(best_serial, time.perf_counter() - t0)
            t0 = time.perf_counter()
            pdes = _run(app_name, n_clusters, per, "on", workers=n_clusters)
            best_pdes = min(best_pdes, time.perf_counter() - t0)
            assert serial.elapsed == pdes.elapsed, name  # parity, always
            assert pdes.sim_stats.get("pdes_partitions") == n_clusters, name
        epochs = int(pdes.sim_stats["pdes_epochs"])
        overhead = (best_pdes - best_serial) / epochs * 1e6
        speedup = best_serial / best_pdes
        data[name] = {
            "overhead_us_per_epoch": round(overhead, 1),
            "epochs": epochs,
            "round_trips": int(pdes.sim_stats.get("pdes_round_trips", 0)),
            "serial_runs_per_s": 1.0 / best_serial,
            "pdes_runs_per_s": 1.0 / best_pdes,
            "speedup": round(speedup, 2),
            "workers": n_clusters,
        }
        lines.append(f"{name:>10} {overhead:>9.1f} {epochs:>7} "
                     f"{1 / best_serial:>9.2f} {1 / best_pdes:>8.2f} "
                     f"{speedup:>7.2f}x")
    return "\n".join(lines), data


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3,
                        help="repetitions per workload (best is reported)")
    args = parser.parse_args(argv)
    text, _data = run_suite(repeat=args.repeat)
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
