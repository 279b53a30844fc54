"""Benchmark for the partitioned (PDES) engine: protocol overhead/epoch.

Measures *host* wall-clock for the same simulation twice — the
single-process oracle and the per-cluster partitioned engine with one
partition per cluster (the coordinator runs the first, forked workers
the rest) — on the PDES-capable apps.  The checked
number is the **per-epoch protocol overhead**::

    overhead_us_per_epoch = (best_pdes - best_serial) / epochs * 1e6

i.e. what every conservative synchronization round costs on top of the
work the oracle does anyway.  Unlike raw runs/s it is meaningful on any
host: on a one-core machine the partitions time-slice, the wall clock
is the *sum* of all partitions' CPU, and the difference against serial
is exactly the fast-lane protocol cost (pipe transfer and wake-up, cap
algebra).  Lower is better; ``repro bench
--check`` enforces a ceiling instead of a floor for it.  Read it
with the ``epochs`` beside it: a change that adds epochs lowers the
per-epoch figure without lowering the run's total overhead,
``overhead_us_per_epoch * epochs``.

Epoch counts, throughput and the wall-clock speedup ride along in the
baseline's ``info`` — the speedup approaches the partition count only
when the host has as many free cores as partitions, so it is
geometry-bound and never checked; the file's ``host_cores`` stamp says
which geometry they were taken on.

Run it with::

    PYTHONPATH=src python -m repro bench --suite pdes [--repeat 3]

``repro bench --write`` turns the numbers into the committed
``BENCH_pdes.json`` the CI perf-smoke job regresses against.
"""

from __future__ import annotations

import time

from repro.apps import make_app, small_params
from repro.harness.experiment import run_app

#: (name, app, clusters, nodes/cluster).  4 clusters is the paper's DAS
#: configuration and the ISSUE's reference geometry.
WORKLOADS = [
    ("sor_4x4", "sor", 4, 4),
    ("ra_4x2", "ra", 4, 2),
]


def serial_vs_pdes(app_name: str, n_clusters: int, per: int, repeat: int):
    """One workload, both ways: ``(overhead_us_per_epoch, info)`` with
    one forked worker per cluster, parity asserted on every repetition."""
    app = make_app(app_name)

    def run(**mode):
        return run_app(app, app.variants[0], n_clusters, per,
                       small_params(app_name), **mode)

    best_serial = best_pdes = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        serial = run(pdes="off")
        best_serial = min(best_serial, time.perf_counter() - t0)
        t0 = time.perf_counter()
        pdes = run(pdes="on", pdes_workers=n_clusters)
        best_pdes = min(best_pdes, time.perf_counter() - t0)
        assert serial.elapsed == pdes.elapsed, app_name  # parity, always
        assert pdes.sim_stats.get("pdes_partitions") == n_clusters, app_name
    epochs = int(pdes.sim_stats["pdes_epochs"])
    return round((best_pdes - best_serial) / epochs * 1e6, 1), {
        "epochs": epochs,
        "round_trips": int(pdes.sim_stats.get("pdes_round_trips", 0)),
        "serial_runs_per_s": 1.0 / best_serial,
        "pdes_runs_per_s": 1.0 / best_pdes,
        "speedup": round(best_serial / best_pdes, 2),
        "workers": n_clusters,
    }
