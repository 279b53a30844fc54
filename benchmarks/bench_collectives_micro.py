"""Micro-benchmark for the tuner's collective primitives: ops per second.

Measures *host* wall-clock throughput of the parameterized collectives
PR 8 added to the fabric — the chain and binomial WAN fan-out shapes,
k-stream WAN striping — next to the flat fan-out they compete with, plus
the tuner's own probe loop (probes per second through
``repro.tuner.sweep``).  Shapes and striping are continuations over
the fabric's one chained WAN leg; one number per workload.

Each workload returns the operations it completed.  Run it with::

    PYTHONPATH=src python -m repro bench --suite collectives [--repeat 3]

``repro bench --write`` turns the numbers into the committed
``BENCH_collectives.json`` the CI perf-smoke job regresses against.
"""

from __future__ import annotations

from repro.network import DAS_PARAMS, Fabric, uniform_clusters
from repro.sim import Simulator
from repro.tuner import Strategy


def _mk(n_clusters: int = 4, per: int = 4):
    sim = Simulator()
    topo = uniform_clusters(n_clusters, per)
    return sim, Fabric(sim, topo, DAS_PARAMS)


def _wl_fanout(shape: str, n: int, size: int = 4096) -> int:
    sim, fab = _mk()

    def proc():
        for _ in range(n):
            done = yield from fab.wan_fanout_multicast(0, size, shape=shape)
            yield done

    sim.run_process(proc())
    return n


def wl_fanout_flat(n: int = 1_500) -> int:
    """Flat WAN fan-outs (the fixed default shape), 4 clusters."""
    return _wl_fanout("flat", n)


def wl_fanout_chain(n: int = 1_000) -> int:
    """Chain WAN fan-outs: gateway relay across 4 clusters."""
    return _wl_fanout("chain", n)


def wl_fanout_binomial(n: int = 1_000) -> int:
    """Binomial WAN fan-outs: recursive halving across 4 clusters."""
    return _wl_fanout("binomial", n)


class _Stripes:
    """Minimal decision stub: force k-stream point-to-point striping."""

    def __init__(self, k: int):
        self.k = k

    def strategy(self, size: int, n_clusters: int) -> Strategy:
        return Strategy(bb=False)

    def wan_streams(self, size: int, n_clusters: int) -> int:
        return self.k


def wl_stripe4(n: int = 1_500) -> int:
    """4-stream striped WAN deliveries, one in flight at a time."""
    sim, fab = _mk(n_clusters=2)
    fab.decision = _Stripes(4)

    def proc():
        for _ in range(n):
            yield from fab.send_and_wait(0, 4, 65536)

    sim.run_process(proc())
    return n


def wl_tune_probe(reps: int = 2) -> int:
    """The tuner's own probe loop: one tiny clean sweep, probes/s."""
    from repro.tuner import sweep

    probes = sweep(sizes=(1024, 16384), cluster_counts=(2,),
                   nodes_per_cluster=2, scenarios=(None,), reps=reps)
    return len(probes)


WORKLOADS = [
    ("fanout_flat", wl_fanout_flat),
    ("fanout_chain", wl_fanout_chain),
    ("fanout_binomial", wl_fanout_binomial),
    ("stripe4", wl_stripe4),
    ("tune_probe", wl_tune_probe),
]

