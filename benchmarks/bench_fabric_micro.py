"""Micro-benchmark for the fabric's message paths: messages per second.

Measures *host* wall-clock throughput of whole message deliveries —
self, LAN, WAN and multicast, uncontended and contended, plus the WAN
route under impairments (jitter + loss) and striped over four streams,
and one writer's LAN multicast plus WAN fan-out into the paper's 4 x 15
geometry — on the fabric's one callback-chained message path.  Virtual-time results
are pinned by the golden manifest (``tests/golden/manifest.json``); the
numbers here are pure host-side cost.

Each workload returns the deliveries it made.  Run it with::

    PYTHONPATH=src python -m repro bench --suite fabric [--repeat 3]

``repro bench --write`` turns the numbers into the committed
``BENCH_fabric.json`` the CI perf-smoke job regresses against.
"""

from __future__ import annotations

from repro.network import DAS_PARAMS, Fabric, uniform_clusters
from repro.scenario import Impairment, Scenario, install
from repro.sim import Simulator

from bench_collectives_micro import _Stripes

#: The impaired WAN of the ``wan_impaired`` row: every transfer draws a
#: latency factor, and one in ten pays a retransmit.
IMPAIRED = Scenario(seed=7, impairments=(
    Impairment.of("jitter", sigma=0.3), Impairment.of("loss", p=0.1)))


def _mk(n_clusters: int = 2, per: int = 4):
    sim = Simulator()
    topo = uniform_clusters(n_clusters, per)
    return sim, Fabric(sim, topo, DAS_PARAMS)


def wl_self(n: int = 20_000) -> int:
    """Loopback deliveries, one in flight at a time."""
    sim, fab = _mk()

    def proc():
        for _ in range(n):
            yield from fab.send_and_wait(0, 0, 64)

    sim.run_process(proc())
    return n


def wl_lan(n: int = 20_000) -> int:
    """Uncontended LAN deliveries, one in flight at a time."""
    sim, fab = _mk()

    def proc():
        for _ in range(n):
            yield from fab.send_and_wait(0, 1, 64)

    sim.run_process(proc())
    return n


def wl_lan_contended(n: int = 5_000) -> int:
    """Three senders hammering one LAN delivery port (lan_in queueing)."""
    sim, fab = _mk()

    def worker(src):
        for _ in range(n):
            yield from fab.send_and_wait(src, 1, 64)

    procs = [sim.spawn(worker(src)) for src in (0, 2, 3)]
    sim.run()
    assert all(p.triggered for p in procs)
    return 3 * n


def _wl_wan_sized(sim, fab, n: int, size: int) -> int:
    def proc():
        for _ in range(n):
            yield from fab.send_and_wait(0, 4, size)

    sim.run_process(proc())
    return n


def wl_wan(n: int = 6_000) -> int:
    """Uncontended WAN deliveries, one in flight at a time."""
    sim, fab = _mk()
    return _wl_wan_sized(sim, fab, n, 64)


def wl_wan_impaired(n: int = 6_000) -> int:
    """WAN deliveries under jitter + loss: the plan draw, the perturbed
    PVC stage and the retransmit occupancies ride the same chain."""
    sim, fab = _mk()
    install(sim, fab, IMPAIRED)
    return _wl_wan_sized(sim, fab, n, 64)


def wl_wan_striped(n: int = 4_000) -> int:
    """4 KiB WAN deliveries striped over k = 4 parallel streams."""
    sim, fab = _mk()
    fab.decision = _Stripes(4)
    return _wl_wan_sized(sim, fab, n, 4096)


def wl_wan_contended(n: int = 2_000) -> int:
    """A whole cluster sending over one access link, gateway and PVC."""
    sim, fab = _mk()

    def worker(src):
        for _ in range(n):
            yield from fab.send_and_wait(src, 4 + src, 64)

    procs = [sim.spawn(worker(src)) for src in (0, 1, 2, 3)]
    sim.run()
    assert all(p.triggered for p in procs)
    return 4 * n


def wl_multicast(n: int = 4_000) -> int:
    """LAN hardware multicasts to a 4-node cluster (counted per delivery)."""
    sim, fab = _mk()

    def proc():
        for _ in range(n):
            done = yield from fab.multicast_local(0, 64)
            yield done

    sim.run_process(proc())
    return 4 * n


def wl_wan_multicast(n: int = 1_500) -> int:
    """WAN fan-out multicasts: PVC crossing + remote re-multicast."""
    sim, fab = _mk()

    def proc():
        for _ in range(n):
            done = yield from fab.wan_fanout_multicast(0, 64)
            yield done

    sim.run_process(proc())
    return 4 * n


def wl_mcast_4x15(n: int = 400) -> int:
    """One writer's LAN multicast plus WAN fan-out into 4 x 15 — the
    per-receiver legs at paper geometry (counted per delivery)."""
    sim, fab = _mk(4, 15)

    def proc():
        for _ in range(n):
            local = yield from fab.multicast_local(0, 64)
            remote = yield from fab.wan_fanout_multicast(0, 64)
            yield sim.all_of([local, remote])

    sim.run_process(proc())
    return 60 * n


WORKLOADS = [
    ("self", wl_self),
    ("lan", wl_lan),
    ("lan_contended", wl_lan_contended),
    ("wan", wl_wan),
    ("wan_impaired", wl_wan_impaired),
    ("wan_striped", wl_wan_striped),
    ("wan_contended", wl_wan_contended),
    ("multicast", wl_multicast),
    ("wan_multicast", wl_wan_multicast),
    ("mcast_4x15", wl_mcast_4x15),
]

