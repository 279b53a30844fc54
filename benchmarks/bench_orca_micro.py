"""Micro-benchmark for the Orca control plane: broadcasts and RPCs per second.

Measures *host* wall-clock throughput of whole Orca operations —
totally-ordered broadcasts (PB and BB dissemination modes, LAN and WAN)
and RPC round trips — on the control plane's callback chains (armed
broadcast/RPC ports, in-order apply, the sequencer's inline stamps,
chained dissemination and replies).  Virtual-time results are pinned by
the golden manifest; the numbers here are pure host-side cost.

Each workload returns the operations it completed.  Its default ``n``
runs it for most of a second on the compiled tier of a 2-core host: the
earlier rows, five to twenty times shorter, read a wider spread over
repeated ``--repeat 1`` passes (EXPERIMENTS.md, *Harness performance*:
the paragraph under the Orca ledger block).  Run it with::

    PYTHONPATH=src python -m repro bench --suite orca [--repeat 3]

``repro bench --write`` turns the numbers into the committed
``BENCH_orca.json`` the CI perf-smoke job regresses against.
"""

from __future__ import annotations

from repro.network import DAS_PARAMS, Fabric, uniform_clusters
from repro.orca import ObjectSpec, Operation, OrcaRuntime
from repro.orca.broadcast import BB_THRESHOLD
from repro.sim import Simulator

#: Comfortably inside PB mode; BB workloads use BB_THRESHOLD itself.
PB_BYTES = 64


def _mk(n_clusters: int, per: int, sequencer: str):
    sim = Simulator()
    fabric = Fabric(sim, uniform_clusters(n_clusters, per), DAS_PARAMS)
    return sim, OrcaRuntime(sim, fabric, sequencer=sequencer)


def _bcast_workload(n: int, n_clusters: int, per: int, size: int,
                    sequencer: str = "distributed") -> int:
    """``n`` ordered writes from node 1 (so PB mode genuinely ships the
    operation to the cluster's stamping node 0); counted per broadcast."""
    sim, rts = _mk(n_clusters, per, sequencer)
    rts.register(ObjectSpec(
        name="counter", state_factory=lambda: [0],
        operations={"add": Operation(
            fn=lambda st, v: st.__setitem__(0, st[0] + v),
            writes=True, arg_bytes=size, result_bytes=8)},
        replicated=True))

    def sender():
        for i in range(n):
            yield from rts.invoke(1, "counter", "add", (1,))

    sim.run_process(sender())
    assert rts.state_of("counter")[0] == n
    return n


def _rpc_workload(n: int, n_clusters: int, per: int, caller: int) -> int:
    """``n`` read RPC round trips to a non-replicated object on node 0."""
    sim, rts = _mk(n_clusters, per, sequencer="centralized")
    rts.register(ObjectSpec(
        name="cell", state_factory=lambda: [7],
        operations={"get": Operation(fn=lambda st: st[0],
                                     arg_bytes=8, result_bytes=8)},
        replicated=False, owner=0))

    def client():
        for _ in range(n):
            got = yield from rts.invoke(caller, "cell", "get", ())
            assert got == 7

    sim.run_process(client())
    return n


def wl_bcast_pb(n: int = 20_000) -> int:
    """Single-cluster PB broadcasts: ship to sequencer, it disseminates."""
    return _bcast_workload(n, 1, 4, PB_BYTES)


def wl_bcast_bb(n: int = 16_000) -> int:
    """Single-cluster BB broadcasts: tiny seq request, sender disseminates."""
    return _bcast_workload(n, 1, 4, BB_THRESHOLD)


def wl_bcast_wan(n: int = 8_000) -> int:
    """Two-cluster PB broadcasts: LAN multicast + WAN fan-out delivery."""
    return _bcast_workload(n, 2, 3, PB_BYTES)


def wl_bcast_apply_60(n: int = 2_000) -> int:
    """Four-cluster PB broadcasts to 60 replicas: one writer, so the
    host cost is dominated by the per-replica application (delivery,
    in-order apply, CPU charge) rather than by ordering contention."""
    return _bcast_workload(n, 4, 15, PB_BYTES)


def wl_rpc_lan(n: int = 40_000) -> int:
    """Uncontended same-cluster RPC round trips."""
    return _rpc_workload(n, 1, 4, caller=1)


def wl_rpc_wan(n: int = 30_000) -> int:
    """Cross-cluster RPC round trips (access links, gateways, PVC)."""
    return _rpc_workload(n, 2, 3, caller=3)


WORKLOADS = [
    ("bcast_pb", wl_bcast_pb),
    ("bcast_bb", wl_bcast_bb),
    ("bcast_wan", wl_bcast_wan),
    ("bcast_apply_60", wl_bcast_apply_60),
    ("rpc_lan", wl_rpc_lan),
    ("rpc_wan", wl_rpc_wan),
]

