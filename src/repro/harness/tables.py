"""Registry of the paper's tables.

* Table 1 — Orca low-level latency and bandwidth (LAN vs WAN, RPC vs
  broadcast), measured with micro-benchmarks against the runtime.
* Table 2 — application characteristics on one 64-node cluster.
* Tables 4/5 — intercluster traffic before/after optimization (P=60,
  C=4 — the paper says "64" but four machines are the dedicated
  gateways, so 60 compute nodes do the work, as in its figures).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

from ..apps import PAPER_ORDER, make_app
from ..apps.base import AppResult
from ..network import DAS_PARAMS, NetworkParams, uniform_clusters
from ..orca import ObjectSpec, Operation
from .experiment import _build_stack
from .figures import bench_params
from .sweeps import ParallelRunner, RunSpec

__all__ = [
    "table1_microbenchmarks",
    "table2_rows",
    "traffic_rows",
    "format_table1",
    "format_table2",
    "format_traffic",
]


# ------------------------------------------------------------- Table 1


def _null_object(name: str, owner: int, result_bytes: int = 0) -> ObjectSpec:
    return ObjectSpec(
        name, dict,
        {"nop": Operation(fn=lambda s: None, arg_bytes=0,
                          result_bytes=result_bytes),
         "blob": Operation(fn=lambda s, payload: None,
                           writes=True,
                           arg_bytes=lambda payload: payload)},
        owner=owner)


def _replicated_counter(name: str) -> ObjectSpec:
    def bump(state, payload):
        state["v"] = state.get("v", 0) + 1

    return ObjectSpec(
        name, dict,
        {"bump": Operation(fn=bump, writes=True,
                           arg_bytes=lambda payload: payload)},
        replicated=True)


def _build(n_clusters: int, nodes_per_cluster: int,
           network: NetworkParams):
    sim, _fabric, rts = _build_stack(
        uniform_clusters(n_clusters, nodes_per_cluster), network,
        "distributed")
    return sim, rts


def _rpc_latency(remote_node: int, n_clusters: int, per: int,
                 network: NetworkParams) -> float:
    sim, rts = _build(n_clusters, per, network)
    rts.register(_null_object("t1.null", owner=0))
    reps = 10

    def proc():
        ctx = rts.context(remote_node)
        t0 = sim.now
        for _ in range(reps):
            yield from ctx.invoke("t1.null", "nop")
        return (sim.now - t0) / reps

    return sim.run_process(proc())


def _rpc_bandwidth(remote_node: int, n_clusters: int, per: int,
                   network: NetworkParams) -> float:
    sim, rts = _build(n_clusters, per, network)
    rts.register(_null_object("t1.blob", owner=0))
    size = 100 * 1024
    reps = 10

    def proc():
        ctx = rts.context(remote_node)
        t0 = sim.now
        for _ in range(reps):
            yield from ctx.invoke("t1.blob", "blob", size)
        return reps * size * 8 / (sim.now - t0)  # bits/s

    return sim.run_process(proc())


def _bcast_latency(sender: int, n_clusters: int, per: int,
                   network: NetworkParams) -> float:
    sim, rts = _build(n_clusters, per, network)
    rts.register(_replicated_counter("t1.rep"))
    reps = 10

    def proc():
        ctx = rts.context(sender)
        t0 = sim.now
        for _ in range(reps):
            yield from ctx.invoke("t1.rep", "bump", 0)
        return (sim.now - t0) / reps

    return sim.run_process(proc())


def _bcast_bandwidth(sender: int, n_clusters: int, per: int,
                     network: NetworkParams, reader: int = 0) -> float:
    """Throughput observed by a receiver (on another cluster for the WAN
    row) — the paper's bandwidth is delivery bandwidth, and in BB mode the
    sender finishes long before remote replicas are updated."""
    sim, rts = _build(n_clusters, per, network)
    rts.register(_replicated_counter("t1.rep"))
    size = 100 * 1024
    reps = 5

    def sender_proc():
        ctx = rts.context(sender)
        for _ in range(reps):
            yield from ctx.invoke("t1.rep", "bump", size)

    def reader_proc():
        t0 = sim.now
        while rts.state_of("t1.rep", reader).get("v", 0) < reps:
            yield sim.timeout(1e-4)
        return reps * size * 8 / (sim.now - t0)

    sim.spawn(sender_proc())
    return sim.run_process(reader_proc())


def table1_microbenchmarks(network: NetworkParams = DAS_PARAMS
                           ) -> Dict[str, Dict[str, float]]:
    """Reproduce Table 1.  LAN rows use a 60-node single cluster (the
    paper measures the replicated update on 60 machines); WAN rows use two
    16-node clusters with a remote caller/sender."""
    return {
        "rpc": {
            "lan_latency": _rpc_latency(1, 1, 60, network),
            "wan_latency": _rpc_latency(16, 2, 16, network),
            "lan_bandwidth": _rpc_bandwidth(1, 1, 60, network),
            "wan_bandwidth": _rpc_bandwidth(16, 2, 16, network),
        },
        "bcast": {
            "lan_latency": _bcast_latency(1, 1, 60, network),
            "wan_latency": _bcast_latency(16, 2, 16, network),
            "lan_bandwidth": _bcast_bandwidth(1, 1, 60, network),
            "wan_bandwidth": _bcast_bandwidth(16, 2, 16, network),
        },
    }


# ------------------------------------------------------------- Table 2


def _traffic(res: AppResult, kind: str) -> Dict[str, int]:
    return res.traffic.get(kind, {"count": 0, "bytes": 0})


def table2_rows(runner: ParallelRunner) -> Dict[str, Dict[str, Any]]:
    """Application characteristics on one 60-node cluster (the paper's
    64-node column, minus the nodes our experiments reserve as
    gateways): one row per application, all run as one batch."""
    results = runner.run([
        RunSpec(name, "original", 1, nodes, bench_params(name))
        for name in PAPER_ORDER for nodes in (1, 60)])
    rows = {}
    for i, name in enumerate(PAPER_ORDER):
        base, res = results[2 * i:2 * i + 2]
        el = max(res.elapsed, 1e-12)

        def rate(kind, field):
            value = _traffic(res, f"intra.{kind}")[field] / el
            return value / 1024.0 if field == "bytes" else value

        rows[name] = {
            "app": name,
            "rpc_per_s": rate("rpc", "count") + rate("msg", "count"),
            "rpc_kbytes_per_s": rate("rpc", "bytes") + rate("msg", "bytes"),
            "bcast_per_s": rate("bcast", "count"),
            "bcast_kbytes_per_s": rate("bcast", "bytes"),
            "speedup": base.elapsed / el,
        }
    return rows


# ---------------------------------------------------------- Tables 4/5


def traffic_rows(runner: ParallelRunner
                 ) -> Tuple[Dict[str, Dict[str, Any]], ...]:
    """Tables 4 (original) and 5 (optimized): intercluster traffic on
    four 15-node clusters, one row per application (an app without an
    optimized variant repeats its original), all run as one batch."""
    grid = [(name, variant if variant in make_app(name).variants
             else "original")
            for variant in ("original", "optimized") for name in PAPER_ORDER]
    results = runner.run([RunSpec(name, variant, 4, 15, bench_params(name))
                          for name, variant in grid])
    tables: Tuple[Dict[str, Dict[str, Any]], ...] = ({}, {})
    for i, ((name, variant), res) in enumerate(zip(grid, results)):
        rpc = _traffic(res, "inter.rpc")
        msg = _traffic(res, "inter.msg")
        bcast = _traffic(res, "inter.bcast")
        tables[i // len(PAPER_ORDER)][name] = {
            "app": name,
            "variant": variant,
            "rpc_count": rpc["count"] + msg["count"],
            "rpc_kbytes": (rpc["bytes"] + msg["bytes"]) / 1024.0,
            "bcast_count": bcast["count"],
            "bcast_kbytes": bcast["bytes"] / 1024.0,
        }
    return tables


# ------------------------------------------------------------ formatting


def format_table1(data: Dict[str, Dict[str, float]]) -> str:
    """Render the Table 1 micro-benchmark results."""
    lines = ["Table 1: Orca low-level performance",
             f"{'benchmark':>22} {'LAN lat':>10} {'WAN lat':>10} "
             f"{'LAN bw':>12} {'WAN bw':>12}"]
    names = {"rpc": "RPC (non-replicated)", "bcast": "Broadcast (replicated)"}
    for key, row in data.items():
        lines.append(
            f"{names[key]:>22} "
            f"{row['lan_latency'] * 1e6:>8.1f}us "
            f"{row['wan_latency'] * 1e3:>8.2f}ms "
            f"{row['lan_bandwidth'] / 1e6:>7.1f}Mbit/s "
            f"{row['wan_bandwidth'] / 1e6:>7.2f}Mbit/s")
    return "\n".join(lines)


def format_table2(rows) -> str:
    """Render Table 2 rows (one per application)."""
    lines = ["Table 2: application characteristics on one cluster (60 nodes)",
             f"{'app':>6} {'#RPC/s':>10} {'kbyte/s':>10} {'#bcast/s':>10} "
             f"{'kbyte/s':>10} {'speedup':>8}"]
    for r in rows:
        lines.append(f"{r['app']:>6} {r['rpc_per_s']:>10.0f} "
                     f"{r['rpc_kbytes_per_s']:>10.0f} "
                     f"{r['bcast_per_s']:>10.0f} "
                     f"{r['bcast_kbytes_per_s']:>10.0f} "
                     f"{r['speedup']:>8.1f}")
    return "\n".join(lines)


def format_traffic(title: str, rows) -> str:
    """Render Table 4/5 intercluster-traffic rows."""
    lines = [title,
             f"{'app':>6} {'#RPC':>10} {'RPC kbyte':>11} {'#bcast':>8} "
             f"{'bcast kbyte':>12}"]
    for r in rows:
        lines.append(f"{r['app']:>6} {r['rpc_count']:>10} "
                     f"{r['rpc_kbytes']:>11.0f} {r['bcast_count']:>8} "
                     f"{r['bcast_kbytes']:>12.0f}")
    return "\n".join(lines)
