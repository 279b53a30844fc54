"""Micro-benchmark for the fabric's message paths: messages per second.

Measures *host* wall-clock throughput of whole message deliveries —
self, LAN, WAN and multicast, uncontended and contended — in both fabric
tiers: the default callback-chained fast paths and the legacy per-leg
process trees (``fast_paths=False``).  The speedup column is the direct
payoff of the event-minimizing paths; the golden equivalence suite
guarantees the two tiers produce identical virtual-time results, so this
ratio is pure host-side overhead reduction.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_fabric_micro.py [--repeat 3]
    PYTHONPATH=src python benchmarks/bench_fabric_micro.py --legacy

or under pytest-benchmark along with the rest of the suite.  Results are
persisted to ``benchmarks/out/bench_fabric_micro.txt``;
``repro bench --write`` turns them into the committed ``BENCH_fabric
.json`` the CI perf-smoke job regresses against.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.network import DAS_PARAMS, Fabric, uniform_clusters
from repro.sim import Simulator


def _mk(fast: bool, n_clusters: int = 2, per: int = 4):
    sim = Simulator()
    topo = uniform_clusters(n_clusters, per)
    return sim, Fabric(sim, topo, DAS_PARAMS, fast_paths=fast)


def wl_self(fast: bool, n: int = 20_000) -> int:
    """Loopback deliveries, one in flight at a time."""
    sim, fab = _mk(fast)

    def proc():
        for _ in range(n):
            yield from fab.send_and_wait(0, 0, 64)

    sim.run_process(proc())
    return n


def wl_lan(fast: bool, n: int = 20_000) -> int:
    """Uncontended LAN deliveries, one in flight at a time."""
    sim, fab = _mk(fast)

    def proc():
        for _ in range(n):
            yield from fab.send_and_wait(0, 1, 64)

    sim.run_process(proc())
    return n


def wl_lan_contended(fast: bool, n: int = 5_000) -> int:
    """Three senders hammering one LAN delivery port (lan_in queueing)."""
    sim, fab = _mk(fast)

    def worker(src):
        for _ in range(n):
            yield from fab.send_and_wait(src, 1, 64)

    procs = [sim.spawn(worker(src)) for src in (0, 2, 3)]
    sim.run()
    assert all(p.triggered for p in procs)
    return 3 * n


def wl_wan(fast: bool, n: int = 6_000) -> int:
    """Uncontended WAN deliveries, one in flight at a time."""
    sim, fab = _mk(fast)

    def proc():
        for _ in range(n):
            yield from fab.send_and_wait(0, 4, 64)

    sim.run_process(proc())
    return n


def wl_wan_contended(fast: bool, n: int = 2_000) -> int:
    """A whole cluster sending over one access link, gateway and PVC."""
    sim, fab = _mk(fast)

    def worker(src):
        for _ in range(n):
            yield from fab.send_and_wait(src, 4 + src, 64)

    procs = [sim.spawn(worker(src)) for src in (0, 1, 2, 3)]
    sim.run()
    assert all(p.triggered for p in procs)
    return 4 * n


def wl_multicast(fast: bool, n: int = 4_000) -> int:
    """LAN hardware multicasts to a 4-node cluster (counted per delivery)."""
    sim, fab = _mk(fast)

    def proc():
        for _ in range(n):
            done = yield from fab.multicast_local(0, 64)
            yield done

    sim.run_process(proc())
    return 4 * n


def wl_wan_multicast(fast: bool, n: int = 1_500) -> int:
    """WAN fan-out multicasts: PVC crossing + remote re-multicast."""
    sim, fab = _mk(fast)

    def proc():
        for _ in range(n):
            done = yield from fab.wan_fanout_multicast(0, 64)
            yield done

    sim.run_process(proc())
    return 4 * n


WORKLOADS = [
    ("self", wl_self),
    ("lan", wl_lan),
    ("lan_contended", wl_lan_contended),
    ("wan", wl_wan),
    ("wan_contended", wl_wan_contended),
    ("multicast", wl_multicast),
    ("wan_multicast", wl_wan_multicast),
]

MODES = (("fast", True), ("legacy", False))


def run_suite(repeat: int = 3, modes=MODES):
    """Return ``(text, data)``: a printable table and per-workload msgs/s."""
    labels = [label for label, _fp in modes]
    header = f"{'workload':>16}" + "".join(f" {l + ' msg/s':>14}"
                                           for l in labels)
    if len(labels) > 1:
        header += f" {'speedup':>9}"
    lines = ["fabric micro-benchmark: message delivery throughput", header]
    data = {}
    for name, fn in WORKLOADS:
        entry = {}
        for label, fp in modes:
            best = float("inf")
            msgs = 0
            for _ in range(repeat):
                t0 = time.perf_counter()
                msgs = fn(fp)
                dt = time.perf_counter() - t0
                best = min(best, dt)
            entry[label] = msgs / best
        row = f"{name:>16}" + "".join(f" {entry[l]:>14.0f}" for l in labels)
        if "fast" in entry and "legacy" in entry:
            entry["speedup"] = entry["fast"] / entry["legacy"]
            row += f" {entry['speedup']:>8.2f}x"
        data[name] = entry
        lines.append(row)
    return "\n".join(lines), data


def test_fabric_micro(benchmark):
    """pytest-benchmark entry point: one pass over every workload."""
    from conftest import emit, run_once

    text, _data = run_once(benchmark, lambda: run_suite(repeat=1))
    emit("bench_fabric_micro", text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3,
                        help="repetitions per workload (best is reported)")
    parser.add_argument("--legacy", action="store_true",
                        help="measure only the legacy process paths")
    parser.add_argument("--fast", action="store_true",
                        help="measure only the fast callback paths")
    args = parser.parse_args(argv)
    modes = MODES
    if args.legacy:
        modes = (("legacy", False),)
    elif args.fast:
        modes = (("fast", True),)
    text, _data = run_suite(repeat=args.repeat, modes=modes)
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
