#!/usr/bin/env python3
"""The golden manifest: committed fingerprints of virtual-time results.

``tests/golden/manifest.json`` pins, per *cell* (one small simulation),
a digest of everything the determinism contract promises: ``repr`` of
the elapsed virtual time, the answer, the traffic counters, the app
statistics, and the full non-``proc.*`` trace-record stream (time, kind,
sorted detail) in emission order and, as ``records_set``, sorted (so a
re-bless can tell a new tie order from new records).  The manifest —
not a second implementation kept alive to compare against — is the
oracle: any change to the simulator must reproduce every cell bit for
bit.

The ``engine/*`` cells pin the event core itself: fixed, seeded corpora
of differential programs (op programs over timeouts, pre-triggered
yields, children, failures and all-of joins; resource programs over 1–3
resources of capacity 1–2; quantized priority-1 compute charges racing
urgent occupies and speed changes over 1–3 CPUs; delivery legs — delays
and priority-0 occupancies in sequence — racing plain occupies and
quantized computes over 1–3 resources), one digest per
program of its value log, final clock and ``busy_time()``s.  A failing
one names its first differing program.

A second section pins the host-side ``Simulator.stats()`` counters
(``events_processed``, ``spawns``, ``fast_completions``, ``fallbacks``)
per cell.  *Clean* cells (no scenario, flat single-stream routes) must
match exactly; on impaired/shaped/striped cells ``events_processed`` and
``spawns`` are upper bounds — host-side effort there may only fall.

Usage::

    python tools/golden.py --check            # every cell vs the manifest
    python tools/golden.py --check -k fanout  # cells whose name contains
    python tools/golden.py --list
    python tools/golden.py --write            # add the missing cells

``--write`` *adds* cells.  A cell the manifest already holds is re-run
and checked as ``--check`` does; if it fails it is refused and the
changed fields are printed.  ``--write --force`` re-blesses such cells
— only for a deliberate, reviewed change of simulated behaviour; a
refactor never rewrites the manifest.  It prints the same changed
fields for every cell it re-blesses and ends with ``N re-blessed, M
unchanged``.
``tests/test_golden_manifest.py`` runs :func:`check_cell` once per cell.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import random
import sys
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Tuple

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

import numpy as np  # noqa: E402

from repro.apps import PAPER_ORDER, make_app, small_params  # noqa: E402
from repro.apps.sor import SORParams  # noqa: E402
from repro.harness.experiment import run_app  # noqa: E402
from repro.network import DAS_PARAMS, Fabric, uniform_clusters  # noqa: E402
from repro.orca import ObjectSpec, Operation, OrcaRuntime  # noqa: E402
from repro.orca.broadcast import BB_THRESHOLD  # noqa: E402
from repro.scenario import (ClusterTweak, Fault, Impairment,  # noqa: E402
                            Scenario, install)
from repro.sim import Simulator, Tracer  # noqa: E402
from repro.sim import engine as tier  # noqa: E402
from repro.tuner import (ContextModel, DecisionModel, FittedLine,  # noqa: E402
                         crossover, tune)

MANIFEST = os.path.join(REPO, "tests", "golden", "manifest.json")

TOPOLOGIES = ((1, 4), (2, 3), (4, 2))
STAT_KEYS = ("events_processed", "spawns", "fast_completions", "fallbacks")
#: Host-side counters that are upper bounds (not equalities) on cells
#: that are not clean.
BOUNDED_KEYS = ("events_processed", "spawns")

#: Every impairment model that perturbs the WAN transfer path.
IMPAIRED = Scenario(
    seed=11,
    impairments=(Impairment.of("jitter", sigma=0.3),
                 Impairment.of("loss", p=0.2, rto=0.01),
                 Impairment.of("bw_dip", depth=0.5, period=0.02),
                 Impairment.of("cross_traffic", load=0.5)))


# ----------------------------------------------------------- fingerprints

def _canon(obj: Any) -> Any:
    """A repr-stable form: arrays by content hash, dicts/sets sorted."""
    if isinstance(obj, np.ndarray):
        data = np.ascontiguousarray(obj).tobytes()
        return ("ndarray", str(obj.dtype), obj.shape,
                hashlib.sha256(data).hexdigest())
    if isinstance(obj, np.generic):
        return repr(obj.item())
    if isinstance(obj, dict):
        return tuple(sorted((repr(k), _canon(v)) for k, v in obj.items()))
    if isinstance(obj, (list, tuple)):
        return tuple(_canon(v) for v in obj)
    if isinstance(obj, (set, frozenset)):
        return tuple(sorted(repr(_canon(v)) for v in obj))
    return repr(obj)


def digest(obj: Any) -> str:
    return hashlib.sha256(repr(_canon(obj)).encode()).hexdigest()[:16]


def _records(tracer: Tracer) -> Dict[str, Any]:
    """The non-``proc.*`` record stream: ``records`` in emission order,
    ``records_set`` sorted — the same records at the same times, whatever
    order same-instant ties were dispatched in."""
    rows = [repr((r.time, r.kind, _canon(r.detail))).encode()
            for r in tracer.records if not r.kind.startswith("proc.")]
    ordered, unordered = hashlib.sha256(), hashlib.sha256()
    for row in rows:
        ordered.update(row)
    for row in sorted(rows):
        unordered.update(row)
    return {"records": ordered.hexdigest()[:16],
            "records_set": unordered.hexdigest()[:16],
            "n_records": len(rows)}


def _stats(stats: Dict[str, int]) -> Dict[str, int]:
    return {k: stats[k] for k in STAT_KEYS}


def _app_print(result, tracer: Tracer) -> Dict[str, Any]:
    out = {"elapsed": repr(result.elapsed),
           "answer": digest(result.answer),
           "traffic": digest(result.traffic),
           "stats": digest(result.stats)}
    out.update(_records(tracer))
    return out


# ------------------------------------------------------------------ cells
#
# A cell function returns ``(fingerprint, sim_stats)``.


def _app_cell(app_name: str, variant: str, n_clusters: int, nodes: int,
              params: Any = None, **kwargs: Any
              ) -> Tuple[Dict[str, Any], Dict[str, int]]:
    tracer = Tracer()
    result = run_app(make_app(app_name), variant, n_clusters, nodes,
                     params if params is not None else small_params(app_name),
                     tracer=tracer, **kwargs)
    return _app_print(result, tracer), _stats(result.sim_stats)


def _fanout_cell(scenario: Optional[Scenario], shape: str = "flat",
                 streams: int = 1, n_clusters: int = 4, repeats: int = 4,
                 size: int = 4096):
    """``repeats`` back-to-back WAN fan-outs on a bare fabric."""
    sim = Simulator()
    tracer = Tracer()
    fabric = Fabric(sim, uniform_clusters(n_clusters, 3), DAS_PARAMS,
                    tracer=tracer)
    if scenario is not None:
        install(sim, fabric, scenario)
    times: List[float] = []
    counts: List[int] = []

    def driver():
        for _ in range(repeats):
            done = yield from fabric.wan_fanout_multicast(
                0, size, shape=shape, streams=streams)
            count = yield done
            times.append(sim.now)
            counts.append(count)

    sim.run_process(driver())
    out = {"times": repr(times), "counts": repr(counts),
           "traffic": digest(fabric.meter.snapshot())}
    out.update(_records(tracer))
    return out, _stats(sim.stats())


def _concurrent_cell(scenario: Optional[Scenario], shapes: Tuple[str, ...],
                     streams: int = 1, n_clusters: int = 4, nodes: int = 2,
                     repeats: int = 3, size: int = 4096, p2p: bool = False):
    """Symmetric same-size fan-outs from several sources at the same
    instants on a bare fabric: the first node of every cluster (and the
    second node of cluster 0, sharing its access link) issues
    ``repeats`` back-to-back fan-outs from t=0, source ``i`` with
    ``shapes[i % len(shapes)]``; with ``p2p`` every node also sends
    across the WAN meanwhile.  Same-instant races everywhere."""
    sim = Simulator()
    tracer = Tracer()
    topo = uniform_clusters(n_clusters, nodes)
    fabric = Fabric(sim, topo, DAS_PARAMS, tracer=tracer)
    if scenario is not None:
        install(sim, fabric, scenario)
    log: List[tuple] = []

    def source(i: int, src: int):
        shape = shapes[i % len(shapes)]
        for r in range(repeats):
            done = yield from fabric.wan_fanout_multicast(
                src, size, shape=shape, streams=streams, port="f")
            count = yield done
            log.append((src, r, sim.now, count))

    def sender(src: int):
        dst = (src + nodes) % topo.n_nodes
        for r in range(repeats):
            yield from fabric.send(src, dst, size, port="p")
            msg = yield from fabric.send_and_wait(src, dst, size // 4,
                                                  port="q")
            log.append(("p2p", src, r, sim.now, msg.recv_time))

    srcs = [c * nodes for c in range(n_clusters)]
    if nodes > 1:
        srcs.append(1)
    for i, src in enumerate(srcs):
        sim.spawn(source(i, src))
    if p2p:
        for nid in range(topo.n_nodes):
            sim.spawn(sender(nid))
    sim.run()
    out = {"log": digest(log), "end": repr(sim.now),
           "traffic": digest(fabric.meter.snapshot())}
    out.update(_records(tracer))
    return out, _stats(sim.stats())


class _Streams:
    """A decision stand-in that stripes every p2p WAN transfer ``k``-way."""

    def __init__(self, k: int):
        self.k = k

    def wan_streams(self, size: int, n_clusters: int) -> int:
        return self.k


def _p2p_cell(scenario: Optional[Scenario], streams: int = 1,
              rounds: int = 3, size: int = 6000):
    """Contended point-to-point WAN traffic on a bare fabric: every node
    of a 3x2 machine sends to a node of the next cluster at the same
    instants (async and awaited sends mixed), so access links, gateways
    and PVCs all queue."""
    sim = Simulator()
    tracer = Tracer()
    topo = uniform_clusters(3, 2)
    fabric = Fabric(sim, topo, DAS_PARAMS, tracer=tracer)
    if scenario is not None:
        install(sim, fabric, scenario)
    if streams > 1:
        fabric.decision = _Streams(streams)
    n = topo.n_nodes
    log: List[tuple] = []

    def sender(src: int):
        dst = (src + 2) % n  # first node -> next cluster, same offset
        for r in range(rounds):
            yield from fabric.send(src, dst, size + 17 * src, port="p")
            msg = yield from fabric.send_and_wait(src, dst, size // 3,
                                                  port="q")
            log.append((src, r, sim.now, msg.recv_time))

    def receiver(nid: int):
        for _ in range(rounds):
            msg = yield fabric.node(nid).port("p").get()
            log.append(("rx", nid, msg.src, sim.now))

    for nid in range(n):
        sim.spawn(sender(nid))
        sim.spawn(receiver(nid))
    sim.run()
    out = {"log": digest(log), "end": repr(sim.now),
           "traffic": digest(fabric.meter.snapshot())}
    out.update(_records(tracer))
    return out, _stats(sim.stats())


def _tuned_line_model(pb: FittedLine, bb: FittedLine) -> DecisionModel:
    ctx = ContextModel(n_clusters=2, pb=pb, bb=bb,
                       bb_threshold=crossover(pb, bb))
    return DecisionModel(contexts=((2, ctx),), source="handmade")


#: The PB->BB boundary cases of tests/test_orca_bb_threshold.py.
BB_CASES = {
    "fixed": (None, BB_THRESHOLD),
    "tuned1024": (_tuned_line_model(FittedLine(0.0, 2.0 ** -18),
                                    FittedLine(1024 * 2.0 ** -19,
                                               2.0 ** -19)), 1024),
    "tuned32768": (_tuned_line_model(FittedLine(0.0, 4e-6),
                                     FittedLine(0.065536, 2e-6)), 32768),
}


def _bb_cell(case: str, side: int):
    """One replicated write from cluster 1 at the PB/BB boundary."""
    decision, threshold = BB_CASES[case]
    sim = Simulator()
    tracer = Tracer()
    fabric = Fabric(sim, uniform_clusters(2, 2), DAS_PARAMS, tracer=tracer)
    fabric.decision = decision
    rts = OrcaRuntime(sim, fabric, sequencer="centralized")
    rts.register(ObjectSpec(
        name="blob", state_factory=list,
        operations={"put": Operation(fn=lambda st, n: st.append(n) or len(st),
                                     writes=True, arg_bytes=lambda n: n,
                                     result_bytes=8)},
        replicated=True))

    def writer():
        result = yield from rts.invoke(2, "blob", "put", (threshold + side,))
        return result

    proc = sim.spawn(writer())
    sim.run()
    out = {"value": repr(proc.value), "end": repr(sim.now),
           "traffic": digest(fabric.meter.snapshot())}
    out.update(_records(tracer))
    return out, _stats(sim.stats())


def _seq_cell(kind: str):
    """Same-instant contention on one sequencer protocol, bare runtime.

    A 3x3 machine, five writers — two in cluster 0 (same-cluster
    waiters), one in cluster 1, two in cluster 2 — appending to one
    replicated log.  Every writer fires two asynchronous writes and two
    blocking ones from t=0 (several acquires in flight per cluster at
    tied instants: waiter order, same-instant migrations), then all
    restart at one later instant with back-to-back blocking writes, and
    each writes alone in turn (quiet instants: local stamps, multi-hop
    token trips, full-rotation waits after the token has departed) and
    finally clusters 0 and 2 contend without cluster 1 (two-hop grants
    to a waiter).  Run twice, the second time with
    ``dedicated_sequencer_node=True``; the total order every replica
    applied is part of the fingerprint."""
    out: Dict[str, Any] = {}
    stats = dict.fromkeys(STAT_KEYS, 0)
    for dedicated in (False, True):
        sim = Simulator()
        tracer = Tracer()
        fabric = Fabric(sim, uniform_clusters(3, 3), DAS_PARAMS,
                        tracer=tracer)
        rts = OrcaRuntime(sim, fabric, sequencer=kind,
                          dedicated_sequencer_node=dedicated)
        rts.register(ObjectSpec(
            name="log", state_factory=list,
            operations={"put": Operation(
                fn=lambda st, tag: st.append(tag) or len(st),
                writes=True, arg_bytes=64, result_bytes=8)},
            replicated=True))
        log: List[tuple] = []

        def writer(nid: int, solo_at: float):
            ctx = rts.context(nid)
            pending = [ctx.invoke_async("log", "put", (nid, "a", i))
                       for i in range(2)]
            for i in range(2):
                pos = yield from ctx.invoke("log", "put", (nid, "s", i))
                log.append((nid, i, sim.now, pos))
            for proc in pending:
                yield proc
            phases = [("r", 0.25), ("q", solo_at)]
            if nid in (0, 6, 7):  # clusters 0 and 2 only: two-hop grants
                phases.append(("p", 1.25))
            for phase, start in phases:
                yield sim.timeout(start - sim.now)
                for i in range(3):
                    pos = yield from ctx.invoke("log", "put",
                                                (nid, phase, i))
                    log.append((nid, phase, i, sim.now, pos))

        for turn, nid in enumerate((0, 6, 3, 1, 7)):
            sim.spawn(writer(nid, 0.5 + 0.1 * turn))
        sim.run()
        orders = {tuple(rts.state_of("log", n)) for n in range(9)}
        assert len(orders) == 1, "replicas disagree on the total order"
        label = "dedicated" if dedicated else "shared"
        fp = {"log": digest(log), "order": digest(orders.pop()),
              "end": repr(sim.now),
              "traffic": digest(fabric.meter.snapshot())}
        fp.update(_records(tracer))
        fp["migrations"] = getattr(rts.protocol, "migrations", 0)
        run_stats = sim.stats()
        fp["events"] = run_stats["events_processed"]
        fp["spawns"] = run_stats["spawns"]
        out.update({f"{label}.{key}": val for key, val in fp.items()})
        for key in STAT_KEYS:
            stats[key] += run_stats[key]
    return out, stats


def _tuned_cell(app_name: str, n_clusters: int, nodes: int):
    """Tune a tiny model under IMPAIRED, then run an app with it."""
    model = tune(sizes=(256, 16384), cluster_counts=(2,),
                 nodes_per_cluster=2, scenarios=(IMPAIRED,), seeds=(0,),
                 reps=1)
    fp, stats = _app_cell(app_name, "original", n_clusters, nodes,
                          scenario=IMPAIRED, decision=model)
    fp["model"] = digest(model.to_json())
    return fp, stats


# ------------------------------------------------- the event core itself
#
# Two differential interpreters over an engine module: the cells run them
# on ``repro.sim.engine`` (the tier ``REPRO_ENGINE`` selected), and
# tests/test_engine_tiers.py runs them on each tier module directly.


def _op_program(rng: random.Random) -> List[Tuple[str, float]]:
    """One op program: (kind, delay) pairs."""
    return [(rng.choice(("timeout", "pre", "child", "fail", "all")),
             rng.choice((0.0, 0.5, 1.0, 2.5)))
            for _ in range(rng.randint(1, 12))]


def _run_program(engine: Any, ops: List[Tuple[str, float]]):
    """Run ``ops`` in one process; return (value log, final clock, stats).

    The log holds one (tag, ..., value, now) entry per op: timeouts,
    pre-triggered yields (a recycled kick), child results, a child's
    exception and all-of joins."""
    sim = engine.Simulator()
    log: List[tuple] = []

    def child(d, i):
        v = yield sim.timeout(d)
        return ("child", i, v)

    def failing(i):
        yield sim.timeout(0.0)
        raise ValueError(f"boom {i}")

    def main():
        for i, (op, d) in enumerate(ops):
            if op == "timeout":
                log.append(("t", i, (yield sim.timeout(d)), sim.now))
            elif op == "pre":
                ev = engine.Event(sim)
                ev.succeed(i)
                log.append(("p", (yield ev), sim.now))
            elif op == "child":
                log.append(("c", (yield sim.spawn(child(d, i))), sim.now))
            elif op == "fail":
                try:
                    yield sim.spawn(failing(i))
                except ValueError as exc:
                    log.append(("f", str(exc), sim.now))
            elif op == "all":
                evs = [sim.timeout(d + j) for j in range(3)]
                log.append(("A", i, (yield sim.all_of(evs)), sim.now))

    sim.run_process(main())
    return log, sim.now, _stats(sim.stats())


class _ScanResource:
    """request/release over any engine module — the two-priority FIFO
    written out plainly, for the request/timeout/release process pattern
    that ``Resource.occupy`` must be indistinguishable from."""

    def __init__(self, engine, sim, capacity):
        self.engine, self.sim, self.capacity = engine, sim, capacity
        self.in_use = 0
        self._queues = (deque(), deque())
        self._busy = self._last = 0.0

    @property
    def queue_length(self):
        return len(self._queues[0]) + len(self._queues[1])

    def busy_time(self):
        self._busy += self.in_use * (self.sim.now - self._last)
        self._last = self.sim.now
        return self._busy

    def request(self, priority=0):
        ev = self.engine.Event(self.sim)
        if self.in_use < self.capacity:
            self.busy_time()
            self.in_use += 1
            ev.succeed(self)
        else:
            self._queues[priority > 0].append(ev)
        return ev

    def release(self):
        for queue in self._queues:
            while queue:
                waiter = queue.popleft()
                if not waiter.triggered:
                    waiter.succeed(self)
                    return
        self.busy_time()
        self.in_use -= 1


def _resource_program(rng: random.Random):
    """(capacities, ops) over 1-3 resources of capacity 1-2.

    One op = (kind, resource, start, hold, priority, extra).  Starts and
    holds are integer-derived so colliding instants are common: the
    first of several launches at one instant sees a busy instant, the
    last a quiet one.  ``extra`` is the cancel delay of a ``cancel`` op
    and the traced flag of an ``occupy`` op."""
    capacities = [rng.randint(1, 2) for _ in range(rng.randint(1, 3))]
    ops = [(rng.choice(("occupy", "occupy", "request", "cancel")),
            rng.randint(0, 2), rng.randint(0, 5) * 0.5,
            rng.randint(0, 6) * 0.25, rng.randint(0, 1), rng.randint(0, 3))
           for _ in range(rng.randint(1, 14))]
    return capacities, ops


def _run_resource_program(engine: Any, capacities: List[int], ops: list,
                          process_pattern: bool = False):
    """Run ``ops``; return (log, busy times, final clock, stats).

    ``process_pattern`` replaces every ``occupy`` by a spawned
    request/timeout/release process over :class:`_ScanResource` — what
    ``occupy`` must be indistinguishable from.
    """
    sim = engine.Simulator()
    if process_pattern:
        resources = [_ScanResource(engine, sim, c) for c in capacities]
    else:
        resources = [engine.Resource(sim, c, name=f"r{i}")
                     for i, c in enumerate(capacities)]
    log: List[tuple] = []

    def sample(tag, i, res):
        log.append((tag, i, sim.now, res.queue_length, res.in_use))

    def hold_then_release(i, res, hold):
        def release(_ev):
            res.release()
            sample("released", i, res)
        sim.leg((hold,)).callbacks.append(release)

    def worker(i, res, hold, priority, traced):
        t_req = sim.now
        qdepth = res.queue_length + res.in_use + 1
        yield res.request(priority)
        t_grant = sim.now
        try:
            yield sim.timeout(hold)
        finally:
            res.release()
            if traced:
                log.append(("hook", i, t_req, t_grant, qdepth, sim.now))

    def launch(i, kind, res, hold, priority, extra):
        sample("launch", i, res)
        if kind == "occupy":
            traced = bool(extra & 1)
            # Completion is observed where a parent waiting on the
            # occupancy resumes: on the worker's process event, which
            # is what occupy()'s completion event stands in for.
            if process_pattern:
                done = sim.spawn(worker(i, res, hold, priority, traced))
            else:
                hook = None
                if traced:
                    def hook(t_req, t_grant, qdepth):
                        log.append(("hook", i, t_req, t_grant, qdepth,
                                    sim.now))
                done = res.occupy(hold, priority, hook)
            done.callbacks.append(lambda _ev: sample("done", i, res))
            return
        gate = res.request(priority)

        def granted(ev):
            if ev.value is res:  # not a cancelled waiter
                sample("granted", i, res)
                hold_then_release(i, res, hold)

        gate.callbacks.append(granted)
        if kind == "cancel":
            def cancel(_ev):
                # An interrupted waiter: triggered by someone else
                # while still queued; release() must skip it.
                if not gate.triggered:
                    gate.succeed("cancelled")
            sim.leg((extra * 0.25,)).callbacks.append(cancel)

    for i, (kind, r, start, hold, priority, extra) in enumerate(ops):
        res = resources[r % len(resources)]
        sim.leg((start,)).callbacks.append(
            lambda _ev, a=(i, kind, res, hold, priority, extra): launch(*a))
    sim.run()
    assert all(res.in_use == 0 and res.queue_length == 0
               for res in resources)
    return (log, [res.busy_time() for res in resources], sim.now,
            _stats(sim.stats()))


def _quanta_program(rng: random.Random):
    """(quantum, CPUs, initial speeds or None, ops) over 1-3 CPUs.

    One op = (kind, cpu, start, amount).  ``compute`` charges ``amount``
    seconds at priority 1 in quanta — sub-quantum, an exact multiple of
    the quantum, or long; ``urgent`` is a priority-0 occupy of
    ``amount``; ``speed`` sets the CPU's speed to ``amount`` through
    ``call_at``, on a segment boundary or between two.  Starts are
    quarter-integers so launches, segment ends and urgent holds tie."""
    q = rng.choice((0.5, 1.0, 0.3))
    n_cpus = rng.randint(1, 3)
    ops = []
    for _ in range(rng.randint(1, 12)):
        kind = rng.choice(("compute", "compute", "urgent", "speed"))
        start = rng.randint(0, 8) * 0.25
        if kind == "compute":
            amount = q * rng.choice((rng.choice((0.25, 0.5, 0.7)),
                                     rng.randint(1, 4),
                                     rng.choice((5.5, 7.3, 9.0))))
        elif kind == "urgent":
            amount = rng.randint(0, 4) * 0.25
        else:
            start += rng.choice((0.0, 0.0, 0.1))
            amount = rng.choice((0.5, 2.0, 1.0, 0.8))
        ops.append((kind, rng.randint(0, 2) % n_cpus, start, amount))
    speeds = None
    if any(kind == "speed" for kind, *_ in ops):
        speeds = [rng.choice((1.0, 1.0, 0.5)) for _ in range(n_cpus)]
    return q, n_cpus, speeds, ops


def _run_quanta_program(engine: Any, q: float, n_cpus: int,
                        speeds: Optional[list], ops: list,
                        loop: bool = False):
    """Run ``ops``; return (log, busy times, final clock, stats).

    A ``compute`` op is a spawned process that charges its CPU the way
    ``Context.compute`` does: one ``occupy_quanta`` at priority 1.  With
    ``loop`` it runs the loop that call replaces instead — one
    priority-1 ``occupy`` per quantum, each sized by the speed its CPU
    has when the quantum starts — which it must be indistinguishable
    from."""
    sim = engine.Simulator()
    speeds = None if speeds is None else list(speeds)
    cpus = [engine.Resource(sim, 1, name=f"cpu{i}") for i in range(n_cpus)]
    log: List[tuple] = []

    def compute(i, node, seconds):
        cpu = cpus[node]
        if not loop:
            yield cpu.occupy_quanta(seconds, q, 1, speeds, node)
        else:
            left = seconds
            while left > 0:
                step = left if left <= q else q
                sp = 1.0 if speeds is None else speeds[node]
                yield cpu.occupy(step if sp == 1.0 else step / sp, 1)
                left -= step
        log.append(("compute", i, sim.now, cpu.queue_length, cpu.in_use))

    def launch(i, kind, node, amount):
        cpu = cpus[node]
        if kind == "compute":
            sim.spawn(compute(i, node, amount))
        elif kind == "urgent":
            cpu.occupy(amount, 0).callbacks.append(
                lambda _ev: log.append(("urgent", i, sim.now,
                                        cpu.queue_length, cpu.in_use)))
        else:
            speeds[node] = amount
            log.append(("speed", i, sim.now))

    for i, (kind, node, start, amount) in enumerate(ops):
        sim.call_at(start, lambda a=(i, kind, node, amount): launch(*a))
    sim.run()
    return (log, [cpu.busy_time() for cpu in cpus], sim.now,
            _stats(sim.stats()))


#: The step shapes of one delivery leg: ``d`` a delay, ``o`` a
#: priority-0 occupancy (the fabric's receive and access legs).
LEG_SHAPES = ("doo", "odo", "od", "d", "o")

#: Leg shapes with call steps ``c`` (the WAN path's trace records and
#: PDES export between its occupancies); a call step is never last.
CALL_LEG_SHAPES = ("ocdo", "dco", "occo", "odco", "cod")


def _leg_program(rng: random.Random, shapes: Tuple[str, ...] = LEG_SHAPES):
    """(capacities, quantum, ops) over 1-3 resources.

    One op = (kind, start, args).  A ``leg`` runs one of ``shapes``
    with quarter-integer delays and holds, each occupancy on a drawn
    resource with or without an ``on_release`` hook (a call step is
    ``None``); ``occupy`` is a plain occupy at priority 0 or 1;
    ``compute`` is an ``occupy_quanta`` at priority 1.  Starts are
    quarter-integers, so launches, step ends and holds tie."""
    capacities = [rng.choice((1, 1, 2)) for _ in range(rng.randint(1, 3))]
    n = len(capacities)
    q = rng.choice((0.5, 1.0))
    ops = []
    for _ in range(rng.randint(1, 12)):
        kind = rng.choice(("leg", "leg", "leg", "occupy", "compute"))
        start = rng.randint(0, 8) * 0.25
        if kind == "leg":
            args = tuple(
                rng.randint(0, 4) * 0.25 if s == "d" else None if s == "c"
                else (rng.randrange(n), rng.randint(0, 4) * 0.25,
                      rng.random() < 0.5)
                for s in rng.choice(shapes))
        elif kind == "occupy":
            args = (rng.randrange(n), rng.randint(0, 4) * 0.25,
                    rng.randint(0, 1))
        else:
            args = (rng.randrange(n), q * rng.choice((0.5, 1, 2.5)))
        ops.append((kind, start, args))
    return capacities, q, ops


def _run_leg_program(engine: Any, capacities: List[int], q: float,
                     ops: list, loop: bool = False):
    """Run ``ops``; return (log, busy times, final clock, stats).

    A ``leg`` is one ``Simulator.leg`` call.  With ``loop`` it runs the
    closure chain that call replaces instead — a delay is a
    ``sim.timeout`` (not a one-delay leg, so the reference does not
    lean on the call it checks) and an occupancy ``occupy(seconds, 0,
    hook)``, each started by a callback on the completion event of the
    step before, and a call step runs and then starts the next step in
    the same dispatch — which it must be indistinguishable from.  The
    log holds every hook and call step, the value and instant each
    completion is observed at, and every resource's queue sample
    there."""
    sim = engine.Simulator()
    resources = [engine.Resource(sim, c, name=f"r{i}")
                 for i, c in enumerate(capacities)]
    log: List[tuple] = []

    def queues():
        return [(r.queue_length, r.in_use) for r in resources]

    def observed(tag, i):
        def sample(ev):
            log.append((tag, i, ev.value, sim.now, queues()))
        return sample

    def call_of(i, k):
        def call():
            log.append(("call", i, k, sim.now, queues()))
        return call

    def hook_of(i, k):
        def hook(t_req, t_grant, qdepth):
            log.append(("hook", i, k, t_req, t_grant, qdepth, sim.now))
        return hook

    def chain(steps, k, finish):
        then = finish if k + 1 == len(steps) else (
            lambda _ev: chain(steps, k + 1, finish))
        step = steps[k]
        if callable(step):
            step()
            chain(steps, k + 1, finish)
        elif isinstance(step, tuple):
            res, seconds, hook = step
            res.occupy(seconds, 0, hook).callbacks.append(then)
        else:
            sim.timeout(step).callbacks.append(then)

    def launch(i, kind, args):
        if kind == "leg":
            steps = tuple(
                (resources[s[0]], s[1], hook_of(i, k) if s[2] else None)
                if isinstance(s, tuple) else call_of(i, k) if s is None
                else s
                for k, s in enumerate(args))
            if loop:
                chain(steps, 0, observed("leg", i))
            else:
                sim.leg(steps).callbacks.append(observed("leg", i))
        elif kind == "occupy":
            r, seconds, priority = args
            resources[r].occupy(seconds, priority).callbacks.append(
                observed("occupy", i))
        else:
            r, seconds = args
            resources[r].occupy_quanta(seconds, q).callbacks.append(
                observed("compute", i))

    for i, (kind, start, args) in enumerate(ops):
        sim.call_at(start, lambda a=(i, kind, args): launch(*a))
    sim.run()
    return (log, [r.busy_time() for r in resources], sim.now,
            _stats(sim.stats()))


def _corpus_cell(run: Callable[[Any], tuple], corpus: List[Any]):
    """``run`` over every program of ``corpus``.  The fingerprint is one
    digest per program of what ``run`` observed (log, clock and, for
    resources, busy times); ``sim_stats`` sums the programs' counters."""
    programs = []
    stats = dict.fromkeys(STAT_KEYS, 0)
    for program in corpus:
        *observed, run_stats = run(program)
        programs.append(digest(observed))
        for key in STAT_KEYS:
            stats[key] += run_stats[key]
    return {"programs": programs}, stats


def _corpus(draw: Callable[[random.Random], Any], seed: int,
            n: int) -> List[Any]:
    rng = random.Random(seed)
    return [draw(rng) for _ in range(n)]


#: The engine cells' programs, fixed by seed: 4 x 100 op programs,
#: 6 x 200 resource programs, 4 x 100 quantized-compute programs and
#: 6 x 100 delivery-leg programs (4-5 with call steps).
CORPORA: Dict[str, List[Any]] = {
    **{f"engine/programs/{k}": _corpus(_op_program, k, 100)
       for k in range(4)},
    **{f"engine/resources/{k}": _corpus(_resource_program, k, 200)
       for k in range(6)},
    **{f"engine/quanta/{k}": _corpus(_quanta_program, k, 100)
       for k in range(4)},
    **{f"engine/legs/{k}": _corpus(_leg_program, k, 100)
       for k in range(4)},
    **{f"engine/legs/{k}": _corpus(
        lambda rng: _leg_program(rng, CALL_LEG_SHAPES), k, 100)
       for k in range(4, 6)},
}

#: Which interpreter runs each corpus, by cell-name prefix.
_INTERPRETERS = {
    "engine/programs/": lambda ops: _run_program(tier, ops),
    "engine/resources/": lambda program: _run_resource_program(tier, *program),
    "engine/quanta/": lambda program: _run_quanta_program(tier, *program),
    "engine/legs/": lambda program: _run_leg_program(tier, *program),
}


def _cells() -> Dict[str, Tuple[bool, Callable[[], tuple]]]:
    """name -> (clean, thunk)."""
    cells: Dict[str, Tuple[bool, Callable[[], tuple]]] = {}

    def add(name: str, clean: bool, fn: Callable[..., tuple],
            *args: Any, **kwargs: Any) -> None:
        cells[name] = (clean, lambda: fn(*args, **kwargs))

    # The event core: value logs, clocks, busy times and counters of the
    # differential programs, on whichever tier REPRO_ENGINE selected.
    for name, corpus in CORPORA.items():
        run = _INTERPRETERS[name[:name.rindex("/") + 1]]
        add(name, True, _corpus_cell, run, corpus)

    # The eight applications, every variant, three topologies.
    for app_name in PAPER_ORDER:
        for variant in make_app(app_name).variants:
            for c, n in TOPOLOGIES:
                add(f"app/{app_name}/{variant}/{c}x{n}", True,
                    _app_cell, app_name, variant, c, n)
    # The token-ring deferred-shortcut apps (tests/test_sequencer_deferred).
    for app_name in ("asp", "acp"):
        add(f"app/{app_name}/original/2x2", True,
            _app_cell, app_name, "original", 2, 2)
    # WAN fan-out routes on a bare fabric.
    for shape in ("flat", "chain", "binomial"):
        for k in (1, 4):
            add(f"fanout/impaired/{shape}/k{k}", False,
                _fanout_cell, IMPAIRED, shape, k)
    for shape in ("chain", "binomial"):
        add(f"fanout/clean/{shape}/k1", False, _fanout_cell, None, shape)
    add("fanout/clean/flat/k4", False, _fanout_cell, None, "flat", 4)
    add("fanout/clean/flat/k1", True, _fanout_cell, None)
    add("fanout/impaired/flat/k1/2c", False, _fanout_cell, IMPAIRED,
        n_clusters=2)
    # Concurrent fan-outs: several sources, symmetric sizes, tied instants.
    for shapes in (("chain",), ("binomial",), ("chain", "binomial"),
                   ("flat", "chain", "binomial")):
        label = "+".join(shapes)
        add(f"concurrent/clean/{label}/k1", False,
            _concurrent_cell, None, shapes)
        add(f"concurrent/impaired/{label}/k1", False,
            _concurrent_cell, IMPAIRED, shapes)
    add("concurrent/clean/chain+binomial/k1/5x1", False,
        _concurrent_cell, None, ("binomial", "chain"), n_clusters=5, nodes=1)
    add("concurrent/clean/flat+chain+binomial/k1/p2p", False,
        _concurrent_cell, None, ("flat", "chain", "binomial"), p2p=True)
    add("concurrent/clean/flat/k1", True, _concurrent_cell, None, ("flat",))
    add("concurrent/clean/flat/k4", False, _concurrent_cell, None, ("flat",), 4)
    add("concurrent/impaired/flat/k1", False,
        _concurrent_cell, IMPAIRED, ("flat",))
    add("concurrent/impaired/flat/k4", False,
        _concurrent_cell, IMPAIRED, ("flat",), 4)
    add("concurrent/impaired/flat/k1/p2p", False,
        _concurrent_cell, IMPAIRED, ("flat",), p2p=True)
    add("concurrent/impaired/flat+chain+binomial/k2/p2p", False,
        _concurrent_cell, IMPAIRED, ("flat", "chain", "binomial"), 2,
        p2p=True)
    # Contended point-to-point WAN routes on a bare fabric.
    add("p2p/clean/k1", True, _p2p_cell, None)
    add("p2p/clean/k4", False, _p2p_cell, None, 4)
    add("p2p/impaired/k1", False, _p2p_cell, IMPAIRED)
    add("p2p/impaired/k4", False, _p2p_cell, IMPAIRED, 4)
    # The PB->BB switch, one byte below and exactly at the boundary.
    for case in BB_CASES:
        for side, label in ((-1, "pb"), (0, "bb")):
            add(f"bb/{case}/{label}", True, _bb_cell, case, side)
    # Whole applications under impairments, fixed and tuned strategy.
    for app_name in ("ra", "sor", "tsp", "asp"):
        variant = make_app(app_name).variants[0]
        for c, n in ((2, 3), (4, 2)):
            add(f"scenario/{app_name}/{variant}/{c}x{n}", False,
                _app_cell, app_name, variant, c, n, scenario=IMPAIRED)
    # The impaired cells tests/test_pdes_golden.py partitions: their
    # single-process results are pinned here.
    loss = Scenario(seed=3, impairments=(Impairment.of("loss", p=0.05),))
    jitter = Scenario(seed=5,
                      impairments=(Impairment.of("jitter", sigma=0.2),))
    add("scenario-loss/sor/original/2x3", False,
        _app_cell, "sor", "original", 2, 3, scenario=loss)
    add("scenario-loss/sor/original/4x2", False,
        _app_cell, "sor", "original", 4, 2, scenario=loss)
    add("scenario-jitter/sor/splitphase/2x3", False,
        _app_cell, "sor", "splitphase", 2, 3, scenario=jitter)
    # The per-quantum speed lookup of Context.compute: a slow_node window
    # that opens and closes inside computes of node 1, and a whole
    # cluster at half speed.  No WAN impairment: pinned exactly.
    slow = Scenario(faults=(Fault.of("slow_node", at=0.0037, duration=0.0025,
                                     target="n1", factor=0.25),))
    add("scenario-slow/tsp/original/2x3", True,
        _app_cell, "tsp", "original", 2, 3, scenario=slow)
    half = Scenario(clusters=(ClusterTweak(1, cpu_speed=0.5),))
    add("scenario-cpu/water/original/2x3", True,
        _app_cell, "water", "original", 2, 3, scenario=half)
    # Sequencer contention on a bare runtime.  Not "clean": the exact
    # ``events``/``spawns`` ride in the fingerprint, while
    # ``fast_completions``/``fallbacks`` (which count how the engine
    # dispatched ties, not what was simulated) stay unpinned here.
    for kind in ("centralized", "distributed", "migrating"):
        add(f"seq/{kind}/contended", False, _seq_cell, kind)
    add("tuned/asp/2x2", False, _tuned_cell, "asp", 2, 2)
    add("tuned/ra/4x2", False, _tuned_cell, "ra", 4, 2)
    # The corners of SOR's red/black stride logic: odd and even widths,
    # consecutive nodes starting on different global row parities, one
    # row per node, the narrowest grids with an interior, and chaotic
    # relaxation on >= 2 clusters (stale ghost rows); ``precision`` makes
    # the iteration count depend on the reduced max-diff.
    def sor_edge(label: str, variant: str, c: int, n: int, n_rows: int,
                 n_cols: int, **kw: Any) -> None:
        params = SORParams(n_rows=n_rows, n_cols=n_cols,
                           n_iterations=14).with_(**kw)
        add(f"sor-edge/{label}/{variant}/{c}x{n}", True,
            _app_cell, "sor", variant, c, n, params=params)

    for variant in make_app("sor").variants:
        # 21 rows over 6 nodes: row0 = 0,4,8,12,15,18 (e,e,e,e,o,e).
        sor_edge("odd-cols", variant, 2, 3, 21, 17)
        sor_edge("row-per-node", variant, 4, 2, 8, 9)
    # 21 rows over 8 nodes: row0 = 0,3,6,9,12,15,17,19 (blocks of 3 and 2).
    sor_edge("even-cols", "optimized", 4, 2, 21, 12)
    sor_edge("row-per-node-even", "optimized", 2, 3, 6, 4)
    sor_edge("one-interior-col", "optimized", 2, 2, 7, 3)
    sor_edge("precision", "optimized", 4, 2, 19, 11,
             n_iterations=200, precision=2e-3)
    sor_edge("precision", "original", 2, 3, 19, 10,
             n_iterations=200, precision=2e-3)
    return cells


CELLS = _cells()


# ------------------------------------------------------------ write/check

def load_manifest() -> Dict[str, Any]:
    with open(MANIFEST) as fh:
        return json.load(fh)


def _moved(name: str, key: str, got: Any, want: Any) -> str:
    """One fingerprint field that differs; a corpus cell names its first
    differing program (index and the program itself)."""
    if name in CORPORA and key == "programs":
        corpus = CORPORA[name]
        i = next(i for i, (a, b) in enumerate(
            itertools.zip_longest(got or [], want or [])) if a != b)
        program = corpus[i] if i < len(corpus) else "(not in the corpus)"
        return f"{key}: first differing program {i}: {program!r}"
    return f"{key} {got!r} != manifest {want!r}"


def check_cell(name: str, manifest: Optional[Dict[str, Any]] = None
               ) -> List[str]:
    """Run ``name`` and compare with the manifest; returns the problems."""
    manifest = manifest if manifest is not None else load_manifest()
    if name not in manifest["cells"]:
        return [f"{name}: not in the manifest"]
    return _problems(name, *CELLS[name][1](), manifest)


def _problems(name: str, got: Dict[str, Any], stats: Dict[str, int],
              manifest: Dict[str, Any]) -> List[str]:
    """How one run of ``name`` breaks the cell the manifest holds: any
    fingerprint field, the exact ``sim_stats`` of a clean cell, the
    bounded ones of any other."""
    want = manifest["cells"][name]
    problems = [f"{name}: {_moved(name, key, got.get(key), val)}"
                for key, val in want.items() if got.get(key) != val]
    problems += [f"{name}: unexpected fingerprint field {key}"
                 for key in got if key not in want]
    pinned = manifest["sim_stats"][name]
    for key in STAT_KEYS:
        if CELLS[name][0]:
            if stats[key] != pinned[key]:
                problems.append(f"{name}: sim_stats[{key}] {stats[key]} "
                                f"!= manifest {pinned[key]}")
        elif key in BOUNDED_KEYS and stats[key] > pinned[key]:
            problems.append(f"{name}: sim_stats[{key}] {stats[key]} rose "
                            f"above manifest {pinned[key]}")
    return problems


def write_manifest(names: List[str], force: bool = False) -> int:
    """Add the cells of ``names`` that the manifest lacks.  A cell it
    already holds is re-run and checked as ``--check`` does; one that
    fails is refused (its changed fields, ``sim_stats`` included, are
    printed and nothing is written for it) unless ``force`` re-blesses
    it, printing the same changed fields.  A cell that passes is left
    exactly as it is."""
    manifest = {"version": 1, "cells": {}, "sim_stats": {}}
    if os.path.exists(MANIFEST):
        manifest = load_manifest()
    refused = reblessed = unchanged = 0
    for name in names:
        fp, stats = CELLS[name][1]()
        have = manifest["cells"].get(name)
        if have is None:
            print(f"wrote {name}")
        elif not _problems(name, fp, stats, manifest):
            unchanged += 1
            continue
        else:
            pinned = manifest["sim_stats"][name]
            changed = [_moved(name, key, fp.get(key), have.get(key))
                       for key in sorted(set(have) | set(fp))
                       if have.get(key) != fp.get(key)]
            changed += [f"sim_stats[{key}]: {pinned[key]} -> {stats[key]}"
                        for key in STAT_KEYS if pinned[key] != stats[key]]
            if not force:
                refused += 1
                print(f"REFUSED {name} (pass --force to re-bless): "
                      + "; ".join(changed), file=sys.stderr)
                continue
            reblessed += 1
            print(f"re-blessed {name}: " + "; ".join(changed))
        manifest["cells"][name] = fp
        manifest["sim_stats"][name] = stats
    os.makedirs(os.path.dirname(MANIFEST), exist_ok=True)
    with open(MANIFEST, "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    if force:
        print(f"{reblessed} re-blessed, {unchanged} unchanged")
    else:
        print(f"{refused} cells refused")
    return 1 if refused else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true")
    mode.add_argument("--write", action="store_true")
    mode.add_argument("--list", action="store_true")
    parser.add_argument("-k", default="", help="only cells containing this")
    parser.add_argument("--force", action="store_true",
                        help="with --write: overwrite cells that differ")
    args = parser.parse_args(argv)
    names = [name for name in CELLS if args.k in name]
    if args.list:
        print("\n".join(names))
        return 0
    if args.write:
        return write_manifest(names, args.force)
    manifest = load_manifest()
    stale = sorted(set(manifest["cells"]) - set(CELLS))
    problems = [f"{name}: in the manifest but not a cell" for name in stale]
    for name in names:
        found = check_cell(name, manifest)
        print(f"{'FAIL' if found else 'ok  '} {name}")
        problems += found
    for line in problems:
        print(line, file=sys.stderr)
    print(f"{len(names)} cells, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
