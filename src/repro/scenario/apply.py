"""Applying a :class:`~repro.scenario.spec.Scenario` to a run.

Three mechanisms, one per scenario axis (see docs/SCENARIOS.md):

* **Heterogeneity** — :func:`scenario_topology` rewrites the base
  topology's :class:`~repro.network.topology.ClusterSpec` list with the
  scenario's per-cluster tweaks (CPU speed, node count, LAN link class);
  the fabric reads the specs directly, so nothing else changes.
* **WAN impairments** — :class:`WanImpairments` is installed on the
  fabric (``fabric.impair``); every WAN PVC stage then calls
  :meth:`WanImpairments.plan` to perturb its serialization time,
  latency, and retransmission count.  Randomness comes from one
  :func:`~repro.sim.rng.substream` per (model, directed cluster pair),
  so a run is bit-identical per seed regardless of host parallelism.
* **Faults** — :func:`install` spawns one generator process per
  :class:`~repro.scenario.spec.Fault`, which sleeps until the onset,
  seizes the target (gateway CPU, WAN PVC pair) or rescales a node's
  speed, holds for the duration, recovers, and emits one ``scn.fault``
  span covering the *actual* window (onset may drain in-service work
  first).

Everything here is additive: with an empty scenario nothing is
installed and the run is record-for-record identical to a plain one.
"""

from __future__ import annotations

import math
import re
from itertools import chain
from typing import Generator, Iterator, List, Optional, Tuple

from ..network.fabric import Fabric
from ..network.topology import ClusterSpec, Topology
from ..sim import Simulator
from ..sim.rng import substream
from .spec import Fault, Scenario

__all__ = ["scenario_topology", "install", "WanImpairments", "ImpairPlan"]


# ------------------------------------------------------- heterogeneity

def scenario_topology(scenario: Scenario, base: Topology) -> Topology:
    """The base topology with the scenario's cluster tweaks applied."""
    if not scenario.clusters:
        return base
    specs = list(base.clusters)
    for tweak in scenario.clusters:
        if tweak.cluster >= len(specs):
            raise ValueError(
                f"cluster tweak targets cluster {tweak.cluster} but the "
                f"topology has {len(specs)} clusters")
        old = specs[tweak.cluster]
        specs[tweak.cluster] = ClusterSpec(
            name=old.name,
            n_nodes=old.n_nodes if tweak.n_nodes is None else tweak.n_nodes,
            cpu_speed=tweak.cpu_speed,
            link=tweak.link,
        )
    return Topology(specs)


# ----------------------------------------------------- WAN impairments

class ImpairPlan:
    """The perturbation one WAN transfer suffers (see :meth:`plan`)."""

    __slots__ = ("tx", "latency", "retries", "rto")

    def __init__(self, tx: float, latency: float, retries: int, rto: float):
        self.tx = tx            # serialization seconds for each attempt
        self.latency = latency  # one-way pipeline latency, seconds
        self.retries = retries  # extra (lost) attempts before success
        self.rto = rto          # wait after each lost attempt, seconds


#: Draws fetched per numpy call for each (model, directed pair) stream.
#: Small on purpose: every pair holds one block per drawing model.
BLOCK = 32


def _draws(fill) -> Iterator[float]:
    """Successive values of ``fill(BLOCK)``, one at a time: numpy's
    array fills give the values of successive scalar draws, in order."""
    return chain.from_iterable(iter(lambda: fill(BLOCK).tolist(), None))


class WanImpairments:
    """Seeded perturbation of every WAN PVC transfer.

    One instance per run, installed as ``fabric.impair``.  The fabric's
    WAN leg calls :meth:`plan` once per transfer *before* occupying the
    PVC; the plan's extra serialization, latency delta and retransmit
    count are then executed by the leg itself, so queueing effects
    (a dipped PVC backing up, retransmits delaying the queue behind
    them) emerge from the normal resource model.

    Determinism: each (model, directed pair) owns an independent
    :func:`~repro.sim.rng.substream`; draws happen in transfer order on
    that pair, which the simulator makes deterministic.  A stream is
    read :data:`BLOCK` draws at a time (:func:`_draws`) with exactly
    the values and arithmetic of one scalar draw per use.  Tracing
    never draws — ``scn.impair`` records are emitted from values
    already computed.
    """

    def __init__(self, sim: Simulator, scenario: Scenario, tracer=None):
        self.sim = sim
        self.seed = scenario.seed
        self.tracer = tracer
        self._jitter: Optional[float] = None          # sigma
        self._loss: Optional[Tuple[float, float, int]] = None  # p, rto, cap
        self._dip: Optional[Tuple[float, float, float]] = None  # depth/period/duty
        self._cross: Optional[float] = None           # load
        for imp in scenario.impairments:
            if imp.model == "jitter":
                self._jitter = imp.param("sigma")
            elif imp.model == "loss":
                self._loss = (imp.param("p"), imp.param("rto"),
                              int(imp.param("max_retries")))
            elif imp.model == "bw_dip":
                self._dip = (imp.param("depth"), imp.param("period"),
                             imp.param("duty"))
            elif imp.model == "cross_traffic":
                self._cross = imp.param("load")
        self._pairs = {}

    def _resolve(self, pair: Tuple[int, int]) -> tuple:
        """The pair's ``(cross, jitter, loss, phase)``: an iterator per
        drawing model (None when off) and the ``bw_dip`` phase."""
        def stream(model: str):
            return substream(self.seed, f"{model}:{pair[0]}->{pair[1]}")

        # exponential(scale) is scale * standard_exponential();
        # lognormal(0, sigma) is exp(0.0 + sigma * standard_normal()).
        draws = self._pairs[pair] = (
            None if self._cross is None else _draws(
                stream("cross_traffic").standard_exponential),
            None if not self._jitter else _draws(
                stream("jitter").standard_normal),
            None if self._loss is None else _draws(stream("loss").random),
            None if self._dip is None else float(
                stream("bw_dip").uniform(0.0, self._dip[1])))
        return draws

    def _emit(self, model: str, pair: Tuple[int, int], msg_id: int,
              extra: float, retries: int = 0) -> None:
        self.tracer.emit(self.sim.now, "scn.impair", model=model,
                         link=f"c{pair[0]}->c{pair[1]}", msg_id=msg_id,
                         extra=extra, retries=retries)

    def plan(self, src_cluster: int, dst_cluster: int, size: int,
             tx: float, latency: float, msg_id: int) -> ImpairPlan:
        """Perturb one transfer of ``size`` bytes on the directed PVC.

        ``tx``/``latency`` are the clean serialization and pipeline
        times; the returned plan carries the impaired values plus the
        retransmission schedule.  While tracing, one ``scn.impair``
        record is emitted per *contributing* model (a model whose draw
        changed nothing — e.g. outside a dip window — stays silent).
        """
        pair = (src_cluster, dst_cluster)
        cross, jitter, loss, phase = (self._pairs.get(pair)
                                      or self._resolve(pair))
        traced = self.tracer is not None and self.tracer.enabled
        bandwidth = size / tx if tx > 0 else 0.0
        if cross is not None and bandwidth > 0:
            extra_bytes = (self._cross * size) * next(cross)
            if extra_bytes > 0:
                delta = extra_bytes / bandwidth
                tx += delta
                if traced:
                    self._emit("cross_traffic", pair, msg_id, delta)
        if phase is not None and tx > 0:
            depth, period, duty = self._dip
            offset = (self.sim.now + phase) % period
            if offset < duty * period and depth > 0:
                delta = tx * depth / (1.0 - depth)
                tx += delta
                if traced:
                    self._emit("bw_dip", pair, msg_id, delta)
        if jitter is not None:
            factor = math.exp(0.0 + self._jitter * next(jitter))
            delta = latency * (factor - 1.0)
            latency += delta
            if traced:
                self._emit("jitter", pair, msg_id, delta)
        retries, rto = 0, 0.0
        if loss is not None:
            p, rto, cap = self._loss
            while retries < cap and next(loss) < p:
                retries += 1
            if retries and traced:
                self._emit("loss", pair, msg_id, retries * (tx + rto),
                           retries)
        return ImpairPlan(tx, latency, retries, rto)


# --------------------------------------------------------------- faults

_CLUSTER = re.compile(r"^c(\d+)$")
_PAIR = re.compile(r"^c(\d+)-c(\d+)$")
_NODE = re.compile(r"^n(\d+)$")


def _parse_target(fault: Fault, fabric: Fabric):
    """Resolve a fault's target label against the built fabric."""
    topo = fabric.topo
    label = fault.target
    if fault.model == "gw_outage":
        match = _CLUSTER.match(label or "c0")
        if not match or int(match.group(1)) >= topo.n_clusters:
            raise ValueError(f"gw_outage target {label!r}: want c<K> with "
                             f"K < {topo.n_clusters}")
        return int(match.group(1))
    if fault.model == "link_flap":
        match = _PAIR.match(label or "c0-c1")
        if match:
            a, b = int(match.group(1)), int(match.group(2))
        if not match or a == b or a >= topo.n_clusters \
                or b >= topo.n_clusters:
            raise ValueError(f"link_flap target {label!r}: want c<A>-c<B> "
                             f"with distinct clusters < {topo.n_clusters}")
        return a, b
    if fault.model == "slow_node":
        match = _NODE.match(label or "n0")
        if not match or int(match.group(1)) >= topo.n_nodes:
            raise ValueError(f"slow_node target {label!r}: want n<K> with "
                             f"K < {topo.n_nodes}")
        return int(match.group(1))
    raise AssertionError(f"unhandled fault model {fault.model}")


def _emit_fault(fabric: Fabric, fault: Fault, target_label: str,
                t0: float) -> None:
    tr = fabric.tracer
    if tr.enabled:
        now = fabric.sim.now
        tr.emit(now, "scn.fault", model=fault.model, target=target_label,
                t0=t0, dur=now - t0)


def _gw_outage(fabric: Fabric, fault: Fault, cluster: int) -> Generator:
    sim = fabric.sim
    yield sim.timeout(fault.at)
    cpu = fabric.gateways[cluster]
    # Seize the gateway CPU with a plain request: forwards already in
    # service drain first (the outage begins when the gateway goes
    # quiet), then everything queues behind the outage until recovery.
    yield cpu.request()
    t0 = sim.now
    yield sim.timeout(fault.duration)
    cpu.release()
    _emit_fault(fabric, fault, f"c{cluster}", t0)


def _link_flap(fabric: Fabric, fault: Fault, pair: Tuple[int, int]) -> Generator:
    sim = fabric.sim
    a, b = pair
    yield sim.timeout(fault.at)
    fwd = fabric._wan[(a, b)]
    rev = fabric._wan[(b, a)]
    yield fwd.request()
    yield rev.request()
    t0 = sim.now
    yield sim.timeout(fault.duration)
    fwd.release()
    rev.release()
    _emit_fault(fabric, fault, f"c{a}-c{b}", t0)


def _slow_node(fabric: Fabric, fault: Fault, node: int) -> Generator:
    sim = fabric.sim
    yield sim.timeout(fault.at)
    speeds = fabric.node_speed
    assert speeds is not None  # install() materializes the list
    t0 = sim.now
    old = speeds[node]
    speeds[node] = old * fault.param("factor")
    yield sim.timeout(fault.duration)
    speeds[node] = old
    _emit_fault(fabric, fault, f"n{node}", t0)


_FAULT_PROCS = {
    "gw_outage": _gw_outage,
    "link_flap": _link_flap,
    "slow_node": _slow_node,
}


def install(sim: Simulator, fabric: Fabric, scenario: Scenario) -> None:
    """Install a scenario on a freshly built stack (before the app runs).

    Idempotent-by-construction with the no-op guarantee: an empty
    scenario installs nothing at all.
    """
    if scenario.impairments:
        fabric.impair = WanImpairments(sim, scenario, tracer=fabric.tracer)
    for fault in scenario.faults:
        target = _parse_target(fault, fabric)
        if fault.model == "slow_node" and fabric.node_speed is None:
            # Materialize the per-node speed table the fault toggles.
            fabric.node_speed = [1.0] * fabric.topo.n_nodes
        proc = _FAULT_PROCS[fault.model]
        sim.spawn(proc(fabric, fault, target),
                  name=f"fault:{fault.model}")
