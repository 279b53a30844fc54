"""The tuner's microbenchmark driver: probe, fit, decide.

The driver is the ninth "application" of the harness: it runs each
collective primitive in :data:`repro.tuner.primitives.PRIMITIVES` inside
the simulator — a minimal stack per probe, no application layer — over a
grid of message sizes x cluster counts x scenarios, averages the
measured virtual-time costs, fits the per-primitive cost lines, and
freezes them into a :class:`~repro.tuner.model.DecisionModel`.

Probes are ordinary simulations: deterministic per seed, traceable
(every repetition emits one ``tune.probe`` span when a tracer is
installed), and cheap — a full default sweep is a few hundred
sub-millisecond runs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..network import DAS_PARAMS, Fabric, uniform_clusters
from ..orca import OrcaRuntime
from ..orca.objects import ObjectSpec, Operation
from ..sim import Simulator, Tracer
from .model import (STREAM_CHOICES, ContextModel, DecisionModel, Strategy,
                    crossover, fit_line)
from .primitives import PRIMITIVES

__all__ = ["Probe", "sweep", "fit", "tune", "format_model",
           "DEFAULT_SIZES", "DEFAULT_CLUSTERS"]

#: Default probe grid: spans the PB/BB decision range (the fixed
#: threshold is 8 KiB) and the striping-relevant large sizes.
DEFAULT_SIZES = (64, 1024, 4096, 8192, 16384, 65536)
DEFAULT_CLUSTERS = (2, 4)

_PROBE_OBJ = "tune.probe.obj"
_PROBE_PORT = "tune.probe.port"


@dataclass(frozen=True)
class Probe:
    """One averaged measurement: a primitive at one grid point."""

    primitive: str
    n_clusters: int
    size: int
    cost: float  # mean virtual seconds per repetition


class _Forced:
    """A stand-in decision model that always answers one strategy.

    Installed on the probe stack so a measurement exercises exactly the
    primitive under test (e.g. force BB regardless of size, or force
    ``k`` WAN streams) — duck-typed to the two methods the runtime and
    fabric call on a :class:`~repro.tuner.model.DecisionModel`.
    """

    def __init__(self, strat: Strategy, streams: int = 1):
        self._strat = strat
        self._streams = streams

    def strategy(self, size: int, n_clusters: int) -> Strategy:
        return self._strat

    def wan_streams(self, size: int, n_clusters: int) -> int:
        return self._streams


def _probe_object() -> ObjectSpec:
    """A minimal replicated object whose one write op carries ``size``
    payload bytes (the arg) and does nothing else."""
    return ObjectSpec(
        name=_PROBE_OBJ,
        state_factory=lambda: [0],
        operations={
            "put": Operation(
                fn=lambda st, size: st.__setitem__(0, st[0] + 1),
                writes=True,
                arg_bytes=lambda size: size,
                result_bytes=0),
        },
        replicated=True)


def _stack(n_clusters: int, nodes_per_cluster: int, scenario,
           tracer: Optional[Tracer], decision=None):
    sim = Simulator()
    topo = uniform_clusters(n_clusters, nodes_per_cluster)
    if scenario is not None:
        from ..scenario import install, scenario_topology
        topo = scenario_topology(scenario, topo)
    fabric = Fabric(sim, topo, DAS_PARAMS, tracer=tracer)
    if tracer is not None:
        fabric.tracer.enabled = True
    if scenario is not None:
        install(sim, fabric, scenario)
    fabric.decision = decision
    return sim, topo, fabric


def _emit_probe(fabric: Fabric, label: str, size: int, n_clusters: int,
                rep: int, t0: float) -> None:
    tr = fabric.tracer
    if tr.enabled:
        now = fabric.sim.now
        tr.emit(now, "tune.probe", primitive=label, size=size,
                clusters=n_clusters, rep=rep, t0=t0, dur=now - t0)


def _measure_bcast(bb: bool, size: int, n_clusters: int,
                   nodes_per_cluster: int, scenario, reps: int,
                   tracer: Optional[Tracer]) -> float:
    """Mean completion latency of one ordered broadcast (PB or BB)."""
    label = "bcast_bb" if bb else "bcast_pb"
    forced = _Forced(Strategy(bb=bb))
    sim, topo, fabric = _stack(n_clusters, nodes_per_cluster, scenario,
                               tracer, decision=forced)
    # Centralized sequencer, stamping at cluster 0's first node; the
    # sender sits as far from it as the topology allows so the PB/BB
    # shipping difference is on the probed path.
    rts = OrcaRuntime(sim, fabric, sequencer="centralized")
    rts.register(_probe_object())
    if n_clusters > 1:
        sender = topo.nodes_in(n_clusters - 1)[0]
    else:
        nodes = topo.nodes_in(0)
        sender = nodes[-1] if len(nodes) > 1 else nodes[0]
    costs: List[float] = []

    def driver():
        for rep in range(reps):
            t0 = sim.now
            yield from rts.invoke(sender, _PROBE_OBJ, "put", (size,))
            costs.append(sim.now - t0)
            _emit_probe(fabric, label, size, n_clusters, rep, t0)

    sim.spawn(driver(), name="tuneprobe")
    sim.run()
    return sum(costs) / len(costs)


def _measure_fanout(shape: str, size: int, n_clusters: int,
                    nodes_per_cluster: int, scenario, reps: int,
                    tracer: Optional[Tracer]) -> float:
    """Mean all-remote-clusters-delivered latency of one WAN fan-out."""
    label = f"fanout_{shape}"
    sim, topo, fabric = _stack(n_clusters, nodes_per_cluster, scenario,
                               tracer)
    costs: List[float] = []

    def driver():
        for rep in range(reps):
            t0 = sim.now
            done = yield from fabric.wan_fanout_multicast(
                0, size, port=_PROBE_PORT, shape=shape)
            yield done
            costs.append(sim.now - t0)
            _emit_probe(fabric, label, size, n_clusters, rep, t0)

    sim.spawn(driver(), name="tuneprobe")
    sim.run()
    return sum(costs) / len(costs)


def _measure_stripe(k: int, size: int, n_clusters: int,
                    nodes_per_cluster: int, scenario, reps: int,
                    tracer: Optional[Tracer]) -> float:
    """Mean delivery latency of one cross-cluster transfer at ``k``
    parallel WAN streams."""
    label = f"stripe_{k}"
    forced = _Forced(Strategy(bb=False), streams=k)
    sim, topo, fabric = _stack(n_clusters, nodes_per_cluster, scenario,
                               tracer, decision=forced)
    src, dst = topo.nodes_in(0)[0], topo.nodes_in(1)[0]
    costs: List[float] = []

    def driver():
        for rep in range(reps):
            t0 = sim.now
            yield from fabric.send_and_wait(src, dst, size, port=_PROBE_PORT)
            costs.append(sim.now - t0)
            _emit_probe(fabric, label, size, n_clusters, rep, t0)

    sim.spawn(driver(), name="tuneprobe")
    sim.run()
    return sum(costs) / len(costs)


def _grid_scenarios(scenarios, seeds: Sequence[int]):
    """The (scenario-or-None) instances one grid point averages over."""
    out = []
    for scn in (scenarios if scenarios else (None,)):
        if scn is None or scn.is_noop():
            out.append(scn)  # deterministic: one run regardless of seeds
        else:
            out.extend(dataclasses.replace(scn, seed=seed)
                       for seed in seeds)
    return out


def sweep(sizes: Sequence[int] = DEFAULT_SIZES,
          cluster_counts: Sequence[int] = DEFAULT_CLUSTERS,
          nodes_per_cluster: int = 2,
          scenarios: Sequence = (None,),
          seeds: Sequence[int] = (0, 1),
          reps: int = 3,
          tracer: Optional[Tracer] = None) -> List[Probe]:
    """Probe every primitive over the grid; one :class:`Probe` per
    (primitive, cluster count, size), averaged over scenarios x seeds
    x repetitions.

    Single-cluster contexts only probe the ordering protocols (the
    ``wan_only`` primitives need a WAN).  ``scenarios`` holds
    :class:`~repro.scenario.Scenario` values (``None`` = clean); seeded
    variants of each impaired scenario are generated per ``seeds``.
    """
    for size in sizes:
        if size < 1:
            raise ValueError(f"probe sizes must be >= 1: {size}")
    if reps < 1:
        raise ValueError(f"probe repetitions must be >= 1: {reps}")
    probes: List[Probe] = []
    for n_clusters in cluster_counts:
        variants = _grid_scenarios(scenarios, seeds)
        for size in sizes:
            for name, spec in PRIMITIVES.items():
                if spec.wan_only and n_clusters < 2:
                    continue
                if name == "bcast_pb":
                    runs = [("bcast_pb", lambda s: _measure_bcast(
                        False, size, n_clusters, nodes_per_cluster, s,
                        reps, tracer))]
                elif name == "bcast_bb":
                    runs = [("bcast_bb", lambda s: _measure_bcast(
                        True, size, n_clusters, nodes_per_cluster, s,
                        reps, tracer))]
                elif name == "stripe":
                    runs = [(f"stripe_{k}",
                             lambda s, k=k: _measure_stripe(
                                 k, size, n_clusters, nodes_per_cluster,
                                 s, reps, tracer))
                            for k in STREAM_CHOICES]
                else:  # fanout_<shape>
                    shape = name[len("fanout_"):]
                    runs = [(name, lambda s, sh=shape: _measure_fanout(
                        sh, size, n_clusters, nodes_per_cluster, s,
                        reps, tracer))]
                for label, measure in runs:
                    costs = [measure(scn) for scn in variants]
                    probes.append(Probe(
                        primitive=label, n_clusters=n_clusters, size=size,
                        cost=sum(costs) / len(costs)))
    return probes


def fit(probes: Sequence[Probe], source: str = "") -> DecisionModel:
    """Fit per-primitive cost lines and freeze a :class:`DecisionModel`.

    Needs at least the two ordering-protocol primitives per cluster
    context; shape and stripe lines are included when probed (they are
    absent for single-cluster contexts, where the context falls back to
    the flat/1-stream defaults).
    """
    by_ctx: Dict[int, Dict[str, List[Tuple[int, float]]]] = {}
    for p in probes:
        by_ctx.setdefault(p.n_clusters, {}).setdefault(
            p.primitive, []).append((p.size, p.cost))
    contexts = []
    for n_clusters in sorted(by_ctx):
        prim = by_ctx[n_clusters]
        if "bcast_pb" not in prim or "bcast_bb" not in prim:
            raise ValueError(
                f"context {n_clusters} clusters is missing ordering-"
                f"protocol probes; have {sorted(prim)}")
        pb = fit_line(prim["bcast_pb"])
        bb = fit_line(prim["bcast_bb"])
        shapes = tuple(sorted(
            (name[len("fanout_"):], fit_line(points))
            for name, points in prim.items() if name.startswith("fanout_")))
        streams = tuple(sorted(
            (int(name[len("stripe_"):]), fit_line(points))
            for name, points in prim.items() if name.startswith("stripe_")))
        contexts.append((n_clusters, ContextModel(
            n_clusters=n_clusters, pb=pb, bb=bb,
            bb_threshold=crossover(pb, bb),
            shapes=shapes, streams=streams)))
    if not contexts:
        raise ValueError("no probes to fit")
    return DecisionModel(contexts=tuple(contexts), source=source)


def tune(sizes: Sequence[int] = DEFAULT_SIZES,
         cluster_counts: Sequence[int] = DEFAULT_CLUSTERS,
         nodes_per_cluster: int = 2,
         scenarios: Sequence = (None,),
         seeds: Sequence[int] = (0, 1),
         reps: int = 3,
         tracer: Optional[Tracer] = None) -> DecisionModel:
    """Sweep + fit in one call (what ``repro tune`` runs)."""
    probes = sweep(sizes, cluster_counts, nodes_per_cluster, scenarios,
                   seeds, reps, tracer)
    described = [s.describe() for s in scenarios if s is not None]
    source = (f"sizes={list(sizes)} clusters={list(cluster_counts)} "
              f"nodes={nodes_per_cluster} reps={reps} "
              f"scenarios={described or ['clean']}")
    return fit(probes, source=source)


def format_model(model: DecisionModel) -> str:
    """Human-readable report of a fitted model (the CLI's output)."""
    lines = ["tuned decision model"]
    if model.source:
        lines.append(f"  calibrated on: {model.source}")
    for n_clusters, ctx in model.contexts:
        thr = ctx.bb_threshold
        thr_text = ("always BB" if thr == 0.0
                    else "never BB" if thr == float("inf")
                    else f"{thr:.0f} B")
        lines.append(f"  {n_clusters} clusters: PB->BB at {thr_text} "
                     f"(fixed default: 8192 B)")
        for name, line in ctx.shapes:
            lines.append(f"    fanout {name:<9} cost = {line.a:.6f} "
                         f"+ {line.b:.3e}*size")
        for k, line in ctx.streams:
            lines.append(f"    stripe k={k:<2}     cost = {line.a:.6f} "
                         f"+ {line.b:.3e}*size")
        if ctx.shapes:
            for probe_size in (1024, 65536):
                s = ctx.strategy(probe_size)
                lines.append(
                    f"    @{probe_size} B -> "
                    f"{'BB' if s.bb else 'PB'}, shape={s.shape}, "
                    f"streams={s.streams}")
    return "\n".join(lines)
