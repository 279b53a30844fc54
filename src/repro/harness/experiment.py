"""Experiment runner: one application variant on one machine configuration.

``run_app`` builds the full stack (simulator, fabric, Orca runtime),
registers the application, spawns one worker process per compute node,
and measures the virtual time from start to the completion of the last
worker — the paper's "core parallel algorithm, excluding program startup"
measurement.  ``speedup_curve`` repeats it over cluster/CPU counts to
produce the numbers behind Figures 1-14.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..apps import ALL_APPS
from ..apps.base import Application, AppResult
from ..network import DAS_PARAMS, Fabric, NetworkParams, Topology, uniform_clusters
from ..orca import OrcaRuntime
from ..sim import SimulationError, Simulator, Tracer

__all__ = ["run_app", "speedup_curve", "CurvePoint", "PAPER_CPU_COUNTS"]

#: CPU counts the paper plots on its speedup figures.
PAPER_CPU_COUNTS = (1, 8, 16, 32, 60)


def _build_stack(topo: Topology, network: NetworkParams, sequencer: str,
                 dedicated_sequencer_node: bool = False, *,
                 tracer: Optional[Tracer] = None, trace: bool = False,
                 scenario: Optional["Scenario"] = None,
                 decision: Optional[Any] = None):
    """One fresh stack on ``topo``: ``(sim, fabric, rts)``.

    The single place a simulation is assembled — ``run_app``, every
    worker of a partitioned run and its coordinator's finalize stack
    start here, so a partition cannot be built differently from the
    serial run it must reproduce.  Message/request ids live on the fabric and
    the runtime built here, so every stack starts them from zero:
    traces (which join on them) come out identical no matter how many
    runs preceded this one in the process.
    """
    sim = Simulator()
    fabric = Fabric(sim, topo, network, tracer=tracer)
    if trace:
        fabric.tracer.enabled = True
        sim.obs = fabric.tracer  # process-lifecycle records
    if scenario is not None:
        from ..scenario import install
        install(sim, fabric, scenario)
    fabric.decision = decision
    rts = OrcaRuntime(sim, fabric, sequencer=sequencer,
                      dedicated_sequencer_node=dedicated_sequencer_node)
    return sim, fabric, rts


def _spawn_workers(sim: Simulator, app: Application, rts: OrcaRuntime,
                   params: Any, variant: str, shared: Any,
                   nodes: Iterable[int], finished_at) -> list:
    """Spawn ``app``'s process on each of ``nodes``; ``finished_at[nid]``
    receives the virtual time node ``nid``'s process returned, from a
    callback on the process event (it dispatches at that instant)."""

    def finished(nid: int, proc) -> None:
        if proc._ok:
            finished_at[nid] = sim.now

    workers = []
    for nid in nodes:
        proc = sim.spawn(app.process(rts.context(nid), params, variant,
                                     shared), name=f"{app.name}{nid}")
        proc.callbacks.append(lambda ev, nid=nid: finished(nid, ev))
        workers.append(proc)
    return workers


def _scan_workers(workers) -> Tuple[List[str], Optional[BaseException]]:
    """Post-run check: the names of the processes that never finished
    and the first failed process's exception (``None`` when none did).
    A failure outranks a deadlock — it usually caused it."""
    deadlocked = [w.name for w in workers if not w.triggered]
    failure = next((w._value for w in workers if w.triggered and not w._ok),
                   None)
    return deadlocked, failure


def run_app(app: Application, variant: str, n_clusters: int,
            nodes_per_cluster: int, params: Any,
            network: NetworkParams = DAS_PARAMS,
            sequencer: Optional[str] = None,
            trace: bool = False,
            utilization: bool = False,
            dedicated_sequencer_node: bool = False,
            topology: Optional[Topology] = None,
            tracer: Optional[Tracer] = None,
            scenario: Optional["Scenario"] = None,
            decision: Optional[Any] = None,
            pdes: str = "off",
            pdes_workers: Optional[int] = None) -> AppResult:
    """Run ``app``/``variant`` on ``n_clusters`` x ``nodes_per_cluster``.

    ``dedicated_sequencer_node`` applies the paper's further broadcast
    optimization of stamping on each cluster's last node instead of its
    first (which usually also runs hot application roles like masters,
    queue owners and combiners).

    ``topology`` overrides the uniform layout — pass (a slice of)
    :func:`repro.network.das_real` to run on the real, nonuniform DAS;
    ``n_clusters``/``nodes_per_cluster`` then only label the result.

    ``trace=True`` enables structured tracing (see ``docs/TRACING.md``);
    ``tracer`` supplies the collection buffer, letting a sweep share one
    tracer across grid points (call ``tracer.clear()`` between points —
    the profiler does).  Tracing never changes virtual-time results.

    ``scenario`` (a :class:`repro.scenario.Scenario`) applies WAN
    impairments, heterogeneity tweaks and timed faults to the run; a
    default/empty scenario is a guaranteed no-op (see docs/SCENARIOS.md).

    ``decision`` (a :class:`repro.tuner.DecisionModel`) installs a
    calibrated protocol-selection model: the Orca broadcast consults it
    for PB/BB, WAN fan-out shape and striping, and the fabric for
    point-to-point WAN striping.  ``None`` — the default — keeps the
    fixed strategy, bit-identical to the pre-tuner stack (see
    docs/TUNING.md).

    ``pdes="on"`` asks for a partitioned run on ``pdes_workers`` forked
    workers (default: every core), with the identical result.  The
    partitioned engine decides whether the run can be cut; if not, it
    warns and the run stays single-process.  Only such a run imports
    that engine (see docs/ARCHITECTURE.md).
    """
    app.check_variant(variant)
    topo = topology if topology is not None \
        else uniform_clusters(n_clusters, nodes_per_cluster)
    if scenario is not None:
        from ..scenario import scenario_topology
        topo = scenario_topology(scenario, topo)

    if pdes not in ("off", "on"):
        raise SimulationError(
            f"unknown pdes value {pdes!r} (expected 'off' or 'on')")
    if pdes == "on":
        from ..sim.pdes import run_app_pdes
        result = run_app_pdes(
            app, variant, n_clusters, nodes_per_cluster, params,
            network=network, sequencer=sequencer,
            dedicated_sequencer_node=dedicated_sequencer_node, topo=topo,
            trace=trace, tracer=tracer, scenario=scenario, decision=decision,
            utilization=utilization, workers=pdes_workers)
        if result is not None:
            return result

    seq_kind = sequencer if sequencer is not None else app.sequencer_for(variant)
    sim, fabric, rts = _build_stack(
        topo, network, seq_kind, dedicated_sequencer_node, tracer=tracer,
        trace=trace, scenario=scenario, decision=decision)
    shared = app.register(rts, params, variant)
    finished_at: List[float] = [0.0] * topo.n_nodes
    workers = _spawn_workers(sim, app, rts, params, variant, shared,
                             range(topo.n_nodes), finished_at)
    sim.run()
    deadlocked, failure = _scan_workers(workers)
    if failure is not None:
        raise failure
    if deadlocked:
        raise SimulationError(
            f"{app.name}/{variant} on {n_clusters}x{nodes_per_cluster}: "
            f"worker {deadlocked[0]} never finished "
            f"(deadlock at t={sim.now})")
    elapsed = max(finished_at)
    answer = app.finalize(rts, params, variant, shared)
    util = None
    if utilization:
        from ..metrics.utilization import collect_utilization
        util = collect_utilization(fabric, elapsed)
    return AppResult(
        app=app.name, variant=variant, n_clusters=n_clusters,
        nodes_per_cluster=nodes_per_cluster, elapsed=elapsed, answer=answer,
        stats=app.stats(rts, params, variant, shared),
        traffic=rts.meter.snapshot(), utilization=util,
        sim_stats=sim.stats())


@dataclass
class CurvePoint:
    n_clusters: int
    n_cpus: int
    elapsed: float
    speedup: float
    result: AppResult


def speedup_curve(app: Application, variant: str, params: Any,
                  cluster_counts: Sequence[int] = (1, 2, 4),
                  cpu_counts: Sequence[int] = PAPER_CPU_COUNTS,
                  network: NetworkParams = DAS_PARAMS,
                  sequencer: Optional[str] = None,
                  runner: Optional["ParallelRunner"] = None,
                  ) -> Dict[int, List[CurvePoint]]:
    """Speedup vs CPU count, one curve per cluster count (Figures 1-14).

    Speedup is relative to the same program on one processor, as in the
    paper ("speedup relative to the one-processor case" for originals,
    "relative to itself" for optimized programs).

    The grid points are independent simulations; they are dispatched
    through ``runner`` (a :class:`~repro.harness.sweeps.ParallelRunner`),
    which parallelizes and caches them.  With no runner, a default one is
    built (``REPRO_JOBS`` workers, no cache).  Apps not in the registry
    (custom :class:`Application` subclasses) fall back to in-process
    serial execution, since their specs cannot be rebuilt by a worker.
    """
    from .sweeps import ParallelRunner, RunSpec

    grid: List[tuple] = []  # (n_clusters, n_cpus, per)
    for n_clusters in cluster_counts:
        for n_cpus in cpu_counts:
            if n_cpus % n_clusters != 0:
                continue  # equal number of processors per cluster
            per = n_cpus // n_clusters
            if per < 1:
                continue
            grid.append((n_clusters, n_cpus, per))

    # The 1x1 baseline rides last; the runner's dedup and cache skip it
    # when the grid (or an earlier figure) already computed it.
    points = [(c, per) for (c, _n, per) in grid] + [(1, 1)]
    if app.name in ALL_APPS:
        if runner is None:
            runner = ParallelRunner()
        outcomes = runner.run(
            [RunSpec(app.name, variant, c, per, params, network=network,
                     sequencer=sequencer) for (c, per) in points])
    else:  # unregistered app: run in-process
        outcomes = [run_app(app, variant, c, per, params, network=network,
                            sequencer=sequencer) for (c, per) in points]
    baseline = outcomes.pop().elapsed

    curves: Dict[int, List[CurvePoint]] = {c: [] for c in cluster_counts}
    for (n_clusters, n_cpus, _per), res in zip(grid, outcomes):
        speed = baseline / res.elapsed if res.elapsed > 0 else 0.0
        curves[n_clusters].append(
            CurvePoint(n_clusters, n_cpus, res.elapsed, speed, res))
    return curves
