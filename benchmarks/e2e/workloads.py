"""The seven workloads: seed -> generated inputs, and one pass over them.

Everything here goes through the default public API only (``run_app``,
``ParallelRunner``/``ResultCache``, ``figure15_bars_many``,
``Scenario``/``Impairment``, ``tune``): no tier-selecting argument, no
environment toggle, nothing from the micro-benchmark suites — so the
benchmark survives the deletion of any of those.  The program under test
only ever receives the params/specs generated here.

An *operation* is one simulation request — a ``run_app`` call, a sweep
grid point, a ``tune()`` call.  A *pass* is one walk over the workload's
run list; the driver times passes and ``oracle.py`` checks every
operation of every pass.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import random
import shutil
import signal
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.apps import make_app, small_params
from repro.harness import (ParallelRunner, ResultCache, bench_params,
                           figure15_bars_many, run_app)
from repro.scenario import Impairment, Scenario
from repro.sim.pdes import shutdown_pool
from repro.sim.rng import derive_seed
from repro.tuner import DEFAULT_SIZES, tune

import calibrate
import layers

__all__ = ["Run", "Inputs", "Op", "Pass", "Driver",
           "make_inputs", "OpTimeout"]

#: Run-length knobs applied on top of ``bench_params`` so that one pass
#: takes 2-3 s and a run fits several passes (README "Pass sizes"): the
#: 4x15 geometry, synthetic kernels, per-operation costs and message
#: sizes stay at paper scale, only the iteration/problem count shrinks.
#: ``asp`` follows ``bench_params``' own rule (n x elem_cost constant).
_SHORTEN: Dict[str, Dict[str, Any]] = {
    "asp": dict(n_vertices=500, elem_cost=600e-9),
    "ra": dict(n_positions=8000),
    "sor": dict(n_iterations=20),
    "water": dict(n_steps=1),
    "ida": dict(synth_iterations=2),
}

#: The impaired WAN of ``impaired_4x8``.
_IMPAIRMENTS = (Impairment.of("jitter", sigma=0.3),
                Impairment.of("loss", p=0.02),
                Impairment.of("cross_traffic", load=2.0))

_BOTH = ("original", "optimized")
#: workload -> ((app, variants), ...) for the run-list workloads.
_RUN_LISTS: Dict[str, Tuple[Tuple[str, Tuple[str, ...]], ...]] = {
    "bcast_4x15": (("asp", _BOTH),),
    "p2p_4x15": (("ra", _BOTH),),
    "rpc_4x15": (("water", _BOTH), ("tsp", _BOTH), ("atpg", _BOTH),
                 ("ida", _BOTH)),
    "kernel_4x15": (("sor", ("optimized",)),),
    "impaired_4x8": (("ra", ("original",)), ("tsp", ("original",)),
                     ("atpg", ("original",))),
    "pdes_4x15": (("sor", ("optimized",)), ("ra", ("optimized",))),
}
#: Apps whose host time is numpy stencils, not interpreter work: their
#: operations are calibrated against the ``np`` kernel (calibrate.py).
_NUMPY_BOUND = {"sor"}
_SWEEP_APPS = ("tsp", "atpg")
#: The figure-15 grid is fixed at paper scale by the public API, so the
#: tiny self-test sweeps a single app.
_SWEEP_APPS_TINY = ("atpg",)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class Run:
    """One ``run_app`` request of a run list."""

    app: str
    variant: str
    params: Any

    @property
    def op(self) -> str:
        return f"{self.app}-{self.variant}"


@dataclass(frozen=True)
class Inputs:
    """Everything a workload's passes are generated from."""

    workload: str
    clusters: int
    nodes: int
    runs: Tuple[Run, ...] = ()
    scenario: Optional[Scenario] = None
    sweep_apps: Tuple[str, ...] = ()
    pdes: bool = False
    #: sweep pool width / PDES partition workers (1 for serial workloads).
    workers: int = 1


def _params(app: str, seed: int, tiny: bool) -> Any:
    if tiny:
        params = small_params(app)
    else:
        params = bench_params(app)
        if app in _SHORTEN:
            params = params.with_(**_SHORTEN[app])
    # Seed 0 keeps the committed paper instance; any other seed
    # re-seeds the instance generator.
    if seed != 0 and hasattr(params, "seed"):
        params = params.with_(seed=derive_seed(seed, f"{app}.params"))
    return params


def make_inputs(workload: str, seed: int, tiny: bool = False) -> Inputs:
    """Generate ``workload``'s inputs from ``seed`` (same seed, same inputs)."""
    if workload != "sweep_fig15" and workload not in _RUN_LISTS:
        raise ValueError(f"unknown workload {workload!r}; choose from "
                         f"{sorted(_RUN_LISTS) + ['sweep_fig15']}")
    clusters, nodes = (2, 2) if tiny else \
        (4, 8) if workload == "impaired_4x8" else (4, 15)
    host_width = min(os.cpu_count() or 1, 4)
    if workload == "sweep_fig15":
        apps = list(_SWEEP_APPS_TINY if tiny else _SWEEP_APPS)
        if seed != 0:  # the grid is fixed by the public API; vary its order
            random.Random(derive_seed(seed, "sweep.order")).shuffle(apps)
        return Inputs(workload, clusters, nodes,
                      sweep_apps=tuple(apps), workers=host_width)
    runs = tuple(Run(app, variant, _params(app, seed, tiny))
                 for app, variants in _RUN_LISTS[workload]
                 for variant in variants)
    scenario = None
    if workload == "impaired_4x8":
        scenario = Scenario(
            seed=0 if seed == 0 else derive_seed(seed, "scenario"),
            impairments=_IMPAIRMENTS)
    pdes = workload == "pdes_4x15"
    return Inputs(workload, clusters, nodes, runs=runs,
                  scenario=scenario, pdes=pdes,
                  workers=min(host_width, clusters) if pdes else 1)


@dataclass
class Op:
    """One executed operation: what was asked, what came back."""

    id: str
    spec: str            # digest of the generated request
    wall_s: float        # seconds at reference host speed (calibrate.py)
    cpu_s: float = 0.0   # process-tree CPU, same adjustment
    raw_s: float = 0.0   # wall-clock as it elapsed
    result: Any = None   # AppResult, DecisionModel, or bars dict
    error: Optional[str] = None


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    raw_s: float
    ops: List[Op]
    #: harness/tuner numbers only the pass itself can see.
    extra: Dict[str, float] = field(default_factory=dict)
    #: exact per-layer counts, filled in once the results were read.
    counts: Dict[str, int] = field(default_factory=dict)


class OpTimeout(Exception):
    """The per-operation watchdog fired."""


def _on_alarm(signum, frame):
    raise OpTimeout("operation exceeded the watchdog")


class Driver:
    """Runs passes over one workload's inputs, one guarded op at a time."""

    def __init__(self, inputs: Inputs, spans: layers.Spans, tmp_root: str,
                 op_limit_s: float = 60.0):
        self.inputs = inputs
        self.spans = spans
        self.tmp_root = tmp_root
        self.op_limit_s = op_limit_s
        #: Off for the profiled pass: the profiler would slow the
        #: calibration kernel and fold its frames into the shares.
        self.calibrated = True
        self._edge = (0.0, "", 0.0)  # (taken at, kind, seconds per slice)
        signal.signal(signal.SIGALRM, _on_alarm)

    def _edge_s(self, kind: str) -> float:
        """Mean of two calibration slices of ``kind``, taken now — or the
        pair just taken at the end of the previous operation, so
        back-to-back operations share the slices between them."""
        at, cached_kind, value = self._edge
        if cached_kind != kind or time.perf_counter() - at > 0.005:
            value = (calibrate.slice_s(kind) + calibrate.slice_s(kind)) / 2
            self._edge = (time.perf_counter(), kind, value)
        return value

    def _op(self, op_id: str, spec: str, fn: Callable[[], Any],
            label: str, kind: str = "py") -> Op:
        """Run ``fn`` under the watchdog, bracketed by calibration slices
        of kernel ``kind``; a raise or timeout is a failed operation,
        never a crash."""
        result = error = None
        before = self._edge_s(kind) if self.calibrated else 0.0
        with self.spans.span("op", op=f"{label}/{op_id}"):
            signal.setitimer(signal.ITIMER_REAL, self.op_limit_s)
            c0 = layers.tree_cpu_s()
            t0 = time.perf_counter()
            try:
                result = fn()
            except Exception as exc:  # boundary: the pass must continue
                error = f"{type(exc).__name__}: {exc}"
            finally:
                raw = time.perf_counter() - t0
                cpu = layers.tree_cpu_s() - c0
                signal.setitimer(signal.ITIMER_REAL, 0)
        speed = 1.0  # reference speed / host speed around this operation
        if self.calibrated:
            self._edge = (0.0, "", 0.0)
            speed = 2.0 * calibrate.REF_S[kind] / (before + self._edge_s(kind))
        if error is not None and self.inputs.pdes:
            shutdown_pool()  # a hung or dead partition worker must not linger
        return Op(op_id, spec, raw * speed, cpu * speed, raw, result, error)

    def run_pass(self, label: str, parallel: bool = True) -> Pass:
        """One pass.  ``parallel=False`` runs the serial twin of the sweep
        (``jobs=1``) and PDES (``pdes="off"``) workloads; other workloads
        ignore it."""
        with self.spans.span("pass", op=label):
            if self.inputs.sweep_apps:
                return self._sweep_pass(label, parallel)
            ops, extra = self._run_list(label, parallel)
            return Pass(sum(op.wall_s for op in ops),
                        sum(op.cpu_s for op in ops),
                        sum(op.raw_s for op in ops), ops, extra)

    # -- run-list workloads ---------------------------------------------
    def _run_list(self, label: str,
                  parallel: bool) -> Tuple[List[Op], Dict[str, float]]:
        inp = self.inputs
        ops: List[Op] = []
        extra: Dict[str, float] = {}
        kwargs: Dict[str, Any] = {}
        if inp.pdes:
            kwargs = dict(pdes="on" if parallel else "off",
                          pdes_workers=inp.workers)
        if inp.scenario is not None:
            def tuned():
                with self.spans.span("tune"):
                    return tune(scenarios=(inp.scenario,))
            op = self._op("tune", digest(repr(inp.scenario)), tuned, label)
            ops.append(op)
            kwargs = dict(scenario=inp.scenario, decision=op.result)
            if op.result is not None:
                extra["tuner.tune_s"] = op.wall_s
                # Probe points the model was fitted from: per cluster
                # context PB, BB, each fan-out shape and stripe width,
                # at every default size.
                extra["tuner.probes"] = len(DEFAULT_SIZES) * sum(
                    2 + len(ctx.shapes) + len(ctx.streams)
                    for _n, ctx in op.result.contexts)
        for run in inp.runs:
            spec = digest(repr((run.app, run.variant, inp.clusters,
                                inp.nodes, run.params, inp.scenario)))
            ops.append(self._op(
                run.op, spec,
                lambda run=run: run_app(make_app(run.app), run.variant,
                                        inp.clusters, inp.nodes, run.params,
                                        **kwargs),
                label, kind="np" if run.app in _NUMPY_BOUND else "py"))
        return ops, extra

    # -- sweep workload -------------------------------------------------
    def _sweep_pass(self, label: str, parallel: bool) -> Pass:
        """Cold figure-15 sweep into a fresh cache, then a warm re-run.

        The pass's wall/CPU is the cold sweep (what a ``repro figure``
        user waits for); the grid points become operations afterwards,
        read back from the cache the sweep just wrote.
        """
        inp = self.inputs
        apps = list(inp.sweep_apps)
        jobs = inp.workers if parallel else 1
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.tmp_root)
        SpanRunner, SpanCache = layers.spanned_harness(
            self.spans, ParallelRunner, ResultCache)
        try:
            cold = SpanRunner(jobs=jobs, cache=SpanCache(cache_dir))
            bars = self._op("bars", digest(repr(sorted(apps))),
                            lambda: figure15_bars_many(apps, runner=cold),
                            label)
            warm = SpanRunner(jobs=jobs, cache=SpanCache(cache_dir))
            rerun = self._op("rerun", bars.spec,
                             lambda: figure15_bars_many(apps, runner=warm),
                             label)
            if rerun.error is None and (rerun.result != bars.result
                                        or warm.computed != 0):
                rerun.error = (f"warm re-run differs from cold "
                               f"({warm.computed} points re-simulated)")
            ops = self._grid_ops(cache_dir, cold) + [bars, rerun]
            host = [r.detail["host_s"] for r in cold.point_records]
            n_specs = 6 * len(apps)  # four bars + two baselines per app
            files = [os.path.join(d, f) for d, _s, fs in os.walk(cache_dir)
                     for f in fs]
            extra = {
                "harness.points": len(cold.point_records),
                "harness.points_deduped": n_specs - len(cold.point_records),
                "harness.cache_hits": warm.hits,
                "harness.cache_bytes": sum(map(os.path.getsize, files)),
                "harness.host_s_sum": sum(host),
                "harness.straggler_s": max(host, default=0.0),
                "harness.warm_wall_s": rerun.raw_s,
                "harness.jobs": jobs,
            }
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        return Pass(bars.wall_s, bars.cpu_s, bars.raw_s, ops, extra)

    def _grid_ops(self, cache_dir: str, runner: ParallelRunner) -> List[Op]:
        """One op per grid point: the cached result plus its host time
        (as the pool worker measured it, unadjusted)."""
        host = {(d["app"], d["variant"], d["clusters"], d["nodes"]):
                d["host_s"]
                for d in (r.detail for r in runner.point_records)}
        ops = []
        for dirpath, _dirs, files in os.walk(cache_dir):
            for name in files:
                # Entries this process tree wrote moments ago.
                with open(os.path.join(dirpath, name), "rb") as fh:
                    res = pickle.load(fh)
                key = (res.app, res.variant, res.n_clusters,
                       res.nodes_per_cluster)
                host_s = host.get(key, 0.0)
                ops.append(Op(
                    f"{res.app}-{res.variant}-{res.n_clusters}x"
                    f"{res.nodes_per_cluster}",
                    digest(repr(key + (bench_params(res.app),))),
                    host_s, raw_s=host_s, result=res))
        return sorted(ops, key=lambda op: op.id)
