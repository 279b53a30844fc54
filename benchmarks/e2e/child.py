"""The measuring process: one workload, one fresh interpreter.

Spawned by ``run.py`` with a hermetic environment (no ``REPRO_*``
variable, ``PYTHONPATH=src``, compiled core already built).  Does the
set-up (import, input generation, one full warm-up pass), then the timed
passes with tracing off, then — with ``--trace 1`` — the serial twin,
the ``cProfile`` pass and the timed-around-public-calls extras.  Writes
one JSON document to ``--result``; ``run.py`` turns it into the report.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

import layers

#: Timed passes per untraced run: at least this many, then until
#: ``--seconds`` have been measured.
MIN_PASSES = 3
#: Untraced reference passes of a traced run (the base of every ratio).
REF_PASSES = 2


class Session:
    """Runs passes, has each one checked, and keeps only numbers: results
    (``sor`` answers are 12 MiB grids) are dropped as soon as the oracle
    and the counters have seen them, so ``peak_rss_mb`` is the program's
    footprint and does not grow with the number of passes."""

    def __init__(self, driver, judge):
        self.driver = driver
        self.judge = judge

    def run(self, label: str, profile=None, **kwargs):
        gc.collect()
        if profile is not None:
            profile.enable()
        try:
            p = self.driver.run_pass(label, **kwargs)
        finally:
            if profile is not None:
                profile.disable()
        self.judge.check(label, p.ops)
        results = [op.result for op in p.ops
                   if hasattr(op.result, "sim_stats")]
        p.counts = layers.pass_counts(results, p.extra)
        p.extra["pdes.blocked_s"] = sum(
            res.sim_stats.get("pdes_blocked_s", 0.0) for res in results)
        for op in p.ops:
            op.result = None
        return p


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--expected", default="")
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", required=True,
                    help="where a traced run writes its spans (JSONL)")
    ap.add_argument("--probe-first-op", action="store_true",
                    help="only time the workload's first run once (used "
                         "for sim.python_tier_x) and exit")
    args = ap.parse_args(argv)

    traced = bool(args.trace)
    spans = layers.Spans(enabled=traced)
    with spans.span("setup", op="setup"):
        with spans.span("import"):
            import repro  # noqa: F401
            from repro.sim.engine import ENGINE_TIER
            from repro.sim.pdes import shutdown_pool

            import oracle
            import workloads
        with spans.span("inputs"):
            inputs = workloads.make_inputs(args.workload, args.seed,
                                           args.tiny)
            expected = {}
            if args.expected and os.path.exists(args.expected):
                with open(args.expected, encoding="utf-8") as fh:
                    expected = json.load(fh)["workloads"].get(
                        args.workload, {})
        driver = workloads.Driver(inputs, spans, args.tmp)
        judge = oracle.Oracle(expected)
        if args.probe_first_op:
            first = driver.run_pass("probe").ops[0]
            _write(args.result, {"tier": ENGINE_TIER, "wall_s": first.wall_s,
                                 "error": first.error})
            return 0
        session = Session(driver, judge)
        with spans.span("warmup"):
            warm = session.run("warmup")
    ready = time.monotonic()

    passes = []
    t_end = time.perf_counter() + args.seconds
    while len(passes) < (REF_PASSES if traced else MIN_PASSES) or (
            not traced and time.perf_counter() < t_end):
        passes.append(session.run(f"pass{len(passes) + 1}"))

    doc = {
        "header": {"host_cores": os.cpu_count(),
                   "jobs": inputs.workers if inputs.sweep_apps else 1,
                   "pdes_workers": inputs.workers if inputs.pdes else 0,
                   "engine_tier": ENGINE_TIER,
                   "python": sys.version.split()[0], "seed": args.seed,
                   "passes": len(passes), "geometry":
                   f"{inputs.clusters}x{inputs.nodes}", "tiny": args.tiny},
        "ready_monotonic": ready,
        # Seconds at reference host speed (calibrate.py); raw beside them.
        "wall_s": [p.wall_s for p in passes],
        "cpu_s": [p.cpu_s for p in passes],
        "raw_wall_s": [p.raw_s for p in passes],
        # Set-up is dominated by the warm-up pass, so it takes that
        # pass's speed adjustment.
        "setup_speed": warm.wall_s / warm.raw_s,
        "counts": passes[-1].counts,
    }
    if traced:
        doc["layer"] = _traced(session, inputs, passes)
    shutdown_pool()  # reap pooled workers so RUSAGE_CHILDREN sees them
    doc["peak_rss_mb"] = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0
    doc["attempted"] = judge.attempted
    doc["failures"] = judge.failures
    doc["prints"] = judge.first
    _write(args.result, doc)
    if traced:
        spans.write_jsonl(args.spans)
    return 0


def _write(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _traced(session: Session, inputs, passes) -> dict:
    """The per-layer numbers no untraced run needs: serial twin, profile
    fold, and timings around single public calls."""
    import cProfile

    from repro.apps import make_app
    from repro.harness import run_app
    from repro.network import DAS_PARAMS, Fabric, uniform_clusters
    from repro.orca import OrcaRuntime
    from repro.sim import Simulator, Tracer

    ref = min(passes, key=lambda p: p.raw_s)  # the least-disturbed pass
    wall = statistics.median(p.wall_s for p in passes)
    extra = ref.extra
    out = dict(ref.counts, **{"pdes.blocked_s": extra["pdes.blocked_s"],
                              "tuner.tune_s": extra.get("tuner.tune_s", 0.0)})
    events = out["sim.events"]
    out["sim.us_per_event"] = wall / events * 1e6 if events else 0.0
    here = f"-{inputs.clusters}x{inputs.nodes}"
    for op in ref.ops:
        if op.id.count("-") == 1:    # run-list operation: <app>-<variant>
            out[f"run.{op.id}.wall_s"] = op.wall_s
        elif op.id.endswith(here):   # the sweep's point at this geometry
            out[f"run.{op.id[:-len(here)]}.wall_s"] = op.wall_s

    # Forked sweep/PDES workers are invisible to the profiler, so those
    # two workloads are folded over their serial twin (jobs=1 /
    # pdes="off"), which an untraced twin pass times first.
    base, base_raw = wall, statistics.median(p.raw_s for p in passes)
    if inputs.sweep_apps or inputs.pdes:
        twin = session.run("twin", parallel=False)
        base, base_raw = twin.wall_s, twin.raw_s
    profile = cProfile.Profile()
    session.driver.calibrated = False
    try:
        profiled = session.run("profiled", profile=profile, parallel=False)
    finally:
        session.driver.calibrated = True
    fold = layers.fold_profile(profile)
    self_total = sum(s for s, _n in fold.values()) or 1.0
    for layer, (self_s, calls) in fold.items():
        out[f"{layer}.self_frac"] = self_s / self_total
        out[f"{layer}.calls"] = calls
    out["trace.overhead_x"] = profiled.raw_s / base_raw

    if inputs.sweep_apps:
        n = extra["harness.points"] or 1
        jobs = extra["harness.jobs"]
        out["harness.serial_wall_s"] = base
        out["harness.pool_efficiency"] = base / (jobs * wall)
        # Pool time not spent simulating, per point (raw on both sides:
        # the workers time their own points).
        out["harness.dispatch_ms_per_point"] = (
            ref.raw_s - extra["harness.host_s_sum"] / jobs) / n * 1e3
        out["harness.straggler_s"] = extra["harness.straggler_s"]
        out["harness.warm_ms_per_point"] = \
            extra["harness.warm_wall_s"] / n * 1e3
        out["harness.cache_bytes_per_point"] = \
            extra["harness.cache_bytes"] / n
    if inputs.pdes:
        out["pdes.serial_wall_s"] = base
        out["pdes.speedup"] = base / wall
        out["pdes.overhead_us_per_epoch"] = \
            (wall - base / inputs.workers) / (out["pdes.epochs"] or 1) * 1e6

    builds = []
    for _ in range(15):
        t0 = time.perf_counter()
        sim = Simulator()
        fabric = Fabric(sim, uniform_clusters(inputs.clusters, inputs.nodes),
                        DAS_PARAMS)
        OrcaRuntime(sim, fabric)
        builds.append(time.perf_counter() - t0)
    out["harness.stack_build_ms"] = statistics.median(builds) * 1e3

    if inputs.workload == "p2p_4x15":
        # Structured tracing on vs off, first run of the list: the
        # zero-overhead-when-disabled promise is the *untraced* wall_s;
        # this is what switching it on costs.
        run, tracer = inputs.runs[0], Tracer()
        gc.collect()
        t0 = time.perf_counter()
        run_app(make_app(run.app), run.variant, inputs.clusters,
                inputs.nodes, run.params, trace=True, tracer=tracer)
        out["obs.trace_on_x"] = (time.perf_counter() - t0) / ref.ops[0].raw_s
        out["obs.records"] = len(tracer.records)
    return out


if __name__ == "__main__":
    sys.exit(main())
