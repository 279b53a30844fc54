"""Command-line interface: regenerate paper experiments from the shell.

Examples::

    python -m repro list                      # apps, figures, tables
    python -m repro table 1                   # Table 1 micro-benchmarks
    python -m repro table 2
    python -m repro table 4                   # tables 4 & 5 (traffic)
    python -m repro figure fig5               # one speedup figure
    python -m repro figure fig15 --jobs 4     # the 4-cluster summary, parallel
    python -m repro app water --variant optimized --clusters 4 --nodes 15
    python -m repro profile asp --clusters 4  # name the WAN bottleneck
    python -m repro trace ra --out ra.json    # Perfetto-loadable trace
    python -m repro trace tsp --format folded # flame-graph input
    python -m repro chains water --clusters 2 # per-hop message latency
    python -m repro figure fig5 --jobs 4 --trace-dir traces \
        --trace-ring 20000                    # traced parallel sweep
    python -m repro cache clear               # drop the result cache
    python -m repro bench --suite orca        # measure, print, write nothing
    python -m repro bench --check             # regress vs BENCH_*.json
    python -m repro scenario ra --wan-jitter lognormal:0.3 \
        --fault gw_outage@2.0s+0.5s           # impaired vs clean run
    python -m repro scenario ra asp --wan-loss 0.02 --seeds 3 --jobs 4
    python -m repro scenario water --cluster 1:cpu=0.5,link=fast-ethernet
    python -m repro tune --wan-loss 0.2 --out model.json  # calibrate
    python -m repro tune --wan-loss 0.2 --apply --jobs 4  # before/after
    python -m repro app asp --decision model.json         # run tuned

Experiment commands accept ``--jobs N`` (or the ``REPRO_JOBS`` env var)
to fan the independent simulations of a figure or table out over a
process pool, and ``--no-cache`` to bypass the on-disk result cache.
With ``--trace-dir DIR`` every grid point also runs traced (bounded
with ``--trace-ring N`` / ``--trace-sample kind=k,...``) and leaves one
Perfetto file per point in DIR.  ``docs/ARCHITECTURE.md`` has the
consolidated CLI reference; ``docs/TRACING.md`` documents the trace
schema behind ``trace``, ``chains`` and ``profile``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Tuple

from .apps import PAPER_ORDER, make_app
from .harness import (
    QUICK_CPUS,
    SPEEDUP_FIGURES,
    ParallelRunner,
    ResultCache,
    RunSpec,
    bench_params,
    figure_curves,
    format_curves,
    format_stragglers,
    run_app,
    write_trace,
)
from .harness.claims import EXHIBITS
from .scenario import Impairment, Scenario, parse_cluster_tweak, parse_fault
from .sim import Tracer, TraceSpec
from .tuner import (DEFAULT_CLUSTERS, DEFAULT_SIZES, DecisionModel,
                    format_model, tune)


class _CLIError(Exception):
    """A user-facing argument error (printed, exit code 2)."""


def _parse_sample(text: Optional[str]) -> Tuple[Tuple[str, int], ...]:
    """Parse ``kind=k,kind2=k2`` into sampling pairs, validated (none
    when the flag was not given)."""
    from .obs import KINDS

    pairs = []
    for part in (text or "").split(","):
        part = part.strip()
        if not part:
            continue
        kind, sep, val = part.partition("=")
        kind = kind.strip()
        if not sep:
            raise _CLIError(f"bad sample entry {part!r} (want kind=k)")
        if kind not in KINDS:
            raise _CLIError(f"unknown kind {kind!r} in sample spec; "
                            "see docs/TRACING.md")
        try:
            k = int(val)
        except ValueError:
            raise _CLIError(f"bad sample rate {val!r} for {kind!r} "
                            "(want an integer >= 1)")
        if k < 1:
            raise _CLIError(f"sample rate for {kind!r} must be >= 1: {k}")
        pairs.append((kind, k))
    return tuple(pairs)


def _trace_spec(args) -> Optional[TraceSpec]:
    """The tracer the shared --trace-* flags ask for (``None``: none)."""
    if args.trace_dir:
        return TraceSpec(ring=args.trace_ring,
                         sample=_parse_sample(args.trace_sample))
    if args.trace_ring is not None or args.trace_sample:
        raise _CLIError("--trace-ring/--trace-sample require --trace-dir")
    return None


def _runner(args) -> ParallelRunner:
    """Build the sweep runner from the shared --jobs/--no-cache and
    --trace-* flags."""
    return ParallelRunner(jobs=args.jobs,
                          cache=None if args.no_cache else ResultCache(),
                          trace=_trace_spec(args),
                          trace_dir=args.trace_dir or None)


def _spec(args, app: str, **over) -> RunSpec:
    """The grid point the parsed arguments describe for ``app``; ``over``
    holds what the verb decides itself (scenario, decision, geometry)."""
    fields = dict(variant=args.variant, n_clusters=args.clusters,
                  nodes_per_cluster=args.nodes, params=bench_params(app))
    return RunSpec(app, **{**fields, **over})


def _run_partitioned(args, spec: RunSpec):
    """A partitioned ``repro app`` run: one direct :func:`run_app` call,
    never cached (a cached result carries no partition counters)."""
    trace = _trace_spec(args)
    tracer = trace.build() if trace is not None else None
    res = run_app(make_app(spec.app), spec.variant, spec.n_clusters,
                  spec.nodes_per_cluster, spec.params, decision=spec.decision,
                  tracer=tracer, pdes="on", pdes_workers=args.pdes_workers)
    if tracer is not None:
        write_trace(args.trace_dir, spec, tracer.records)
    return res


def _footer(runner: ParallelRunner) -> None:
    """What the sweep did, on stderr: stdout stays byte-identical
    between cold and warm, serial and pooled runs."""
    if runner.hits:
        print(f"({runner.hits} cached, {runner.computed} simulated)",
              file=sys.stderr)
    if runner.trace_files:
        print(f"(wrote {len(runner.trace_files)} Perfetto traces to "
              f"{runner.trace_dir})", file=sys.stderr)
    if runner.jobs > 1 and runner.point_records:
        print(format_stragglers(runner.point_records), file=sys.stderr)


def cmd_list(_args) -> int:
    """List the runnable applications, figures and tables."""
    print("applications:", ", ".join(PAPER_ORDER))
    print("figures:", ", ".join(list(SPEEDUP_FIGURES) + ["fig15", "fig16"]))
    print("tables: 1, 2, 4 (prints 4 and 5)")
    return 0


#: ``repro table N`` -> the exhibit that prints it (4 and 5 share one).
_TABLE_EXHIBITS = {1: "table1", 2: "table2", 4: "table4_5", 5: "table4_5"}
#: The summary figures; Figures 1-14 take ``--cpus``/``--plot`` instead.
_FIGURE_EXHIBITS = {"fig15": "fig15_summary", "fig16": "fig16_twocluster"}


def _print_exhibit(name: str, runner: ParallelRunner) -> None:
    exhibit = EXHIBITS[name]
    print(exhibit.render(exhibit.compute(runner)))


def cmd_table(args) -> int:
    """Regenerate one of the paper's tables."""
    if args.number not in _TABLE_EXHIBITS:
        raise _CLIError(f"no such table: {args.number} (choose 1, 2 or 4)")
    _print_exhibit(_TABLE_EXHIBITS[args.number], _runner(args))
    return 0


def cmd_figure(args) -> int:
    """Regenerate one of the paper's figures."""
    fig = args.figure
    runner = _runner(args)
    if fig in _FIGURE_EXHIBITS:
        print(f"running {len(PAPER_ORDER)} apps "
              f"({runner.jobs} jobs)...", file=sys.stderr)
        _print_exhibit(_FIGURE_EXHIBITS[fig], runner)
    elif fig in SPEEDUP_FIGURES:
        curves = figure_curves(fig, cpu_counts=tuple(args.cpus),
                               runner=runner)
        if args.plot:
            from .harness import ascii_speedup_plot
            spec = SPEEDUP_FIGURES[fig]
            print(ascii_speedup_plot(curves, title=spec.caption))
        else:
            print(format_curves(fig, curves))
    else:
        raise _CLIError(f"no such figure: {fig}")
    _footer(runner)
    return 0


def cmd_app(args) -> int:
    """Run a single application configuration and print its traffic."""
    try:
        make_app(args.app).check_variant(args.variant)
    except ValueError as exc:
        raise _CLIError(str(exc)) from None
    spec = _spec(args, args.app, decision=_load_decision(args))
    partitioned = args.pdes == "on"
    res = (_run_partitioned(args, spec) if partitioned
           else _runner(args).run_one(spec))
    print(f"{args.app}/{args.variant} on {args.clusters}x{args.nodes}: "
          f"{res.elapsed:.4f} virtual seconds")
    for key, row in sorted(res.traffic.items()):
        if row["count"]:
            print(f"  {key:>12}: {row['count']:>8} messages, "
                  f"{row['bytes'] / 1024:.0f} kbytes")
    if res.stats:
        print(f"  stats: {res.stats}")
    if partitioned:
        from .sim.pdes import format_pdes_summary
        summary = format_pdes_summary(res.sim_stats or {})
        if summary:
            line, host_time = summary
            print(f"  {line}")
            print(host_time, file=sys.stderr)
    return 0


def cmd_profile(args) -> int:
    """Run apps traced and print the wide-area bottleneck breakdown."""
    from .obs import (format_bottleneck, format_profile_diff,
                      format_profile_table, profile_app)

    names = PAPER_ORDER if args.app == "all" else [args.app]
    # Shared across apps; profile_app clears it per run.
    tracer = Tracer(ring=args.ring, sample=dict(_parse_sample(args.sample)))
    variants = args.diff or [args.variant]
    reports = []
    for name in names:
        print(f"profiling {name}/{' vs '.join(variants)} on "
              f"{args.clusters}x{args.nodes}...", file=sys.stderr)
        runs = [profile_app(name, variant, args.clusters, args.nodes,
                            tracer=tracer) for variant in variants]
        if args.diff:
            print(format_profile_diff(*runs))
            print()
        else:
            reports += runs
    for report in reports:
        print(format_bottleneck(report))
        print()
    if len(reports) > 1:
        print(format_profile_table(reports))
    return 0


_TRACE_EXT = {"chrome": "trace.json", "jsonl": "trace.jsonl",
              "folded": "folded"}


def cmd_trace(args) -> int:
    """Run one app traced and export the trace (JSONL, Chrome or folded)."""
    from .obs import KINDS, write_chrome, write_folded, write_jsonl

    kinds = None
    if args.kinds:
        kinds = frozenset(k.strip() for k in args.kinds.split(",") if k.strip())
        unknown = kinds - set(KINDS)
        if unknown:
            raise _CLIError(f"unknown kinds {sorted(unknown)}; "
                            f"see docs/TRACING.md")
    tracer = Tracer(kinds=kinds, ring=args.ring,
                    sample=dict(_parse_sample(args.sample)))
    res = run_app(make_app(args.app), args.variant, args.clusters,
                  args.nodes, bench_params(args.app), tracer=tracer)
    out = args.out or f"{args.app}-{args.variant}.{_TRACE_EXT[args.format]}"
    with open(out, "w") as fh:
        if args.format == "chrome":
            n = write_chrome(tracer.records, fh)
        elif args.format == "folded":
            n = write_folded(tracer.records, fh)
        else:
            n = write_jsonl(tracer.records, fh)
    print(f"{args.app}/{args.variant} on {args.clusters}x{args.nodes}: "
          f"{res.elapsed:.4f} virtual seconds")
    unit = "stacks" if args.format == "folded" else "records"
    print(f"wrote {n} {unit} to {out} ({args.format})")
    if tracer.dropped:
        print(f"({tracer.dropped} records dropped by ring/sampling bounds; "
              f"{len(tracer.records)} kept)")
    if args.format == "chrome":
        print("open in https://ui.perfetto.dev or chrome://tracing")
    elif args.format == "folded":
        print("feed to flamegraph.pl or https://speedscope.app")
    return 0


def cmd_chains(args) -> int:
    """Reconstruct causal message chains with per-hop latency attribution."""
    from .obs import CHAIN_KINDS, build_chains, format_chains

    tracer = Tracer(kinds=CHAIN_KINDS)
    res = run_app(make_app(args.app), args.variant, args.clusters,
                  args.nodes, bench_params(args.app),
                  sequencer=args.sequencer, tracer=tracer)
    chains, counts = build_chains(tracer.records)
    print(f"{args.app}/{args.variant} on {args.clusters}x{args.nodes}: "
          f"{res.elapsed:.4f} virtual seconds")
    print(format_chains(chains, counts, limit=args.limit))
    return 0


def cmd_bench(args) -> int:
    """Measure host throughput; print it, or write/check the committed
    perf baselines."""
    from .harness import bench

    try:
        suites, tier = bench.parse_suite_request(args.suite)
    except ValueError as exc:
        raise _CLIError(str(exc)) from None
    if args.write:
        if tier is not None:
            raise _CLIError("--write refreshes whole suites; drop the "
                            ":tier suffix")
        return bench.write_baselines(args.repeat, suites)
    if args.check:
        return bench.check_baselines(args.repeat, args.threshold, suites,
                                     tier=tier)
    return bench.show(args.repeat, suites, tier)


def _load_decision(args):
    """The :class:`~repro.tuner.DecisionModel` named by ``--decision``,
    or ``None`` (the fixed default strategy)."""
    if not args.decision:
        return None
    try:
        with open(args.decision, "r", encoding="utf-8") as fh:
            return DecisionModel.from_json(fh.read())
    except (OSError, ValueError, KeyError) as exc:
        raise _CLIError(
            f"cannot load decision model {args.decision!r}: {exc}")


def _scenarios(args):
    """``(seeds, scenarios)``: the ``--seed``/``--seeds`` range and what
    the impairment flags describe, once per seed."""
    impairments = []
    try:
        if args.wan_jitter:
            dist, sep, sigma = args.wan_jitter.partition(":")
            if not sep or dist != "lognormal":
                raise _CLIError(f"bad --wan-jitter {args.wan_jitter!r} (want "
                                "lognormal:SIGMA, e.g. lognormal:0.3)")
            impairments.append(Impairment.of("jitter", sigma=float(sigma)))
        if args.wan_loss:
            p, _sep, rto = args.wan_loss.partition(":")
            kw = {"p": float(p)}
            if rto:
                kw["rto"] = float(rto)
            impairments.append(Impairment.of("loss", **kw))
        if args.wan_dip:
            bits = args.wan_dip.split(":")
            if len(bits) > 3:
                raise _CLIError(f"bad --wan-dip {args.wan_dip!r} "
                                "(want DEPTH[:PERIOD[:DUTY]])")
            keys = ("depth", "period", "duty")
            impairments.append(Impairment.of(
                "bw_dip", **{k: float(v) for k, v in zip(keys, bits)}))
        if args.cross_traffic is not None:
            impairments.append(Impairment.of("cross_traffic",
                                             load=args.cross_traffic))
        faults = tuple(parse_fault(text) for text in (args.fault or []))
        tweaks = tuple(parse_cluster_tweak(text)
                       for text in (args.cluster or []))
    except ValueError as exc:
        raise _CLIError(str(exc)) from None
    seeds = [args.seed + i for i in range(args.seeds)]
    return seeds, [Scenario(seed=s, impairments=tuple(impairments),
                            faults=faults, clusters=tweaks) for s in seeds]


def cmd_scenario(args) -> int:
    """Run apps clean and under a scenario; print the elapsed comparison."""
    seeds, scenarios = _scenarios(args)
    print(f"scenario: {scenarios[0].describe()}"
          + (f" (+{len(seeds) - 1} more seeds)" if len(seeds) > 1 else ""),
          file=sys.stderr)

    runner = _runner(args)
    decision = _load_decision(args)
    specs = [_spec(args, app, scenario=scn, decision=decision)
             for app in args.apps for scn in [None] + scenarios]
    results = runner.run(specs)

    width = 1 + len(scenarios)
    header = (f"{'app':<8} {'clean':>10}  "
              + "  ".join(f"{'seed ' + str(s):>10}" for s in seeds)
              + f"  {'slowdown':>8}")
    print(header)
    print("-" * len(header))
    for i, app in enumerate(args.apps):
        group = results[i * width:(i + 1) * width]
        clean, impaired = group[0], group[1:]
        mean = sum(r.elapsed for r in impaired) / len(impaired)
        slow = mean / clean.elapsed if clean.elapsed > 0 else float("inf")
        print(f"{app:<8} {clean.elapsed:>9.4f}s  "
              + "  ".join(f"{r.elapsed:>9.4f}s" for r in impaired)
              + f"  {slow:>7.2f}x")
    _footer(runner)
    return 0


def cmd_tune(args) -> int:
    """Calibrate a decision model; optionally save it and show the
    before/after effect on the applications."""
    seeds, scenarios = _scenarios(args)
    scenario = scenarios[0]  # --seeds only widens the probes' seeds
    if scenario.impairments or scenario.faults or scenario.clusters:
        print(f"calibrating under: {scenario.describe()}", file=sys.stderr)
    else:
        scenario = None  # calibrate (and --apply) on the clean model
    print(f"probing {len(args.sizes)} sizes x {len(args.clusters)} cluster "
          f"counts x {args.reps} reps...", file=sys.stderr)
    model = tune(sizes=tuple(args.sizes), cluster_counts=tuple(args.clusters),
                 nodes_per_cluster=args.nodes,
                 scenarios=(scenario,), seeds=tuple(seeds), reps=args.reps)
    print(format_model(model))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(model.to_json())
        print(f"wrote model to {args.out}")
    if not args.apply:
        return 0

    # --apply: every app, fixed strategy vs the freshly tuned model, on
    # the calibration scenario (or clean when none was given).
    runner = _runner(args)
    apps = args.apps or list(PAPER_ORDER)
    n_clusters = max(args.clusters)
    specs = [_spec(args, app, n_clusters=n_clusters,
                   nodes_per_cluster=args.apply_nodes, scenario=scenario,
                   decision=decision)
             for app in apps for decision in (None, model)]
    print(f"applying to {len(apps)} apps on {n_clusters}x{args.apply_nodes} "
          f"({runner.jobs} jobs)...", file=sys.stderr)
    results = runner.run(specs)
    header = f"{'app':<8} {'fixed':>10} {'tuned':>10} {'delta':>8}"
    print(header)
    print("-" * len(header))
    improved = 0
    for i, app in enumerate(apps):
        fixed, tuned = results[2 * i], results[2 * i + 1]
        delta = ((tuned.elapsed - fixed.elapsed) / fixed.elapsed
                 if fixed.elapsed > 0 else 0.0)
        improved += tuned.elapsed < fixed.elapsed
        print(f"{app:<8} {fixed.elapsed:>9.4f}s {tuned.elapsed:>9.4f}s "
              f"{delta:>+7.1%}")
    print(f"({improved}/{len(apps)} apps improved)")
    return 0


def cmd_cache(args) -> int:
    """Inspect or clear the on-disk sweep result cache."""
    cache = ResultCache()
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached results from {cache.root}")
    else:
        import os
        count = sum(name.endswith(".pkl")
                    for _dir, _dirs, files in os.walk(cache.root)
                    for name in files)  # no directory yet: walks nothing
        print(f"cache: {cache.root} ({count} results)")
    return 0


def _group(add):
    """Make ``add(parser, *args)`` a factory of argparse *parents*: the
    flag groups the verbs share, declared once each."""
    def parent(*args) -> argparse.ArgumentParser:
        parser = argparse.ArgumentParser(add_help=False)
        add(parser, *args)
        return parser
    return parent


def _positive_int(text: str) -> int:
    """argparse type of a count that must be >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} must be >= 1")
    return value


@_group
def _geometry_flags(parser, nodes: int) -> None:
    parser.add_argument("--variant", default="original")
    parser.add_argument("--clusters", type=_positive_int, default=4)
    parser.add_argument("--nodes", type=_positive_int, default=nodes)


@_group
def _decision_flags(parser) -> None:
    parser.add_argument("--decision", default=None, metavar="PATH",
                        help="install a tuned DecisionModel (JSON from "
                             "'repro tune --out'; default: fixed strategy)")


@_group
def _seed_flags(parser, seeds_help: str) -> None:
    parser.add_argument("--seed", type=int, default=0,
                        help="base scenario seed (default 0)")
    parser.add_argument("--seeds", type=_positive_int, default=1,
                        metavar="K",
                        help=seeds_help)


@_group
def _sweep_flags(parser) -> None:
    parser.add_argument("--jobs", type=_positive_int, default=None,
                        metavar="N",
                        help="worker processes for independent runs "
                             "(default: $REPRO_JOBS or 1)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the on-disk result cache")
    parser.add_argument("--trace-dir", default=None, metavar="DIR",
                        help="trace every grid point and write one "
                             "Perfetto file per point into DIR (traced "
                             "points bypass the result cache)")
    parser.add_argument("--trace-ring", type=_positive_int, default=None,
                        metavar="N",
                        help="with --trace-dir: keep only the last N "
                             "records per run (ring buffer)")
    parser.add_argument("--trace-sample", default=None, metavar="K1=k,...",
                        help="with --trace-dir: keep 1 in k records of "
                             "each listed kind (deterministic)")


@_group
def _partition_flags(parser) -> None:
    parser.add_argument("--pdes", choices=["off", "on"], default="off",
                        help="partitioned (per-cluster) execution across "
                             "host cores; identical results (default: off)")
    parser.add_argument("--pdes-workers", type=_positive_int, default=None,
                        metavar="N",
                        help="partition count: the run forks N-1 "
                             "workers and runs partition 0 itself "
                             "(default: one per cluster, capped at host "
                             "cores)")


@_group
def _bound_flags(parser) -> None:
    parser.add_argument("--ring", type=_positive_int, default=None,
                        metavar="N",
                        help="keep only the last N trace records "
                             "(ring buffer)")
    parser.add_argument("--sample", default=None, metavar="K1=k,...",
                        help="keep 1 in k records of each listed kind "
                             "(deterministic; e.g. msg.send=8)")


@_group
def _impairment_flags(parser) -> None:
    parser.add_argument("--wan-jitter", default=None, metavar="lognormal:S",
                        help="latency jitter: median-preserving lognormal "
                             "with shape S, e.g. lognormal:0.3")
    parser.add_argument("--wan-loss", default=None, metavar="P[:RTO]",
                        help="packet loss probability P per transfer, "
                             "retransmit timeout RTO seconds (0.05)")
    parser.add_argument("--wan-dip", default=None,
                        metavar="DEPTH[:PERIOD[:DUTY]]",
                        help="periodic bandwidth dip: fraction DEPTH lost "
                             "for DUTY of each PERIOD seconds")
    parser.add_argument("--cross-traffic", type=float, default=None,
                        metavar="LOAD",
                        help="background traffic as a fraction of each "
                             "transfer's bytes (exponential, mean LOAD)")
    parser.add_argument("--fault", action="append", metavar="SPEC",
                        help="timed fault, e.g. gw_outage@2.0s+0.5s, "
                             "link_flap@1s+0.2s:c0-c1, "
                             "slow_node@0.5s+1s:n3,factor=0.1 (repeatable)")
    parser.add_argument("--cluster", action="append", metavar="SPEC",
                        help="heterogeneity tweak, e.g. "
                             "1:cpu=0.5,nodes=8,link=fast-ethernet "
                             "(repeatable)")


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate experiments from 'Optimizing Parallel "
                    "Applications for Wide-Area Clusters'")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list apps, figures, tables")

    p_table = sub.add_parser("table", help="regenerate a table",
                             parents=[_sweep_flags()])
    p_table.add_argument("number", type=int)

    p_fig = sub.add_parser("figure", help="regenerate a figure",
                           parents=[_sweep_flags()])
    p_fig.add_argument("figure")
    p_fig.add_argument("--cpus", type=int, nargs="+",
                       default=list(QUICK_CPUS))
    p_fig.add_argument("--plot", action="store_true",
                       help="render as an ASCII chart")

    p_app = sub.add_parser(
        "app", help="run one application once",
        parents=[_geometry_flags(15), _decision_flags(), _partition_flags(),
                 _sweep_flags()])
    p_app.add_argument("app", choices=PAPER_ORDER)

    p_prof = sub.add_parser(
        "profile", help="trace a run and print the wide-area bottleneck "
                        "breakdown (docs/TRACING.md)",
        parents=[_geometry_flags(8), _bound_flags()])
    p_prof.add_argument("app", choices=PAPER_ORDER + ["all"])
    p_prof.add_argument("--diff", nargs=2, metavar=("BEFORE", "AFTER"),
                        help="profile two variants and print them side by "
                             "side, e.g. --diff original optimized")

    p_trace = sub.add_parser(
        "trace", help="trace a run and export it (JSONL, Chrome "
                      "trace_event for Perfetto, or folded stacks for "
                      "flame-graph tools)",
        parents=[_geometry_flags(8), _bound_flags()])
    p_trace.add_argument("app", choices=PAPER_ORDER)
    p_trace.add_argument("--format", choices=["jsonl", "chrome", "folded"],
                         default="chrome")
    p_trace.add_argument("--out", default=None, metavar="PATH",
                         help="output path (default <app>-<variant>."
                              "trace.json[l] / .folded)")
    p_trace.add_argument("--kinds", default=None, metavar="K1,K2",
                         help="emit-time filter: comma-separated record "
                              "kinds to keep (default: all)")

    p_chains = sub.add_parser(
        "chains", help="reconstruct causal message chains with per-hop "
                       "latency attribution (docs/TRACING.md)",
        parents=[_geometry_flags(8)])
    p_chains.add_argument("app", choices=PAPER_ORDER)
    p_chains.add_argument("--sequencer", default=None,
                          choices=["centralized", "distributed", "migrating"],
                          help="override the variant's sequencer protocol "
                               "(centralized makes broadcast-only apps "
                               "ship intercluster sequencer requests)")
    p_chains.add_argument("--limit", type=int, default=5, metavar="N",
                          help="slowest intercluster chains to print")

    p_bench = sub.add_parser(
        "bench", help="measure host throughput and print it next to the "
                      "committed BENCH_*.json perf baselines, or --write "
                      "/ --check them (the CI perf-smoke entry point)")
    b_mode = p_bench.add_mutually_exclusive_group()
    b_mode.add_argument("--write", action="store_true",
                        help="measure and (over)write the baselines")
    b_mode.add_argument("--check", action="store_true",
                        help="measure and fail on >threshold regressions")
    p_bench.add_argument("--repeat", type=_positive_int, default=3,
                         help="repetitions per workload (best is reported)")
    p_bench.add_argument("--threshold", type=float, default=0.30,
                         help="allowed fractional drop vs baseline (0.30)")
    p_bench.add_argument("--suite", default="all", metavar="SUITE[:TIER]",
                         help="restrict to one baseline suite, optionally "
                              "one tier of it, e.g. engine:compiled "
                              "(default: all)")

    p_scn = sub.add_parser(
        "scenario", help="run apps clean and under WAN impairments, "
                         "faults and heterogeneity tweaks "
                         "(docs/SCENARIOS.md)",
        parents=[_geometry_flags(8), _impairment_flags(), _decision_flags(),
                 _seed_flags("run K consecutive seeds starting at --seed"),
                 _sweep_flags()])
    p_scn.add_argument("apps", nargs="+", choices=PAPER_ORDER,
                       metavar="APP",
                       help=f"applications to run ({', '.join(PAPER_ORDER)})")

    p_tune = sub.add_parser(
        "tune", help="calibrate collective primitives inside the simulator "
                     "and fit a DecisionModel (docs/TUNING.md)",
        parents=[_impairment_flags(),
                 _seed_flags("average probes over K consecutive seeds "
                             "(impaired scenarios only)"),
                 _sweep_flags()])
    p_tune.add_argument("--sizes", type=_positive_int, nargs="+",
                        default=list(DEFAULT_SIZES), metavar="BYTES",
                        help="message sizes to probe "
                             f"(default: {' '.join(map(str, DEFAULT_SIZES))})")
    p_tune.add_argument("--clusters", type=_positive_int, nargs="+",
                        default=list(DEFAULT_CLUSTERS), metavar="N",
                        help="cluster counts to probe (default: "
                             f"{' '.join(map(str, DEFAULT_CLUSTERS))})")
    p_tune.add_argument("--nodes", type=_positive_int, default=4,
                        help="nodes per cluster in probe topologies (4)")
    p_tune.add_argument("--reps", type=_positive_int, default=3,
                        help="repetitions per probe point (3)")
    p_tune.add_argument("--out", default=None, metavar="PATH",
                        help="write the fitted DecisionModel as JSON")
    p_tune.add_argument("--apply", action="store_true",
                        help="after fitting, run the apps fixed-vs-tuned "
                             "on the calibration scenario and print a "
                             "before/after table")
    p_tune.add_argument("--apps", nargs="*", choices=PAPER_ORDER,
                        default=None, metavar="APP",
                        help="with --apply: restrict to these apps")
    p_tune.add_argument("--variant", default="original",
                        help="with --apply: app variant (original)")
    p_tune.add_argument("--apply-nodes", type=_positive_int, default=8,
                        metavar="N",
                        help="with --apply: nodes per cluster (8); the "
                             "cluster count is max(--clusters)")

    p_cache = sub.add_parser("cache", help="inspect or clear the result cache")
    p_cache.add_argument("action", choices=["info", "clear"], nargs="?",
                         default="info")

    args = parser.parse_args(argv)
    commands = {"list": cmd_list, "table": cmd_table, "figure": cmd_figure,
                "app": cmd_app, "profile": cmd_profile, "trace": cmd_trace,
                "chains": cmd_chains, "cache": cmd_cache,
                "bench": cmd_bench, "scenario": cmd_scenario,
                "tune": cmd_tune}
    try:
        return commands[args.command](args)
    except _CLIError as exc:
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # Sweep points finished before it are already cached.
        print("repro: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
