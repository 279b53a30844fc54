"""The paper's claims, stated once.

Every measured exhibit of EXPERIMENTS.md — a table, a figure, a
sensitivity study, an ablation — is one :class:`Exhibit` in
:data:`EXHIBITS`, named after its committed rendering
``benchmarks/out/<name>.txt``.  An exhibit says how its data is computed
from a :class:`~repro.harness.sweeps.ParallelRunner`, how the data is
rendered, and which named :class:`Claim` s the data must satisfy.
Virtual time is deterministic, so the rendering is a committed
expectation: :func:`evaluate` compares it byte for byte and then checks
every claim.  A *known deviation* from the paper is a claim too — the
paper's statement with the reason ours differs — and must keep
deviating, so a change that silently fixes or worsens one fails.

``benchmarks/bench_paper.py`` evaluates every exhibit through one shared
runner and result cache (and rewrites ``benchmarks/out/``: refreshing an
expectation is running it and committing the reviewed ``git diff``);
``tests/test_paper_claims.py`` evaluates the cheap ones in tier-1;
``repro table`` and ``repro figure fig15|fig16`` print the same entries.
"""

from __future__ import annotations

import difflib
import pathlib
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..apps import PAPER_ORDER
from ..apps.base import AppResult
from ..apps.tsp import problem as tsp_problem
from ..network import (ATM_DAS, DAS_PARAMS, INTERNET_PARAMS, SLOW_WAN_PARAMS,
                       GatewayParams, mbit)
from .figures import (bench_params, figure15_bars_many, figure16_bars_many,
                      figure_curves, format_bars, format_curves)
from .sweeps import ParallelRunner, RunSpec
from .tables import (format_table1, format_table2, format_traffic,
                     table1_microbenchmarks, table2_rows, traffic_rows)

__all__ = ["Claim", "Exhibit", "EXHIBITS", "OUT_DIR", "evaluate"]

#: The committed renderings, one ``<exhibit name>.txt`` each.
OUT_DIR = pathlib.Path(__file__).resolve().parents[3] / "benchmarks" / "out"


@dataclass(frozen=True)
class Claim:
    """One statement of the paper about an exhibit's data.

    ``deviates`` marks a statement our model is known *not* to
    reproduce and says why; such a claim passes while ``holds`` is false.
    """

    name: str
    paper_ref: str
    holds: Callable[[Any], bool]
    deviates: Optional[str] = None


@dataclass(frozen=True)
class Exhibit:
    """One table, figure or study: ``render(compute(runner))`` is the
    text committed as ``benchmarks/out/<name>.txt``, and every claim is
    a predicate over ``compute``'s data."""

    name: str
    compute: Callable[[ParallelRunner], Any]
    render: Callable[[Any], str]
    claims: Tuple[Claim, ...]


def evaluate(exhibit: Exhibit, runner: ParallelRunner,
             out_dir: pathlib.Path) -> Tuple[str, List[str]]:
    """Compute ``exhibit`` and check it against ``out_dir``.

    Returns the rendering (as the expectation file holds it) and the
    problems found: a unified diff when the rendering is not the
    committed one, a line per claim that stopped holding and per known
    deviation that stopped deviating.
    """
    data = exhibit.compute(runner)
    text = exhibit.render(data) + "\n"
    path = out_dir / f"{exhibit.name}.txt"
    expected = path.read_text() if path.exists() else ""
    problems = []
    if text != expected:
        problems.append("".join(difflib.unified_diff(
            expected.splitlines(keepends=True), text.splitlines(keepends=True),
            f"{path} (committed)", f"{exhibit.name} (computed)")))
    for claim in exhibit.claims:
        held = bool(claim.holds(data))
        if claim.deviates is None and not held:
            problems.append(f"claim {claim.name} ({claim.paper_ref}) "
                            f"no longer holds")
        elif claim.deviates is not None and held:
            problems.append(f"known deviation {claim.name} "
                            f"({claim.paper_ref}) now holds — it was: "
                            f"{claim.deviates}")
    return text, problems


def _run(runner: ParallelRunner, specs: Dict[Any, RunSpec]
         ) -> Dict[Any, AppResult]:
    """``specs``' keys mapped to their results, run as one flat batch."""
    return dict(zip(specs, runner.run(list(specs.values()))))


_VARIANTS = ("original", "optimized")


# -------------------------------------------------- Figures 1-14 (curves)


def _final(curves, n_clusters: int) -> float:
    """Speedup at the last (60-CPU) point of one cluster count's curve."""
    return curves[n_clusters][-1].speedup


def _curves(name: str, figure: str, *claims: Claim) -> Exhibit:
    return Exhibit(name,
                   lambda runner: figure_curves(figure, runner=runner),
                   lambda curves: format_curves(figure, curves), claims)


def _fig14(runner: ParallelRunner):
    """Figure 14's curves plus the speedup of the original on one
    15-node cluster — the bar the paper's headline compares against."""
    curves = figure_curves("fig14", runner=runner)
    params = bench_params("sor")
    base, lower = runner.run([RunSpec("sor", "original", 1, 1, params),
                              RunSpec("sor", "original", 1, 15, params)])
    return curves, base.elapsed / lower.elapsed


def _ida_steals(runner: ParallelRunner):
    """``{variant: result}`` for IDA* on 4x15."""
    params = bench_params("ida")
    return _run(runner, {variant: RunSpec("ida", variant, 4, 15, params)
                         for variant in _VARIANTS})


def _format_ida_steals(data) -> str:
    orig, opt = data["original"], data["optimized"]
    return (f"IDA* steal traffic on 4x15\n"
            f"original : remote={orig.stats['remote']} "
            f"requests={orig.stats['requests']} elapsed={orig.elapsed:.3f}\n"
            f"optimized: remote={opt.stats['remote']} "
            f"requests={opt.stats['requests']} elapsed={opt.elapsed:.3f}")


# ------------------------------------------- Figures 15/16 (summary bars)


def _fig16(runner: ParallelRunner):
    """Figure 16's bars plus Water's Figure 15 bars, which the
    two-versus-four-clusters claim compares against."""
    return (figure16_bars_many(PAPER_ORDER, runner=runner),
            figure15_bars_many(["water"], runner=runner)["water"])


def _fig15_gains(bars) -> Dict[str, float]:
    return {name: bars[name]["optimized_60_4"] / bars[name]["original_60_4"]
            for name in ("water", "tsp", "sor", "asp", "ra")}


# ------------------------------------------------------------- the tables


def _format_table4_5(data) -> str:
    before, after = data
    return (format_traffic("Table 4: intercluster traffic before "
                           "optimization (P=60, C=4)", before.values())
            + "\n\n"
            + format_traffic("Table 5: intercluster traffic after "
                             "optimization (P=60, C=4)", after.values()))


# ------------------------------------------- studies over a grid of runs


#: Emulated WAN: the one-way wire drops to a local-ATM 49 us; the missing
#: 900 us reappears as gateway spinning (the gateway is dedicated, so the
#: spin costs no application CPU — but it does occupy the gateway, like
#: the paper's 600 us spin loop).
_EMULATED_PARAMS = replace(
    DAS_PARAMS,
    wan=ATM_DAS.with_(latency=49e-6),
    gateway=GatewayParams(forward_cost=150e-6 + 450e-6),
)


def _validation(runner: ParallelRunner):
    """``{(app, "real" | "emulated"): result}`` on 2x16.  Run with the
    wide-area-optimized variants: the spin-loop emulation serializes the
    gateway at ~1,700 msg/s, so only programs whose intercluster message
    rate stays below that (the ones one would actually run on the
    system) can agree between the two mechanizations."""
    return _run(runner, {
        (name, label): RunSpec(name, "optimized", 2, 16, bench_params(name),
                               network=network)
        for name in PAPER_ORDER
        for label, network in (("real", DAS_PARAMS),
                               ("emulated", _EMULATED_PARAMS))})


def _validation_diffs(data) -> Dict[str, float]:
    """Per-app |emulated - real| in percent."""
    return {name: 100.0 * abs(data[(name, "emulated")].elapsed
                              - data[(name, "real")].elapsed)
            / data[(name, "real")].elapsed for name in PAPER_ORDER}


def _validation_kept(data) -> List[float]:
    """The differences the agreement criterion is about.  ACP is
    reported but left out: its intercluster broadcast rate exceeds the
    spin-loop gateway's service capacity, the one regime where busy-wait
    forwarding and wire latency genuinely differ."""
    return [d for name, d in _validation_diffs(data).items() if name != "acp"]


def _format_validation(data) -> str:
    lines = ["Validation: real-WAN model vs emulated-WAN model (2x16)",
             f"{'app':>6} {'real(s)':>10} {'emulated(s)':>12} {'diff%':>7}"]
    for name, diff in _validation_diffs(data).items():
        lines.append(f"{name:>6} {data[(name, 'real')].elapsed:>10.3f} "
                     f"{data[(name, 'emulated')].elapsed:>12.3f} "
                     f"{diff:>6.2f}%")
    kept = _validation_kept(data)
    lines.append(f"mean |diff| = {sum(kept) / len(kept):.2f}% excluding ACP "
                 f"(paper: 1.14%)")
    return "\n".join(lines)


_ATPG_NETWORKS = {"DAS ATM": DAS_PARAMS,
                  "Internet (Sunday)": INTERNET_PARAMS,
                  "slow WAN 10ms/2Mbit": SLOW_WAN_PARAMS}


def _sensitivity_atpg(runner: ParallelRunner):
    """``{(network label, variant): result}`` for ATPG on 4x15."""
    params = bench_params("atpg")
    return _run(runner, {
        (label, variant): RunSpec("atpg", variant, 4, 15, params,
                                  network=network)
        for label, network in _ATPG_NETWORKS.items()
        for variant in _VARIANTS})


def _atpg_ratio(data, label: str) -> float:
    return (data[(label, "optimized")].elapsed
            / data[(label, "original")].elapsed)


def _format_sensitivity_atpg(data) -> str:
    lines = ["ATPG sensitivity to WAN quality (4x15)",
             f"{'network':>22} {'original(s)':>12} {'optimized(s)':>13} "
             f"{'opt/orig':>9}"]
    for label in _ATPG_NETWORKS:
        lines.append(f"{label:>22} {data[(label, 'original')].elapsed:>12.3f} "
                     f"{data[(label, 'optimized')].elapsed:>13.3f} "
                     f"{_atpg_ratio(data, label):>9.2f}")
    return "\n".join(lines)


_SWEEP_BANDWIDTHS_MBIT = (1.0, 2.0, 4.53, 10.0, 45.0)
_SWEEP_LATENCIES_MS = (0.5, 1.0, 2.7, 10.0)


def _sensitivity_sweep(runner: ParallelRunner):
    """``{"local" | (Mbit/s, round-trip ms): elapsed}``: Water optimized
    on 4x15 over a grid of WAN qualities, against the original on one
    local 15-node cluster."""
    params = bench_params("water").with_(n_molecules=1024)
    specs = {"local": RunSpec("water", "original", 1, 15, params)}
    for bw in _SWEEP_BANDWIDTHS_MBIT:
        for lat_ms in _SWEEP_LATENCIES_MS:
            wan = ATM_DAS.with_(bandwidth=mbit(bw), latency=lat_ms * 1e-3 / 2)
            specs[(bw, lat_ms)] = RunSpec("water", "optimized", 4, 15, params,
                                          network=DAS_PARAMS.with_wan(wan))
    return {cell: res.elapsed for cell, res in _run(runner, specs).items()}


def _format_sensitivity_sweep(grid) -> str:
    local = grid["local"]
    lines = ["Sensitivity sweep: Water optimized on 4x15 vs 1x15 local "
             f"(local = {local:.3f}s)",
             f"{'bw (Mbit/s)':>12} " + " ".join(
                 f"{lat:>9.1f}ms" for lat in _SWEEP_LATENCIES_MS)]
    for bw in _SWEEP_BANDWIDTHS_MBIT:
        cells = " ".join(
            ("+" if grid[(bw, lat)] < local else "-")
            + f"{grid[(bw, lat)]:>9.3f}" for lat in _SWEEP_LATENCIES_MS)
        lines.append(f"{bw:>12.2f} {cells}")
    lines.append("('+' = wide-area run beats one local 15-node cluster)")
    return "\n".join(lines)


_COMBINING_BATCHES = (4, 16, 64, 256)


def _ablation_combining(runner: ParallelRunner):
    """``{"original" | flush threshold: result}`` for RA on 4x15."""
    base = bench_params("ra").with_(n_positions=8000)
    specs = {"original": RunSpec("ra", "original", 4, 15, base)}
    for batch in _COMBINING_BATCHES:
        specs[batch] = RunSpec("ra", "optimized", 4, 15, base.with_(
            combine_max_messages=batch, combine_max_bytes=batch * 64))
    return _run(runner, specs)


def _format_ablation_combining(data) -> str:
    lines = ["Ablation: RA (4x15) combining flush threshold",
             f"{'batch':>10} {'elapsed(s)':>11}",
             f"{'(none)':>10} {data['original'].elapsed:>11.3f}"]
    for batch in _COMBINING_BATCHES:
        lines.append(f"{batch:>10} {data[batch].elapsed:>11.3f}")
    return "\n".join(lines)


#: ACP scaled down for the 4x8 ablations (sequencer placement, gateways).
_ACP_ABLATION = dict(n_vars=400, n_constraints=1200)


def _ablation_dedicated_seq(runner: ParallelRunner):
    """``{(app, dedicated): result}`` on 4x8, original variants."""
    params = {"asp": bench_params("asp"),
              "acp": bench_params("acp").with_(**_ACP_ABLATION)}
    return _run(runner, {
        (name, dedicated): RunSpec(name, "original", 4, 8, params[name],
                                   dedicated_sequencer_node=dedicated)
        for name in params for dedicated in (False, True)})


def _format_ablation_dedicated_seq(data) -> str:
    lines = ["Ablation: sequencer on first (shared) vs last (dedicated) node",
             f"{'app':>6} {'shared(s)':>10} {'dedicated(s)':>13}"]
    for label in ("asp", "acp"):
        lines.append(f"{label:>6} {data[(label, False)].elapsed:>10.3f} "
                     f"{data[(label, True)].elapsed:>13.3f}")
    return "\n".join(lines)


_GATEWAY_COSTS_US = (50, 150, 450)


def _ablation_gateway(runner: ParallelRunner):
    """``{(forward cost in us, variant): result}`` for ACP on 4x8."""
    params = bench_params("acp").with_(**_ACP_ABLATION)
    return _run(runner, {
        (cost_us, variant): RunSpec(
            "acp", variant, 4, 8, params, network=replace(
                DAS_PARAMS,
                gateway=GatewayParams(forward_cost=cost_us * 1e-6)))
        for cost_us in _GATEWAY_COSTS_US for variant in _VARIANTS})


def _format_ablation_gateway(data) -> str:
    lines = ["Ablation: ACP (4x8) vs gateway forwarding cost",
             f"{'fwd cost(us)':>13} {'original(s)':>12} {'async-bcast(s)':>15}"]
    for cost_us in _GATEWAY_COSTS_US:
        lines.append(
            f"{cost_us:>13} {data[(cost_us, 'original')].elapsed:>12.3f} "
            f"{data[(cost_us, 'optimized')].elapsed:>15.3f}")
    return "\n".join(lines)


_SEQUENCER_PROTOCOLS = ("centralized", "distributed", "migrating")


def _ablation_sequencer(runner: ParallelRunner):
    """``{protocol: elapsed}`` for ASP original on 4x15."""
    params = bench_params("asp")
    data = _run(runner, {kind: RunSpec("asp", "original", 4, 15, params,
                                       sequencer=kind)
                         for kind in _SEQUENCER_PROTOCOLS})
    return {kind: res.elapsed for kind, res in data.items()}


def _format_ablation_sequencer(data) -> str:
    lines = ["Ablation: ASP (4x15) under each sequencer protocol",
             f"{'protocol':>12} {'elapsed(s)':>11}"]
    for kind, elapsed in data.items():
        lines.append(f"{kind:>12} {elapsed:>11.3f}")
    return "\n".join(lines)


def _ablation_sor_drop(runner: ParallelRunner):
    """``{keep 1 in N: result}`` for SOR optimized on 4x15 in precision
    mode (the real convergence test)."""
    return _run(runner, {
        keep: RunSpec("sor", "optimized", 4, 15, bench_params("sor").with_(
            n_rows=120, n_cols=60, precision=1e-3, n_iterations=900,
            chaotic_keep_one_in=keep))
        for keep in (1, 2, 3, 6)})


def _sor_iterations(data, keep: int) -> int:
    return data[keep].answer["iterations"]


def _sor_exchanges(data, keep: int) -> int:
    """Exchange traffic: total intercluster RPCs minus the fixed
    6-per-iteration convergence reduce/scatter messages."""
    return (data[keep].traffic["inter.rpc"]["count"]
            - 6 * _sor_iterations(data, keep))


def _format_ablation_sor_drop(data) -> str:
    lines = ["Ablation: SOR (4x15) intercluster exchange dropping",
             f"{'keep 1 in':>10} {'iterations':>11} {'elapsed(s)':>11} "
             f"{'inter RPCs':>11}"]
    for keep, res in data.items():
        lines.append(f"{keep:>10} {_sor_iterations(data, keep):>11} "
                     f"{res.elapsed:>11.3f} "
                     f"{res.traffic['inter.rpc']['count']:>11}")
    return "\n".join(lines)


def _ablation_steal(runner: ParallelRunner):
    """``{(network, variant): result}`` for IDA* on 4x15 at a finer
    grain and more imbalance than the headline runs."""
    params = bench_params("ida").with_(
        synth_base_nodes=100.0, synth_sigma=1.3, synth_iterations=3)
    return _run(runner, {
        (label, variant): RunSpec("ida", variant, 4, 15, params,
                                  network=network)
        for label, network in (("das", DAS_PARAMS), ("slow", SLOW_WAN_PARAMS))
        for variant in _VARIANTS})


def _format_ablation_steal(data) -> str:
    lines = ["Ablation: IDA* (4x15) steal policy x WAN quality",
             f"{'network':>8} {'policy':>10} {'elapsed(s)':>11} "
             f"{'remote steals':>14}"]
    for (net, variant), res in data.items():
        lines.append(f"{net:>8} {variant:>10} {res.elapsed:>11.3f} "
                     f"{res.stats['remote']:>14}")
    return "\n".join(lines)


def _tsp_grain_params(depth: int):
    """TSP at master expansion depth 2 or 3, total work held fixed:
    fewer jobs are proportionally bigger."""
    return bench_params("tsp").with_(
        job_depth=depth, synth_mean_nodes=2000.0 * {2: 14.0, 3: 1.0}[depth])


def _ablation_tsp_grain(runner: ParallelRunner):
    """``{depth: result}`` for TSP optimized on 4x15."""
    return _run(runner, {depth: RunSpec("tsp", "optimized", 4, 15,
                                        _tsp_grain_params(depth))
                         for depth in (2, 3)})


def _format_ablation_tsp_grain(data) -> str:
    lines = ["Ablation: TSP (4x15, static distribution) job grain",
             f"{'depth':>6} {'#jobs':>7} {'elapsed(s)':>11} "
             f"{'max jobs/node':>14} {'intra RPCs':>11}"]
    for depth, res in data.items():
        jobs = len(tsp_problem.generate_jobs(_tsp_grain_params(depth)))
        lines.append(f"{depth:>6} {jobs:>7} {res.elapsed:>11.3f} "
                     f"{res.stats['max_jobs_per_node']:>14} "
                     f"{res.traffic['intra.rpc']['count']:>11}")
    return "\n".join(lines)


# ------------------------------------------------------------ the registry

#: Every measured exhibit of EXPERIMENTS.md, in its order, by name.
EXHIBITS: Dict[str, Exhibit] = {exhibit.name: exhibit for exhibit in (
    Exhibit("table1", lambda _runner: table1_microbenchmarks(), format_table1, (
        Claim("table1/latency-gap-two-orders", "Table 1",
              lambda d: 30 < d["rpc"]["wan_latency"]
              / d["rpc"]["lan_latency"] < 120),
        Claim("table1/bandwidth-gap-two-orders", "Table 1",
              lambda d: 30 < d["rpc"]["lan_bandwidth"]
              / d["rpc"]["wan_bandwidth"] < 120),
        # Absolute calibration against the paper's values, with tolerance.
        Claim("table1/rpc-lan-latency", "Table 1: 40 us",
              lambda d: 30e-6 < d["rpc"]["lan_latency"] < 50e-6),
        Claim("table1/rpc-wan-latency", "Table 1: 2.7 ms",
              lambda d: 2.3e-3 < d["rpc"]["wan_latency"] < 3.1e-3),
        Claim("table1/rpc-lan-bandwidth", "Table 1: 208 Mbit/s",
              lambda d: 150e6 < d["rpc"]["lan_bandwidth"] < 260e6),
        Claim("table1/rpc-wan-bandwidth", "Table 1: 4.53 Mbit/s",
              lambda d: 3.5e6 < d["rpc"]["wan_bandwidth"] < 5.0e6),
        Claim("table1/bcast-lan-latency", "Table 1: 65 us",
              lambda d: 40e-6 < d["bcast"]["lan_latency"] < 90e-6),
        Claim("table1/bcast-wan-latency", "Table 1: 3.0 ms",
              lambda d: 2.0e-3 < d["bcast"]["wan_latency"] < 3.5e-3),
        Claim("table1/bcast-wan-bandwidth", "Table 1: 4.53 Mbit/s",
              lambda d: 3.5e6 < d["bcast"]["wan_bandwidth"] < 5.5e6),
    )),
    Exhibit("table2", table2_rows, lambda d: format_table2(d.values()), (
        # Every application runs "reasonably efficient" on one cluster
        # (efficiencies between 40.5% and 98%) — except RA, whose
        # communication-bound profile is the paper's own worst case.
        Claim("table2/ra-still-speeds-up", "Table 2: RA 25.9",
              lambda d: d["ra"]["speedup"] > 3),
        Claim("table2/reasonably-efficient", "Table 2, §3",
              lambda d: all(row["speedup"] > 0.3 * 60
                            for name, row in d.items() if name != "ra")),
        Claim("table2/ra-most-communication-intensive", "Table 2",
              lambda d: d["ra"]["rpc_per_s"] == max(
                  row["rpc_per_s"] for row in d.values())),
        Claim("table2/asp-acp-broadcast-heavy", "Table 2",
              lambda d: {"asp", "acp"} <= set(sorted(
                  d, key=lambda name: -d[name]["bcast_per_s"])[:3])),
    )),
    _curves("fig1_water_original", "fig1",
            Claim("fig1/multicluster-hurts-badly", "Fig. 1, §4.1",
                  lambda c: _final(c, 4) < 0.7 * _final(c, 1))),
    _curves("fig2_water_optimized", "fig2",
            Claim("fig2/approaches-single-cluster", "Fig. 2, §4.1",
                  lambda c: _final(c, 4) > 0.6 * _final(c, 1))),
    _curves("fig3_tsp_original", "fig3",
            Claim("fig3/central-queue-mediocre", "Fig. 3, §4.2",
                  lambda c: _final(c, 4) < 0.75 * _final(c, 1))),
    _curves("fig4_tsp_optimized", "fig4",
            Claim("fig4/static-distribution-restores-locality",
                  "Fig. 4, §4.2",
                  lambda c: _final(c, 4) > 0.85 * _final(c, 1))),
    _curves("fig5_asp_original", "fig5",
            Claim("fig5/sequencer-turns-collapse", "Fig. 5, §4.3",
                  lambda c: _final(c, 4) < 0.65 * _final(c, 1))),
    _curves("fig6_asp_optimized", "fig6",
            Claim("fig6/migrating-sequencer-recovers", "Fig. 6, §4.3",
                  lambda c: _final(c, 4) > 0.6 * _final(c, 1))),
    _curves("fig7_atpg_original", "fig7",
            Claim("fig7/only-modest-decrease", "Fig. 7, §4.4",
                  lambda c: _final(c, 4) > 0.55 * _final(c, 1))),
    _curves("fig8_atpg_optimized", "fig8",
            Claim("fig8/close-to-single-cluster", "Fig. 8, §4.4",
                  lambda c: _final(c, 4) > 0.8 * _final(c, 1))),
    _curves("fig9_ra_original", "fig9",
            Claim("fig9/dramatic-collapse", "Fig. 9, §4.5",
                  lambda c: _final(c, 4) < 0.3 * _final(c, 1))),
    _curves("fig10_ra_optimized", "fig10",
            Claim("fig10/still-well-below-single-cluster", "Fig. 10, §4.5",
                  lambda c: _final(c, 4) < 0.8 * _final(c, 1))),
    _curves("fig11_ida", "fig11",
            Claim("fig11/close-to-single-cluster", "Fig. 11, §4.6",
                  lambda c: _final(c, 4) > 0.8 * _final(c, 1)),
            Claim("fig11/two-and-four-cluster-lines-overlap",
                  "Fig. 11, §4.6",
                  lambda c: abs(_final(c, 2) - _final(c, 4))
                  < 0.25 * max(_final(c, 2), _final(c, 4)))),
    Exhibit("fig11_ida_steals", _ida_steals, _format_ida_steals, (
        Claim("fig11_steals/fewer-remote-steals", "§4.6, Tables 4/5",
              lambda d: d["optimized"].stats["remote"]
              <= d["original"].stats["remote"]),
        Claim("fig11_steals/speedup-hardly-moves", "§4.6",
              lambda d: abs(d["optimized"].elapsed - d["original"].elapsed)
              < 0.2 * d["original"].elapsed),
    )),
    _curves("fig12_acp", "fig12",
            Claim("fig12/multicluster-at-least-single-cluster",
                  "Fig. 12, §4.7",
                  lambda c: _final(c, 4) >= _final(c, 1),
                  deviates="every totally-ordered broadcast from a remote "
                  "cluster pays a token-rotation latency its sender "
                  "observes, so multicluster ACP degrades; the paper "
                  "gives no mechanism for its crossing to calibrate "
                  "against (EXPERIMENTS, Known deviations 1)")),
    _curves("fig13_sor_original", "fig13",
            Claim("fig13/blocking-exchange-much-worse", "Fig. 13, §4.8",
                  lambda c: _final(c, 4) < 0.5 * _final(c, 1))),
    Exhibit("fig14_sor_optimized", _fig14,
            lambda d: format_curves("fig14", d[0]), (
        Claim("fig14/four-clusters-beat-one-15-node-cluster",
              "Fig. 14, §4.8",
              lambda d: _final(d[0], 4) > d[1]),
        Claim("fig14/speedup-near-30", "Fig. 14: ~30 at 4x15, read off "
              "the plot to +-25 %",
              lambda d: _final(d[0], 4) > 0.75 * 30,
              deviates="we exchange ghost rows before each colour phase "
              "(two per iteration, for a grid bit-identical to the "
              "sequential one) where the paper exchanges once; that "
              "doubles the intercluster row cost chaotic relaxation "
              "then discounts (EXPERIMENTS, Known deviations 2)")),
    ),
    Exhibit("fig15_summary",
            lambda runner: figure15_bars_many(PAPER_ORDER, runner=runner),
            lambda bars: format_bars(
                "Figure 15: four-cluster performance improvements", bars), (
        Claim("fig15/atpg-ida-beat-lower-bound-unoptimized", "Fig. 15, §5",
              lambda b: all(b[name]["original_60_4"]
                            > b[name]["lower_bound_15_1"]
                            for name in ("atpg", "ida"))),
        Claim("fig15/ra-acp-below-lower-bound-unoptimized", "Fig. 15, §5",
              lambda b: not any(b[name]["original_60_4"]
                                > b[name]["lower_bound_15_1"]
                                for name in ("ra", "acp"))),
        Claim("fig15/optimizations-lift-restructured-apps", "Fig. 15, §5",
              lambda b: all(g > 1.15 for g in _fig15_gains(b).values())),
        Claim("fig15/average-gain", "§5: average speedup increase of 85 %",
              lambda b: sum(_fig15_gains(b).values())
              / len(_fig15_gains(b)) - 1.0 > 0.4),
        Claim("fig15/water-tsp-near-upper-bound", "Fig. 15, §5",
              lambda b: all(b[name]["optimized_60_4"]
                            > 0.7 * b[name]["upper_bound_60_1"]
                            for name in ("water", "tsp"))),
        Claim("fig15/ra-stays-below-lower-bound", "Fig. 15, §4.5",
              lambda b: b["ra"]["optimized_60_4"]
              < b["ra"]["lower_bound_15_1"]),
        Claim("fig15/sor-optimized-beats-lower-bound", "Fig. 15, §4.8",
              lambda b: b["sor"]["optimized_60_4"]
              > b["sor"]["lower_bound_15_1"]),
        Claim("fig15/ida-optimized-not-below-original", "Fig. 15, §4.6",
              lambda b: b["ida"]["optimized_60_4"]
              >= b["ida"]["original_60_4"],
              deviates="cluster-first stealing spends the whole "
              "max_steal_attempts budget inside the own cluster, so "
              "imbalance between clusters at the end of an iteration is "
              "no longer levelled (remote steals 74 -> 5) and the run "
              "ends 5 % later; within the paper's 'hardly changed' "
              "(fig11_steals/speedup-hardly-moves), but the wrong sign"),
    )),
    Exhibit("fig16_twocluster", _fig16,
            lambda d: format_bars(
                "Figure 16: two-cluster performance improvements", d[0]), (
        # SOR sits right at the boundary in our model (0.83x); the paper
        # has it just above the 16-node cluster.
        Claim("fig16/optimized-at-or-near-one-16-node-cluster",
              "Fig. 16, §5",
              lambda d: all(d[0][name]["optimized_32_2"]
                            > 0.8 * d[0][name]["original_16_1"]
                            for name in ("water", "tsp", "atpg", "ida",
                                         "sor", "asp"))),
        Claim("fig16/two-clusters-gentler-than-four", "Fig. 16, §5",
              lambda d: d[0]["water"]["original_32_2"]
              / d[0]["water"]["optimized_32_1"]
              > d[1]["original_60_4"] / d[1]["upper_bound_60_1"]),
    )),
    Exhibit("table4_5", traffic_rows, _format_table4_5, (
        Claim("table4_5/water-rpc-bytes-cut", "Tables 4/5",
              lambda d: d[1]["water"]["rpc_kbytes"]
              < 0.3 * d[0]["water"]["rpc_kbytes"]),
        Claim("table4_5/tsp-rpc-count-cut", "Tables 4/5",
              lambda d: d[1]["tsp"]["rpc_count"]
              < 0.2 * d[0]["tsp"]["rpc_count"]),
        Claim("table4_5/sor-rpc-bytes-cut", "Tables 4/5",
              lambda d: d[1]["sor"]["rpc_kbytes"]
              < 0.6 * d[0]["sor"]["rpc_kbytes"]),
        Claim("table4_5/ra-rpc-count-cut", "Tables 4/5",
              lambda d: d[1]["ra"]["rpc_count"]
              < 0.5 * d[0]["ra"]["rpc_count"]),
        Claim("table4_5/ida-fewer-steal-requests", "Tables 4/5",
              lambda d: d[1]["ida"]["rpc_count"] <= d[0]["ida"]["rpc_count"]),
        # Broadcast volume roughly unchanged where only ordering (ASP) or
        # RPCs (Water) were optimized.
        Claim("table4_5/asp-bcast-volume-unchanged", "Tables 4/5",
              lambda d: abs(d[1]["asp"]["bcast_kbytes"]
                            - d[0]["asp"]["bcast_kbytes"])
              < 0.15 * max(d[0]["asp"]["bcast_kbytes"], 1)),
        Claim("table4_5/water-bcast-volume-unchanged", "Tables 4/5",
              lambda d: abs(d[1]["water"]["bcast_kbytes"]
                            - d[0]["water"]["bcast_kbytes"])
              < 0.15 * max(d[0]["water"]["bcast_kbytes"], 1) + 1),
    )),
    Exhibit("sensitivity_atpg", _sensitivity_atpg, _format_sensitivity_atpg, (
        Claim("sensitivity_atpg/matters-more-on-slower-network", "§4.4",
              lambda d: _atpg_ratio(d, "slow WAN 10ms/2Mbit")
              < _atpg_ratio(d, "DAS ATM")),
        Claim("sensitivity_atpg/insignificant-at-das-settings", "§4.4",
              lambda d: _atpg_ratio(d, "DAS ATM") > 0.7),
        Claim("sensitivity_atpg/significant-on-slow-network", "§4.4",
              lambda d: _atpg_ratio(d, "slow WAN 10ms/2Mbit") < 0.8),
    )),
    Exhibit("validation", _validation, _format_validation, (
        Claim("validation/mean-difference-small", "§2: 1.14 %",
              lambda d: sum(_validation_kept(d))
              / len(_validation_kept(d)) < 5.0),
        Claim("validation/no-app-far-off", "§2",
              lambda d: max(_validation_kept(d)) < 15.0),
    )),
    Exhibit("sensitivity_sweep", _sensitivity_sweep,
            _format_sensitivity_sweep, (
        # Monotone in both axes, up to a few percent of discrete-event
        # noise: batching boundaries shift when link speeds change.
        Claim("sensitivity_sweep/monotone-in-bandwidth", "§7 future work",
              lambda g: all(g[(a, lat)] >= g[(b, lat)] * 0.93
                            for lat in _SWEEP_LATENCIES_MS
                            for a, b in zip(_SWEEP_BANDWIDTHS_MBIT,
                                            _SWEEP_BANDWIDTHS_MBIT[1:]))),
        Claim("sensitivity_sweep/monotone-in-latency", "§7 future work",
              lambda g: all(g[(bw, a)] <= g[(bw, b)] * 1.07
                            for bw in _SWEEP_BANDWIDTHS_MBIT
                            for a, b in zip(_SWEEP_LATENCIES_MS,
                                            _SWEEP_LATENCIES_MS[1:]))),
        Claim("sensitivity_sweep/wins-at-das-quality", "§7 future work",
              lambda g: g[(4.53, 2.7)] < g["local"]),
        Claim("sensitivity_sweep/loses-at-worst-corner", "§7 future work",
              lambda g: g[(1.0, 10.0)] > g["local"] * 0.6),
    )),
    Exhibit("ablation_sequencer", _ablation_sequencer,
            _format_ablation_sequencer, (
        Claim("ablation_sequencer/migrating-beats-distributed", "§4.3",
              lambda d: d["migrating"] < d["distributed"]),
        Claim("ablation_sequencer/distributed-beats-centralized",
              "§2, §4.3",
              lambda d: d["distributed"] < d["centralized"] * 1.05),
        Claim("ablation_sequencer/migrating-well-below-centralized",
              "§4.3",
              lambda d: d["migrating"] < 0.8 * d["centralized"]),
    )),
    Exhibit("ablation_dedicated_seq", _ablation_dedicated_seq,
            _format_ablation_dedicated_seq, (
        Claim("ablation_dedicated_seq/never-hurts-much",
              "§4.3: dedicated sequencer node",
              lambda d: all(d[(name, True)].elapsed
                            < d[(name, False)].elapsed * 1.1
                            for name in ("asp", "acp"))),
    )),
    Exhibit("ablation_combining", _ablation_combining,
            _format_ablation_combining, (
        Claim("ablation_combining/helps-at-its-best", "§4.5",
              lambda d: min(d[b].elapsed for b in _COMBINING_BATCHES)
              < d["original"].elapsed),
        Claim("ablation_combining/bigger-batches-beat-tiny-ones", "§4.5",
              lambda d: d[64].elapsed <= d[4].elapsed * 1.05),
    )),
    Exhibit("ablation_sor_drop", _ablation_sor_drop,
            _format_ablation_sor_drop, (
        Claim("ablation_sor_drop/exchange-traffic-to-a-third", "§4.8",
              lambda d: _sor_exchanges(d, 3) < 0.45 * _sor_exchanges(d, 1)),
        Claim("ablation_sor_drop/convergence-penalty-band",
              "§4.8: 5-10 % more iterations (we allow 40 %)",
              lambda d: _sor_iterations(d, 1) <= _sor_iterations(d, 3)
              <= 1.4 * _sor_iterations(d, 1)),
        Claim("ablation_sor_drop/still-wins-on-time", "§4.8",
              lambda d: d[3].elapsed < d[1].elapsed),
    )),
    Exhibit("ablation_tsp_grain", _ablation_tsp_grain,
            _format_ablation_tsp_grain, (
        Claim("ablation_tsp_grain/finer-grain-more-rpcs", "§4.2",
              lambda d: d[3].traffic["intra.rpc"]["count"]
              > d[2].traffic["intra.rpc"]["count"]),
        Claim("ablation_tsp_grain/finer-grain-finishes-sooner", "§4.2",
              lambda d: d[3].elapsed < d[2].elapsed),
    )),
    Exhibit("ablation_steal", _ablation_steal, _format_ablation_steal, (
        Claim("ablation_steal/fewer-remote-steals-das", "§4.6",
              lambda d: d[("das", "optimized")].stats["remote"]
              <= d[("das", "original")].stats["remote"]),
        Claim("ablation_steal/fewer-remote-steals-slow", "§4.6",
              lambda d: d[("slow", "optimized")].stats["remote"]
              <= d[("slow", "original")].stats["remote"]),
        Claim("ablation_steal/pays-off-on-slow-network",
              "§4.6: of use for slower networks",
              lambda d: d[("slow", "optimized")].elapsed
              <= d[("slow", "original")].elapsed * 1.02),
    )),
    Exhibit("ablation_gateway", _ablation_gateway, _format_ablation_gateway, (
        Claim("ablation_gateway/slower-gateways-slow-acp", "§4.7",
              lambda d: d[(450, "original")].elapsed
              > d[(50, "original")].elapsed),
        Claim("ablation_gateway/async-broadcast-helps-everywhere", "§4.7",
              lambda d: all(d[(cost_us, "optimized")].elapsed
                            < d[(cost_us, "original")].elapsed
                            for cost_us in _GATEWAY_COSTS_US)),
    )),
)}
