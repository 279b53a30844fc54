"""The wide-area bottleneck profiler behind ``repro profile``.

:func:`profile_app` runs one application with structured tracing and
utilization collection enabled, then condenses the trace into a
:class:`BottleneckReport`: the paper's per-application diagnosis — which
wide-area mechanism dominates (sequencer round trips, gateway
congestion, WAN serialization, blocking RPC stalls), per-node WAN-wait
accounting, link timelines and gateway queue depths — as one printable
report.

A shared :class:`~repro.sim.Tracer` can be passed in and reused across
grid points; the profiler calls ``tracer.clear()`` after condensing each
run, so sweeping many configurations with tracing enabled does not grow
memory with the sum of all traces (see ``docs/TRACING.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..network import DAS_PARAMS, NetworkParams
from ..sim import Tracer
from .analyzers import (
    BREAKDOWN_NARRATIVE,
    LinkTimeline,
    gateway_queue_series,
    intercluster_breakdown,
    link_timelines,
    wan_wait_by_node,
)
from .schema import KINDS

__all__ = ["PROFILE_KINDS", "BottleneckReport", "profile_app",
           "format_bottleneck", "format_profile_table",
           "format_profile_diff"]

#: The kinds the profiler records.  High-volume per-event kinds that the
#: analyzers do not consume (process lifecycle, per-copy message
#: records, per-node broadcast applies) are filtered *at emit time* to
#: bound trace memory — see the filtering caveat in ``docs/TRACING.md``.
PROFILE_KINDS = frozenset(KINDS) - {
    "proc.spawn", "proc.finish", "msg.send", "msg.deliver", "bcast.apply",
}


@dataclass
class BottleneckReport:
    """One application run, condensed to its wide-area diagnosis."""

    app: str
    variant: str
    n_clusters: int
    nodes_per_cluster: int
    elapsed: float                       # virtual seconds
    categories: Dict[str, float]         # mechanism -> attributed seconds
    dominant: str                        # category key, or "none"
    dominant_share: float                # of the attributed total
    cpu_mean: float                      # mean node-CPU busy fraction
    timeline: LinkTimeline
    gateway_peak: Tuple[int, int]        # (cluster, peak queue depth)
    wan_waits: Dict[int, Dict[str, float]]
    n_records: int

    @property
    def narrative(self) -> str:
        """The paper-style name of the dominant wide-area cost."""
        if self.dominant == "none":
            return "no wide-area time attributed (single cluster?)"
        return BREAKDOWN_NARRATIVE[self.dominant]


def profile_app(app_name: str, variant: str = "original",
                n_clusters: int = 4, nodes_per_cluster: int = 8,
                params: Any = None, network: NetworkParams = DAS_PARAMS,
                sequencer: Optional[str] = None,
                tracer: Optional[Tracer] = None,
                n_buckets: int = 60) -> BottleneckReport:
    """Run ``app_name``/``variant`` traced and condense the diagnosis.

    ``params`` defaults to the benchmark problem sizes
    (:func:`repro.harness.figures.bench_params`).  ``tracer`` lets a
    sweep share one trace buffer across grid points (it is cleared
    before the run and after condensing); by default a fresh one is
    used.  The run itself is bit-identical to an untraced run — tracing
    only observes.
    """
    from ..apps import make_app
    from ..harness.experiment import run_app
    from ..harness.figures import bench_params

    if params is None:
        params = bench_params(app_name)
    if tracer is None:
        tracer = Tracer()
    tracer.clear()
    if tracer.kinds is None:
        tracer.kinds = PROFILE_KINDS
    result = run_app(make_app(app_name), variant, n_clusters,
                     nodes_per_cluster, params, network=network,
                     sequencer=sequencer, utilization=True, tracer=tracer)

    records = tracer.records
    categories = intercluster_breakdown(records)
    total = sum(categories.values())
    if total > 0:
        dominant = max(categories, key=categories.get)
        share = categories[dominant] / total
    else:
        dominant, share = "none", 0.0
    queues = gateway_queue_series(records)
    gateway_peak = (-1, 0)
    for cluster, samples in queues.items():
        peak = max(depth for _t, depth in samples)
        if peak > gateway_peak[1]:
            gateway_peak = (cluster, peak)
    report = BottleneckReport(
        app=app_name, variant=variant, n_clusters=n_clusters,
        nodes_per_cluster=nodes_per_cluster, elapsed=result.elapsed,
        categories=categories, dominant=dominant, dominant_share=share,
        cpu_mean=result.utilization.cpu_mean,
        timeline=link_timelines(records, result.elapsed, n_buckets),
        gateway_peak=gateway_peak,
        wan_waits=wan_wait_by_node(records),
        n_records=len(records))
    # Grid-point hygiene: drop this run's records so a sweep reusing the
    # tracer holds at most one run's trace at a time.
    tracer.clear()
    return report


def _pct(x: float) -> str:
    return f"{100.0 * x:.0f}%"


def format_bottleneck(report: BottleneckReport) -> str:
    """Render one report as the ``repro profile`` block."""
    head = (f"{report.app}/{report.variant} on "
            f"{report.n_clusters}x{report.nodes_per_cluster}: "
            f"{report.elapsed:.4f} virtual seconds "
            f"({report.n_records} trace records)")
    lines = [head,
             f"  dominant wide-area cost: {report.narrative}"
             + (f" ({_pct(report.dominant_share)} of attributed "
                f"intercluster time)" if report.dominant != "none" else "")]
    total = sum(report.categories.values())
    if total > 0:
        lines.append("  intercluster time by mechanism "
                     "(attributions overlap; see docs/TRACING.md):")
        for name, secs in sorted(report.categories.items(),
                                 key=lambda kv: -kv[1]):
            lines.append(f"    {name:>9}: {secs:10.4f} s  "
                         f"{_pct(secs / total):>4}")
    lines.append(f"  CPUs: mean {_pct(report.cpu_mean)} busy "
                 "(compute + protocol overhead)")
    busiest_wan = report.timeline.busiest("wan")
    if busiest_wan is not None:
        wan_link, wan_util = busiest_wan
        lines.append(f"  WAN : busiest PVC {wan_link} at {_pct(wan_util)} "
                     "busy over the run")
    if report.gateway_peak[0] >= 0:
        lines.append(f"  gateways: peak queue depth {report.gateway_peak[1]}"
                     f" (cluster {report.gateway_peak[0]})")
    waiters = sorted(report.wan_waits.items(),
                     key=lambda kv: -sum(kv[1].values()))[:3]
    if waiters:
        lines.append("  top WAN waiters:")
        for node, w in waiters:
            lines.append(f"    node {node:>3}: rpc {w['rpc']:.4f}s, "
                         f"bcast {w['bcast']:.4f}s, seq {w['seq']:.4f}s")
    return "\n".join(lines)


def _delta(before: float, after: float) -> str:
    """Relative change, rendered for humans (guarding a zero baseline)."""
    if before == 0:
        return "new" if after > 0 else "-"
    change = (after - before) / before
    return f"{change:+.0%}"


def format_profile_diff(before: BottleneckReport,
                        after: BottleneckReport) -> str:
    """Side-by-side diff of two runs of one app (``repro profile --diff``).

    The paper's whole argument is a before/after: each application is
    profiled as ``original``, restructured, and profiled again.  This
    renders that comparison directly — elapsed, the per-mechanism
    intercluster seconds, CPU utilization and gateway pressure — so the
    effect of an optimization shows up as a column of deltas instead of
    two blocks to eyeball.
    """
    head = (f"{before.app} on {before.n_clusters}x"
            f"{before.nodes_per_cluster}: {before.variant} vs "
            f"{after.variant}")
    col_a, col_b = before.variant[:13], after.variant[:13]
    lines = [head,
             f"  {'':<22} {col_a:>13} {col_b:>13} {'delta':>7}",
             f"  {'elapsed (s)':<22} {before.elapsed:>13.4f} "
             f"{after.elapsed:>13.4f} "
             f"{_delta(before.elapsed, after.elapsed):>7}"]
    keys = sorted(set(before.categories) | set(after.categories),
                  key=lambda k: -before.categories.get(k, 0.0))
    if keys:
        lines.append("  intercluster seconds by mechanism "
                     "(attributions overlap):")
        for key in keys:
            a = before.categories.get(key, 0.0)
            b = after.categories.get(key, 0.0)
            lines.append(f"    {key:<20} {a:>13.4f} {b:>13.4f} "
                         f"{_delta(a, b):>7}")
    lines.append(f"  {'CPU busy (mean)':<22} {_pct(before.cpu_mean):>13} "
                 f"{_pct(after.cpu_mean):>13}")
    lines.append(f"  {'gateway peak depth':<22} "
                 f"{before.gateway_peak[1]:>13} "
                 f"{after.gateway_peak[1]:>13}")
    wa, wb = before.timeline.busiest("wan"), after.timeline.busiest("wan")
    if wa is not None or wb is not None:
        fa = f"{wa[0]} {_pct(wa[1])}" if wa is not None else "-"
        fb = f"{wb[0]} {_pct(wb[1])}" if wb is not None else "-"
        lines.append(f"  {'busiest PVC':<22} {fa:>13} {fb:>13}")
    lines.append(f"  dominant: {before.narrative}  ->  {after.narrative}")
    return "\n".join(lines)


def format_profile_table(reports: List[BottleneckReport]) -> str:
    """One row per report: the Figure-15-style diagnosis summary."""
    lines = [f"{'app':>6} {'variant':>10} {'elapsed(s)':>11} "
             f"{'share':>6}  dominant wide-area cost"]
    for r in reports:
        share = _pct(r.dominant_share) if r.dominant != "none" else "-"
        lines.append(f"{r.app:>6} {r.variant:>10} {r.elapsed:>11.4f} "
                     f"{share:>6}  {r.narrative}")
    return "\n".join(lines)
