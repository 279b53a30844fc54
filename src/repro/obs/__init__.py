"""Observability: structured tracing, analyzers, exporters, profiler.

The ``repro.obs`` package consumes the typed trace records emitted by
the instrumented layers (sim engine, network fabric, Orca runtime) and
turns them into the paper's diagnostic artifacts: per-link utilization
timelines, gateway queue-depth series, per-process WAN-wait accounting,
the per-application bottleneck breakdown printed by ``repro profile``,
and causal message chains with per-hop latency attribution
(:mod:`repro.obs.chains`, printed by ``repro chains`` and drawn as
Perfetto flow arrows by the Chrome exporter).  The record schema is
versioned and documented in
``docs/TRACING.md``; :mod:`repro.obs.schema` is its machine-readable
source of truth.
"""

from .analyzers import (
    BREAKDOWN_NARRATIVE,
    FaultWindow,
    LinkTimeline,
    fault_windows,
    gateway_littles_law,
    gateway_queue_series,
    impairment_summary,
    intercluster_breakdown,
    link_timelines,
    wan_wait_by_node,
)
from .chains import (
    CHAIN_KINDS,
    MessageChain,
    MessageHop,
    build_chains,
    chain_stats,
    format_chain,
    format_chains,
    hop_attribution,
)
from .export import (
    chrome_trace,
    folded_stacks,
    read_jsonl,
    write_chrome,
    write_folded,
    write_jsonl,
)
from .profile import (
    PROFILE_KINDS,
    BottleneckReport,
    format_bottleneck,
    format_profile_diff,
    format_profile_table,
    profile_app,
)
from .schema import (
    KINDS,
    SCHEMA_VERSION,
    SPAN_KINDS,
    KindSpec,
    classify_link,
    validate_record,
    validate_records,
)

__all__ = [
    "BREAKDOWN_NARRATIVE",
    "FaultWindow",
    "fault_windows",
    "impairment_summary",
    "LinkTimeline",
    "gateway_littles_law",
    "gateway_queue_series",
    "intercluster_breakdown",
    "link_timelines",
    "wan_wait_by_node",
    "CHAIN_KINDS",
    "MessageChain",
    "MessageHop",
    "build_chains",
    "chain_stats",
    "format_chain",
    "format_chains",
    "hop_attribution",
    "chrome_trace",
    "folded_stacks",
    "read_jsonl",
    "write_chrome",
    "write_folded",
    "write_jsonl",
    "PROFILE_KINDS",
    "BottleneckReport",
    "format_bottleneck",
    "format_profile_diff",
    "format_profile_table",
    "profile_app",
    "KINDS",
    "SCHEMA_VERSION",
    "SPAN_KINDS",
    "KindSpec",
    "classify_link",
    "validate_record",
    "validate_records",
]
