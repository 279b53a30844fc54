"""Partition planning and eligibility for conservative PDES runs.

The cut follows the paper's own structure: the simulated machine is a
collection of clusters joined by a WAN, and *every* interaction between
clusters crosses a WAN PVC with a fixed propagation latency.  That
latency is the conservative lookahead — a partition that has run to
virtual time ``t`` cannot affect another partition before ``t + L`` —
so partitioning *per cluster* (or per contiguous block of clusters)
puts the whole synchronization cost on the slowest link in the model,
exactly where the paper puts the application's communication cost.

Eligibility is decided statically, before any process forks.  The
rules are conservative: anything whose cross-cluster control flow the
cut cannot reproduce (totally-ordered broadcasts, striped transfers,
faults that seize both directions of a PVC) keeps the run on the
single-process engine, which remains the oracle for every feature.
"""

from __future__ import annotations

import os
import sys
from typing import (Any, Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple)

from ..engine import SimulationError

__all__ = [
    "APP_ADAPTERS",
    "AppAdapter",
    "partition_clusters",
    "cluster_partition_map",
    "partition_width",
    "pdes_ineligible_reason",
    "pdes_workers",
    "wan_lookahead",
]


class AppAdapter(NamedTuple):
    """What a cut needs of one application.  Each worker registers the
    app and holds a whole ``shared``, mutated for its own nodes only:
    ``ship(shared)`` keeps what pickles back to the coordinator, and
    ``merge(parts)`` folds the shipped copies, in partition order, into
    the one ``shared`` that ``finalize`` and ``stats`` read."""

    ship: Callable[[Any], Any]
    merge: Callable[[List[Any]], Any]


def _ship_all(shared: Any) -> Any:
    return shared


def _ship_ra(shared: Dict[str, Any]) -> Dict[str, Any]:
    # The combiner holds runtime references (sim, fabric) and is
    # finished by merge time; everything else pickles fine.
    return {k: v for k, v in shared.items() if k != "combiner"}


def _merge_ra(parts: List[Dict[str, Any]]) -> Dict[str, Any]:
    # "values" keys are owner-disjoint; "determined" slots are written
    # only by their own node; "messages" accumulates per partition.
    # The game graph is seed-identical everywhere.
    merged = {"game": parts[0]["game"], "values": {},
              "determined": [0] * len(parts[0]["determined"]),
              "messages": 0}
    for part in parts:
        merged["values"].update(part["values"])
        merged["messages"] += part["messages"]
        for i, d in enumerate(part["determined"]):
            if d:
                merged["determined"][i] = d
    return merged


def _merge_sor(parts: List[Dict[str, Any]]) -> Dict[str, Any]:
    # Each node writes exactly its own block; counters are
    # partition-local accumulations (skips) or per-node maxima.
    merged = {"slices": parts[0]["slices"], "blocks": {},
              "iterations": 0, "skipped_exchanges": 0}
    for part in parts:
        merged["blocks"].update(part["blocks"])
        merged["iterations"] = max(merged["iterations"], part["iterations"])
        merged["skipped_exchanges"] += part["skipped_exchanges"]
    return merged


#: The applications a per-cluster cut can run, by ``Application.name``:
#: pure message passing.  The others issue totally-ordered broadcasts or
#: sequencer traffic, whose cross-cluster fan-out no cut can reproduce.
APP_ADAPTERS: Dict[str, AppAdapter] = {
    "ra": AppAdapter(_ship_ra, _merge_ra),
    "sor": AppAdapter(_ship_all, _merge_sor),
}


def partition_clusters(n_clusters: int, n_partitions: int
                       ) -> List[Tuple[int, ...]]:
    """Split ``n_clusters`` into contiguous, balanced blocks.

    Contiguity matters for the nearest-neighbour apps (SOR exchanges
    border rows between adjacent node ranges): adjacent clusters in the
    same block keep their WAN legs partition-internal, so only the
    block borders synchronize.  Sizes differ by at most one.
    """
    if n_clusters < 1:
        raise ValueError(f"need at least one cluster: {n_clusters}")
    width = max(1, min(n_partitions, n_clusters))
    base, extra = divmod(n_clusters, width)
    blocks: List[Tuple[int, ...]] = []
    start = 0
    for i in range(width):
        size = base + (1 if i < extra else 0)
        blocks.append(tuple(range(start, start + size)))
        start += size
    return blocks


def cluster_partition_map(blocks: Sequence[Sequence[int]]) -> Tuple[int, ...]:
    """``cluster -> partition index`` lookup table from a block list."""
    n = sum(len(b) for b in blocks)
    owner = [-1] * n
    for pi, block in enumerate(blocks):
        for c in block:
            owner[c] = pi
    return tuple(owner)


def pdes_ineligible_reason(app, n_clusters: int, *, scenario=None,
                           decision=None, utilization: bool = False,
                           tracer=None) -> Optional[str]:
    """Why this run must stay single-process, or ``None`` if it may split.

    Every reason names a feature whose cross-cluster behavior the
    per-cluster cut cannot reproduce bit-identically; the single-process
    engine stays the oracle for all of them.
    """
    if n_clusters < 2:
        return "single-cluster topology has no WAN cut to partition on"
    if app.name not in APP_ADAPTERS:
        return (f"{app.name} issues totally-ordered broadcasts or "
                f"sequencer traffic, which fans out across every cluster")
    from ...apps import ALL_APPS
    if app.name not in ALL_APPS or type(app) is not ALL_APPS[app.name][0]:
        return (f"{app.name!r} is not the registered application class, "
                f"so partition workers cannot rebuild it")
    if scenario is not None and scenario.faults:
        return "scenario faults act on shared state across partitions"
    if decision is not None:
        return "a decision model may stripe WAN transfers across the cut"
    if utilization:
        return "utilization collection reads one shared fabric"
    if tracer is not None and (tracer.ring is not None or tracer.sample):
        return ("bounded tracing counts emissions in one global order, "
                "and same-instant records of different partitions have "
                "none")
    return None


def pdes_workers(n_partitions: int, requested: Optional[int]) -> int:
    """Partition-pool width: how many PDES workers to actually fork.

    ``requested`` (``--pdes-workers`` / ``pdes_workers=``, at least 1)
    is honoured as asked, even beyond the host's cores — tests and demos
    need a fixed partition count on any host, and oversubscribed workers
    still compute the identical result, just slower; ``None`` means
    every core.  Either way the width is capped at ``n_partitions``
    (more workers than partitions is pure overhead).
    """
    width = requested if requested is not None else os.cpu_count() or 1
    return max(1, min(width, n_partitions))


def partition_width(app, variant: str, n_clusters: int,
                    requested: Optional[int], **features) -> int:
    """How many workers a run that asks for ``pdes="on"`` forks
    (:func:`pdes_workers`), or 0 when it must stay single-process — it
    then says why on stderr.  ``features`` are the keywords of
    :func:`pdes_ineligible_reason`; a width below 1 is an error."""
    if requested is not None and requested < 1:
        raise SimulationError(f"pdes_workers must be >= 1 (or None for "
                              f"every core): {requested!r}")
    width = pdes_workers(n_clusters, requested)
    reason = pdes_ineligible_reason(app, n_clusters, **features) or (
        "only one partition worker resolved" if width < 2 else None)
    if reason is None:
        return width
    print(f"repro: warning: pdes='on' but {app.name}/{variant} cannot be "
          f"partitioned ({reason}); running single-process", file=sys.stderr)
    return 0


def wan_lookahead(network, scenario=None) -> float:
    """Conservative lookahead for this network under this scenario.

    Normally the WAN propagation latency: every cross-partition effect
    rides a PVC, and nothing shortens propagation.  The ``jitter``
    impairment is the one exception — its lognormal factor can dip
    *below* 1, so an impaired delivery may undercut the nominal
    latency; under jitter the lookahead collapses to 0 and the
    partitions min-step in lockstep (slower, still exact).  The other
    impairment models (loss, bw_dip, cross_traffic) only stretch
    transmission or add retries, never shrink propagation.
    """
    if scenario is not None:
        for imp in scenario.impairments:
            if imp.model == "jitter":
                return 0.0
    return network.wan.latency
