"""The wide-area optimization library — the paper's primary contribution.

Each module implements one of the optimization techniques of Section 5 /
Table 3, built on the Orca runtime and usable by any application:

* :mod:`~repro.core.job_queue` — centralized, static per-cluster, and
  work-stealing job queues (TSP, IDA*).
* :mod:`~repro.core.cluster_cache` — cluster-level caching of remote data
  with combined write-back (Water).
* :mod:`~repro.core.reduction` — flat vs hierarchical cluster-level
  reductions (ATPG).
* :mod:`~repro.core.combining` — cluster-level message combining (RA).
* :mod:`~repro.core.relaxation` — relaxed-consistency exchange policies
  (SOR's chaotic relaxation).
* :mod:`~repro.core.latency_hiding` — split-phase sends (SOR in C).
* :mod:`~repro.core.patterns` — the Table 3 taxonomy.
"""

from .cluster_cache import ClusterCache
from .combining import ClusterCombiner, CombinerConfig
from .job_queue import (
    DONE,
    cluster_first_order,
    fifo_queue_spec,
    partition_static,
    power_of_two_order,
)
from .latency_hiding import SplitPhaseExchange
from .patterns import TABLE3, AppPattern, OptimizationFamily, table3_rows
from .reduction import cluster_reduce, cluster_scatter, flat_reduce, representative
from .relaxation import ChaoticExchange, ExchangePolicy, FullExchange

__all__ = [
    "ClusterCache",
    "ClusterCombiner",
    "CombinerConfig",
    "DONE",
    "cluster_first_order",
    "fifo_queue_spec",
    "partition_static",
    "power_of_two_order",
    "SplitPhaseExchange",
    "TABLE3",
    "AppPattern",
    "OptimizationFamily",
    "table3_rows",
    "cluster_reduce",
    "cluster_scatter",
    "flat_reduce",
    "representative",
    "ChaoticExchange",
    "ExchangePolicy",
    "FullExchange",
]
