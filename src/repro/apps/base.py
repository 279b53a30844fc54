"""Application framework.

Every paper application is a subclass of :class:`Application` with (at
least) two *variants*: ``original`` (as designed for a single cluster) and
``optimized`` (restructured for the wide-area system).  An application

* registers its shared objects and core-library services in
  :meth:`register`,
* contributes one :meth:`process` generator per compute node,
* reports its answer and app-specific statistics in :meth:`finalize`.

Problem parameters are small frozen dataclasses with two constructors:
``paper()`` (the sizes of Section 3/4, used by the benchmarks, usually
with the ``synthetic`` kernel) and ``small()`` (test-sized, ``real``
kernel, validated against a sequential reference).

Kernel modes: with ``kernel="real"`` the numeric inner loops actually run
(results are checked against sequential references in the tests); with
``kernel="synthetic"`` the inner loop is replaced by its operation-count
cost charge while every message keeps its true size and path.  Both modes
share all communication code, so the *performance* model is identical.

An application knows nothing of partitioned runs: which applications
the partitioned engine can cut, and how each one's per-partition
``shared`` ships back and merges, is that engine's own adapter table,
keyed by :attr:`Application.name`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator

from ..orca import Context, OrcaRuntime

__all__ = ["Application", "AppResult", "KERNEL_REAL", "KERNEL_SYNTHETIC"]

KERNEL_REAL = "real"
KERNEL_SYNTHETIC = "synthetic"

VARIANT_ORIGINAL = "original"
VARIANT_OPTIMIZED = "optimized"


@dataclass
class AppResult:
    """Outcome of one experiment run."""

    app: str
    variant: str
    n_clusters: int
    nodes_per_cluster: int
    elapsed: float                 # virtual seconds, start -> last worker done
    answer: Any                    # app-specific result payload
    stats: Dict[str, Any] = field(default_factory=dict)
    traffic: Dict[str, Dict[str, int]] = field(default_factory=dict)
    utilization: Any = None        # UtilizationReport when requested
    trace_records: Any = None      # List[TraceRecord] when the run was
                                   # traced through the sweep harness
    sim_stats: Any = None          # Simulator.stats() snapshot (event,
                                   # spawn, fast-path/fallback counters)

    @property
    def n_nodes(self) -> int:
        return self.n_clusters * self.nodes_per_cluster


class Application:
    """Base class; subclasses implement the paper's eight programs."""

    #: short identifier ("water", "tsp", ...)
    name: str = "base"
    #: variants this app supports.
    variants = (VARIANT_ORIGINAL, VARIANT_OPTIMIZED)
    #: sequencer protocol used by default for each variant; apps that
    #: optimize the broadcast layer override the optimized entry (ASP).
    sequencers: Dict[str, str] = {
        VARIANT_ORIGINAL: "distributed",
        VARIANT_OPTIMIZED: "distributed",
    }

    def check_variant(self, variant: str) -> None:
        if variant not in self.variants:
            raise ValueError(
                f"{self.name}: unknown variant {variant!r}; "
                f"supported: {self.variants}")

    def sequencer_for(self, variant: str) -> str:
        return self.sequencers.get(variant, "distributed")

    def build_instance(self, params: Any) -> None:
        """Build every process-level table a run of ``params`` reads.

        The tables are the builders of docs/ARCHITECTURE.md, *Process-level
        state* (``apps/instance.py``).  A sweep parent calls this before
        it forks its pool, so the workers inherit the filled tables
        instead of each deriving them again.  Apps without a table keep
        this default, which does nothing.
        """

    # -- to be implemented by subclasses ------------------------------------

    def register(self, rts: OrcaRuntime, params: Any, variant: str) -> Any:
        """Create shared objects/services; returns opaque shared state."""
        raise NotImplementedError

    def process(self, ctx: Context, params: Any, variant: str,
                shared: Any) -> Generator:
        """The per-node worker (a simulation process generator)."""
        raise NotImplementedError

    def finalize(self, rts: OrcaRuntime, params: Any, variant: str,
                 shared: Any) -> Any:
        """Extract the answer after all workers completed."""
        return None

    def stats(self, rts: OrcaRuntime, params: Any, variant: str,
              shared: Any) -> Dict[str, Any]:
        """App-specific counters to attach to the result."""
        return {}
