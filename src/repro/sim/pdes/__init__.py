"""Conservative parallel discrete-event simulation of the cluster model.

One simulation, all host cores: the simulated clusters are split into
contiguous blocks (:mod:`.plan`), each block runs on its own core (the
first in the coordinator's process, the others in workers the run
forks at its start and reaps before it returns or raises), and the
partitions synchronize conservatively at WAN horizons — the WAN
propagation latency is the lookahead (:mod:`.coordinator`).
Cross-partition sends become timestamped messages exported a full
lookahead before they land (:mod:`.boundary`);
everything inside a partition (LAN chains, the compiled event core,
tracing, scenarios) runs unchanged.

Neither the fabric nor the applications know about partitions: each
partition attaches a :class:`PartitionBoundary` to its own fabric, and
:data:`APP_ADAPTERS` names the applications a cut can run and how their
per-partition shared state ships back and merges.

A PDES run produces bit-identical answers, finish times and trace
record contents to the single-process engine.  Its oracle is the
committed golden manifest, not a serial rerun: ``tools/golden.py``
runs every manifest cell this package can partition with
``pdes="on"`` and holds it to the committed cell.

A run asks for it one way: ``pdes="on"`` on :func:`run_app
<repro.harness.experiment.run_app>` (CLI: ``repro app --pdes on``),
which hands the whole decision to :func:`run_app_pdes`: an ineligible
run (:func:`.plan.partition_width`) warns on stderr and runs
single-process.  Nothing imports this package unless a run asks for it.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from .boundary import EpochBreak, PartitionBoundary
from .coordinator import (WorkerSpec, compute_caps, run_app_pdes, run_epoch,
                          shutdown_pool)
from .plan import (APP_ADAPTERS, cluster_partition_map, partition_clusters,
                   pdes_ineligible_reason, wan_lookahead)

__all__ = [
    "APP_ADAPTERS",
    "EpochBreak",
    "PartitionBoundary",
    "WorkerSpec",
    "compute_caps",
    "run_epoch",
    "run_app_pdes",
    "shutdown_pool",
    "partition_clusters",
    "cluster_partition_map",
    "pdes_ineligible_reason",
    "wan_lookahead",
    "format_pdes_summary",
]


def format_pdes_summary(sim_stats: Dict[str, Any]
                        ) -> Optional[Tuple[str, str]]:
    """Synchronization summary for a partitioned (PDES) run.

    Condenses the ``pdes_*`` counters :func:`run_app_pdes` adds to
    ``sim_stats`` into the profile-style line ``repro app --pdes on``
    prints on stdout: how many epochs the conservative protocol took,
    how many worker round-trips the quiescence coalescing elided, and
    how many bytes of grants, reports and end messages crossed the
    forked workers' pipes.
    That line holds counts only, so stdout is a function of the run's
    inputs; the partitions' blocked host time (``pdes_blocked_s``) is
    the second line, for stderr.  Returns ``(stdout line, stderr line)``,
    or ``None`` when the stats do not come from a partitioned run (an
    ineligible run fell back to the single-process engine).
    """
    if "pdes_partitions" not in sim_stats:
        return None
    epochs = sim_stats.get("pdes_epochs", 0)
    trips = sim_stats.get("pdes_round_trips", 0)
    coalesced = sim_stats.get("pdes_coalesced_round_trips", 0)
    possible = trips + coalesced
    share = (f", {100.0 * coalesced / possible:.0f}% of possible"
             if possible else "")
    kib = sim_stats.get("pdes_channel_bytes", 0) / 1024.0
    return (f"pdes: {sim_stats['pdes_partitions']} partitions, "
            f"{epochs} epochs, {trips} round-trips "
            f"({coalesced} coalesced{share}), "
            f"{sim_stats.get('pdes_cross_messages', 0)} cross msgs + "
            f"{sim_stats.get('pdes_acks', 0)} acks in {kib:.0f} KiB, "
            f"{sim_stats.get('pdes_epoch_breaks', 0)} epoch breaks",
            f"(pdes workers blocked "
            f"{sim_stats.get('pdes_blocked_s', 0.0):.3f}s)")
