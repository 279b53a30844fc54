"""Conservative parallel discrete-event simulation of the cluster model.

One simulation, all host cores: the simulated clusters are split into
contiguous blocks (:mod:`.plan`), each block runs in a forked worker on
its own core, and the workers synchronize conservatively at WAN
horizons — the WAN propagation latency is the lookahead
(:mod:`.coordinator`).  Cross-partition sends become timestamped
messages exported a full lookahead before they land (:mod:`.boundary`);
everything inside a partition (LAN chains, the compiled event core,
tracing, scenarios) runs unchanged.

The single-process engine stays the oracle: a PDES run produces
bit-identical answers, finish times and trace record contents — the
golden parity suite (``tests/test_pdes_golden.py``) holds that line.

Selection mirrors ``REPRO_ENGINE``, via ``REPRO_PDES`` or the
``pdes=`` argument to ``run_app`` (CLI: ``--pdes``):

* ``off`` (default, also the empty string) — single-process always;
* ``on`` — partition when the run is eligible; warn on stderr and fall
  back to single-process when it is not;
* ``auto`` — partition eligible runs silently.  A sweep pool resolves
  it to ``off`` for the specs it dispatches (the host is already busy;
  see :class:`repro.harness.sweeps.ParallelRunner`).
"""

from __future__ import annotations

import os

from ..engine import SimulationError
from .boundary import EpochBreak, PartitionBoundary
from .channel import ShmChannel, ShmRing
from .coordinator import (WorkerSpec, compute_caps, run_app_pdes, run_epoch,
                          shutdown_pool)
from .plan import (channel_capacity, cluster_partition_map,
                   partition_clusters, pdes_ineligible_reason, wan_lookahead)

__all__ = [
    "PDES_ENV",
    "pdes_mode",
    "forced_on_by",
    "EpochBreak",
    "PartitionBoundary",
    "ShmRing",
    "ShmChannel",
    "channel_capacity",
    "WorkerSpec",
    "compute_caps",
    "run_epoch",
    "run_app_pdes",
    "shutdown_pool",
    "partition_clusters",
    "cluster_partition_map",
    "pdes_ineligible_reason",
    "wan_lookahead",
]

PDES_ENV = "REPRO_PDES"
_MODES = ("off", "on", "auto")


def pdes_mode(explicit=None) -> str:
    """Resolve the PDES mode: explicit argument, else ``REPRO_PDES``.

    Unknown values raise, like ``REPRO_ENGINE``'s selector — a typo
    silently running everything single-process would defeat the point
    of asking.
    """
    raw = explicit if explicit is not None \
        else os.environ.get(PDES_ENV, "off")
    mode = str(raw).strip().lower() or "off"
    if mode not in _MODES:
        raise SimulationError(
            f"unknown {PDES_ENV} value {raw!r} "
            f"(expected 'off', 'on', or 'auto')")
    return mode


def forced_on_by(explicit=None) -> str:
    """How a forced ``on`` was asked for — what the warnings that
    decline it name, so the user knows which knob to turn."""
    return f"{PDES_ENV}=on" if explicit is None else "pdes='on' (--pdes on)"
