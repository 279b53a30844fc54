"""Shared worker-count resolution for every host-parallel layer.

Two layers of the harness fan work out over host cores:

* the sweep pool (:mod:`repro.harness.sweeps`) — grid points across
  ``REPRO_JOBS`` workers;
* the PDES partition pool (:mod:`repro.sim.pdes`) — one simulation
  split across ``REPRO_PDES_WORKERS`` workers.

Both resolve their counts here so the parsing rules (clamp to 1,
*loud* fallback on a typo) stay in one place, and so the two pools can
see each other: a sweep worker that starts a PDES run would multiply
the pools (jobs x partitions processes on one host).  The sweep pool
therefore marks its workers via :data:`ACTIVE_JOBS_ENV`, and
:func:`pdes_auto_allowed` / :func:`pdes_workers` apply the
oversubscription policy — ``auto`` declines to nest, and a forced
``on`` divides the host's cores by the active sweep width.
"""

from __future__ import annotations

import os
import sys
from typing import Optional

__all__ = [
    "JOBS_ENV",
    "PDES_WORKERS_ENV",
    "ACTIVE_JOBS_ENV",
    "env_int",
    "default_jobs",
    "active_sweep_jobs",
    "pdes_auto_allowed",
    "pdes_workers",
]

#: Sweep pool width (grid points in parallel).
JOBS_ENV = "REPRO_JOBS"
#: PDES pool width (partitions in parallel within one simulation).
PDES_WORKERS_ENV = "REPRO_PDES_WORKERS"
#: Set in sweep-pool workers to the pool's width, so nested layers know
#: the host is already fanned out ``N`` ways.
ACTIVE_JOBS_ENV = "REPRO_ACTIVE_JOBS"


def env_int(env: str, default: int, *, minimum: int = 1,
            fallback_note: str = "") -> int:
    """Integer from environment variable ``env``, clamped to ``minimum``.

    An unset/empty variable yields ``default`` silently; an unparsable
    one also yields ``default`` but *loudly* — a typo silently changing
    the parallelism a user asked for is a debugging trap.
    """
    raw = os.environ.get(env, "").strip()
    if not raw:
        return default
    try:
        return max(minimum, int(raw))
    except ValueError:
        note = fallback_note or f"using {default}"
        print(f"repro: warning: ignoring unparsable {env}={raw!r} "
              f"(want an integer); {note}", file=sys.stderr)
        return default


def default_jobs() -> int:
    """Sweep worker count from ``REPRO_JOBS`` (default 1 — fully serial)."""
    return env_int(JOBS_ENV, 1,
                   fallback_note="running serially with 1 job")


def active_sweep_jobs() -> int:
    """Width of the enclosing sweep pool (1 when not inside a worker)."""
    return env_int(ACTIVE_JOBS_ENV, 1)


def pdes_auto_allowed() -> bool:
    """Whether ``REPRO_PDES=auto`` may turn PDES on in this process.

    Inside a sweep-pool worker the host is already busy running other
    grid points, so ``auto`` stays single-process: points x partitions
    would oversubscribe the host without speeding anything up.  An
    explicit ``on`` still wins (and is then width-limited by
    :func:`pdes_workers`).
    """
    return active_sweep_jobs() <= 1


def pdes_workers(n_partitions: int, requested: Optional[int] = None) -> int:
    """Partition-pool width: how many PDES workers to actually fork.

    ``requested`` (the ``--pdes-workers`` flag) wins; else
    ``REPRO_PDES_WORKERS``; else every available core.  The result is
    capped at ``n_partitions`` (more workers than partitions is pure
    overhead).  A *derived* width is further capped at the host's cores
    divided by the active sweep width, so jobs x workers stays within
    the machine; an explicit request is honored as asked (tests and
    demos need a fixed partition count on any host — oversubscribed
    workers still compute the identical result, just slower).
    """
    if requested is None:
        requested = env_int(PDES_WORKERS_ENV, 0, minimum=0,
                            fallback_note="sizing from the host's cores")
    cores = os.cpu_count() or 1
    if requested and requested > 0:
        width = requested
    else:
        width = max(1, min(cores, cores // active_sweep_jobs()))
    return max(1, min(width, n_partitions))
