"""Job-queue organizations for wide-area load balancing.

Three schemes from the paper:

* **Centralized queue** (original TSP): one shared FIFO object on the
  master's node; every fetch by a remote cluster is an intercluster RPC.
* **Static per-cluster queues** (optimized TSP): work is divided statically
  over one queue per cluster; fetches stay inside the cluster, trading
  dynamic balance for locality.
* **Work stealing** (IDA*): per-node queues; an idle node steals from
  victims.  The original victim order is the paper's fixed
  power-of-two-offset sequence; the optimization steals *cluster-local
  first* and skips victims known to be idle — which the app reads off
  its replicated termination board (``ida.status``'s ``idle_set``), so
  there is nothing to keep here.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Iterable, List, Optional, Sequence, Set

from ..network.topology import Topology
from ..orca import Blocked, ObjectSpec, Operation

__all__ = [
    "DONE",
    "fifo_queue_spec",
    "partition_static",
    "power_of_two_order",
    "cluster_first_order",
]

#: Sentinel returned by a queue ``get`` once closed and drained.
DONE = "__queue_done__"


def fifo_queue_spec(name: str, owner: int,
                    job_bytes: int = 64,
                    initial: Optional[Iterable[Any]] = None) -> ObjectSpec:
    """A shared FIFO job-queue object with Orca guard semantics.

    ``get`` blocks while the queue is empty and open; after ``close`` a
    drained queue returns :data:`DONE` instead.  ``job_bytes`` sizes the
    messages carrying one job.
    """
    init = list(initial) if initial is not None else []

    def make_state():
        return {"jobs": deque(init), "closed": False}

    def put(state, job):
        if state["closed"]:
            raise ValueError(f"queue {name!r}: put after close")
        state["jobs"].append(job)

    def put_many(state, jobs):
        if state["closed"]:
            raise ValueError(f"queue {name!r}: put after close")
        state["jobs"].extend(jobs)

    def get(state):
        if state["jobs"]:
            return state["jobs"].popleft()
        if state["closed"]:
            return DONE
        raise Blocked

    def close(state):
        state["closed"] = True

    def size(state):
        return len(state["jobs"])

    return ObjectSpec(
        name, make_state,
        {
            "put": Operation(fn=put, writes=True, arg_bytes=job_bytes),
            "put_many": Operation(
                fn=put_many, writes=True,
                arg_bytes=lambda jobs: job_bytes * max(1, len(jobs))),
            # close() also "writes" so it wakes parked getters.
            "close": Operation(fn=close, writes=True, arg_bytes=1),
            "get": Operation(fn=get, writes=True, arg_bytes=4,
                             result_bytes=job_bytes),
            "size": Operation(fn=size, arg_bytes=1, result_bytes=4),
        },
        owner=owner)


def partition_static(jobs: Sequence[Any], n_parts: int) -> List[List[Any]]:
    """Deterministic round-robin split of ``jobs`` into ``n_parts`` lists.

    Round-robin (rather than contiguous blocks) spreads the typically
    uneven early/late branch-and-bound jobs over the clusters, the same
    effect the paper gets from its static division.
    """
    if n_parts < 1:
        raise ValueError("n_parts must be >= 1")
    parts: List[List[Any]] = [[] for _ in range(n_parts)]
    for i, job in enumerate(jobs):
        parts[i % n_parts].append(job)
    return parts


def power_of_two_order(p: int, me: int) -> List[int]:
    """The paper's fixed victim order: offsets 1, 2, 4, ..., 2^n (mod p).

    Offsets that alias to 0 or repeat are skipped; remaining nodes follow
    in linear order so the sequence always covers all peers.
    """
    if not 0 <= me < p:
        raise ValueError(f"me={me} out of range for p={p}")
    seen: Set[int] = {me}
    order: List[int] = []
    offset = 1
    while offset < p:
        victim = (me + offset) % p
        if victim not in seen:
            order.append(victim)
            seen.add(victim)
        offset *= 2
    for delta in range(1, p):
        victim = (me + delta) % p
        if victim not in seen:
            order.append(victim)
            seen.add(victim)
    return order


def cluster_first_order(topo: Topology, me: int,
                        base: Optional[List[int]] = None) -> List[int]:
    """Reorder a victim list so same-cluster victims come first.

    The first wide-area IDA* optimization: always try to steal inside the
    local cluster before paying an intercluster request.
    """
    if base is None:
        base = power_of_two_order(topo.n_nodes, me)
    my_cluster = topo.cluster_of(me)
    local = [v for v in base if topo.cluster_of(v) == my_cluster]
    remote = [v for v in base if topo.cluster_of(v) != my_cluster]
    return local + remote
