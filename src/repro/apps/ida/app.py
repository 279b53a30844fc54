"""The IDA* application: distributed work stealing on the multilevel cluster.

Original (Section 4.6): per-processor job queues; an idle worker asks a
fixed power-of-two-offset victim sequence for work, which makes the
highest-numbered processes of a cluster start stealing *remotely* first.
Idle/active transitions are broadcast for termination detection.

Optimized: (1) steal from the own cluster first, and (2) the "remember
empty" heuristic — skip victims known to be idle: a local read of
``idle_set`` on the replicated ``ida.status`` board the
termination-detection broadcasts keep current.  As in the paper, this halves the intercluster
steal requests but barely moves the speedup, because the load balance is
already good.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple

from ...core import cluster_first_order, power_of_two_order
from ...orca import Blocked, Context, ObjectSpec, Operation, OrcaRuntime
from ..base import Application, KERNEL_REAL
from . import puzzle
from .puzzle import IDAParams, JOB_BYTES

__all__ = ["IDAApp"]


def _queue_spec(k: int) -> ObjectSpec:
    """Per-processor job queue; ``steal`` takes from the tail, never blocks."""

    def push_many(state, jobs):
        state.extend(jobs)

    def pop(state):
        if state:
            return state.pop(0)
        return None

    def steal(state):
        if state:
            return state.pop()
        return None

    return ObjectSpec(
        f"ida.q{k}", list,
        {
            "push_many": Operation(fn=push_many, writes=True,
                                   arg_bytes=lambda jobs: JOB_BYTES * len(jobs)),
            "pop": Operation(fn=pop, writes=True, arg_bytes=4,
                             result_bytes=JOB_BYTES),
            "steal": Operation(fn=steal, writes=True, arg_bytes=4,
                               result_bytes=JOB_BYTES),
        },
        owner=k)


def _status_spec(p: int) -> ObjectSpec:
    """Replicated idle/active board driving termination detection."""

    def set_idle(state, node):
        state["idle"][node] = True

    def set_active(state, node):
        state["idle"][node] = False

    def wait_all_idle(state):
        if not all(state["idle"]):
            raise Blocked
        return True

    def idle_set(state):
        return frozenset(i for i, idle in enumerate(state["idle"]) if idle)

    return ObjectSpec(
        "ida.status", lambda: {"idle": [False] * p},
        {
            "set_idle": Operation(fn=set_idle, writes=True, arg_bytes=8),
            "set_active": Operation(fn=set_active, writes=True, arg_bytes=8),
            "wait_all_idle": Operation(fn=wait_all_idle, arg_bytes=1,
                                       result_bytes=1),
            "idle_set": Operation(fn=idle_set, arg_bytes=1, result_bytes=8),
        },
        replicated=True)


class IDAApp(Application):
    """Iterative deepening A* (15-puzzle) with work stealing."""

    name = "ida"

    def build_instance(self, params: IDAParams) -> None:
        if params.kernel != KERNEL_REAL:
            for j in range(params.synth_jobs):
                for iteration in range(params.synth_iterations):
                    puzzle.synthetic_job_nodes(params, j, iteration)

    def register(self, rts: OrcaRuntime, params: IDAParams,
                 variant: str) -> Dict[str, Any]:
        p = rts.topo.n_nodes
        for k in range(p):
            rts.register(_queue_spec(k))
        rts.register(_status_spec(p))
        if params.kernel == KERNEL_REAL:
            root, jobs = puzzle.generate_jobs(params)
            bounds = puzzle.bounds_sequence(root)
        else:
            root = None
            jobs = list(range(params.synth_jobs))  # synthetic job ids
            bounds = list(range(params.synth_iterations))
        # Static round-robin assignment of frontier jobs to processors.
        assignment: List[List[Tuple[int, Any]]] = [[] for _ in range(p)]
        for j, job in enumerate(jobs):
            assignment[j % p].append((j, job))
        return {
            "root": root,
            "bounds": bounds,
            "assignment": assignment,
            "nodes": [0] * p,
            "solutions": 0,
            "final_bound": None,
            "steals": {"local": 0, "remote": 0, "requests": 0},
        }

    # ------------------------------------------------------------- helpers

    def _victim_order(self, ctx: Context, variant: str) -> List[int]:
        p = ctx.topo.n_nodes
        base = power_of_two_order(p, ctx.node)
        if variant == "optimized":
            return cluster_first_order(ctx.topo, ctx.node, base)
        return base

    def _run_job(self, ctx: Context, params: IDAParams, shared: Dict[str, Any],
                 entry: Tuple[int, Any], bound: int,
                 iteration: int) -> Generator:
        j, job = entry
        if params.kernel == KERNEL_REAL:
            state, g, last = job
            nodes, sols = puzzle.dfs_count(state, g, last, bound)
        else:
            nodes = puzzle.synthetic_job_nodes(params, j, iteration)
            sols = 1 if (iteration == len(shared["bounds"]) - 1
                         and j == 0) else 0
        yield from ctx.compute(nodes * params.node_cost)
        shared["nodes"][ctx.node] += nodes
        shared["solutions"] += sols
        return sols

    # -------------------------------------------------------------- worker

    def process(self, ctx: Context, params: IDAParams, variant: str,
                shared: Dict[str, Any]) -> Generator:
        me = ctx.node
        victims = self._victim_order(ctx, variant)
        my_jobs = shared["assignment"][me]
        found_any = False

        for iteration, bound in enumerate(shared["bounds"]):
            if found_any:
                break
            yield from ctx.invoke("ida.status", "set_active", me)
            if my_jobs:
                yield from ctx.invoke(f"ida.q{me}", "push_many",
                                      list(my_jobs))
            while True:
                entry = yield from ctx.invoke(f"ida.q{me}", "pop")
                if entry is None:
                    entry = yield from self._try_steal(ctx, params, variant,
                                                       shared, victims)
                if entry is None:
                    break
                yield from self._run_job(ctx, params, shared, entry, bound,
                                         iteration)
            yield from ctx.invoke("ida.status", "set_idle", me)
            yield from ctx.invoke("ida.status", "wait_all_idle")
            # All processors drained: solutions for this bound are final.
            if shared["solutions"] > 0:
                shared["final_bound"] = bound
                found_any = True
        return None

    def _try_steal(self, ctx: Context, params: IDAParams, variant: str,
                   shared: Dict[str, Any],
                   victims: List[int]) -> Generator:
        candidates = victims
        if variant == "optimized":
            idle = yield from ctx.invoke("ida.status", "idle_set")
            candidates = [v for v in victims if v not in idle]
        for victim in candidates[:params.max_steal_attempts]:
            shared["steals"]["requests"] += 1
            entry = yield from ctx.invoke(f"ida.q{victim}", "steal")
            if entry is not None:
                if ctx.topo.same_cluster(ctx.node, victim):
                    shared["steals"]["local"] += 1
                else:
                    shared["steals"]["remote"] += 1
                return entry
        return None

    # ------------------------------------------------------------ results

    def finalize(self, rts: OrcaRuntime, params: IDAParams, variant: str,
                 shared: Dict[str, Any]) -> Any:
        return (shared["final_bound"], shared["solutions"],
                sum(shared["nodes"]))

    def stats(self, rts: OrcaRuntime, params: IDAParams, variant: str,
              shared: Dict[str, Any]) -> Dict[str, Any]:
        return dict(shared["steals"])
