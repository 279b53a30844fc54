"""The TSP application: centralized vs static per-cluster job queues.

Original (Section 4.2): master/worker with one shared FIFO job queue on
the manager's machine; with four clusters about 75% of job fetches cross
the WAN.  The current best tour length lives in a replicated object (read
frequently, written rarely — here never, because the bound is fixed).

Optimized: the master divides the jobs statically over one queue per
cluster; fetches become intracluster RPCs at the cost of load imbalance.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Tuple

from ...core import DONE, fifo_queue_spec, partition_static
from ...orca import Context, ObjectSpec, Operation, OrcaRuntime
from ..base import Application, KERNEL_REAL
from . import problem
from .problem import JOB_BYTES, TSPParams

__all__ = ["TSPApp"]

#: CPU cost for the master to generate one job.
JOB_GEN_COST = 2e-5
#: jobs shipped per put_many chunk (lets workers start early).
CHUNK = 32


def _min_object_spec() -> ObjectSpec:
    def read(state):
        return state["len"]

    def update(state, length, tour):
        if length < state["len"]:
            state["len"] = length
            state["tour"] = tour

    return ObjectSpec(
        "tsp.min", lambda: {"len": None, "tour": None},
        {"read": Operation(fn=read, arg_bytes=1, result_bytes=8),
         "update": Operation(fn=update, writes=True, arg_bytes=80)},
        replicated=True)


class TSPApp(Application):
    """Branch-and-bound traveling salesman on the multilevel cluster."""

    name = "tsp"

    def build_instance(self, params: TSPParams) -> None:
        if params.kernel != KERNEL_REAL:
            for prefix in problem.generate_jobs(params):
                problem.synthetic_job_nodes(params, prefix)

    def register(self, rts: OrcaRuntime, params: TSPParams,
                 variant: str) -> Dict[str, Any]:
        dist = problem.distance_matrix(params)
        bound, opt = problem.optimal_tour(dist) if params.kernel == KERNEL_REAL \
            else (None, None)
        jobs = problem.generate_jobs(params)
        shared: Dict[str, Any] = {
            "dist": dist,
            "bound": bound,
            "optimal": opt,
            "jobs": jobs,
            "found": [],            # (length, tour) found by workers
            "jobs_done": [0] * rts.topo.n_nodes,
            "nodes_expanded": 0,
        }
        spec = _min_object_spec()
        spec.state_factory = lambda: {"len": bound, "tour": None}
        rts.register(spec)
        if variant == "original":
            rts.register(fifo_queue_spec("tsp.q0", owner=0,
                                         job_bytes=JOB_BYTES))
            shared["queues"] = {0: "tsp.q0"}
        else:
            shared["queues"] = {}
            for c in range(rts.topo.n_clusters):
                owner = rts.topo.nodes_in(c)[0]
                qname = f"tsp.q{c}"
                rts.register(fifo_queue_spec(qname, owner=owner,
                                             job_bytes=JOB_BYTES))
                shared["queues"][c] = qname
        return shared

    # ------------------------------------------------------------- master

    def _master(self, ctx: Context, params: TSPParams, variant: str,
                shared: Dict[str, Any]) -> Generator:
        jobs: List[Tuple[int, ...]] = shared["jobs"]
        if variant == "original":
            qname = shared["queues"][0]
            for i in range(0, len(jobs), CHUNK):
                chunk = jobs[i:i + CHUNK]
                yield from ctx.compute(JOB_GEN_COST * len(chunk))
                yield from ctx.invoke(qname, "put_many", chunk)
            yield from ctx.invoke(qname, "close")
            return
        # Static distribution: one feeder per cluster queue, running
        # concurrently so a WAN round trip to one cluster does not delay
        # the others' work.
        parts = partition_static(jobs, ctx.topo.n_clusters)

        def feeder(c, part):
            qname = shared["queues"][c]
            for i in range(0, len(part), CHUNK):
                chunk = part[i:i + CHUNK]
                yield from ctx.compute(JOB_GEN_COST * len(chunk))
                yield from ctx.invoke(qname, "put_many", chunk)
            yield from ctx.invoke(qname, "close")

        feeders = [ctx.sim.spawn(feeder(c, part), name=f"tspfeed{c}")
                   for c, part in enumerate(parts)]
        yield ctx.sim.all_of(feeders)

    # ------------------------------------------------------------- worker

    def process(self, ctx: Context, params: TSPParams, variant: str,
                shared: Dict[str, Any]) -> Generator:
        master = None
        if ctx.node == 0:
            master = ctx.sim.spawn(
                self._master(ctx, params, variant, shared), name="tspmaster")
        qname = (shared["queues"][0] if variant == "original"
                 else shared["queues"][ctx.cluster])
        real = params.kernel == KERNEL_REAL
        dist = shared["dist"]

        while True:
            job = yield from ctx.invoke(qname, "get")
            if job == DONE:
                break
            bound = yield from ctx.invoke("tsp.min", "read")
            if real:
                best_len, tour, nodes = problem.search_job(dist, job, bound)
                if tour is not None:
                    shared["found"].append((best_len, tour))
                    if best_len < bound:
                        yield from ctx.invoke("tsp.min", "update",
                                              best_len, tour)
            else:
                nodes = problem.synthetic_job_nodes(params, job)
            yield from ctx.compute(nodes * params.node_cost)
            shared["nodes_expanded"] += nodes
            shared["jobs_done"][ctx.node] += 1

        if master is not None:
            yield master
        return None

    # ------------------------------------------------------------ results

    def finalize(self, rts: OrcaRuntime, params: TSPParams, variant: str,
                 shared: Dict[str, Any]) -> Any:
        if params.kernel != KERNEL_REAL:
            return None
        if not shared["found"]:
            return None
        return min(shared["found"], key=lambda lt: lt[0])

    def stats(self, rts: OrcaRuntime, params: TSPParams, variant: str,
              shared: Dict[str, Any]) -> Dict[str, Any]:
        done = shared["jobs_done"]
        return {
            "jobs": sum(done),
            "nodes_expanded": shared["nodes_expanded"],
            "max_jobs_per_node": max(done),
            "min_jobs_per_node": min(done),
        }
