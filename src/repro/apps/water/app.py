"""The Water application: original and wide-area-optimized variants.

Original (Section 4.1): every processor RPCs the processors in its
half-window for their molecule positions at each time step and RPCs force
contributions back — many of those cross cluster boundaries.

Optimized: cluster-level caching.  Each cluster designates a local
coordinator per remote processor; position blocks cross a WAN link once
per epoch and are cached, and force contributions are combined by the
coordinator so one summed update crosses the WAN instead of many.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List

import numpy as np

from ...core import ClusterCache
from ...orca import Blocked, Context, ObjectSpec, Operation, OrcaRuntime
from ...sim import Barrier, Channel
from ..base import Application, KERNEL_REAL
from . import model
from .model import BYTES_PER_MOLECULE, WaterParams

__all__ = ["WaterApp"]


def _block_object_spec(k: int, owner: int, m_k: int) -> ObjectSpec:
    """The shared object holding processor ``k``'s molecule block."""
    block_bytes = BYTES_PER_MOLECULE * m_k

    def make_state():
        return {"epoch": -1, "pos": None, "forces": [], "contribs": 0}

    def publish(state, epoch, payload):
        state["epoch"] = epoch
        state["pos"] = payload
        state["forces"] = []
        state["contribs"] = 0

    def get_pos(state, epoch):
        if state["epoch"] != epoch:
            raise Blocked
        return state["pos"]

    def add_forces(state, epoch, payload):
        if state["epoch"] != epoch:
            raise Blocked
        state["forces"].append(payload)
        state["contribs"] += 1

    def collect_forces(state, epoch, expected):
        if state["epoch"] != epoch or state["contribs"] < expected:
            raise Blocked
        return list(state["forces"])

    return ObjectSpec(
        f"water{k}", make_state,
        {
            "publish": Operation(fn=publish, writes=True, arg_bytes=8),
            "get_pos": Operation(fn=get_pos, arg_bytes=8,
                                 result_bytes=block_bytes),
            "add_forces": Operation(fn=add_forces, writes=True,
                                    arg_bytes=block_bytes + 8),
            "collect_forces": Operation(fn=collect_forces, writes=True,
                                        arg_bytes=8, result_bytes=0),
        },
        owner=owner)


class WaterApp(Application):
    """SPLASH-style n-squared Water on the multilevel cluster."""

    name = "water"

    def register(self, rts: OrcaRuntime, params: WaterParams,
                 variant: str) -> Dict[str, Any]:
        p = rts.topo.n_nodes
        slices = model.block_slices(params.n_molecules, p)
        pos, vel = (model.initial_state(params)
                    if params.kernel == KERNEL_REAL else (None, None))
        # writers[b]: the processors whose window holds block b, ascending
        # (model.writers_of); cluster_writers[c][b]: how many are in c.
        writers: List[List[int]] = [[] for _ in range(p)]
        cluster_writers = [[0] * p for _ in range(rts.topo.n_clusters)]
        for a in range(p):
            row = cluster_writers[rts.topo.cluster_of(a)]
            for b in model.window(p, a):
                writers[b].append(a)
                row[b] += 1
        shared: Dict[str, Any] = {
            "slices": slices,
            "pos0": pos,
            "vel0": vel,
            "barrier": Barrier(rts.sim, parties=p),
            "final": {},
            "pairs": 0,
            "writers": writers,
            "cluster_writers": cluster_writers,
        }
        if variant == "original":
            for k in range(p):
                m_k = slices[k][1] - slices[k][0]
                rts.register(_block_object_spec(k, owner=k, m_k=m_k))
        else:
            cache = ClusterCache(rts, reduce_fn=self._combine_forces)
            store: Dict[Any, Any] = {}
            chans = [Channel(rts.sim) for _ in range(p)]
            for k in range(p):
                m_k = slices[k][1] - slices[k][0]
                cache.register_provider(
                    k, lambda e, k=k, m=m_k: (store[(k, e)],
                                              BYTES_PER_MOLECULE * m))
                cache.register_consumer(
                    k, lambda e, v, k=k: chans[k].put((e, v)))
            shared["cache"] = cache
            shared["store"] = store
            shared["chans"] = chans
        return shared

    @staticmethod
    def _combine_forces(a, b):
        if a is None or b is None:
            return None  # synthetic kernel carries no data
        return a + b

    # ------------------------------------------------------------- worker

    def process(self, ctx: Context, params: WaterParams, variant: str,
                shared: Dict[str, Any]) -> Generator:
        k = ctx.node
        p = ctx.topo.n_nodes
        real = params.kernel == KERNEL_REAL
        lo, hi = shared["slices"][k]
        m_k = hi - lo
        pos = shared["pos0"][lo:hi].copy() if real else None
        vel = shared["vel0"][lo:hi].copy() if real else None
        win = model.window(p, k)
        writers = shared["writers"][k]
        sizes = [s[1] - s[0] for s in shared["slices"]]

        for step in range(params.n_steps):
            # Publish this epoch's positions.
            if variant == "original":
                yield from ctx.invoke(f"water{k}", "publish", step, pos)
            else:
                shared["store"][(k, step)] = pos
            yield shared["barrier"].wait()

            # Forces within the own block.
            n_self = model.self_pair_count(m_k)
            yield from ctx.compute(n_self * params.pair_cost)
            shared["pairs"] += n_self
            forces = (model.self_forces(pos, params.softening)
                      if real else None)

            # Half-window exchange: fetch, compute, send contribution back.
            for b in win:
                if variant == "original":
                    pos_b = yield from ctx.invoke(f"water{b}", "get_pos", step)
                else:
                    pos_b = yield from shared["cache"].fetch(ctx, b, step)
                n_pair = model.pair_count(m_k, sizes[b])
                yield from ctx.compute(n_pair * params.pair_cost)
                shared["pairs"] += n_pair
                if real:
                    f_own, f_b = model.pair_forces(pos, pos_b,
                                                   params.softening)
                    forces = forces + f_own
                else:
                    f_b = None
                if variant == "original":
                    yield from ctx.invoke(f"water{b}", "add_forces", step, f_b)
                else:
                    yield from shared["cache"].write_combined(
                        ctx, b, step, f_b,
                        size=BYTES_PER_MOLECULE * sizes[b] + 8,
                        expected=shared["cluster_writers"][ctx.cluster][b])

            # Collect contributions computed for us by our writers.
            if variant == "original":
                contribs = yield from ctx.invoke(
                    f"water{k}", "collect_forces", step, len(writers))
            else:
                contribs = []
                for _ in range(self._expected_updates(ctx, writers)):
                    epoch, value = yield shared["chans"][k].get()
                    if epoch != step:
                        raise RuntimeError(
                            f"water{k}: update for epoch {epoch} during "
                            f"step {step}")
                    contribs.append(value)
            if real:
                for c in contribs:
                    forces = forces + c
                pos, vel = model.step_update(pos, vel, forces, params.dt)

        shared["final"][k] = pos
        return None

    @staticmethod
    def _expected_updates(ctx: Context, writers: List[int]) -> int:
        """Distinct update messages node k receives in the optimized scheme:
        one per same-cluster writer plus one combined per remote cluster."""
        topo = ctx.topo
        local = sum(1 for a in writers if topo.same_cluster(a, ctx.node))
        remote_clusters = {topo.cluster_of(a) for a in writers
                           if not topo.same_cluster(a, ctx.node)}
        return local + len(remote_clusters)

    # ------------------------------------------------------------ results

    def finalize(self, rts: OrcaRuntime, params: WaterParams, variant: str,
                 shared: Dict[str, Any]) -> Any:
        if params.kernel != KERNEL_REAL:
            return None
        p = rts.topo.n_nodes
        return np.vstack([shared["final"][k] for k in range(p)])

    def stats(self, rts: OrcaRuntime, params: WaterParams, variant: str,
              shared: Dict[str, Any]) -> Dict[str, Any]:
        return {"pairs": shared["pairs"]}
