"""The SOR application: nearest-neighbour exchange on the multilevel cluster.

Variants:

* ``original`` — red/black SOR, synchronous boundary exchange before each
  phase.  Processors at cluster boundaries block in an intercluster RPC
  every iteration, stalling the whole pipeline (Section 4.8).
* ``optimized`` — chaotic relaxation: 2 out of 3 *intercluster* exchanges
  are dropped (stale ghost rows are reused); intracluster exchanges are
  untouched.  Convergence slows a few percent, intercluster traffic drops
  to a third.
* ``splitphase`` — the paper's rewrite against the low-level RTS: boundary
  rows are sent asynchronously and the *inner* rows are computed while
  they travel, hiding the WAN latency (numerics identical to original).
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional

import numpy as np

from ...core import ChaoticExchange, FullExchange, cluster_reduce, cluster_scatter
from ...orca import Context, OrcaRuntime
from ..base import Application
from ..partition import block_slices
from . import grid as gridmod
from .grid import SORParams

__all__ = ["SORApp"]

FROM_UP = "sor.fromup"
FROM_DOWN = "sor.fromdown"


class SORApp(Application):
    """Red/black successive overrelaxation."""

    name = "sor"
    variants = ("original", "optimized", "splitphase")
    sequencers = {"original": "distributed", "optimized": "distributed",
                  "splitphase": "distributed"}

    def register(self, rts: OrcaRuntime, params: SORParams,
                 variant: str) -> Dict[str, Any]:
        if params.n_rows < rts.topo.n_nodes:
            raise ValueError("SOR needs at least one row per processor")
        return {
            "slices": block_slices(params.n_rows, rts.topo.n_nodes),
            "blocks": {},
            "iterations": 0,
            "skipped_exchanges": 0,
        }

    # ------------------------------------------------------------- worker

    def process(self, ctx: Context, params: SORParams, variant: str,
                shared: Dict[str, Any]) -> Generator:
        k = ctx.node
        p = ctx.topo.n_nodes
        lo, hi = shared["slices"][k]
        m = hi - lo
        cols = params.n_cols
        # One buffer per node: rows 0 and -1 are the ghost rows (the grid
        # boundary at the edge nodes), so a skipped exchange simply leaves
        # the stale neighbour row in place.
        padded = gridmod.padded_block(params, lo, hi)
        block = padded[1:-1]
        up = k - 1 if k > 0 else None
        down = k + 1 if k < p - 1 else None
        policy = (ChaoticExchange(keep_one_in=params.chaotic_keep_one_in)
                  if variant == "optimized"
                  else FullExchange())
        half_cost = m * cols * params.elem_cost / 2.0
        inner_cost = max(0, (m - 2)) * cols * params.elem_cost / 2.0
        edge_cost = half_cost - inner_cost

        def pair_skipped(neighbor: Optional[int], it: int) -> bool:
            if neighbor is None:
                return False
            inter = not ctx.topo.same_cluster(k, neighbor)
            return not policy.should_exchange(it, inter)

        for it in range(params.n_iterations):
            maxdiff = 0.0
            for parity in (0, 1):
                skip_up = pair_skipped(up, it)
                skip_down = pair_skipped(down, it)
                shared["skipped_exchanges"] += int(skip_up) + int(skip_down)
                blocking = variant != "splitphase"
                # Send our boundary rows.
                if up is not None and not skip_up:
                    send = ctx.send_wait if blocking else ctx.send
                    yield from send(up, params.row_bytes,
                                    payload=block[0].copy(), port=FROM_DOWN,
                                    kind="rpc")
                if down is not None and not skip_down:
                    send = ctx.send_wait if blocking else ctx.send
                    yield from send(down, params.row_bytes,
                                    payload=block[-1].copy(), port=FROM_UP,
                                    kind="rpc")
                if not blocking:
                    # Latency hiding: inner rows are independent of the
                    # in-flight ghosts; compute them while the rows travel.
                    yield from ctx.compute(inner_cost)
                # Collect the neighbours' rows (unless skipped).
                if up is not None and not skip_up:
                    msg = yield from ctx.receive(port=FROM_UP)
                    padded[0] = msg.payload
                if down is not None and not skip_down:
                    msg = yield from ctx.receive(port=FROM_DOWN)
                    padded[-1] = msg.payload
                yield from ctx.compute(edge_cost if not blocking
                                       else half_cost)
                maxdiff = max(maxdiff, gridmod.sweep_phase(
                    padded, parity, params.omega, lo))
            # Once per iteration: global convergence decision by node 0,
            # via hierarchical reduce + scatter (a per-iteration totally-
            # ordered broadcast would drag the WAN sequencer into every
            # iteration, which the Orca SOR does not do).
            total = yield from cluster_reduce(ctx, maxdiff, max, size=8,
                                              root=0, tag=f"sor{it}")
            stop = False
            if k == 0:
                stop = (it + 1 >= params.n_iterations
                        or (params.precision is not None
                            and total < params.precision))
            stop = yield from cluster_scatter(ctx, stop, size=2, root=0,
                                              tag=f"sor{it}")
            shared["iterations"] = max(shared["iterations"], it + 1)
            if stop:
                break

        shared["blocks"][k] = block
        return None

    # ------------------------------------------------------------ results

    def finalize(self, rts: OrcaRuntime, params: SORParams, variant: str,
                 shared: Dict[str, Any]) -> Any:
        p = rts.topo.n_nodes
        grid = np.vstack([shared["blocks"][k] for k in range(p)])
        return {"grid": grid, "iterations": shared["iterations"]}

    def stats(self, rts: OrcaRuntime, params: SORParams, variant: str,
              shared: Dict[str, Any]) -> Dict[str, Any]:
        return {"iterations": shared["iterations"],
                "skipped_exchanges": shared["skipped_exchanges"]}
