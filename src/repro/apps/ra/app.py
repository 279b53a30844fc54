"""The RA application: fine-grain async updates, combined per cluster.

Original (Section 4.5): positions are divided round-robin; whenever a
position's value is determined, small update messages stream to the
owners of its predecessors.  The single-cluster program already batches
per destination *node* (the SC'95 message-combining optimization); on the
wide-area system the traffic is still far too fine-grained.

Optimized: additionally combine intercluster messages at the cluster
level — a designated machine per cluster accumulates outgoing updates and
occasionally ships one large message per destination cluster.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, Generator, List, Tuple

from ...core import ClusterCombiner, CombinerConfig
from ...orca import Context, OrcaRuntime
from ..base import Application
from . import game
from .game import LOSS, RAParams, UNDETERMINED, UPDATE_BYTES, WIN

__all__ = ["RAApp"]

RA_PORT = "ra.updates"


class RAApp(Application):
    """Retrograde analysis of a game database."""

    name = "ra"

    def build_instance(self, params: RAParams) -> None:
        game.build_game(params)

    def register(self, rts: OrcaRuntime, params: RAParams,
                 variant: str) -> Dict[str, Any]:
        g = game.build_game(params)
        shared: Dict[str, Any] = {
            "game": g,
            "values": {},        # position -> WIN/LOSS, filled by owners
            "determined": [0] * rts.topo.n_nodes,
            "messages": 0,
        }
        if variant == "optimized":
            shared["combiner"] = ClusterCombiner(
                rts, CombinerConfig(max_messages=params.combine_max_messages,
                                    max_bytes=params.combine_max_bytes,
                                    max_delay=params.combine_max_delay))
        return shared

    def process(self, ctx: Context, params: RAParams, variant: str,
                shared: Dict[str, Any]) -> Generator:
        me = ctx.node
        p = ctx.topo.n_nodes
        g: game.GameGraph = shared["game"]
        combiner = shared.get("combiner")

        mine = list(range(me, g.n, p))
        mine_count = len(mine)
        counters: Dict[int, int] = {}
        values: Dict[int, int] = {}
        pending: deque = deque()
        out_buf: Dict[int, List[Tuple[int, int]]] = {}
        determined = 0

        def determine(v: int, value: int) -> None:
            nonlocal determined
            values[v] = value
            shared["values"][v] = value
            determined += 1
            pending.append((v, value))

        # Terminal positions of our partition are LOSS for the mover.
        for v in mine:
            if len(g.succs[v]) == 0:
                determine(v, LOSS)
            else:
                counters[v] = len(g.succs[v])

        def apply_update(v: int, succ_value: int) -> None:
            """A successor of our position v got ``succ_value``."""
            if values.get(v, UNDETERMINED) != UNDETERMINED:
                return
            if succ_value == LOSS:
                determine(v, WIN)
                return
            counters[v] -= 1
            if counters[v] == 0:
                determine(v, LOSS)

        def flush(owner: int) -> Generator:
            batch = out_buf.pop(owner, None)
            if not batch:
                return
            shared["messages"] += len(batch)
            size = UPDATE_BYTES * len(batch)
            if combiner is not None:
                yield from combiner.send(ctx, owner, size, payload=batch,
                                         port=RA_PORT)
            else:
                yield from ctx.send(owner, size, payload=batch, port=RA_PORT)

        while True:
            # Drain local work first.
            while pending:
                v, value = pending.popleft()
                for pred in g.preds[v]:
                    owner = pred % p
                    yield from ctx.compute(params.update_cost)
                    if owner == me:
                        apply_update(pred, value)
                    else:
                        out_buf.setdefault(owner, []).append((pred, value))
                        if len(out_buf[owner]) >= params.node_batch:
                            yield from flush(owner)
            # Nothing local: push out partial batches so peers can proceed.
            for owner in list(out_buf):
                yield from flush(owner)
            if determined >= mine_count:
                break
            # Block for incoming updates.
            msg = yield from ctx.receive(port=RA_PORT)
            for v, value in msg.payload:
                yield from ctx.compute(params.update_cost)
                apply_update(v, value)

        shared["determined"][me] = determined
        return None

    def finalize(self, rts: OrcaRuntime, params: RAParams, variant: str,
                 shared: Dict[str, Any]) -> Any:
        values = shared["values"]
        n = shared["game"].n
        wins = sum(1 for v in values.values() if v == WIN)
        return {"n": n, "determined": len(values), "wins": wins,
                "losses": len(values) - wins}

    def stats(self, rts: OrcaRuntime, params: RAParams, variant: str,
              shared: Dict[str, Any]) -> Dict[str, Any]:
        return {"updates_sent": shared["messages"]}
