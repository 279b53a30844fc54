"""RA domain: retrograde analysis of a game database.

The paper enumerates a 12-stone Awari end-game database.  We do not have
Awari's 1.3M-position state space to spare in pure Python, so the
substitution (documented in DESIGN.md) is a deterministic random game DAG
with the same structure: positions with forward edges to successors,
terminal positions of known value, and values computed *backwards* —
a position is a WIN if any successor is a LOSS for the opponent, a LOSS
once all successors are WINs.  The parallel program partitions positions
round-robin and streams tiny asynchronous update messages to the owners
of predecessor positions — exactly RA's irregular fine-grain pattern.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import List, Tuple

import numpy as np

from ...sim.rng import substream
from ..instance import INSTANCE_MEMO

__all__ = ["RAParams", "GameGraph", "build_game", "sequential_reference",
           "UNDETERMINED", "WIN", "LOSS", "UPDATE_BYTES"]

UNDETERMINED, WIN, LOSS = 0, 1, 2
#: one (position, value) update on the wire.
UPDATE_BYTES = 8


@dataclass(frozen=True)
class RAParams:
    n_positions: int = 20000
    max_branch: int = 4
    span: int = 200
    terminal_prob: float = 0.04
    seed: int = 17
    #: seconds per database update (hash + table write on the PPro).
    update_cost: float = 12e-6
    #: per-destination batch size already used by the single-cluster
    #: program (the SC'95 node-level message combining).
    node_batch: int = 16
    #: cluster-level combiner flush policy (the optimized variant).
    combine_max_messages: int = 64
    combine_max_bytes: int = 16 * 1024
    combine_max_delay: float = 2e-3
    kernel: str = "real"  # the real kernel *is* the scaled substitution

    @staticmethod
    def paper() -> "RAParams":
        """Scaled stand-in for the 12-stone Awari database."""
        return RAParams()

    @staticmethod
    def small(n_positions: int = 600) -> "RAParams":
        return RAParams(n_positions=n_positions, span=24)

    def with_(self, **kw) -> "RAParams":
        return replace(self, **kw)


@dataclass
class GameGraph:
    n: int
    succs: List[np.ndarray]        # forward edges (to higher indices)
    preds: List[List[int]]         # reverse adjacency


@lru_cache(maxsize=INSTANCE_MEMO)
def build_game(params: RAParams) -> GameGraph:
    """Deterministic forward DAG: succ(v) in (v, v+span].

    The graph is a pure function of the (frozen, hashable) params and
    is never mutated by a run — values live in separate tables — so it
    is memoized (``apps/instance.py``): every partition worker,
    sweep repeat and bench iteration over the same point reuses one build.
    """
    rng = substream(params.seed, "ra.game")
    n = params.n_positions
    succs: List[np.ndarray] = []
    preds: List[List[int]] = [[] for _ in range(n)]
    for v in range(n):
        room = n - 1 - v
        if room == 0 or rng.random() < params.terminal_prob:
            succs.append(np.empty(0, dtype=np.int64))
            continue
        k = int(rng.integers(1, params.max_branch + 1))
        hi = min(params.span, room)
        offsets = np.unique(rng.integers(1, hi + 1, size=k))
        s = v + offsets
        succs.append(s)
        for w in s:
            preds[int(w)].append(v)
    return GameGraph(n, succs, preds)


def sequential_reference(params: RAParams) -> np.ndarray:
    """Backward-induction values (edges point forward, so one sweep)."""
    g = build_game(params)
    values = np.zeros(g.n, dtype=np.int8)
    for v in range(g.n - 1, -1, -1):
        s = g.succs[v]
        if len(s) == 0:
            values[v] = LOSS
        elif (values[s] == LOSS).any():
            values[v] = WIN
        else:
            values[v] = LOSS
    return values
