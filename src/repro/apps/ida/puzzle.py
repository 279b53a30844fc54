"""IDA* domain: the 15-puzzle and iterative-deepening A* search.

The paper parallelizes IDA* over the subtrees below a shallow frontier:
the root position is expanded to a fixed depth, the resulting jobs are
divided over per-processor queues, and idle processors steal jobs.  Each
iteration searches to a fixed cost bound and — to stay deterministic —
finds *all* solutions at that bound before the bound is increased.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

from ...sim.rng import substream
from ..instance import INSTANCE_MEMO, InstanceTable

__all__ = ["IDAParams", "PuzzleState", "scrambled", "manhattan", "expand",
           "dfs_count", "generate_jobs", "sequential_reference",
           "synthetic_job_nodes", "JOB_BYTES"]

#: 4x4 board plus bookkeeping on the wire.
JOB_BYTES = 72

GOAL = tuple(range(1, 16)) + (0,)
#: legal moves of the blank per position (4x4 grid adjacency).
NEIGHBORS: List[Tuple[int, ...]] = []
for pos in range(16):
    r, c = divmod(pos, 4)
    adj = []
    if r > 0:
        adj.append(pos - 4)
    if r < 3:
        adj.append(pos + 4)
    if c > 0:
        adj.append(pos - 1)
    if c < 3:
        adj.append(pos + 1)
    NEIGHBORS.append(tuple(adj))

PuzzleState = Tuple[int, ...]


@dataclass(frozen=True)
class IDAParams:
    scramble_moves: int = 14
    frontier_depth: int = 3
    seed: int = 3
    #: seconds per search-tree node (move gen + heuristic on a ~200 MHz PPro).
    node_cost: float = 8e-6
    kernel: str = "synthetic"
    # Synthetic search-tree model: per-iteration growth and job-size spread.
    synth_iterations: int = 4
    synth_jobs: int = 512
    synth_base_nodes: float = 400.0
    synth_growth: float = 5.0
    synth_sigma: float = 0.6
    #: a worker asks this many victims in turn before declaring itself idle.
    max_steal_attempts: int = 8

    @staticmethod
    def paper() -> "IDAParams":
        return IDAParams()

    @staticmethod
    def small(scramble_moves: int = 12) -> "IDAParams":
        return IDAParams(scramble_moves=scramble_moves, frontier_depth=2,
                         kernel="real")

    def with_(self, **kw) -> "IDAParams":
        return replace(self, **kw)


def scrambled(params: IDAParams) -> PuzzleState:
    """A solvable instance: random-walk ``scramble_moves`` from the goal."""
    rng = substream(params.seed, "ida.scramble")
    state = list(GOAL)
    blank = 15
    prev = -1
    for _ in range(params.scramble_moves):
        options = [n for n in NEIGHBORS[blank] if n != prev]
        nxt = int(options[int(rng.integers(0, len(options)))])
        state[blank], state[nxt] = state[nxt], state[blank]
        prev, blank = blank, nxt
    return tuple(state)


def manhattan(state: PuzzleState) -> int:
    """Sum of tile Manhattan distances to their goal squares."""
    total = 0
    for pos, tile in enumerate(state):
        if tile == 0:
            continue
        goal = tile - 1
        total += abs(pos // 4 - goal // 4) + abs(pos % 4 - goal % 4)
    return total


def expand(state: PuzzleState, last_blank: int
           ) -> List[Tuple[PuzzleState, int]]:
    """Children of ``state`` (skipping the move that undoes the last one).

    Returns ``(child, old_blank)`` pairs; ``old_blank`` is where the blank
    was, i.e. the child's "don't go back" square.
    """
    blank = state.index(0)
    out = []
    for nxt in NEIGHBORS[blank]:
        if nxt == last_blank:
            continue
        child = list(state)
        child[blank], child[nxt] = child[nxt], child[blank]
        out.append((tuple(child), blank))
    return out


def dfs_count(state: PuzzleState, g: int, last_blank: int,
              bound: int) -> Tuple[int, int]:
    """Depth-first search below ``state`` with cost bound ``bound``.

    Returns ``(nodes_expanded, solutions_found)`` where a solution is a
    path reaching the goal with f = g exactly at most ``bound``.
    """
    h = manhattan(state)
    if g + h > bound:
        return 1, 0
    if state == GOAL:
        return 1, 1
    nodes = 1
    solutions = 0
    for child, old_blank in expand(state, last_blank):
        n, s = dfs_count(child, g + 1, old_blank, bound)
        nodes += n
        solutions += s
    return nodes, solutions


def generate_jobs(params: IDAParams
                  ) -> Tuple[PuzzleState, List[Tuple[PuzzleState, int, int]]]:
    """Expand the root to ``frontier_depth``; jobs are (state, g, last_blank)."""
    root = scrambled(params)
    frontier: List[Tuple[PuzzleState, int, int]] = [(root, 0, -1)]
    for _ in range(params.frontier_depth):
        nxt: List[Tuple[PuzzleState, int, int]] = []
        for state, g, last in frontier:
            if state == GOAL:
                nxt.append((state, g, last))  # keep trivial solutions
                continue
            for child, old_blank in expand(state, last):
                nxt.append((child, g + 1, old_blank))
        frontier = nxt
    return root, frontier


def bounds_sequence(root: PuzzleState, max_bound: int = 80) -> List[int]:
    """IDA* bound schedule: h(root), h+2, h+4, ... (15-puzzle parity)."""
    h = manhattan(root)
    return list(range(h, max_bound + 1, 2))


def sequential_reference(params: IDAParams) -> Tuple[int, int, int]:
    """(optimal bound, #solutions at that bound, total nodes over all
    iterations) — the deterministic quantities the parallel runs must match."""
    root, jobs = generate_jobs(params)
    total_nodes = 0
    for bound in bounds_sequence(root):
        nodes = 0
        solutions = 0
        for state, g, last in jobs:
            n, s = dfs_count(state, g, last, bound)
            nodes += n
            solutions += s
        total_nodes += nodes
        if solutions > 0:
            return bound, solutions, total_nodes
    raise RuntimeError("no solution within the bound schedule")


@lru_cache(maxsize=INSTANCE_MEMO)
def _job_nodes(seed: int, base_nodes: float, sigma: float,
               growth: float) -> InstanceTable:
    """(job, iteration) -> subtree size; a ``node_cost`` or
    ``max_steal_attempts`` sweep shares one table."""
    mu = np.log(base_nodes) - sigma ** 2 / 2

    def draw(key: Tuple[int, int]) -> int:
        job_index, iteration = key
        rng = substream(seed, f"ida.job.{job_index}.{iteration}")
        base = rng.lognormal(mu, sigma)
        return max(1, int(base * growth ** iteration))

    return InstanceTable(draw)


def synthetic_job_nodes(params: IDAParams, job_index: int,
                        iteration: int) -> int:
    """Deterministic per-(job, iteration) subtree size for the synthetic
    kernel: heavy-tailed across jobs, growing geometrically per iteration.
    One draw per (job, iteration) per process (``apps/instance.py``)."""
    return _job_nodes(params.seed, params.synth_base_nodes,
                      params.synth_sigma,
                      params.synth_growth)[job_index, iteration]
