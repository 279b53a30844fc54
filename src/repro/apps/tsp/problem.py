"""TSP domain: distance matrices, branch-and-bound search, job generation.

The paper's TSP computes the shortest tour from a start city through all
others with branch-and-bound; the master generates jobs (initial paths of
fixed depth) and the global bound is *fixed in advance* to keep runs
deterministic (Section 4.2).  We fix the bound at the optimal tour length,
so pruning behaves identically in every configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

from ...sim.rng import derive_seed, substream
from ..instance import INSTANCE_MEMO, InstanceTable

__all__ = ["TSPParams", "distance_matrix", "generate_jobs", "search_job",
           "optimal_tour", "synthetic_job_nodes", "JOB_BYTES"]

#: wire size of one job (a short city prefix plus bookkeeping).
JOB_BYTES = 32


@dataclass(frozen=True)
class TSPParams:
    n_cities: int = 17
    job_depth: int = 3          # master expands prefixes of this length
    seed: int = 7
    #: seconds of CPU per search-tree node (calibrated Pentium Pro grain).
    node_cost: float = 2.0e-6
    kernel: str = "synthetic"
    #: synthetic subtree-size distribution (lognormal, heavy tailed).
    synth_mean_nodes: float = 2000.0
    synth_sigma: float = 0.6

    @staticmethod
    def paper() -> "TSPParams":
        """Section 4.2: a 17-city problem."""
        return TSPParams()

    @staticmethod
    def small(n_cities: int = 9, job_depth: int = 2) -> "TSPParams":
        return TSPParams(n_cities=n_cities, job_depth=job_depth,
                         kernel="real")

    def with_(self, **kw) -> "TSPParams":
        return replace(self, **kw)


def distance_matrix(params: TSPParams) -> np.ndarray:
    """Symmetric integer distances in [1, 100], zero diagonal."""
    rng = substream(params.seed, "tsp.dist")
    n = params.n_cities
    d = rng.integers(1, 101, size=(n, n))
    d = np.triu(d, 1)
    d = d + d.T
    return d.astype(np.int64)


def generate_jobs(params: TSPParams) -> List[Tuple[int, ...]]:
    """All city prefixes of length ``job_depth + 1`` starting at city 0."""
    n = params.n_cities
    depth = params.job_depth
    jobs: List[Tuple[int, ...]] = []

    def extend(prefix: Tuple[int, ...]):
        if len(prefix) == depth + 1:
            jobs.append(prefix)
            return
        for city in range(1, n):
            if city not in prefix:
                extend(prefix + (city,))

    extend((0,))
    return jobs


def _prefix_length(dist: np.ndarray, prefix: Tuple[int, ...]) -> int:
    return int(sum(dist[prefix[i], prefix[i + 1]]
                   for i in range(len(prefix) - 1)))


def search_job(dist: np.ndarray, prefix: Tuple[int, ...],
               bound: int) -> Tuple[int, Optional[Tuple[int, ...]], int]:
    """Depth-first branch-and-bound below ``prefix`` with a fixed bound.

    Returns ``(best_length, best_tour, nodes_expanded)`` where tours not
    strictly shorter than ``bound`` are pruned except exact matches, so the
    optimum is always recoverable when ``bound`` equals it.
    """
    n = dist.shape[0]
    best_len = bound
    best_tour: Optional[Tuple[int, ...]] = None
    nodes = 0
    visited = set(prefix)
    path = list(prefix)
    start_len = _prefix_length(dist, prefix)

    def dfs(length: int):
        nonlocal best_len, best_tour, nodes
        nodes += 1
        if length > best_len:
            return  # prune: already longer than the bound
        if len(path) == n:
            total = length + dist[path[-1], path[0]]
            if total <= best_len:
                best_len = int(total)
                best_tour = tuple(path)
            return
        last = path[-1]
        for city in range(1, n):
            if city in visited:
                continue
            visited.add(city)
            path.append(city)
            dfs(length + dist[last, city])
            path.pop()
            visited.discard(city)

    dfs(start_len)
    return best_len, best_tour, nodes


def optimal_tour(dist: np.ndarray) -> Tuple[int, Tuple[int, ...]]:
    """Exact optimum by branch-and-bound with a dynamic bound (reference)."""
    n = dist.shape[0]
    best_len = int(dist[0].sum() + dist[:, 0].sum())  # loose initial bound
    # Nearest-neighbour warm start tightens the bound considerably.
    tour = [0]
    unvisited = set(range(1, n))
    while unvisited:
        last = tour[-1]
        nxt = min(unvisited, key=lambda c: dist[last, c])
        tour.append(nxt)
        unvisited.discard(nxt)
    best_len = min(best_len, _prefix_length(dist, tuple(tour))
                   + int(dist[tour[-1], 0]))
    best_tour = tuple(tour)

    path = [0]
    visited = {0}

    def dfs(length: int):
        nonlocal best_len, best_tour
        if length >= best_len:
            return
        if len(path) == n:
            total = length + dist[path[-1], 0]
            if total < best_len:
                best_len = int(total)
                best_tour = tuple(path)
            return
        last = path[-1]
        order = sorted((c for c in range(1, n) if c not in visited),
                       key=lambda c: dist[last, c])
        for city in order:
            visited.add(city)
            path.append(city)
            dfs(length + dist[last, city])
            path.pop()
            visited.discard(city)

    dfs(0)
    return best_len, best_tour


@lru_cache(maxsize=INSTANCE_MEMO)
def _job_nodes(seed: int, mean_nodes: float, sigma: float) -> InstanceTable:
    """prefix -> subtree size; a ``node_cost`` or ``job_depth`` sweep
    shares one table."""
    mu = np.log(mean_nodes) - sigma ** 2 / 2

    def draw(prefix: Tuple[int, ...]) -> int:
        rng = substream(seed, f"tsp.job.{prefix}")
        return max(1, int(rng.lognormal(mu, sigma)))

    return InstanceTable(draw)


def synthetic_job_nodes(params: TSPParams, prefix: Tuple[int, ...]) -> int:
    """Deterministic heavy-tailed subtree size for the synthetic kernel.

    Keyed by the job prefix so every variant/configuration sees the same
    per-job cost — one draw per prefix per process (``apps/instance.py``)."""
    return _job_nodes(params.seed, params.synth_mean_nodes,
                      params.synth_sigma)[prefix]
