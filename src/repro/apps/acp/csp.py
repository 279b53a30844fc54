"""ACP domain: binary constraint networks and arc revision.

The Arc Consistency Problem prunes variable domains by repeatedly
applying binary constraints until a fixpoint: a value survives only while
it has *support* (a compatible value) in every constraining neighbour's
domain.  Domains are bitmasks; each constraint carries precomputed
support masks, so a revision is a handful of integer operations whose
count the performance model charges.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from types import MappingProxyType
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from ...sim.rng import substream
from ..instance import INSTANCE_MEMO

__all__ = ["ACPParams", "Network", "build_network", "revise",
           "sequential_reference", "popcount"]


@dataclass(frozen=True)
class ACPParams:
    n_vars: int = 1500
    domain_size: int = 64
    n_constraints: int = 4500
    tightness: float = 0.45
    seed: int = 23
    #: seconds per support check (scan of the support bitset on the PPro).
    check_cost: float = 4.0e-6
    #: never read: bitmask revision is cheap enough at paper scale that
    #: ACP has no synthetic mode; kept because ``repr(params)`` is hashed.
    kernel: str = "real"

    @staticmethod
    def paper() -> "ACPParams":
        """Section 4.7: a problem with 1,500 variables."""
        return ACPParams()

    @staticmethod
    def small(n_vars: int = 80, n_constraints: int = 240) -> "ACPParams":
        return ACPParams(n_vars=n_vars, n_constraints=n_constraints)

    def with_(self, **kw) -> "ACPParams":
        return replace(self, **kw)

    @property
    def full_domain(self) -> int:
        return (1 << self.domain_size) - 1


#: ``(y, supports)``: the values of y compatible with each value of x.
Arc = Tuple[int, Tuple[int, ...]]


@dataclass(frozen=True)
class Network:
    """Constraint network with per-arc support masks.

    ``arcs[x]`` lists ``(y, supports)`` pairs constraining variable x;
    ``supports[a]`` is the bitmask of y-values compatible with x=a, so
    value a of x survives while ``supports[a] & dom(y) != 0``.

    One instance serves every run of its problem in the process
    (:func:`build_network` is memoised), so all of it is immutable.
    """

    n_vars: int
    domain_size: int
    arcs: Mapping[int, Tuple[Arc, ...]]
    #: some variables start with restricted domains (the propagation seeds).
    initial_domains: Tuple[int, ...]

    def arcs_of(self, x: int) -> Tuple[Arc, ...]:
        return self.arcs.get(x, ())


def build_network(params: ACPParams) -> Network:
    """The instance ``params`` names, built once per process
    (``apps/instance.py``): the six bars of a figure, the points of a
    speedup curve and ``sequential_reference`` share one build."""
    return _network(params.seed, params.n_vars, params.domain_size,
                    params.n_constraints, params.tightness)


def _row_masks(allowed: np.ndarray) -> Tuple[int, ...]:
    """Each row of a boolean matrix as the int whose bit b is column b."""
    packed = np.packbits(allowed, axis=1, bitorder="little")
    return tuple(int.from_bytes(row.tobytes(), "little") for row in packed)


@lru_cache(maxsize=INSTANCE_MEMO)
def _network(seed: int, n: int, d: int, n_constraints: int,
             tightness: float) -> Network:
    rng = substream(seed, "acp.network")
    arcs: Dict[int, List[Arc]] = {}
    for _ in range(n_constraints):
        x = int(rng.integers(0, n))
        y = int(rng.integers(0, n))
        if x == y:
            continue
        allowed = rng.random((d, d)) >= tightness
        # Support masks in both directions (a constraint yields two arcs).
        arcs.setdefault(x, []).append((y, _row_masks(allowed)))
        arcs.setdefault(y, []).append((x, _row_masks(allowed.T)))
    domains = [(1 << d) - 1] * n
    # Seed the propagation: clamp a few variables to small domains.
    n_seeds = max(1, n // 20)
    for _ in range(n_seeds):
        v = int(rng.integers(0, n))
        keep = int(rng.integers(1, 4))
        mask = 0
        while popcount(mask) < keep:
            mask |= 1 << int(rng.integers(0, d))
        domains[v] = mask
    return Network(n, d,
                   MappingProxyType({x: tuple(a) for x, a in arcs.items()}),
                   tuple(domains))


def popcount(mask: int) -> int:
    return bin(mask).count("1")


def revise(dom_x: int, dom_y: int,
           supports: Sequence[int]) -> Tuple[int, int]:
    """Prune values of x without support in dom(y).

    Returns ``(new_dom_x, checks)`` where checks counts the support tests
    performed (the charged work).
    """
    new = 0
    checks = 0
    mask = dom_x
    while mask:
        a = (mask & -mask).bit_length() - 1
        mask &= mask - 1
        checks += 1
        if supports[a] & dom_y:
            new |= 1 << a
    return new, checks


def sequential_reference(params: ACPParams) -> List[int]:
    """AC fixpoint by round-based sweeps (same schedule as the parallel
    program, so domains match exactly)."""
    net = build_network(params)
    domains = list(net.initial_domains)
    changed = True
    while changed:
        changed = False
        snapshot = list(domains)
        for x in range(net.n_vars):
            for y, supports in net.arcs_of(x):
                new, _ = revise(domains[x], snapshot[y], supports)
                if new != domains[x]:
                    domains[x] = new
                    changed = True
    return domains
