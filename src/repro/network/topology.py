"""Cluster topology: clusters of compute nodes plus dedicated gateways.

Mirrors the DAS (Fig. 17): four sites — VU Amsterdam (64), UvA Amsterdam (24),
Leiden (24), Delft (24) — each with one dedicated gateway, joined pairwise by
ATM PVCs.  The *experimentation system* splits the 64-node VU cluster into
four sub-clusters of up to 15 compute nodes + 1 gateway each, which is the
configuration all the paper's multi-cluster numbers use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "ClusterSpec",
    "Topology",
    "das_real",
    "das_experimentation",
    "uniform_clusters",
]


@dataclass(frozen=True)
class ClusterSpec:
    """One site: ``n_nodes`` compute nodes and a dedicated gateway.

    The heterogeneity fields default to the paper's uniform model:
    ``cpu_speed`` scales this cluster's application compute (2.0 =
    twice as fast; protocol overheads are NIC/firmware costs and stay
    fixed), and ``link`` names a LAN link class from
    :data:`repro.network.params.LINK_CLASSES` (``None`` = the network
    parameter set's default LAN).  See docs/SCENARIOS.md.
    """

    name: str
    n_nodes: int
    cpu_speed: float = 1.0
    link: Optional[str] = None

    def __post_init__(self):
        if self.n_nodes < 1:
            raise ValueError(f"cluster {self.name!r} needs >= 1 node")
        if self.cpu_speed <= 0:
            raise ValueError(f"cluster {self.name!r} needs cpu_speed > 0")


@dataclass
class Topology:
    """Global node numbering over a list of clusters.

    Compute nodes are numbered 0..P-1 in cluster order.  Gateways are not
    compute nodes (the paper dedicates them); they are addressed separately
    by cluster index.
    """

    clusters: List[ClusterSpec]
    _starts: List[int] = field(init=False)
    #: node id -> cluster index, behind the validated ``cluster_of``.
    _cluster_of: List[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.clusters:
            raise ValueError("topology needs at least one cluster")
        self._starts = []
        self._cluster_of = []
        acc = 0
        for ci, c in enumerate(self.clusters):
            self._starts.append(acc)
            self._cluster_of.extend([ci] * c.n_nodes)
            acc += c.n_nodes
        self._total = acc

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    @property
    def n_nodes(self) -> int:
        return self._total

    def cluster_of(self, node: int) -> int:
        """Cluster index owning global node id ``node``."""
        if node >= 0:
            try:
                return self._cluster_of[node]
            except IndexError:
                pass
        raise ValueError(f"node id {node} out of range 0..{self._total - 1}")

    def nodes_in(self, cluster: int) -> range:
        start = self._starts[cluster]
        return range(start, start + self.clusters[cluster].n_nodes)

    def same_cluster(self, a: int, b: int) -> bool:
        return self.cluster_of(a) == self.cluster_of(b)

    def peers(self, node: int) -> List[int]:
        """All compute nodes except ``node``."""
        return [n for n in range(self._total) if n != node]

    def cluster_pairs(self) -> List[Tuple[int, int]]:
        """All ordered pairs of distinct clusters (directed WAN PVCs)."""
        n = self.n_clusters
        return [(a, b) for a in range(n) for b in range(n) if a != b]

    def describe(self) -> str:
        rows = [f"{c.name}: nodes {list(self.nodes_in(i))[0]}.."
                f"{list(self.nodes_in(i))[-1]} ({c.n_nodes}) + gateway"
                for i, c in enumerate(self.clusters)]
        return "\n".join(rows)


def das_real() -> Topology:
    """The real DAS: 64 + 24 + 24 + 24 compute nodes (Fig. 17)."""
    return Topology([
        ClusterSpec("VU-Amsterdam", 64),
        ClusterSpec("UvA-Amsterdam", 24),
        ClusterSpec("Leiden", 24),
        ClusterSpec("Delft", 24),
    ])


def das_experimentation(n_clusters: int, nodes_per_cluster: int) -> Topology:
    """The split-64 experimentation system used for all paper measurements.

    With four sub-clusters each holds at most 15 compute nodes + 1 gateway.
    """
    if not 1 <= n_clusters <= 4:
        raise ValueError("DAS experimentation system has 1..4 sub-clusters")
    if n_clusters == 4 and nodes_per_cluster > 15:
        raise ValueError("4-cluster runs have at most 15 compute nodes each "
                         "(64 = 4*15 + 4 gateways)")
    return uniform_clusters(n_clusters, nodes_per_cluster, prefix="sub")


def uniform_clusters(n_clusters: int, nodes_per_cluster: int,
                     prefix: str = "cluster") -> Topology:
    """``n_clusters`` identical clusters of ``nodes_per_cluster`` nodes."""
    if n_clusters < 1 or nodes_per_cluster < 1:
        raise ValueError("need >= 1 cluster and >= 1 node per cluster")
    return Topology([ClusterSpec(f"{prefix}{i}", nodes_per_cluster)
                     for i in range(n_clusters)])
