"""Unit tests for cluster topology."""

import pytest

from repro.network import (
    ClusterSpec,
    Topology,
    das_experimentation,
    das_real,
    uniform_clusters,
)


def test_das_real_shape():
    topo = das_real()
    assert topo.n_clusters == 4
    assert topo.n_nodes == 64 + 24 + 24 + 24  # 136 compute nodes
    assert topo.clusters[0].name == "VU-Amsterdam"
    assert topo.clusters[0].n_nodes == 64


def test_uniform_clusters_numbering():
    topo = uniform_clusters(4, 15)
    assert topo.n_nodes == 60
    assert list(topo.nodes_in(0)) == list(range(0, 15))
    assert list(topo.nodes_in(3)) == list(range(45, 60))


def test_cluster_of_boundaries():
    topo = uniform_clusters(3, 8)
    assert topo.cluster_of(0) == 0
    assert topo.cluster_of(7) == 0
    assert topo.cluster_of(8) == 1
    assert topo.cluster_of(23) == 2


def test_cluster_of_out_of_range():
    topo = uniform_clusters(2, 4)
    with pytest.raises(ValueError):
        topo.cluster_of(8)
    with pytest.raises(ValueError):
        topo.cluster_of(-1)


def test_same_cluster():
    topo = uniform_clusters(2, 16)
    assert topo.same_cluster(0, 15)
    assert not topo.same_cluster(15, 16)


def test_peers_excludes_self():
    topo = uniform_clusters(2, 3)
    assert topo.peers(2) == [0, 1, 3, 4, 5]


def test_cluster_pairs_directed():
    topo = uniform_clusters(3, 2)
    pairs = topo.cluster_pairs()
    assert len(pairs) == 6
    assert (0, 1) in pairs and (1, 0) in pairs
    assert (0, 0) not in pairs


def test_das_experimentation_limits():
    topo = das_experimentation(4, 15)
    assert topo.n_nodes == 60
    with pytest.raises(ValueError):
        das_experimentation(4, 16)  # only 64 nodes: 4*15 + 4 gateways
    with pytest.raises(ValueError):
        das_experimentation(5, 8)


def test_nonuniform_topology():
    topo = Topology([ClusterSpec("big", 10), ClusterSpec("small", 2)])
    assert topo.n_nodes == 12
    assert topo.cluster_of(9) == 0
    assert topo.cluster_of(10) == 1


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        ClusterSpec("empty", 0)
    with pytest.raises(ValueError):
        Topology([])
    with pytest.raises(ValueError):
        uniform_clusters(0, 4)


def test_describe_mentions_every_cluster():
    topo = das_real()
    text = topo.describe()
    for c in topo.clusters:
        assert c.name in text
