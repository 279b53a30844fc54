"""Unit tests for the job-queue organizations."""

import pytest
from hypothesis import given, strategies as st

from repro.core import (
    DONE,
    cluster_first_order,
    fifo_queue_spec,
    partition_static,
    power_of_two_order,
)
from repro.network import DAS_PARAMS, Fabric, uniform_clusters
from repro.orca import OrcaRuntime
from repro.sim import Simulator


def make_rts(n_clusters=2, nodes_per_cluster=4):
    sim = Simulator()
    fabric = Fabric(sim, uniform_clusters(n_clusters, nodes_per_cluster),
                    DAS_PARAMS)
    return sim, OrcaRuntime(sim, fabric)


# ---------------------------------------------------------------- FIFO spec


def test_fifo_queue_put_get_close():
    sim, rts = make_rts()
    rts.register(fifo_queue_spec("q", owner=0, initial=["a", "b"]))

    def consumer(nid, out):
        ctx = rts.context(nid)
        while True:
            job = yield from ctx.invoke("q", "get")
            if job == DONE:
                return
            out.append(job)

    def master():
        ctx = rts.context(0)
        yield from ctx.invoke("q", "put", "c")
        yield from ctx.invoke("q", "close")

    out = []
    sim.spawn(consumer(1, out))
    sim.spawn(master())
    sim.run()
    assert sorted(out) == ["a", "b", "c"]


def test_fifo_queue_consumers_from_all_clusters():
    sim, rts = make_rts(n_clusters=2, nodes_per_cluster=3)
    jobs = list(range(20))
    rts.register(fifo_queue_spec("q", owner=0, initial=jobs))

    def master():
        ctx = rts.context(0)
        yield from ctx.invoke("q", "close")

    results = []

    def worker(nid):
        ctx = rts.context(nid)
        while True:
            job = yield from ctx.invoke("q", "get")
            if job == DONE:
                return
            results.append((nid, job))

    for nid in range(6):
        sim.spawn(worker(nid))
    sim.spawn(master())
    sim.run()
    assert sorted(j for _, j in results) == jobs
    # Remote-cluster fetches crossed the WAN.
    assert rts.meter.row("rpc", intercluster=True).count > 0


def test_fifo_queue_put_after_close_rejected():
    sim, rts = make_rts()
    rts.register(fifo_queue_spec("q", owner=0))

    def proc():
        ctx = rts.context(0)
        yield from ctx.invoke("q", "close")
        yield from ctx.invoke("q", "put", 1)

    with pytest.raises(ValueError, match="after close"):
        sim.run_process(proc())


def test_fifo_queue_done_sentinel_for_every_waiter():
    sim, rts = make_rts()
    rts.register(fifo_queue_spec("q", owner=0))

    def worker(nid):
        ctx = rts.context(nid)
        job = yield from ctx.invoke("q", "get")
        return job

    workers = [sim.spawn(worker(nid)) for nid in range(4)]

    def master():
        ctx = rts.context(0)
        yield from ctx.sleep(0.01)
        yield from ctx.invoke("q", "close")

    sim.spawn(master())
    sim.run()
    assert all(w.value == DONE for w in workers)


# --------------------------------------------------------------- partition


def test_partition_static_covers_all_jobs():
    jobs = list(range(17))
    parts = partition_static(jobs, 4)
    assert sorted(j for p in parts for j in p) == jobs
    sizes = [len(p) for p in parts]
    assert max(sizes) - min(sizes) <= 1


def test_partition_static_single_part():
    assert partition_static([1, 2], 1) == [[1, 2]]


def test_partition_static_invalid():
    with pytest.raises(ValueError):
        partition_static([1], 0)


@given(st.lists(st.integers(), max_size=200), st.integers(1, 16))
def test_partition_static_property(jobs, n):
    parts = partition_static(jobs, n)
    assert len(parts) == n
    flat = sorted(j for p in parts for j in p)
    assert flat == sorted(jobs)
    sizes = [len(p) for p in parts]
    assert max(sizes) - min(sizes) <= 1


# ------------------------------------------------------------- steal order


def test_power_of_two_order_covers_all_peers():
    for p in (2, 3, 8, 15, 60):
        for me in (0, p // 2, p - 1):
            order = power_of_two_order(p, me)
            assert sorted(order) == sorted(set(range(p)) - {me})


def test_power_of_two_order_prefix():
    order = power_of_two_order(16, 0)
    assert order[:4] == [1, 2, 4, 8]


def test_power_of_two_order_out_of_range():
    with pytest.raises(ValueError):
        power_of_two_order(4, 4)


@given(st.integers(2, 64))
def test_power_of_two_order_is_permutation(p):
    for me in (0, p - 1):
        order = power_of_two_order(p, me)
        assert len(order) == p - 1
        assert len(set(order)) == p - 1
        assert me not in order


def test_cluster_first_order_puts_local_victims_first():
    topo = uniform_clusters(4, 4)
    me = 14  # cluster 3
    order = cluster_first_order(topo, me)
    local = [v for v in order if topo.cluster_of(v) == 3]
    assert order[:len(local)] == local
    assert sorted(order) == sorted(set(range(16)) - {me})


def test_cluster_first_order_highest_numbered_node_fixed():
    # The paper's pathology: the highest-numbered process in a cluster
    # starts stealing in remote clusters first under the original order.
    topo = uniform_clusters(4, 15)
    me = 14  # last node of cluster 0
    original = power_of_two_order(60, me)
    assert topo.cluster_of(original[0]) != 0  # original starts remote
    fixed = cluster_first_order(topo, me, original)
    assert topo.cluster_of(fixed[0]) == 0
