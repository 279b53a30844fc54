"""Unit tests for the network fabric: paths, costs, ordering, accounting."""

import pytest

from repro.network import DAS_PARAMS, Fabric, uniform_clusters
from repro.sim import Simulator


def make_fabric(n_clusters=2, nodes_per_cluster=4, params=DAS_PARAMS):
    sim = Simulator()
    topo = uniform_clusters(n_clusters, nodes_per_cluster)
    return sim, Fabric(sim, topo, params)


def roundtrip(fab, a, b, size):
    """Null-RPC-style ping-pong; returns round-trip virtual time."""
    sim = fab.sim

    def server():
        msg = yield fab.nodes[b].port("rpc").get()
        yield from fab.send(b, msg.src, size, port="reply")

    def client():
        t0 = sim.now
        yield from fab.send(a, b, size, port="rpc")
        yield fab.nodes[a].port("reply").get()
        return sim.now - t0

    sim.spawn(server())
    return sim.run_process(client())


def test_lan_null_rpc_latency_about_40us():
    sim, fab = make_fabric()
    rt = roundtrip(fab, 0, 1, 0)
    assert rt == pytest.approx(40e-6, rel=0.15)


def test_wan_null_rpc_latency_about_2_7ms():
    sim, fab = make_fabric()
    rt = roundtrip(fab, 0, 4, 0)  # node 4 is in cluster 1
    assert rt == pytest.approx(2.7e-3, rel=0.1)


def test_wan_latency_dominates_lan_by_two_orders():
    _, fab1 = make_fabric()
    lan = roundtrip(fab1, 0, 1, 0)
    _, fab2 = make_fabric()
    wan = roundtrip(fab2, 0, 4, 0)
    assert wan / lan > 50


def test_lan_bandwidth_large_messages():
    # Stream 10 x 100 KB messages one-way; throughput ~ 208 Mbit/s.
    sim, fab = make_fabric()
    n, size = 10, 100 * 1024

    def sender():
        for _ in range(n):
            yield from fab.send(0, 1, size, port="data")

    def receiver():
        t0 = sim.now
        for _ in range(n):
            yield fab.nodes[1].port("data").get()
        return sim.now - t0

    sim.spawn(sender())
    elapsed = sim.run_process(receiver())
    mbit_s = n * size * 8 / elapsed / 1e6
    assert mbit_s == pytest.approx(208.0, rel=0.2)


def test_wan_bandwidth_large_messages():
    sim, fab = make_fabric()
    n, size = 5, 100 * 1024

    def sender():
        for _ in range(n):
            yield from fab.send(0, 4, size, port="data")

    def receiver():
        for _ in range(n):
            yield fab.nodes[4].port("data").get()
        return sim.now

    sim.spawn(sender())
    elapsed = sim.run_process(receiver())
    mbit_s = n * size * 8 / elapsed / 1e6
    assert mbit_s == pytest.approx(4.53, rel=0.15)


def test_same_pair_messages_arrive_in_order():
    sim, fab = make_fabric()
    seen = []

    def sender():
        for i in range(20):
            yield from fab.send(0, 1, 100 * (i % 3), payload=i, port="seq")

    def receiver():
        for _ in range(20):
            msg = yield fab.nodes[1].port("seq").get()
            seen.append(msg.payload)

    sim.spawn(sender())
    sim.spawn(receiver())
    sim.run()
    assert seen == list(range(20))


def test_self_send_is_fast_and_delivered():
    sim, fab = make_fabric()

    def proc():
        yield from fab.send(2, 2, 64, payload="loop", port="self")
        msg = yield fab.nodes[2].port("self").get()
        return (msg.payload, sim.now)

    payload, t = sim.run_process(proc())
    assert payload == "loop"
    assert t < 1e-4


def test_multicast_local_reaches_whole_cluster():
    sim, fab = make_fabric(n_clusters=2, nodes_per_cluster=4)
    got = []

    def listener(nid):
        msg = yield fab.nodes[nid].port("mc").get()
        got.append((nid, msg.payload))

    for nid in range(4):
        sim.spawn(listener(nid))

    def sender():
        done = yield from fab.multicast_local(0, 1024, payload="bc", port="mc")
        yield done

    sim.run_process(sender())
    assert sorted(got) == [(i, "bc") for i in range(4)]


def test_two_live_fabrics_allocate_independent_identical_ids():
    """Message ids live on the fabric: two stacks alive in one process
    each start every source node at sequence 0, whatever the other one
    has sent — point-to-point, LAN multicast and WAN fan-out alike."""
    from repro.network.message import MSG_ID_STRIDE

    def traffic(sim, fab):
        ids = []

        def proc():
            for dst in (1, 5):
                msg = yield from fab.send_and_wait(2, dst, 64, port="p")
                ids.append(msg.msg_id)
            yield (yield from fab.multicast_local(2, 64, port="m"))
            yield (yield from fab.wan_fanout_multicast(2, 64, port="m"))
            msg = yield from fab.send_and_wait(2, 1, 64, port="p")
            ids.append(msg.msg_id)
            for nid in range(8):
                port = fab.nodes[nid].port("m")
                for _ in range(len(port)):
                    ids.append((yield port.get()).msg_id)

        sim.run_process(proc())
        return ids

    sim_a, fab_a = make_fabric()
    sim_b, fab_b = make_fabric()       # both alive before either sends
    ids_a = traffic(sim_a, fab_a)
    ids_b = traffic(sim_b, fab_b)
    assert ids_b[0] == 2 * MSG_ID_STRIDE + 0
    assert ids_b == ids_a
    # 3 p2p + 4 LAN copies + 4 remote copies, one sequence per source.
    assert sorted(ids_a) == [2 * MSG_ID_STRIDE + i for i in range(11)]


def test_wan_byte_accounting():
    sim, fab = make_fabric()

    def proc():
        yield from fab.send_and_wait(0, 4, 1000, port="d")
        yield from fab.send_and_wait(0, 1, 5000, port="d")  # LAN: not counted

    sim.run_process(proc())
    assert fab.meter.wan_messages == 1
    assert fab.meter.wan_bytes == 1000


def test_wan_link_is_shared_and_serializes():
    # Two concurrent senders from cluster 0 to cluster 1 share one PVC:
    # total time for 2 big messages ~ 2 * size/bw, not size/bw.
    sim, fab = make_fabric(n_clusters=2, nodes_per_cluster=4)
    size = 250 * 1024  # ~0.45 s each on 4.53 Mbit/s

    def sender(src, dst):
        yield from fab.send(src, dst, size, port="d")

    def receiver():
        yield fab.nodes[4].port("d").get()
        yield fab.nodes[5].port("d").get()
        return sim.now

    sim.spawn(sender(0, 4))
    sim.spawn(sender(1, 5))
    elapsed = sim.run_process(receiver())
    one_tx = size / (4.53e6 / 8)
    assert elapsed > 1.9 * one_tx  # serialized, not parallel


def test_negative_size_rejected():
    sim, fab = make_fabric()

    def proc():
        yield from fab.send(0, 1, -5)

    with pytest.raises(ValueError):
        sim.run_process(proc())


# ------------------------------------------------- the per-message path


@pytest.mark.parametrize("src,dst,bad", [(0, -1, -1), (0, 4, 4),
                                         (-1, 0, -1), (4, 0, 4)])
def test_a_rejected_send_uses_no_message_id(src, dst, bad):
    """Both endpoints are checked before an id is allocated or a meter
    row written: a send naming a node outside 0..3 raises the error
    :meth:`Topology.cluster_of` raises and leaves every site's id
    sequence (``-1`` must not wrap to node 3's) and the meter as they
    were, through the fabric and through the Orca context alike."""
    from repro.orca import Context, OrcaRuntime

    sim, fab = make_fabric(n_clusters=2, nodes_per_cluster=2)
    rts = OrcaRuntime(sim, fab)
    empty = fab.meter.snapshot()
    text = f"node id {bad} out of range 0..3"
    with pytest.raises(ValueError, match=text):
        next(fab.send(src, dst, 8))
    with pytest.raises(ValueError, match=text):
        next(fab.send_and_wait(src, dst, 8))
    if src == 0:
        ctx = rts.context(0)
        with pytest.raises(ValueError, match=text):
            next(ctx.send(dst, 8))
        with pytest.raises(ValueError, match=text):
            next(ctx.send_wait(dst, 8))
    else:
        with pytest.raises(ValueError, match=text):
            Context(rts, src)
        with pytest.raises(ValueError, match="out of range"):
            rts.context(src)
    assert fab._msg_seq == [0, 0, 0, 0]
    assert fab.meter.snapshot() == empty
    assert sim.stats()["events_processed"] == 0


def test_message_path_is_pinned_end_to_end():
    """A LAN, a WAN, a loopback and a blocking send, one LAN multicast
    and two sends from different nodes at one busy instant on a 2x3
    Orca stack: the delivery order ``(msg_id, dst, recv_time)``, the
    final clock, every engine counter and the meter are literals taken
    from the implementation before the cluster table and the slotted
    :class:`Message`, so a change to the per-message path that moves a
    heap entry, an id or a count fails here.  A :class:`Message` also
    survives a pickle round trip (the PDES channel rebuilds them)."""
    import pickle

    from repro.orca import OrcaRuntime

    sim, fab = make_fabric(n_clusters=2, nodes_per_cluster=3)
    rts = OrcaRuntime(sim, fab)
    log, got = [], []

    def receiver(nid, port, n):
        ctx = rts.context(nid)
        for _ in range(n):
            msg = yield from ctx.receive(port)
            got.append(msg)
            log.append((msg.msg_id, msg.dst, msg.recv_time))

    def sender():
        ctx = rts.context(0)
        yield from ctx.send(1, 100)                  # LAN
        yield from ctx.send(4, 200, payload=("w",))  # WAN
        yield from ctx.send(0, 50)                   # loopback
        msg = yield from ctx.send_wait(2, 64, kind="proto")
        log.append(("waited", msg.msg_id, sim.now))
        done = yield from fab.multicast_local(0, 32, port="mc")
        log.append(("mcast", (yield done), sim.now))

    def burst(nid):
        ctx = rts.context(nid)
        yield from ctx.sleep(1e-3)
        yield from ctx.send(3, 128, kind="rpc")

    for nid, port, n in ((1, "app", 1), (4, "app", 1), (0, "app", 1),
                         (2, "app", 1), (3, "app", 2), (0, "mc", 1),
                         (1, "mc", 1), (2, "mc", 1)):
        sim.spawn(receiver(nid, port, n))
    sim.spawn(sender())
    sim.spawn(burst(1))
    sim.spawn(burst(5))
    sim.run()
    assert log == [
        (2, 0, 2.1e-05), (0, 1, 2.377073906485671e-05),
        (3, 2, 4.241327300150829e-05), ("waited", 3, 4.241327300150829e-05),
        (4, 0, 8.161990950226244e-05), (5, 1, 8.161990950226244e-05),
        (6, 2, 8.161990950226244e-05), ("mcast", 3, 8.161990950226244e-05),
        (5000000, 3, 0.0010248265460030166), (1, 4, 0.0017372008830022075),
        (1000000, 3, 0.0025906485651214124)]
    assert sim.now == 0.0025906485651214124
    assert sim.stats() == {"events_processed": 121, "spawns": 11,
                           "fast_completions": 28, "fallbacks": 13}
    assert fab.meter.snapshot() == {
        "intra.msg": {"count": 2, "bytes": 150},
        "intra.proto": {"count": 1, "bytes": 64},
        "intra.rpc": {"count": 1, "bytes": 128},
        "inter.msg": {"count": 1, "bytes": 200},
        "inter.rpc": {"count": 1, "bytes": 128},
        "wan": {"count": 2, "bytes": 328}}
    for msg in got:
        assert pickle.loads(pickle.dumps(msg)) == msg
