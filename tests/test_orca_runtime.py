"""Integration tests for the Orca runtime: RPC, replication, guards, order."""

import hashlib

import pytest

from repro.network import DAS_PARAMS, Fabric, uniform_clusters
from repro.orca import Blocked, ObjectSpec, Operation, OrcaRuntime
from repro.sim import SimulationError, Simulator, Tracer


def make_rts(n_clusters=2, nodes_per_cluster=4, sequencer="distributed",
             params=DAS_PARAMS):
    """A runtime whose tracer keeps only ``bcast.apply`` records: the
    witness :func:`applied` reads each node's apply order from."""
    sim = Simulator()
    tracer = Tracer(kinds=frozenset({"bcast.apply"}))
    fabric = Fabric(sim, uniform_clusters(n_clusters, nodes_per_cluster),
                    params, tracer=tracer)
    rts = OrcaRuntime(sim, fabric, sequencer=sequencer)
    return sim, rts


def applied(rts, node):
    """The sequence numbers ``node`` applied, in apply order."""
    return [r.detail["seq"] for r in rts.fabric.tracer.records
            if r.detail["node"] == node]


def counter_spec(name="counter", replicated=False, owner=0):
    def incr(state, amount):
        state["v"] += amount
        return state["v"]

    def read(state):
        return state["v"]

    return ObjectSpec(
        name, lambda: {"v": 0},
        {"incr": Operation(fn=incr, writes=True, arg_bytes=8, result_bytes=8),
         "read": Operation(fn=read, result_bytes=8)},
        replicated=replicated, owner=owner)


# ------------------------------------------------------------------ RPC


def test_local_invocation_no_messages():
    sim, rts = make_rts()
    rts.register(counter_spec(owner=0))

    def proc():
        ctx = rts.context(0)
        v = yield from ctx.invoke("counter", "incr", 5)
        return v

    assert sim.run_process(proc()) == 5
    assert rts.meter.total("rpc").count == 0


def test_remote_invocation_is_rpc():
    sim, rts = make_rts()
    rts.register(counter_spec(owner=0))

    def proc():
        ctx = rts.context(1)  # same cluster as owner
        v = yield from ctx.invoke("counter", "incr", 3)
        return v

    assert sim.run_process(proc()) == 3
    assert rts.meter.row("rpc", intercluster=False).count == 1
    assert rts.meter.row("rpc", intercluster=True).count == 0


def test_intercluster_rpc_recorded_and_slow():
    sim, rts = make_rts()
    rts.register(counter_spec(owner=0))

    def proc():
        ctx = rts.context(4)  # cluster 1
        t0 = sim.now
        yield from ctx.invoke("counter", "incr", 1)
        return sim.now - t0

    elapsed = sim.run_process(proc())
    assert rts.meter.row("rpc", intercluster=True).count == 1
    assert elapsed > 2e-3  # WAN round trip


def test_rpc_serializes_state_correctly():
    sim, rts = make_rts()
    rts.register(counter_spec(owner=0))

    def worker(nid):
        ctx = rts.context(nid)
        for _ in range(10):
            yield from ctx.invoke("counter", "incr", 1)

    for nid in range(8):
        sim.spawn(worker(nid))
    sim.run()
    assert rts.state_of("counter")["v"] == 80


def test_rpc_null_roundtrip_lan_about_40us():
    sim, rts = make_rts()

    def nullfn(state):
        return None

    rts.register(ObjectSpec(
        "null", dict, {"nop": Operation(fn=nullfn, arg_bytes=0, result_bytes=0)},
        owner=0))

    def proc():
        ctx = rts.context(1)
        t0 = sim.now
        yield from ctx.invoke("null", "nop")
        return sim.now - t0

    rt = sim.run_process(proc())
    assert rt == pytest.approx(40e-6, rel=0.25)


def test_rpc_reply_ports_do_not_accumulate():
    """Each RPC waits on a uniquely named reply port; it is dropped once
    the reply is taken, so a node's port table stays bounded however
    many RPCs it has issued (LAN and WAN callers, racing and alone)."""
    sim, rts = make_rts()
    rts.register(counter_spec(owner=0))
    counts = {1: [], 4: []}

    def caller(nid):
        ctx = rts.context(nid)
        for _ in range(50):
            yield from ctx.invoke("counter", "incr", 1)
            counts[nid].append(len(rts.fabric.nodes[nid]._ports))

    for nid in counts:
        sim.spawn(caller(nid))
    sim.run()
    assert rts.state_of("counter")["v"] == 100
    for nid, seen in counts.items():
        assert max(seen) == seen[0], (nid, seen)
        assert not any(name.startswith("orca.rpcret.")
                       for name in rts.fabric.nodes[nid]._ports)


def test_two_live_runtimes_allocate_independent_request_ids():
    """Request ids live on the runtime: a second stack alive in the same
    process starts every caller at sequence 0, so its trace is the one a
    fresh process would have produced."""
    def stack():
        sim = Simulator()
        tracer = Tracer()
        fabric = Fabric(sim, uniform_clusters(2, 2), DAS_PARAMS,
                        tracer=tracer)
        rts = OrcaRuntime(sim, fabric)
        rts.register(counter_spec(owner=0))
        return sim, rts, tracer

    def rpcs(sim, rts, tracer):
        def proc():
            for _ in range(3):
                yield from rts.context(3).invoke("counter", "incr", 1)

        sim.run_process(proc())
        return [(r.kind, tuple(sorted(r.detail.items())))
                for r in tracer.records]

    a, b = stack(), stack()            # both alive before either runs
    recs_a, recs_b = rpcs(*a), rpcs(*b)
    issued = [dict(d)["req_id"] for kind, d in recs_b if kind == "rpc.issue"]
    assert issued == [3_000_000, 3_000_001, 3_000_002]
    assert recs_b == recs_a


def test_invoke_returns_the_protocol_body_itself():
    """``invoke`` dispatches and returns the protocol's own generator, so
    the caller's ``yield from`` runs it without a forwarding frame; a bad
    name raises at the call."""
    sim, rts = make_rts()
    rts.register(counter_spec("rc", replicated=True))
    rts.register(counter_spec(owner=0))
    cases = [(0, "rc", "read", "_execute_blocking"),
             (0, "rc", "incr", "broadcast"),
             (0, "counter", "incr", "_invoke_local"),
             (5, "counter", "incr", "_invoke_rpc")]
    for node, obj, op, body in cases:
        args = () if op == "read" else (1,)
        gen = rts.invoke(node, obj, op, args)
        assert gen.gi_code.co_name == body, (obj, op)
        sim.run_process(gen)
    sim.run()
    assert rts.state_of("rc", 7)["v"] == 1
    assert rts.state_of("counter")["v"] == 2
    with pytest.raises(KeyError, match="no operation"):
        rts.invoke(0, "rc", "nonsense", ())


# ------------------------------------------------------------ replication


def test_replicated_read_is_local_and_free_of_messages():
    sim, rts = make_rts()
    rts.register(counter_spec("rc", replicated=True))

    def proc():
        ctx = rts.context(5)
        t0 = sim.now
        v = yield from ctx.invoke("rc", "read")
        return v, sim.now - t0

    v, dt = sim.run_process(proc())
    assert v == 0
    assert dt < 1e-4
    assert rts.meter.total("rpc").count == 0
    assert rts.meter.total("bcast").count == 0


def test_replicated_write_updates_all_copies():
    sim, rts = make_rts()
    rts.register(counter_spec("rc", replicated=True))

    def writer():
        ctx = rts.context(3)
        v = yield from ctx.invoke("rc", "incr", 7)
        return v

    assert sim.run_process(writer()) == 7
    sim.run()  # drain remote applications
    for nid in range(rts.topo.n_nodes):
        assert rts.state_of("rc", nid)["v"] == 7
    assert rts.meter.total("bcast").count == 1


def test_total_order_is_global_across_objects():
    sim, rts = make_rts(n_clusters=2, nodes_per_cluster=3)
    rts.register(counter_spec("a", replicated=True))
    rts.register(counter_spec("b", replicated=True))

    def writer(nid, obj, n):
        ctx = rts.context(nid)
        for _ in range(n):
            yield from ctx.invoke(obj, "incr", 1)

    sim.spawn(writer(0, "a", 5))
    sim.spawn(writer(4, "b", 5))
    sim.spawn(writer(2, "a", 5))
    sim.run()
    # Every node applied the exact same global sequence 0..14.
    expect = list(range(15))
    for nid in range(rts.topo.n_nodes):
        assert applied(rts, nid) == expect
    assert rts.state_of("a", 5)["v"] == 10
    assert rts.state_of("b", 5)["v"] == 5


def test_replicated_writes_from_all_nodes_converge():
    sim, rts = make_rts(n_clusters=4, nodes_per_cluster=2)
    rts.register(counter_spec("rc", replicated=True))

    def writer(nid):
        ctx = rts.context(nid)
        yield from ctx.invoke("rc", "incr", nid)

    for nid in range(8):
        sim.spawn(writer(nid))
    sim.run()
    expected = sum(range(8))
    for nid in range(8):
        assert rts.state_of("rc", nid)["v"] == expected


# ----------------------------------------------------------------- guards


def queue_spec(owner=0):
    def enq(state, item):
        state.append(item)

    def deq(state):
        if not state:
            raise Blocked
        return state.pop(0)

    return ObjectSpec(
        "queue", list,
        {"enq": Operation(fn=enq, writes=True),
         "deq": Operation(fn=deq, writes=True)},
        owner=owner)


def test_guard_blocks_local_consumer_until_producer_adds():
    sim, rts = make_rts()
    rts.register(queue_spec(owner=0))

    def consumer():
        ctx = rts.context(0)
        item = yield from ctx.invoke("queue", "deq")
        return (item, sim.now)

    def producer():
        ctx = rts.context(1)
        yield from ctx.sleep(0.01)
        yield from ctx.invoke("queue", "enq", "job")

    p = sim.spawn(consumer())
    sim.spawn(producer())
    sim.run()
    item, t = p.value
    assert item == "job"
    assert t >= 0.01


def test_guard_blocks_remote_consumer_rpc():
    sim, rts = make_rts()
    rts.register(queue_spec(owner=0))

    def consumer(nid):
        ctx = rts.context(nid)
        item = yield from ctx.invoke("queue", "deq")
        return item

    def producer():
        ctx = rts.context(0)
        yield from ctx.sleep(0.005)
        for i in range(3):
            yield from ctx.invoke("queue", "enq", i)

    consumers = [sim.spawn(consumer(nid)) for nid in (1, 2, 5)]
    sim.spawn(producer())
    sim.run()
    got = sorted(c.value for c in consumers)
    assert got == [0, 1, 2]


def test_parked_rpc_does_not_block_other_requests():
    sim, rts = make_rts()
    rts.register(queue_spec(owner=0))
    rts.register(counter_spec(owner=0))

    def blocked_consumer():
        ctx = rts.context(1)
        item = yield from ctx.invoke("queue", "deq")
        return item

    def other():
        ctx = rts.context(2)
        v = yield from ctx.invoke("counter", "incr", 1)
        return (v, sim.now)

    sim.spawn(blocked_consumer())
    p = sim.spawn(other())
    sim.run(until=0.1)
    # The counter RPC completed promptly even though the dequeue is parked.
    assert p.triggered
    v, t = p.value
    assert v == 1 and t < 1e-3


# ------------------------------------------------- queued port deliveries
#
# Same-instant arrivals on one port queue behind the first: the literals
# below (service or apply order, the final clock and every engine
# counter) pin that a queued delivery is dispatched from the same heap
# entries, in the same order, whatever holds the port.


def test_same_instant_rpcs_queue_on_the_owner_port():
    """Three callers each stream a bulk message first, so their RPC
    requests leave their injection ports, and reach owner 0, at one
    instant: the second and third requests queue on ``orca.rpc``."""
    sim, rts = make_rts(n_clusters=1, nodes_per_cluster=7)

    def log(state, who):
        state.append(who)
        return len(state)

    rts.register(ObjectSpec(
        "log", list,
        {"log": Operation(fn=log, writes=True, arg_bytes=8, result_bytes=8)},
        owner=0))

    def caller(nid):
        ctx = rts.context(nid)
        yield from ctx.send(nid + 3, 4096, port="bulk")
        return (yield from ctx.invoke("log", "log", nid))

    procs = [sim.spawn(caller(nid)) for nid in (3, 1, 2)]
    sim.run()
    assert rts.state_of("log") == [3, 1, 2]
    assert [p.value for p in procs] == [1, 2, 3]
    assert sim.now == 0.00019605279034690798
    assert sim.stats() == {"events_processed": 148, "spawns": 3,
                           "fast_completions": 12, "fallbacks": 23}


def test_broadcasts_queue_behind_a_live_apply_chain():
    """Two writers burst asynchronous writes into one cluster: arrivals
    at the stamping node reach its ``orca.bcast`` port while an apply
    chain is live there, and queue until it re-arms."""
    sim, rts = make_rts(n_clusters=1, nodes_per_cluster=3)

    def write(state, item):
        state.append(item)
        return len(state)

    rts.register(ObjectSpec(
        "r", list,
        {"w": Operation(fn=write, writes=True, arg_bytes=64, cpu_cost=2e-5)},
        replicated=True))

    def writer(nid):
        ctx = rts.context(nid)
        for i in range(3):
            ctx.invoke_async("r", "w", (nid, i))
        return (yield from ctx.invoke("r", "w", (nid, 3)))

    procs = [sim.spawn(writer(nid)) for nid in (0, 1)]
    sim.run()
    assert [p.value for p in procs] == [4, 8]
    order = [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (1, 2), (1, 3)]
    assert all(rts.state_of("r", nid) == order for nid in range(3))
    assert [(r.detail["node"], r.detail["seq"])
            for r in rts.fabric.tracer.records] == [
        (1, 0), (2, 0), (1, 1), (2, 1), (1, 2), (2, 2), (1, 3), (2, 3),
        (1, 4), (2, 4), (1, 5), (2, 5), (1, 6), (2, 6), (0, 0), (1, 7),
        (2, 7), (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7)]
    assert sim.now == 0.00040399999999999995
    assert sim.stats() == {"events_processed": 455, "spawns": 8,
                           "fast_completions": 27, "fallbacks": 83}


@pytest.mark.parametrize("traced", [False, True])
def test_rpc_round_trip_is_pinned(traced):
    """The RPC round trip on a 2x3 stack, LAN and WAN: three RPCs issued
    at one instant to one owner, a guard-blocked RPC that parks and is
    retried by a write, a callable cost and callable sizes beside
    constant ones.  Every reply's clock and result, the engine counters,
    the meter, the id tables and (traced) the records are literals
    recorded before the round trip was inlined."""
    sim = Simulator()
    tracer = Tracer() if traced else None
    fabric = Fabric(sim, uniform_clusters(2, 3), DAS_PARAMS, tracer=tracer)
    rts = OrcaRuntime(sim, fabric)
    rts.register(counter_spec(owner=0))

    def enq(state, item):
        state.append(item)

    def deq(state):
        if not state:
            raise Blocked
        return state.pop(0)

    rts.register(ObjectSpec(
        "queue", list,
        {"enq": Operation(fn=enq, writes=True,
                          arg_bytes=lambda item: 8 * len(item),
                          cpu_cost=lambda item: 1e-6 * len(item)),
         "deq": Operation(fn=deq, writes=True,
                          result_bytes=lambda item: 8 * len(item))},
        owner=3))
    replies = []

    def call(nid, at, obj, op, *args):
        ctx = rts.context(nid)
        if at:
            yield from ctx.sleep(at)
        got = yield from ctx.invoke(obj, op, *args)
        replies.append((nid, op, sim.now, got))

    sim.spawn(call(1, 0.0, "counter", "incr", 1))       # LAN
    sim.spawn(call(4, 0.0, "counter", "incr", 10))      # WAN
    for nid in (1, 2, 5):                               # one instant
        sim.spawn(call(nid, 0.01, "counter", "incr", nid))
    sim.spawn(call(0, 0.02, "queue", "deq"))            # parks at owner 3
    sim.spawn(call(4, 0.03, "queue", "enq", "job"))    # the retrying write
    sim.run()
    assert replies == [
        (1, "incr", 4.260331825037707e-05, 1),
        (4, "incr", 0.0027114560706401774, 11),
        (1, "incr", 0.010049603318250375, 12),
        (2, "incr", 0.010054603318250374, 14),
        (5, "incr", 0.012711456070640174, 19),
        (4, "enq", 0.030045904977375568, None),
        (0, "deq", 0.031417089083335833, "job")]
    assert sim.now == 0.031417089083335833
    assert sim.stats() == {"events_processed": 213, "spawns": 7,
                           "fast_completions": 67, "fallbacks": 19}
    meter = rts.meter
    assert {k: (r.count, r.bytes) for k, r in meter.intra.items()} == {
        "rpc": (4, 72)}
    assert {k: (r.count, r.bytes) for k, r in meter.inter.items()} == {
        "rpc": (3, 64)}
    assert (meter.wan_messages, meter.wan_bytes) == (6, 64)
    assert fabric._msg_seq == [6, 2, 1, 2, 2, 1]
    assert rts._req_seq == [1, 2, 1, 0, 2, 1]
    assert not [name for node in fabric.nodes for name in node._ports
                if name.startswith("orca.rpcret.")]
    if not traced:
        assert fabric.tracer is None
        return
    recs = [(r.kind, r.time, tuple(sorted(r.detail.items())))
            for r in tracer.records]
    assert (len(recs), hashlib.sha256(repr(recs).encode()).hexdigest()) == (
        94, "e71c4857175ecbcdc75fb21db28ae3381130d0217263f37d5979e5d57dfb34de")


# ------------------------------------------------------------- sequencers


@pytest.mark.parametrize("kind", ["centralized", "distributed", "migrating"])
def test_all_sequencers_deliver_total_order(kind):
    sim, rts = make_rts(n_clusters=3, nodes_per_cluster=2, sequencer=kind)
    rts.register(counter_spec("rc", replicated=True))

    def writer(nid):
        ctx = rts.context(nid)
        for _ in range(4):
            yield from ctx.invoke("rc", "incr", 1)

    for nid in range(6):
        sim.spawn(writer(nid))
    sim.run()
    expect = list(range(24))
    for nid in range(6):
        assert applied(rts, nid) == expect
        assert rts.state_of("rc", nid)["v"] == 24


def test_migrating_sequencer_cheaper_for_phased_broadcasts():
    """A run of broadcasts from one cluster: migrating beats distributed."""

    def run(kind):
        sim, rts = make_rts(n_clusters=4, nodes_per_cluster=2, sequencer=kind)
        rts.register(counter_spec("rc", replicated=True))

        def writer():
            ctx = rts.context(1)
            for _ in range(20):
                yield from ctx.invoke("rc", "incr", 1)
            return sim.now

        return sim.run_process(writer())

    t_dist = run("distributed")
    t_migr = run("migrating")
    assert t_migr < t_dist / 2


def test_centralized_sequencer_penalizes_remote_clusters():
    def run(writer_node):
        sim, rts = make_rts(n_clusters=2, nodes_per_cluster=4,
                            sequencer="centralized")
        rts.register(counter_spec("rc", replicated=True))

        def writer():
            ctx = rts.context(writer_node)
            for _ in range(10):
                yield from ctx.invoke("rc", "incr", 1)
            return sim.now

        return sim.run_process(writer())

    t_home = run(0)   # on the sequencer's cluster
    t_far = run(4)    # remote cluster: each bcast crosses the WAN twice
    assert t_far > 3 * t_home


def test_unknown_sequencer_kind_rejected():
    with pytest.raises(ValueError, match="unknown sequencer"):
        make_rts(sequencer="nonsense")


# ------------------------------------------------------------------ misc


def test_register_duplicate_rejected():
    _, rts = make_rts()
    rts.register(counter_spec())
    with pytest.raises(ValueError, match="already registered"):
        rts.register(counter_spec())


def test_register_bad_owner_rejected():
    """A refused spec leaves nothing behind: the corrected retry
    registers, and invocations reach the corrected owner."""
    sim, rts = make_rts()
    with pytest.raises(ValueError, match="owner"):
        rts.register(counter_spec(owner=99))
    assert "counter" not in rts.specs
    rts.register(counter_spec(owner=1))

    def proc():
        return (yield from rts.context(1).invoke("counter", "incr", 3))

    assert sim.run_process(proc()) == 3
    assert rts.meter.total("rpc").count == 0


def test_bound_ports_refuse_get():
    """The broadcast, RPC and reply ports each have one consumer, bound
    at construction: no process can take a message from them."""
    sim, rts = make_rts()
    rts.register(counter_spec(owner=0))
    node = rts.fabric.nodes[0]
    for name in ("orca.bcast", "orca.rpc"):
        with pytest.raises(SimulationError, match="one consumer"):
            node.port(name).get()

    def receiver():
        yield from rts.context(0).receive(port="orca.rpc")

    with pytest.raises(SimulationError, match="one consumer"):
        sim.run_process(receiver())

    def caller():
        gen = rts.context(5).invoke("counter", "incr", 1)
        yield next(gen)  # the request's send overhead: the reply port is bound
        reply_ports = [n for n in rts.fabric.nodes[5]._ports
                       if n.startswith("orca.rpcret.")]
        assert len(reply_ports) == 1
        with pytest.raises(SimulationError, match="one consumer"):
            rts.fabric.nodes[5].port(reply_ports[0]).get()

    sim.run_process(caller())


def test_context_out_of_range():
    _, rts = make_rts()
    with pytest.raises(ValueError):
        rts.context(100)


def test_raw_messages_between_nodes():
    sim, rts = make_rts()

    def sender():
        ctx = rts.context(0)
        yield from ctx.send(5, 128, payload={"k": 1}, port="data")

    def receiver():
        ctx = rts.context(5)
        msg = yield from ctx.receive(port="data")
        return msg.payload

    sim.spawn(sender())
    p = sim.spawn(receiver())
    sim.run()
    assert p.value == {"k": 1}
    assert rts.meter.row("msg", intercluster=True).count == 1
