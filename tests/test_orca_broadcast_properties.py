"""Property-based tests for the totally-ordered broadcast layer.

Hypothesis drives random mixes of senders, clusters, sequencer protocols
and payload sizes; the invariants — single global order, exactly-once
delivery, per-sender program order, replica convergence — must hold for
every schedule the engine produces.
"""

from hypothesis import given, settings, strategies as st

from repro.network import DAS_PARAMS, Fabric, uniform_clusters
from repro.network.message import Message
from repro.orca import ObjectSpec, Operation, OrcaRuntime
from repro.orca.broadcast import (BCAST_PORT, BcastPayload,
                                  TotalOrderBroadcast)
from repro.orca.sequencer import CentralizedSequencer
from repro.sim import Event, Simulator, Tracer


def build(n_clusters, nodes_per_cluster, sequencer):
    sim = Simulator()
    # Each node's apply order is read off its ``bcast.apply`` records.
    fabric = Fabric(sim, uniform_clusters(n_clusters, nodes_per_cluster),
                    DAS_PARAMS, tracer=Tracer(
                        enabled=True, kinds=frozenset({"bcast.apply"})))
    rts = OrcaRuntime(sim, fabric, sequencer=sequencer)

    def append(state, item):
        state.append(item)

    rts.register(ObjectSpec(
        "log", list,
        {"append": Operation(fn=append, writes=True,
                             arg_bytes=lambda item: 16 + 64 * (item[1] % 3))},
        replicated=True))
    return sim, rts


def applied(rts, node):
    """The sequence numbers ``node`` applied, in apply order."""
    return [r.detail["seq"] for r in rts.fabric.tracer.records
            if r.detail["node"] == node]


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(["centralized", "distributed", "migrating"]),
    st.integers(1, 4),
    st.integers(1, 4),
    st.lists(st.tuples(st.integers(0, 15), st.integers(0, 4)),
             min_size=1, max_size=30),
)
def test_total_order_invariants(sequencer, n_clusters, per, sends):
    """sends: (sender pseudo-id, mix) pairs; senders map onto real nodes."""
    sim, rts = build(n_clusters, per, sequencer)
    n_nodes = n_clusters * per
    by_sender = {}
    for pseudo, mix in sends:
        node = pseudo % n_nodes
        by_sender.setdefault(node, []).append(mix)

    def writer(node, items):
        ctx = rts.context(node)
        for i, mix in enumerate(items):
            if mix % 2 == 0:
                yield from ctx.invoke("log", "append", (node, i))
            else:
                ctx.invoke_async("log", "append", (node, i))
        yield sim.timeout(0)

    for node, items in by_sender.items():
        sim.spawn(writer(node, items))
    sim.run()

    total = sum(len(v) for v in by_sender.values())
    reference = rts.state_of("log", 0)
    # Exactly-once, all delivered.
    assert len(reference) == total
    # Identical order on every replica.
    for nid in range(n_nodes):
        assert rts.state_of("log", nid) == reference
        assert applied(rts, nid) == list(range(total))
    # Per-sender program order.
    for node, items in by_sender.items():
        seq = [i for (snd, i) in reference if snd == node]
        assert seq == list(range(len(items)))


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(["centralized", "distributed", "migrating"]),
       st.integers(2, 4))
def test_holdback_never_leaves_gaps(sequencer, n_clusters):
    """Even with mixed PB/BB dissemination (small and large payloads racing
    over different paths), delivery has no gaps or reorders."""
    sim, rts = build(n_clusters, 2, sequencer)

    def big_writer(node):
        ctx = rts.context(node)
        for i in range(3):
            # > BB threshold: disseminated from the sender.
            yield from ctx.invoke("log", "append", (node, i * 3))

    def small_writer(node):
        ctx = rts.context(node)
        for i in range(5):
            yield from ctx.invoke("log", "append", (node, i))

    rts.specs["log"].operations["append"].arg_bytes = \
        lambda item: 16 * 1024 if item[1] % 3 == 0 else 8
    sim.spawn(big_writer(0))
    sim.spawn(small_writer(rts.topo.n_nodes - 1))
    sim.run()
    for nid in range(rts.topo.n_nodes):
        assert applied(rts, nid) == list(range(8))


# --------------------------------------------------------------------------
# Holdback delivery under adversarial arrival orders.
#
# Drives TotalOrderBroadcast directly: stamped payloads are deposited
# into a node's broadcast port in a hypothesis-chosen permutation at
# hypothesis-chosen (possibly colliding) instants.  Whatever the arrival
# order, the node applies 0..n-1 exactly once, in order, one apply
# charge after another, and the sender's completion fires exactly once,
# at its own apply.

_APPLY_COST = 1e-5


def _drive_holdback(order, delays):
    sim = Simulator()
    fabric = Fabric(sim, uniform_clusters(1, 2), DAS_PARAMS)
    log = []

    def apply(node, payload, k):
        def _charged(_ev):
            log.append((node, payload.seq, sim.now))
            k(payload.seq)
        fabric.nodes[node].cpu.occupy(_APPLY_COST).callbacks.append(_charged)

    tob = TotalOrderBroadcast(sim, fabric, CentralizedSequencer(sim, 1, 0.0),
                              apply)
    # Node 0 is the "sender" of every payload: its completion for seq s
    # must fire once, with the apply result, at the apply of s.
    completions = []
    for seq in order:
        done = Event(sim)
        done.callbacks.append(
            lambda ev, seq=seq: completions.append((seq, ev.value, sim.now)))
        tob._completions[seq] = (0, done)
    port = fabric.nodes[0].port(BCAST_PORT)
    for seq, delay in zip(order, delays):
        payload = BcastPayload(seq=seq, obj_name="o", op_name="w",
                               args=(), sender=0)
        msg = Message(src=1, dst=0, size=64, payload=payload,
                      port=BCAST_PORT, kind="bcast")
        sim.call_at(delay, lambda m=msg: port.put(m))
    sim.run()
    return log, tob._delivery[0], completions


def _assert_holdback_invariants(order, delays):
    log, delivery, completions = _drive_holdback(order, delays)
    n = len(order)
    # Total order restored, exactly once per payload, nothing left held.
    assert [(node, seq) for node, seq, _t in log] == [(0, s) for s in range(n)]
    assert delivery.next_expected == n and not delivery.holdback
    arrival = dict(zip(order, delays))
    prev = 0.0
    for _node, seq, t in log:
        # seq applies one charge after the later of: every arrival up to
        # seq being in, and the previous apply finishing (serial CPU).
        ready = max(max(arrival[s] for s in range(seq + 1)), prev)
        assert abs(t - (ready + _APPLY_COST)) < 1e-12
        prev = t
    # The sender's completion fires once per payload, at its own apply.
    assert sorted(completions) == [(seq, seq, t) for _n, seq, t in log]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7).flatmap(
    lambda n: st.tuples(
        st.permutations(list(range(n))),
        st.lists(st.integers(0, 4).map(lambda d: d * 0.25),
                 min_size=n, max_size=n))))
def test_holdback_delivery_invariants(order_delays):
    order, delays = order_delays
    _assert_holdback_invariants(order, delays)


@settings(max_examples=30, deadline=None)
@given(st.permutations(list(range(5))))
def test_holdback_same_instant_burst(order):
    """All arrivals in one instant: once the gap closes, the held run
    applies back to back."""
    _assert_holdback_invariants(order, [0.0] * len(order))
