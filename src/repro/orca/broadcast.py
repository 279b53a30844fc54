"""Totally-ordered broadcast with write-update function shipping.

Every write to a replicated object becomes one logical broadcast:

1. the sender ships the operation to the *stamping site* (which cluster
   that is depends on the sequencer protocol — see
   :mod:`repro.orca.sequencer`);
2. the stamping site acquires the next global sequence number;
3. the stamped operation is disseminated: a Myrinet multicast inside the
   stamping cluster plus one WAN transfer per remote cluster, whose
   gateway re-multicasts locally;
4. every node applies broadcasts strictly in sequence order (a hold-back
   queue reorders early arrivals), executing the operation against its
   local replica — the function-shipping write-update;
5. the sender's invocation completes when its *own* node has applied the
   operation (the Orca completion rule).

Total order is therefore global across all replicated objects, exactly as
in the single-sequencer Orca runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, Generator, Optional, Tuple

from ..sim import Event, Simulator
from ..network import Fabric
from ..network.fabric import BoundPort
from .sequencer import SequencerProtocol

__all__ = ["TotalOrderBroadcast", "BcastPayload"]

BCAST_PORT = "orca.bcast"

#: Above this payload size the runtime switches from PB (ship the operation
#: to the sequencer, which broadcasts it) to BB (ask the sequencer for a
#: sequence number with a small control message and broadcast the payload
#: from the *sender*), exactly like the Orca/FM implementation.
BB_THRESHOLD = 8 * 1024
SEQ_REQUEST_BYTES = 16


@dataclass
class BcastPayload:
    seq: int
    obj_name: str
    op_name: str
    args: tuple
    sender: int


@dataclass
class _NodeDeliveryState:
    next_expected: int = 0
    holdback: Dict[int, BcastPayload] = field(default_factory=dict)
    applying: Optional[BcastPayload] = None


class TotalOrderBroadcast:
    """The broadcast engine shared by all replicated objects."""

    def __init__(self, sim: Simulator, fabric: Fabric,
                 protocol: SequencerProtocol,
                 apply: Callable[[int, BcastPayload,
                                       Callable[[Any], None]], None],
                 dedicated_sequencer_node: bool = False):
        """``apply(node, payload, k)`` is provided by the runtime:
        it executes the operation on ``node``'s replica, charges its
        CPU, and calls ``k(result)`` once the charge completes.
        Delivery runs as flat callback chains from each node's bound
        ``orca.bcast`` port (see ``_arrival``).

        The decision model is the fabric's (``fabric.decision``, a
        :class:`repro.tuner.DecisionModel` or ``None``): when installed,
        every broadcast asks it for the PB/BB protocol, the WAN fan-out
        shape, and the striping factor instead of using the fixed
        ``size >= BB_THRESHOLD`` rule and the flat tree.  ``None`` keeps
        the fixed strategy — bit-identical to the pre-tuner runtime
        (see docs/TUNING.md)."""
        self.sim = sim
        self.fabric = fabric
        self.topo = fabric.topo
        self.protocol = protocol
        self.apply = apply
        # The decision's strategy per broadcast size, resolved once per
        # run (a per-run constant; see docs/TUNING.md).
        self._strategies: Dict[int, Tuple[bool, str, int]] = {}
        self._delivery = [_NodeDeliveryState() for _ in range(self.topo.n_nodes)]
        # seq -> (sender node, completion event)
        self._completions: Dict[int, Tuple[int, Event]] = {}
        # Per-sender issue tickets: broadcasts from one node acquire their
        # global sequence numbers in the order the node *issued* them, so
        # asynchronous writes keep program order even when a later
        # synchronous write races ahead of the spawned issue process.
        self._issue_next: Dict[int, int] = {}
        self._issue_turn: Dict[int, int] = {}
        self._issue_waiters: Dict[int, Dict[int, Event]] = {}
        # Stamping node per cluster: by default the first node of the
        # cluster also runs the sequencer; the paper mentions using a
        # dedicated node as cluster sequencer as a further optimization.
        self._dedicated = dedicated_sequencer_node
        # Each node's bcast port and apply continuation, built once.
        self._ports = [BoundPort(node, BCAST_PORT,
                                 partial(self._arrival, node.nid))
                       for node in fabric.nodes]
        self._applied = [partial(self._applied_one, nid)
                         for nid in range(self.topo.n_nodes)]

    # ----------------------------------------------------------------- API

    def stamping_node(self, cluster: int) -> int:
        nodes = self.topo.nodes_in(cluster)
        # "Dedicated" sequencer: the last node of the cluster, which the
        # harness then excludes from application work.
        return nodes[-1] if self._dedicated else nodes[0]

    def next_issue(self, sender: int) -> int:
        """Allocate the sender-local issue ticket for a broadcast.

        Must be called synchronously at the point the application issues
        the write (``invoke``/``invoke_async``), then passed to
        :meth:`broadcast`."""
        ticket = self._issue_next.get(sender, 0)
        self._issue_next[sender] = ticket + 1
        return ticket

    def _await_issue_turn(self, sender: int, issue: int) -> Generator:
        while self._issue_turn.get(sender, 0) != issue:
            gate = Event(self.sim)
            self._issue_waiters.setdefault(sender, {})[issue] = gate
            yield gate

    def _advance_issue_turn(self, sender: int) -> None:
        turn = self._issue_turn.get(sender, 0) + 1
        self._issue_turn[sender] = turn
        waiter = self._issue_waiters.get(sender, {}).pop(turn, None)
        if waiter is not None:
            waiter.succeed(None)

    def broadcast(self, sender: int, obj_name: str, op_name: str,
                  args: tuple, size: int, issue: int) -> Generator:
        """Sender-side flow; returns the op result from the sender's
        replica.  ``issue`` is the sender's ticket from
        :meth:`next_issue`."""
        sender_cluster = self.fabric.node_cluster[sender]
        stamp_cluster = self.protocol.stamping_cluster(sender_cluster)
        stamp_node = self.stamping_node(stamp_cluster)
        decision = self.fabric.decision
        if decision is None:
            bb_mode = size >= BB_THRESHOLD
            shape, streams = "flat", 1
        else:
            strat = self._strategies.get(size)
            if strat is None:
                s = decision.strategy(size, self.topo.n_clusters)
                strat = self._strategies[size] = (s.bb, s.shape, s.streams)
            bb_mode, shape, streams = strat
        tr = self.fabric.tracer
        traced = tr is not None
        t_issue = self.sim.now
        if traced:
            tr.emit(t_issue, "bcast.issue", sender=sender, obj=obj_name,
                    op=op_name, size=size, issue=issue)

        # 1. Ship the operation — or, for large payloads (BB mode), just a
        #    sequence-number request — to the stamping site.
        if stamp_node != sender:
            req_size = SEQ_REQUEST_BYTES if bb_mode else size
            t0 = self.sim.now
            yield from self.fabric.send_and_wait(
                sender, stamp_node, req_size, port="orca.seqreq")
            if traced:
                now = self.sim.now
                tr.emit(now, "seq.request", sender=sender,
                        stamp_node=stamp_node, size=req_size, bb=bb_mode,
                        inter=stamp_cluster != sender_cluster,
                        t0=t0, dur=now - t0)

        # 2. Order.  Same-sender broadcasts take their tickets in issue
        #    order.  The sequencer hands the stamp back directly when
        #    ordering is local and the instant is quiet, else an event
        #    that fires with it once the token arrives (the protocol
        #    models the token/migration delays and linearizes
        #    same-instant races through the ring's waiter order).
        yield from self._await_issue_turn(sender, issue)
        got = self.protocol.acquire(stamp_cluster)
        seq = got if type(got) is int else (yield got)
        self._advance_issue_turn(sender)

        payload = BcastPayload(seq=seq, obj_name=obj_name, op_name=op_name,
                               args=args, sender=sender)
        done = Event(self.sim)
        self._completions[seq] = (sender, done)

        if bb_mode and stamp_node != sender:
            # The sequence number travels back; the sender disseminates.
            t0 = self.sim.now
            yield from self.fabric.send_and_wait(
                stamp_node, sender, SEQ_REQUEST_BYTES, port="orca.seqgrant")
            if traced:
                now = self.sim.now
                tr.emit(now, "seq.grant", sender=sender,
                        stamp_node=stamp_node,
                        inter=stamp_cluster != sender_cluster,
                        t0=t0, dur=now - t0)
        origin = sender if bb_mode else stamp_node

        # 3. Disseminate from the origin node, in the background.
        self._disseminate(origin, payload, size, shape, streams)

        # 4./5. Wait until our own node applied it.
        result = yield done
        if traced:
            now = self.sim.now
            tr.emit(now, "bcast.complete", sender=sender, seq=seq,
                    obj=obj_name, op=op_name, size=size,
                    t0=t_issue, dur=now - t_issue)
        return result

    # ------------------------------------------------------------ internals
    #
    # Delivery and dissemination as callback chains, flow by flow:
    #
    # * arrival — the bound port's handler runs in the call slot its
    #   put posted (or its re-arm posted, when a message was already
    #   queued), where the holdback map mutates;
    # * apply — ``apply`` attaches the node's prebuilt continuation to
    #   the CPU charge event, so the ``bcast.apply`` emit,
    #   ``next_expected`` advance, completion succeed and the next held
    #   payload's apply all run at that dispatch;
    # * re-arm — only once the next payload is not held back;
    # * dissemination — the chain charges the sender CPU costs
    #   back-to-back (the WAN fan-out charge is requested only once the
    #   local-multicast charge completes, preserving FIFO order against
    #   concurrent requesters) and launches the fabric legs.  Nothing
    #   waits on a dissemination as a whole.

    def _disseminate(self, origin: int, payload: BcastPayload,
                     size: int, shape: str = "flat",
                     streams: int = 1) -> None:
        # Local multicast within the origin cluster; then one trip up
        # the access link and WAN transfers on the PVCs (tree shape and
        # striping from the installed strategy); every remote gateway
        # re-multicasts into its cluster.
        fab = self.fabric
        if self.topo.n_clusters > 1:
            fab.multicast_local_chain(
                origin, size, payload=payload, port=BCAST_PORT, kind="bcast",
                then=lambda _done: fab.wan_fanout_multicast_chain(
                    origin, size, payload=payload, port=BCAST_PORT,
                    kind="bcast", shape=shape, streams=streams))
        else:
            fab.multicast_local_chain(origin, size, payload=payload,
                                      port=BCAST_PORT, kind="bcast")

    def _arrival(self, node: int, msg: Any) -> None:
        """Per-node delivery: apply if next in order, else hold back.

        Exactly one of {armed or posted port, apply chain} is live per
        node, so while the port is armed ``next_expected`` is never held
        back: an in-order arrival applies at once, anything else waits."""
        st = self._delivery[node]
        payload: BcastPayload = msg.payload
        if payload.seq != st.next_expected:
            st.holdback[payload.seq] = payload
            self._ports[node].arm()  # stalled on a gap
            return
        st.applying = payload
        self.apply(node, payload, self._applied[node])

    def _applied_one(self, node: int, result: Any) -> None:
        """``st.applying`` is applied: complete its sender, then apply
        the next held payload or re-arm the port, where arrivals queued
        during the chain are seen."""
        st = self._delivery[node]
        payload = st.applying
        seq = payload.seq
        tr = self.fabric.tracer
        if tr is not None:
            tr.emit(self.sim.now, "bcast.apply", node=node,
                    seq=seq, sender=payload.sender)
        st.next_expected = seq + 1
        completion = self._completions.get(seq)
        if completion is not None and completion[0] == node:
            del self._completions[seq]
            completion[1].succeed(result)
        held = st.holdback.pop(seq + 1, None)
        if held is None:
            self._ports[node].arm()
        else:
            st.applying = held
            self.apply(node, held, self._applied[node])
