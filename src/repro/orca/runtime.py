"""The Orca-like runtime system (RTS).

Application processes interact with the RTS through a per-node
:class:`Context`:

* ``invoke(obj, op, *args)`` — the Orca shared-object abstraction.  The
  runtime picks the protocol: local call, RPC to the owner, or
  totally-ordered broadcast (write-update) for writes to replicated
  objects.  Operations may block on guards (:class:`repro.orca.Blocked`).
* ``send/receive`` — the lower-level asynchronous message primitives of
  the Orca RTS, which the paper's RA and rewritten-in-C SOR use directly.
* ``compute(seconds)`` — charge application compute to the node's CPU.

All methods are generators to be driven with ``yield from`` inside a
simulation process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, Generator, List, Optional

from ..metrics.counters import TrafficMeter
from ..network import Fabric, Message
from ..network.fabric import BoundPort
from ..sim import Event, Simulator
from .broadcast import BcastPayload, TotalOrderBroadcast
from .objects import Blocked, ObjectSpec, Operation, Replica
from .sequencer import SequencerProtocol, make_sequencer

__all__ = ["OrcaRuntime", "Context"]

RPC_PORT = "orca.rpc"
#: CPU cost of evaluating a guard that fails.
GUARD_EVAL_COST = 1e-6

#: Request ids are per *caller node* (``caller * STRIDE + seq``) from a
#: table the runtime owns, like the fabric's message ids — run-scoped
#: and deterministic per site, so a partitioned run allocates
#: exactly the ids the single-process oracle does.  They only pair an
#: RPC with its reply port within one run.
REQ_ID_STRIDE = 1_000_000


@dataclass(slots=True)
class _RpcRequest:
    obj_name: str
    op: Operation
    args: tuple
    caller: int
    result_port: str


class _ReplySlot:
    """One RPC's ``orca.rpcret.<id>`` port: ``put`` is the reply event's
    ``succeed``; like a bound port, it refuses ``get``."""

    __slots__ = ("put",)

    def __init__(self, reply: Event):
        self.put = reply.succeed

    get = BoundPort.get


def _launch(route: Any, msg: Message, then: Optional[Any],
            _ev: Event) -> None:
    """A reply's sender-side overhead is paid: launch its delivery legs,
    then run the server's ``then()``."""
    route(msg)
    if then is not None:
        then()


class OrcaRuntime:
    """One RTS instance per simulated machine configuration."""

    def __init__(self, sim: Simulator, fabric: Fabric,
                 sequencer: str = "distributed",
                 dedicated_sequencer_node: bool = False):
        """Broadcast delivery and RPC service run as flat callback
        chains over the fabric's chain-style entry points (ports bound
        to their one consumer, no per-node server processes).

        Broadcasts consult the fabric's decision model
        (``fabric.decision``) for the PB/BB protocol, WAN fan-out shape
        and striping factor; ``None`` keeps the fixed strategy
        (bit-identical to the pre-tuner runtime).  See docs/TUNING.md."""
        self.sim = sim
        self.fabric = fabric
        self.topo = fabric.topo
        self.meter: TrafficMeter = fabric.meter
        p = fabric.params
        hop = (p.wan.latency + 2 * p.access.latency
               + 2 * p.gateway.forward_cost)
        self.protocol: SequencerProtocol = make_sequencer(
            sequencer, sim, self.topo.n_clusters, hop,
            tracer=fabric.tracer)
        self.tob = TotalOrderBroadcast(
            sim, fabric, self.protocol, self._apply_bcast,
            dedicated_sequencer_node=dedicated_sequencer_node)
        self.specs: Dict[str, ObjectSpec] = {}
        # Replicated objects: one replica per node.  Non-replicated: the
        # owner's replica only, at [owner].
        self._replicas: Dict[str, Dict[int, Replica]] = {}
        #: Next RPC request sequence number per caller node.
        self._req_seq: List[int] = [0] * self.topo.n_nodes
        self._cpus = [node.cpu for node in fabric.nodes]
        self._rpc_ports = [BoundPort(node, RPC_PORT,
                                     partial(self._rpc_arrival, node.nid))
                           for node in fabric.nodes]
        # Per node: the one replica application in flight, and its charge.
        self._applying: List[Any] = [None] * self.topo.n_nodes
        self._charged = [partial(self._bcast_charged, nid)
                         for nid in range(self.topo.n_nodes)]

    # --------------------------------------------------------------- setup

    def register(self, spec: ObjectSpec) -> None:
        """Instantiate a shared object (replicas on every node if replicated)."""
        if spec.name in self.specs:
            raise ValueError(f"object {spec.name!r} already registered")
        if spec.replicated:
            replicas = {nid: Replica(spec, spec.state_factory())
                        for nid in range(self.topo.n_nodes)}
        elif not 0 <= spec.owner < self.topo.n_nodes:
            raise ValueError(f"owner {spec.owner} out of range")
        else:
            replicas = {spec.owner: Replica(spec, spec.state_factory())}
        self.specs[spec.name] = spec
        self._replicas[spec.name] = replicas

    def context(self, node: int) -> "Context":
        """The per-node handle application processes program against."""
        if not 0 <= node < self.topo.n_nodes:
            raise ValueError(f"node {node} out of range")
        return Context(self, node)

    def state_of(self, obj_name: str, node: Optional[int] = None) -> Any:
        """Peek at object state (testing/reporting; no simulation cost)."""
        spec = self.specs[obj_name]
        nid = node if node is not None else (0 if spec.replicated else spec.owner)
        return self._replicas[obj_name][nid].state

    # ------------------------------------------------------------ execution

    def _execute_blocking(self, node: int, replica: Replica, op: Operation,
                          args: tuple) -> Generator:
        """Execute locally, waiting on the guard if necessary."""
        cpu = self._cpus[node]
        while True:
            try:
                result = op.fn(replica.state, *args)
            except Blocked:
                yield cpu.occupy(GUARD_EVAL_COST)
                gate = Event(self.sim)
                replica.parked.append(("ev", gate))
                yield gate
                continue
            yield cpu.occupy(op.cpu_cost if type(op.cpu_cost) is float
                             else op.cost(args))
            return result

    def _invoke_local(self, node: int, replica: Replica, op: Operation,
                      args: tuple) -> Generator:
        """An operation on a non-replicated object this node owns."""
        result = yield from self._execute_blocking(node, replica, op, args)
        if op.writes:
            self._kick(node, replica)
        return result

    def _kick(self, owner: int, replica: Replica) -> None:
        """A write succeeded: wake guard waiters, retry parked RPCs."""
        if not replica.parked:
            return
        parked, replica.parked = replica.parked, []
        retries = []
        for tag, item in parked:
            if tag == "ev":
                item.succeed(None)
            else:
                retries.append(item)
        if not retries:
            return
        sim = self.sim
        if sim.idle_at_now():
            self._retry_rpcs(owner, retries, 0)
        else:
            # Busy instant (e.g. guard waiters were just woken): the
            # retries start one dispatch out.
            sim.leg((0.0,)).callbacks.append(
                lambda _ev: self._retry_rpcs(owner, retries, 0))

    def _retry_rpcs(self, owner: int, requests: List[_RpcRequest],
                    i: int) -> None:
        """Serve parked requests strictly sequentially: request ``i+1``
        starts after ``i``'s reply send overhead (or guard-fail
        charge)."""
        if i < len(requests):
            self._serve(owner, requests[i],
                        then=lambda: self._retry_rpcs(owner, requests, i + 1))

    # ------------------------------------------------------------------ RPC
    #
    # The bound port's handler runs in the call slot posted by the put
    # that delivered the request (or by the re-arm that found it
    # queued).  Requests are served concurrently: the operation itself
    # executes atomically on arrival, while the CPU charge and the reply
    # proceed as their own chain — a serial server would bound RPC
    # throughput by the CPU-queue wait behind application compute
    # quanta, which a real interrupt-driven RTS does not.

    def _rpc_arrival(self, node: int, msg: Message) -> None:
        self._serve(node, msg.payload)
        self._rpc_ports[node].arm()

    def _serve(self, node: int, req: _RpcRequest,
               then: Optional[Any] = None) -> None:
        """Execute one RPC at its owner and charge it; ``then()`` runs
        after the reply's sender-side overhead (or after the guard-fail
        charge when the operation blocks and parks)."""
        replica = self._replicas[req.obj_name].get(node)
        if replica is None:
            raise RuntimeError(
                f"RPC for {req.obj_name!r} arrived at non-owner node {node}")
        op = req.op
        cpu = self._cpus[node]
        try:
            result = op.fn(replica.state, *req.args)
        except Blocked:
            def _parked(_ev: Event) -> None:
                replica.parked.append(("rpc", req))
                if then is not None:
                    then()
            cpu.occupy(GUARD_EVAL_COST).callbacks.append(_parked)
            return
        cpu.occupy(op.cpu_cost if type(op.cpu_cost) is float
                   else op.cost(req.args)).callbacks.append(
            partial(self._reply, node, replica, req, result, then))

    def _reply(self, node: int, replica: Replica, req: _RpcRequest,
               result: Any, then: Optional[Any], _ev: Event) -> None:
        """The charge is paid: wake the object's waiters on a write, then
        pay the reply's sender-side overhead and launch it."""
        op = req.op
        if op.writes:
            self._kick(node, replica)
        size = op.result_size(result)
        msg, route, cost = self.fabric._new_message(
            node, req.caller, size, (result, size), req.result_port, "rpc")
        self._cpus[node].occupy(cost).callbacks.append(
            partial(_launch, route, msg, then))

    def _invoke_rpc(self, caller: int, spec: ObjectSpec, op: Operation,
                    op_name: str, args: tuple) -> Generator:
        seq = self._req_seq[caller]
        self._req_seq[caller] = seq + 1
        req_id = caller * REQ_ID_STRIDE + seq
        result_port = f"orca.rpcret.{req_id}"
        req_size = op.args_size(args)
        fabric = self.fabric
        clusters = fabric.node_cluster
        inter = clusters[caller] != clusters[spec.owner]
        tr = fabric.tracer
        traced = tr is not None
        t0 = self.sim.now
        if traced:
            tr.emit(t0, "rpc.issue", req_id=req_id, caller=caller,
                    owner=spec.owner, obj=spec.name, op=op_name,
                    size=req_size, inter=inter)
        # The reply slot is named after this one request: nothing will
        # address it again, so it goes with the reply.
        ports = fabric.nodes[caller]._ports
        reply = Event(self.sim)
        ports[result_port] = _ReplySlot(reply)
        msg, route, cost = fabric._new_message(
            caller, spec.owner, req_size,
            _RpcRequest(spec.name, op, args, caller, result_port),
            RPC_PORT, "rpc")
        yield self._cpus[caller].occupy(cost)
        route(msg)
        result, result_size = (yield reply).payload
        del ports[result_port]
        self.meter.record("rpc", req_size + result_size, intercluster=inter)
        if traced:
            now = self.sim.now
            tr.emit(now, "rpc.complete", req_id=req_id, caller=caller,
                    owner=spec.owner, obj=spec.name, op=op_name,
                    bytes=req_size + result_size, inter=inter,
                    t0=t0, dur=now - t0)
        return result

    # ------------------------------------------------------------ broadcast

    def _apply_bcast(self, node: int, payload: BcastPayload,
                     k: Any) -> None:
        """Apply one ordered write to this node's replica (function
        shipping); ``k(result)`` runs once its CPU charge completes."""
        replica = self._replicas[payload.obj_name][node]
        op = replica.spec.op(payload.op_name)
        self._applying[node] = (replica, op.fn(replica.state, *payload.args),
                                k)
        self._cpus[node].occupy(op.cpu_cost if type(op.cpu_cost) is float
                                else op.cost(payload.args)
                                ).callbacks.append(self._charged[node])

    def _bcast_charged(self, node: int, _ev: Event) -> None:
        replica, result, k = self._applying[node]
        if replica.parked:
            self._kick(node, replica)
        k(result)

    def _invoke_bcast(self, node: int, obj_name: str, op: Operation,
                      op_name: str, args: tuple) -> Generator:
        """A write to a replicated object: one totally-ordered broadcast.

        The meter row and the sender's issue ticket are taken at the
        call; returns the broadcast's own generator."""
        size = op.args_size(args)
        self.meter.record("bcast", size,
                          intercluster=self.topo.n_clusters > 1)
        return self.tob.broadcast(node, obj_name, op_name, args, size,
                                  self.tob.next_issue(node))

    # ----------------------------------------------------------- public ops

    def invoke(self, node: int, obj_name: str, op_name: str,
               args: tuple) -> Generator:
        """Perform an Orca operation from ``node``, choosing the protocol:
        local call, RPC to the owner, or totally-ordered broadcast.

        Returns the chosen protocol's own generator (the caller's
        ``yield from`` drives it directly), so an unknown object or
        operation raises here, at the call."""
        spec = self.specs[obj_name]
        op = spec.op(op_name)
        if spec.replicated:
            if op.writes:
                return self._invoke_bcast(node, obj_name, op, op_name, args)
            return self._execute_blocking(
                node, self._replicas[obj_name][node], op, args)
        if spec.owner == node:
            return self._invoke_local(
                node, self._replicas[obj_name][node], op, args)
        return self._invoke_rpc(node, spec, op, op_name, args)


class Context:
    """Per-node handle used by application processes."""

    def __init__(self, rts: OrcaRuntime, node: int):
        self.rts = rts
        self.node = node
        self.sim = rts.sim
        self.topo = rts.topo
        self.cluster = rts.topo.cluster_of(node)
        self._ports = rts.fabric.nodes[node]._ports

    # -- Orca shared objects ------------------------------------------------
    def invoke(self, obj_name: str, op_name: str, *args: Any) -> Generator:
        """The Orca shared-object abstraction (see :meth:`OrcaRuntime.invoke`).

        Returns the runtime's own generator, so a caller's ``yield from``
        drives it without a forwarding frame."""
        return self.rts.invoke(self.node, obj_name, op_name, args)

    def invoke_async(self, obj_name: str, op_name: str, *args: Any):
        """Asynchronous write to a replicated object (the paper's proposed
        ACP optimization): the broadcast is issued but the caller does not
        wait for its own copy to be updated.  Returns the completion event
        for callers that want to flush later.  Total order is preserved —
        only the *blocking* is removed."""
        spec = self.rts.specs[obj_name]
        op = spec.op(op_name)
        if not (spec.replicated and op.writes):
            raise ValueError(
                "invoke_async is only meaningful for writes to replicated "
                f"objects; {obj_name}.{op_name} is not one")
        return self.sim.spawn(
            self.rts._invoke_bcast(self.node, obj_name, op, op_name, args),
            name="asyncbcast")

    # -- low-level messages (Orca RTS primitives) ----------------------------
    def send(self, dst: int, size: int, payload: Any = None,
             port: str = "app", kind: str = "msg") -> Generator:
        """Asynchronous send; returns after the sender-side overhead.

        ``kind`` is the traffic-accounting bucket ("msg" for application
        messages; the core library uses "proto" for internal protocol
        messages it accounts for logically, and "rpc" for request/reply
        style messages).  The meter row is written at the call, which
        returns the fabric's own generator; an unknown ``dst`` raises
        first.
        """
        rts = self.rts
        fabric = rts.fabric
        rts.meter.record(kind, size, fabric.node_cluster[dst] != self.cluster)
        return fabric.send(self.node, dst, size, payload, port, kind)

    def send_wait(self, dst: int, size: int, payload: Any = None,
                  port: str = "app", kind: str = "msg") -> Generator:
        """Synchronous send: blocks until delivered at the receiver (see
        :meth:`send`); the generator returns the delivered Message."""
        rts = self.rts
        fabric = rts.fabric
        rts.meter.record(kind, size, fabric.node_cluster[dst] != self.cluster)
        return fabric.send_and_wait(self.node, dst, size, payload, port, kind)

    def receive(self, port: str = "app") -> Generator:
        """Block until a message arrives on ``port``; returns the Message."""
        ch = self._ports.get(port)
        if ch is None:
            ch = self.rts.fabric.nodes[self.node].port(port)
        msg = yield ch.get()
        return msg

    # -- compute -------------------------------------------------------------
    #: compute is charged in quanta so incoming protocol work (RPC service,
    #: broadcast application) interleaves with it, the way interrupt-driven
    #: message handling preempts user code on a real node.
    COMPUTE_QUANTUM = 1e-3

    def compute(self, seconds: float) -> Generator:
        """Charge application compute to this node's CPU, in quanta.

        One engine occupancy (``Resource.occupy_quanta``) holds the CPU
        at priority 1 a quantum at a time, so urgent protocol work gets
        the CPU at every quantum boundary.  Heterogeneity and faults: each
        quantum reads the node's speed as it starts, so a slow_node
        window changes only the quanta inside it (``node_speed`` is None
        on the clean model)."""
        if not 0 <= seconds < math.inf:
            raise ValueError(
                f"compute time must be finite and non-negative: {seconds}")
        if seconds > 0:
            fabric = self.rts.fabric
            yield fabric.nodes[self.node].cpu.occupy_quanta(
                seconds, self.COMPUTE_QUANTUM, 1, fabric.node_speed,
                self.node)

    def sleep(self, seconds: float) -> Generator:
        """Idle wait (no CPU occupancy)."""
        yield self.sim.timeout(seconds)

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self.sim.now
