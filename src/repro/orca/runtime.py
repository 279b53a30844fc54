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
from typing import Any, Dict, Generator, List, Optional, Tuple

from ..metrics.counters import TrafficMeter
from ..network import Fabric, Message
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
#: and deterministic per site, so a partitioned (PDES) run allocates
#: exactly the ids the single-process oracle does.  They only pair an
#: RPC with its reply port within one run.
REQ_ID_STRIDE = 1_000_000


@dataclass
class _RpcRequest:
    req_id: int
    obj_name: str
    op_name: str
    args: tuple
    caller: int
    result_port: str
    req_size: int


class OrcaRuntime:
    """One RTS instance per simulated machine configuration."""

    def __init__(self, sim: Simulator, fabric: Fabric,
                 sequencer: str = "distributed",
                 dedicated_sequencer_node: bool = False,
                 decision: Optional[Any] = None):
        """Broadcast delivery and RPC service run as flat callback
        chains over the fabric's chain-style entry points (armed ports,
        no per-node server processes).

        ``decision`` is an optional :class:`repro.tuner.DecisionModel`
        consulted per broadcast for the PB/BB protocol, WAN fan-out
        shape, and striping factor; ``None`` keeps the fixed strategy
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
            dedicated_sequencer_node=dedicated_sequencer_node,
            decision=decision)
        self.specs: Dict[str, ObjectSpec] = {}
        # Replicated objects: one replica per node.  Non-replicated: the
        # owner's replica only, at [owner].
        self._replicas: Dict[str, Dict[int, Replica]] = {}
        #: Next RPC request sequence number per caller node.
        self._req_seq: List[int] = [0] * self.topo.n_nodes
        for node in fabric.nodes:
            self._arm_rpc(node.nid)

    # --------------------------------------------------------------- setup

    def register(self, spec: ObjectSpec) -> None:
        """Instantiate a shared object (replicas on every node if replicated)."""
        if spec.name in self.specs:
            raise ValueError(f"object {spec.name!r} already registered")
        self.specs[spec.name] = spec
        if spec.replicated:
            self._replicas[spec.name] = {
                nid: Replica(spec, spec.state_factory())
                for nid in range(self.topo.n_nodes)
            }
        else:
            if not 0 <= spec.owner < self.topo.n_nodes:
                raise ValueError(f"owner {spec.owner} out of range")
            self._replicas[spec.name] = {
                spec.owner: Replica(spec, spec.state_factory())
            }

    def context(self, node: int) -> "Context":
        """The per-node handle application processes program against."""
        if not 0 <= node < self.topo.n_nodes:
            raise ValueError(f"node {node} out of range")
        return Context(self, node)

    def replica(self, obj_name: str, node: int) -> Replica:
        """Direct replica access (tests/diagnostics only)."""
        return self._replicas[obj_name][node]

    def state_of(self, obj_name: str, node: Optional[int] = None) -> Any:
        """Peek at object state (testing/reporting; no simulation cost)."""
        spec = self.specs[obj_name]
        nid = node if node is not None else (0 if spec.replicated else spec.owner)
        return self._replicas[obj_name][nid].state

    # ------------------------------------------------------------ execution

    def _execute_blocking(self, node: int, replica: Replica, op_name: str,
                          args: tuple) -> Generator:
        """Execute locally, waiting on the guard if necessary."""
        op = replica.spec.op(op_name)
        cpu = self.fabric.nodes[node].cpu
        while True:
            try:
                result = replica.execute(op_name, args)
            except Blocked:
                yield cpu.execute_ev(GUARD_EVAL_COST)
                gate = Event(self.sim)
                replica.parked.append(("ev", gate))
                yield gate
                continue
            yield cpu.execute_ev(op.cost(args))
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
            sim.after(0.0, lambda _ev: self._retry_rpcs(owner, retries, 0))

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
    # The armed getter's continuation runs at the dispatch of the put
    # that delivered the request.  Requests are served concurrently: the
    # operation itself executes atomically on arrival, while the CPU
    # charge and the reply proceed as their own chain — a serial server
    # would bound RPC throughput by the CPU-queue wait behind
    # application compute quanta, which a real interrupt-driven RTS
    # does not.

    def _arm_rpc(self, node: int) -> None:
        ev = self.fabric.nodes[node].port(RPC_PORT).get()
        ev.callbacks.append(
            lambda _ev, n=node: self._rpc_arrival(n, _ev._value))

    def _rpc_arrival(self, node: int, msg: Message) -> None:
        self._serve(node, msg.payload)
        self._arm_rpc(node)

    def _serve(self, node: int, req: _RpcRequest,
               then: Optional[Any] = None) -> None:
        """Execute one RPC at its owner and send the reply; ``then()``
        runs after the reply's sender-side overhead (or after the
        guard-fail charge when the operation blocks and parks)."""
        replica = self._replicas[req.obj_name].get(node)
        if replica is None:
            raise RuntimeError(
                f"RPC for {req.obj_name!r} arrived at non-owner node {node}")
        op = replica.spec.op(req.op_name)
        cpu = self.fabric.nodes[node].cpu
        try:
            result = replica.execute(req.op_name, req.args)
        except Blocked:
            def _parked(_ev: Event) -> None:
                replica.parked.append(("rpc", req))
                if then is not None:
                    then()
            cpu.execute_ev(GUARD_EVAL_COST).callbacks.append(_parked)
            return

        def _executed(_ev: Event) -> None:
            if op.writes:
                self._kick(node, replica)
            result_size = op.result_size(result)
            self.fabric.send_chain(
                node, req.caller, result_size, payload=(result, result_size),
                port=req.result_port, kind="rpc",
                then=None if then is None else (lambda _done: then()))

        cpu.execute_ev(op.cost(req.args)).callbacks.append(_executed)

    def _invoke_rpc(self, caller: int, spec: ObjectSpec, op: Operation,
                    op_name: str, args: tuple) -> Generator:
        seq = self._req_seq[caller]
        self._req_seq[caller] = seq + 1
        req_id = caller * REQ_ID_STRIDE + seq
        req = _RpcRequest(
            req_id=req_id, obj_name=spec.name, op_name=op_name, args=args,
            caller=caller, result_port=f"orca.rpcret.{req_id}",
            req_size=op.args_size(args))
        inter = not self.topo.same_cluster(caller, spec.owner)
        tr = self.fabric.tracer
        traced = tr.enabled
        t0 = self.sim.now
        if traced:
            tr.emit(t0, "rpc.issue", req_id=req_id, caller=caller,
                    owner=spec.owner, obj=spec.name, op=op_name,
                    size=req.req_size, inter=inter)
        yield from self.fabric.send(caller, spec.owner, req.req_size,
                                    payload=req, port=RPC_PORT, kind="rpc")
        node = self.fabric.nodes[caller]
        msg = yield node.port(req.result_port).get()
        # The reply port is named after this one request: nothing will
        # ever address it again, so it does not outlive the reply.
        del node._ports[req.result_port]
        result, result_size = msg.payload
        self.meter.record("rpc", req.req_size + result_size,
                          intercluster=inter)
        if traced:
            now = self.sim.now
            tr.emit(now, "rpc.complete", req_id=req_id, caller=caller,
                    owner=spec.owner, obj=spec.name, op=op_name,
                    bytes=req.req_size + result_size, inter=inter,
                    t0=t0, dur=now - t0)
        return result

    # ------------------------------------------------------------ broadcast

    def _apply_bcast(self, node: int, payload: BcastPayload,
                     k: Any) -> None:
        """Apply one ordered write to this node's replica (function
        shipping); ``k(result)`` runs once its CPU charge completes."""
        replica = self._replicas[payload.obj_name][node]
        op = replica.spec.op(payload.op_name)
        result = replica.execute(payload.op_name, payload.args)

        def _executed(_ev: Event) -> None:
            self._kick(node, replica)
            k(result)

        self.fabric.nodes[node].cpu.execute_ev(
            op.cost(payload.args)).callbacks.append(_executed)

    # ----------------------------------------------------------- public ops

    def invoke(self, node: int, obj_name: str, op_name: str,
               args: tuple) -> Generator:
        """Perform an Orca operation from ``node``, choosing the protocol:
        local call, RPC to the owner, or totally-ordered broadcast."""
        spec = self.specs[obj_name]
        op = spec.op(op_name)
        if spec.replicated:
            if op.writes:
                size = op.args_size(args)
                self.meter.record("bcast", size,
                                  intercluster=self.topo.n_clusters > 1)
                issue = self.tob.next_issue(node)
                result = yield from self.tob.broadcast(
                    node, obj_name, op_name, args, size, issue=issue)
                return result
            replica = self._replicas[obj_name][node]
            result = yield from self._execute_blocking(
                node, replica, op_name, args)
            return result
        # Non-replicated.
        if spec.owner == node:
            replica = self._replicas[obj_name][node]
            result = yield from self._execute_blocking(
                node, replica, op_name, args)
            if op.writes:
                self._kick(node, replica)
            return result
        result = yield from self._invoke_rpc(node, spec, op, op_name, args)
        return result


class Context:
    """Per-node handle used by application processes."""

    def __init__(self, rts: OrcaRuntime, node: int):
        self.rts = rts
        self.node = node
        self.sim = rts.sim
        self.topo = rts.topo
        self.cluster = rts.topo.cluster_of(node)

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
        size = op.args_size(args)
        self.rts.meter.record("bcast", size,
                              intercluster=self.topo.n_clusters > 1)
        issue = self.rts.tob.next_issue(self.node)
        return self.sim.spawn(
            self.rts.tob.broadcast(self.node, obj_name, op_name, args, size,
                                   issue=issue),
            name="asyncbcast")

    # -- low-level messages (Orca RTS primitives) ----------------------------
    def send(self, dst: int, size: int, payload: Any = None,
             port: str = "app", kind: str = "msg") -> Generator:
        """Asynchronous send; returns after the sender-side overhead.

        ``kind`` is the traffic-accounting bucket ("msg" for application
        messages; the core library uses "proto" for internal protocol
        messages it accounts for logically, and "rpc" for request/reply
        style messages).
        """
        self.rts.meter.record(
            kind, size, intercluster=not self.topo.same_cluster(self.node, dst))
        yield from self.rts.fabric.send(self.node, dst, size, payload,
                                        port=port, kind=kind)

    def send_wait(self, dst: int, size: int, payload: Any = None,
                  port: str = "app", kind: str = "msg") -> Generator:
        """Synchronous send: blocks until delivered at the receiver."""
        self.rts.meter.record(
            kind, size, intercluster=not self.topo.same_cluster(self.node, dst))
        msg = yield from self.rts.fabric.send_and_wait(
            self.node, dst, size, payload, port=port, kind=kind)
        return msg

    def receive(self, port: str = "app") -> Generator:
        """Block until a message arrives on ``port``; returns the Message."""
        msg = yield self.rts.fabric.nodes[self.node].port(port).get()
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
