"""The multilevel network fabric: nodes, gateways, LAN and WAN paths.

The fabric is the paper's DAS machine model:

* Every compute node has one CPU (a FIFO resource shared between
  application compute and per-message protocol overheads) and per-node
  LAN injection/delivery ports (so endpoint contention is modeled, while
  disjoint pairs communicate in parallel — a crossbar-like Myrinet).
* Every cluster has one *dedicated* gateway (it runs no application code,
  matching the paper).  Intercluster messages travel
  node -> access link -> gateway -> WAN PVC -> remote gateway -> access
  link -> node, with store-and-forward CPU cost at each gateway.
* WAN PVCs are per directed cluster pair (the DAS has a Permanent Virtual
  Circuit between every pair of sites), each a bandwidth-serialized link.
* The LAN supports hardware-assisted multicast (Myrinet FM broadcast):
  one injection, parallel delivery to all cluster nodes.

Send semantics: :meth:`Fabric.send` is a generator to be driven by the
*calling* process — the caller pays the sender-side CPU overhead
synchronously, then the rest of the path proceeds in the background.  It
returns the delivery event, so callers can also wait for arrival.

Every message path is implemented once, as a flat callback chain on
engine completion events: :meth:`Resource.occupy
<repro.sim.Resource.occupy>` for one occupancy (a node or gateway CPU
is a capacity-1 :class:`~repro.sim.Resource` like any link), and
``Simulator.leg`` for a leg — wire latency, ports, access links,
gateway forwards, PVC copies, receive overhead — run as one engine
call.  An uncontended step
costs a single heap entry, no generator and no
:class:`~repro.sim.Process`.  A WAN transfer is two legs: Python runs
between them only where the model does work, at the end of the
source-gateway forward (the impairment draw, the traffic count), and
the trace records ride as call steps that exist only while tracing.
Impairments, striping and the fan-out shapes are behaviours *of that one
path* — the WAN leg draws its
:class:`~repro.scenario.apply.WanImpairments` plan, stripes its PVC
stage and chains its relays itself — so no traffic ever detours onto a
second implementation.  What a chain defers at a busy instant, and why,
is the determinism contract in ``docs/ARCHITECTURE.md`` (*The message
path and its determinism contract*); ``tests/golden/manifest.json``
pins its results.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from ..metrics.counters import TrafficMeter
from ..sim import (Channel, Event, Resource, SimulationError, Simulator,
                   Tracer, fire)
from .message import MSG_ID_STRIDE, Message
from .params import LINK_CLASSES, LinkParams, NetworkParams
from .topology import Topology

__all__ = ["BoundPort", "Node", "Fabric"]


_Leg = Callable[[int, int, Callable[[Event], None]], None]
_Mcast = Callable[[int], None]


def _relay_chain(leg: _Leg, mcast: _Mcast, order: List[int], i: int) -> None:
    """Gateway relay over ``order``: each cluster forwards to the next
    while its own multicast proceeds; the store-and-forward costs inside
    the leg are the relay cost.  A leg's arrival starts the multicast and
    then the next leg, in the dispatch that completes the leg."""
    if i + 1 < len(order):
        to = order[i + 1]

        def relayed(_ev: Event) -> None:
            mcast(to)
            _relay_chain(leg, mcast, order, i + 1)

        leg(order[i], to, relayed)


def _relay_binomial(leg: _Leg, mcast: _Mcast, order: List[int], lo: int,
                    hi: int) -> None:
    """Recursive halving: ``order[lo]`` holds the payload and covers
    ``order[lo+1:hi]``, farthest half first; each new holder
    re-broadcasts into its own half — ceil(log2(n_clusters)) rounds of
    parallel hops.  A leg's arrival starts, in the dispatch that
    completes it, the new holder's multicast, the new holder's branch
    and the old holder's next leg, in that order."""
    if hi - lo > 1:
        mid = (lo + hi + 1) // 2

        def relayed(_ev: Event) -> None:
            mcast(order[mid])
            _relay_binomial(leg, mcast, order, mid, hi)
            _relay_binomial(leg, mcast, order, lo, mid)

        leg(order[lo], order[mid], relayed)


class _LinkBusy:
    """The ``on_release`` hook of one traced occupancy (see
    :meth:`Fabric._link_busy`): a call emits its ``link.busy`` record.
    Trace spans hold their state in slots, not closure cells, so a
    traced transfer allocates a few objects rather than dozens."""

    __slots__ = ("tr", "sim", "res", "cls", "size", "msg_id")

    def __init__(self, tr: Tracer, sim: Simulator, res: Resource, cls: str,
                 size: int, msg_id: int):
        self.tr, self.sim, self.res = tr, sim, res
        self.cls, self.size, self.msg_id = cls, size, msg_id

    def __call__(self, t_req: float, t0: float, _qdepth: int) -> None:
        now = self.sim.now
        self.tr.emit(now, "link.busy", link=self.res.name, cls=self.cls,
                     size=self.size, wait=t0 - t_req, msg_id=self.msg_id,
                     t0=t0, dur=now - t0)


class _WanXfer(_LinkBusy):
    """The traced delivered copy of one PVC transfer: as its occupancy
    hook it emits ``link.busy`` and keeps its request instant; ``emit``
    writes the transfer's ``wan.xfer`` record at its arrival."""

    __slots__ = ("src_cluster", "dst_cluster", "tx", "t_req")

    def __init__(self, tr: Tracer, sim: Simulator, res: Resource, size: int,
                 msg_id: int, src_cluster: int, dst_cluster: int,
                 tx: float):
        _LinkBusy.__init__(self, tr, sim, res, "wan", size, msg_id)
        self.src_cluster, self.dst_cluster, self.tx = (
            src_cluster, dst_cluster, tx)

    def __call__(self, t_req: float, t0: float, qdepth: int) -> None:
        self.t_req = t_req
        _LinkBusy.__call__(self, t_req, t0, qdepth)

    def emit(self, _ev: Optional[Event] = None) -> None:
        now = self.sim.now
        t0 = self.t_req
        self.tr.emit(now, "wan.xfer", src_cluster=self.src_cluster,
                     dst_cluster=self.dst_cluster, size=self.size,
                     tx=self.tx, msg_id=self.msg_id, t0=t0, dur=now - t0)


class _GwForward:
    """One traced gateway forward: ``sample`` is its occupancy hook,
    keeping the request instant and the depth of the queue the forward
    joined (counting itself); ``emit`` writes its ``gw.forward``
    record."""

    __slots__ = ("tr", "sim", "cluster", "size", "msg_id", "t0", "qdepth")

    def __init__(self, tr: Tracer, sim: Simulator, cluster: int, size: int,
                 msg_id: int):
        self.tr, self.sim = tr, sim
        self.cluster, self.size, self.msg_id = cluster, size, msg_id

    def sample(self, t_req: float, _t_grant: float, qdepth: int) -> None:
        self.t0, self.qdepth = t_req, qdepth

    def emit(self, _ev: Optional[Event] = None) -> None:
        now = self.sim.now
        t0 = self.t0
        self.tr.emit(now, "gw.forward", cluster=self.cluster, size=self.size,
                     qdepth=self.qdepth, msg_id=self.msg_id, t0=t0,
                     dur=now - t0)


class _ClusterTable(dict):
    """Node id -> cluster index, built once per :class:`Fabric`.  A read
    of an id outside the topology raises what
    :meth:`Topology.cluster_of <repro.network.topology.Topology.cluster_of>`
    raises (a dict: ``-1`` never wraps to the last node)."""

    def __missing__(self, nid: int) -> int:
        raise ValueError(f"node id {nid} out of range 0..{len(self) - 1}")


class BoundPort:
    """Port ``name`` of ``node``, bound to its one consumer in place of
    a :class:`~repro.sim.Channel`; deleting ``node._ports[name]``
    unbinds it.

    A put while armed disarms the port and posts ``handler(msg)`` as a
    call slot now, the one heap entry a waiting getter would post.  Puts
    while disarmed queue; :meth:`arm` posts the head, or re-arms."""

    def __init__(self, node: "Node", name: str,
                 handler: Callable[[Any], None]):
        if name in node._ports:
            raise SimulationError(f"port {name!r} on {node} exists")
        node._ports[name] = self
        self.sim = node.sim
        self._armed = True
        self._queue: deque = deque()
        self._handler = handler
        self._deliver_slot = self._deliver  # one bound method, reused

    def put(self, msg: Any) -> None:
        if self._armed:
            self._armed = False
            self._call_slot(msg)
        else:
            self._queue.append(msg)

    def arm(self) -> None:
        if self._queue:
            self._call_slot(self._queue.popleft())
        else:
            self._armed = True

    def get(self) -> Event:
        raise SimulationError("a bound port has one consumer; nothing gets")

    def _call_slot(self, msg: Any) -> None:
        self._msg = msg  # at most one post is outstanding
        self.sim.call_at(self.sim.now, self._deliver_slot)

    def _deliver(self) -> None:
        self._handler(self._msg)


class Node:
    """A compute node: CPU + named mailboxes (ports)."""

    def __init__(self, sim: Simulator, nid: int, cluster: int):
        self.sim = sim
        self.nid = nid
        self.cluster = cluster
        self.cpu = Resource(sim, 1, name=f"cpu{nid}")
        self._ports: Dict[str, Channel | BoundPort] = {}

    def port(self, name: str = "default") -> Channel | BoundPort:
        """The named port: bound, or a mailbox (created on first use)."""
        ch = self._ports.get(name)
        if ch is None:
            ch = self._ports[name] = Channel(self.sim, name=f"n{self.nid}:{name}")
        return ch

    def __repr__(self) -> str:
        return f"Node({self.nid}@c{self.cluster})"


class Fabric:
    """Routes messages over the multilevel cluster."""

    def __init__(self, sim: Simulator, topo: Topology, params: NetworkParams,
                 tracer: Optional[Tracer] = None):
        self.sim = sim
        self.topo = topo
        self.params = params
        self.meter = TrafficMeter()
        self.tracer = tracer
        #: Next message sequence number per source node (see
        #: :data:`~repro.network.message.MSG_ID_STRIDE`): ids are
        #: run-scoped, so two fabrics never share allocation state.  Read
        #: inline where messages are built, after the endpoint check.
        self._msg_seq: List[int] = [0] * topo.n_nodes
        #: Optional :class:`repro.scenario.apply.WanImpairments`.  When
        #: installed, every PVC stage draws one perturbation plan from
        #: it — after the source-gateway forward, in transfer order per
        #: directed pair — so a run is bit-identical *per seed* (see
        #: docs/SCENARIOS.md).
        self.impair = None
        #: Optional :class:`repro.tuner.DecisionModel`.  When installed,
        #: point-to-point WAN transfers consult it for a striping factor
        #: (MPWide-style parallel streams).  ``None`` (the default)
        #: means one stream — bit-identical to the pre-tuner fabric.
        #: See docs/TUNING.md.
        self.decision = None
        #: Transfer size -> striping factor, filled from the decision
        #: installed before the first send (``decision.wan_streams`` once
        #: per size): per-run state, so not on the pickled frozen model.
        self._stripes: Dict[int, int] = {}

        #: Node id -> cluster index: every endpoint check and locality
        #: test on the message path is one read of this table.
        self.node_cluster: Dict[int, int] = _ClusterTable(
            (nid, topo.cluster_of(nid)) for nid in range(topo.n_nodes))
        self.nodes: List[Node] = [
            Node(sim, nid, c) for nid, c in self.node_cluster.items()
        ]
        #: Per-node compute speed multipliers, or ``None`` when every
        #: node runs at 1.0 (the clean model — keeping ``None`` makes
        #: the scaling arithmetic a guaranteed no-op).  Seeded from the
        #: topology's per-cluster ``cpu_speed``; the ``slow_node`` fault
        #: rescales entries inside its window.  Consumed by
        #: :meth:`repro.orca.runtime.Context.compute`.
        speeds = [topo.clusters[node.cluster].cpu_speed for node in self.nodes]
        self.node_speed: Optional[List[float]] = (
            speeds if any(s != 1.0 for s in speeds) else None)
        #: Per-cluster LAN parameters: a cluster spec naming a ``link``
        #: class uses it, everyone else shares ``params.lan`` (the very
        #: same object, so homogeneous runs are bit-identical to the
        #: pre-heterogeneity fabric).
        for spec in topo.clusters:
            if spec.link is not None and spec.link not in LINK_CLASSES:
                raise ValueError(
                    f"cluster {spec.name!r} names unknown link class "
                    f"{spec.link!r}; choose from {sorted(LINK_CLASSES)}")
        self._cluster_lan = [
            params.lan if spec.link is None else LINK_CLASSES[spec.link]
            for spec in topo.clusters
        ]
        # Per-node LAN ports: injection (out) and delivery (in).
        self._lan_out = [Resource(sim, name=f"lanout{n}") for n in range(topo.n_nodes)]
        self._lan_in = [Resource(sim, name=f"lanin{n}") for n in range(topo.n_nodes)]
        # Per-cluster gateway access links (shared by the whole cluster —
        # the DAS gateways hang off Fast Ethernet, a genuine bottleneck).
        self._gw_access = [Resource(sim, name=f"gwaccess{c}")
                           for c in range(topo.n_clusters)]
        #: Per-cluster dedicated store-and-forward gateway CPUs.
        self.gateways = [Resource(sim, 1, name=f"gw{c}")
                         for c in range(topo.n_clusters)]
        # Directed WAN PVCs between cluster pairs.
        self._wan: Dict[Tuple[int, int], Resource] = {
            pair: Resource(sim, name=f"wan{pair}")
            for pair in topo.cluster_pairs()
        }


    # ------------------------------------------------------------------ API

    def node(self, nid: int) -> Node:
        """The compute node with global id ``nid``."""
        return self.nodes[nid]

    def send(self, src: int, dst: int, size: int, payload: Any = None,
             port: str = "default", kind: str = "msg") -> Generator:
        """Generator: caller pays sender overhead, delivery runs in background.

        Yields from the calling process; *returns* the delivery
        :class:`Event` (fires with the :class:`Message` once deposited in
        the destination port).
        """
        msg, route, cost = self._new_message(src, dst, size, payload, port,
                                             kind)
        # Sender-side CPU overhead, paid synchronously by the caller.
        yield self.nodes[src].cpu.occupy(cost)
        return route(msg)

    def send_and_wait(self, src: int, dst: int, size: int, payload: Any = None,
                      port: str = "default", kind: str = "msg") -> Generator:
        """Generator: like :meth:`send` but blocks until delivery."""
        done = yield from self.send(src, dst, size, payload, port, kind)
        msg = yield done
        return msg

    def multicast_local(self, src: int, size: int, payload: Any = None,
                        port: str = "default", kind: str = "msg"
                        ) -> Generator:
        """Myrinet-style LAN multicast from ``src`` to its whole cluster
        (the sender's own node included).

        Caller pays sender overhead; returns an event firing when *all*
        receivers have the message.
        """
        cluster = self.node_cluster[src]
        yield self.nodes[src].cpu.occupy(
            self._multicast_cost(cluster, size))
        return self._multicast(src, cluster, size, payload, port, kind)

    def wan_fanout_multicast(self, src: int, size: int, payload: Any = None,
                             port: str = "default", kind: str = "msg",
                             shape: str = "flat",
                             streams: int = 1) -> Generator:
        """Broadcast to *all remote clusters*: one access-link trip to the
        local gateway, then WAN transfers on the PVCs, each remote gateway
        re-multicasting locally.  This is how the DAS gateways fan out an
        Orca broadcast; the payload climbs the sender's access link only
        once.

        ``shape`` picks the dissemination tree over the remote clusters
        (``flat``: parallel PVC transfers from the source gateway —
        the paper's shape and the default; ``chain``: a gateway relay,
        each cluster forwarding to the next while its local multicast
        proceeds; ``binomial``: recursive halving over the gateways).
        ``streams`` stripes each WAN transfer over that many parallel
        chunks.  The defaults are bit-identical to the pre-tuner
        fabric."""
        src_cluster = self.node_cluster[src]
        remote = [c for c in range(self.topo.n_clusters) if c != src_cluster]
        if not remote:
            done = Event(self.sim)
            done.succeed(0)
            return done
        yield self.nodes[src].cpu.occupy(self._access_send_cost(size))
        return self._wan_fanout(src, src_cluster, remote, size, payload,
                                port, kind, shape, streams)

    # ----------------------------------------------- chain-style entry points
    #
    # Non-generator counterparts of multicast_local and
    # wan_fanout_multicast for callers that are themselves callback
    # chains (the Orca broadcast).  They charge the sender-side CPU
    # exactly like the generator APIs, then launch the same route;
    # ``then`` runs where a process driving the generator would resume.
    # A point-to-point chain (an RPC reply) builds its message with
    # :meth:`_new_message` and charges the sender itself.

    def _overhead_then(self, src: int, cost: float,
                     launch: Callable[[], Event],
                     then: Optional[Callable[[Event], None]]) -> None:
        def _launch(_ev: Event) -> None:
            done = launch()
            if then is not None:
                then(done)

        self.nodes[src].cpu.occupy(cost).callbacks.append(_launch)

    def multicast_local_chain(self, src: int, size: int, payload: Any = None,
                              port: str = "default", kind: str = "msg",
                              then: Optional[Callable[[Event], None]] = None
                              ) -> None:
        """:meth:`multicast_local` as a callback chain: charge the sender
        CPU, then launch the delivery legs; ``then(done)`` receives the
        all-delivered event."""
        cluster = self.node_cluster[src]
        self._overhead_then(
            src, self._multicast_cost(cluster, size),
            lambda: self._multicast(src, cluster, size, payload, port, kind),
            then)

    def wan_fanout_multicast_chain(self, src: int, size: int,
                                   payload: Any = None,
                                   port: str = "default", kind: str = "msg",
                                   shape: str = "flat", streams: int = 1,
                                   then: Optional[Callable[[Event], None]]
                                   = None) -> None:
        """:meth:`wan_fanout_multicast` as a callback chain (see
        :meth:`multicast_local_chain`).  With no remote clusters
        ``then(None)`` runs synchronously — no event is created, so a
        quiet instant stays quiet."""
        src_cluster = self.node_cluster[src]
        remote = [c for c in range(self.topo.n_clusters) if c != src_cluster]
        if not remote:
            if then is not None:
                then(None)
            return
        self._overhead_then(
            src, self._access_send_cost(size),
            lambda: self._wan_fanout(src, src_cluster, remote, size, payload,
                                     port, kind, shape, streams), then)

    # -------------------------------------------------- shared launch helpers

    def _new_message(self, src: int, dst: int, size: int, payload: Any,
                     port: str, kind: str
                     ) -> Tuple[Message, Callable[..., Event], float]:
        """Check both endpoints, then build a point-to-point message,
        emit its ``msg.send`` record and pick its route; returns ``(msg,
        route, sender CPU cost)``.  ``route(msg)`` launches the delivery
        legs and returns the delivery event.  A send naming
        an unknown node raises before it takes an id."""
        clusters = self.node_cluster
        src_cluster, dst_cluster = clusters[src], clusters[dst]
        seq = self._msg_seq[src]
        self._msg_seq[src] = seq + 1
        now = self.sim.now
        msg = Message(src, dst, size, payload, port, kind,
                      src * MSG_ID_STRIDE + seq, now)
        if src == dst:
            scope, route = "self", self._route_self
        elif src_cluster == dst_cluster:
            scope, route = "lan", self._route_lan
        else:
            scope, route = "wan", self._route_wan
        tr = self.tracer
        if tr is not None:
            tr.emit(now, "msg.send", msg_id=msg.msg_id, src=src, dst=dst,
                    size=size, msg_kind=kind, port=port, scope=scope)
        link = self.params.access if scope == "wan" \
            else self._cluster_lan[src_cluster]
        return msg, route, link.o_send + size * link.per_byte_cpu

    def _multicast_cost(self, cluster: int, size: int) -> float:
        lan = self._cluster_lan[cluster]
        return lan.o_send + self.params.bcast_extra + size * lan.per_byte_cpu

    def _access_send_cost(self, size: int) -> float:
        access = self.params.access
        return access.o_send + size * access.per_byte_cpu

    # ------------------------------------------------------ the message legs
    #
    # Each route builds its whole leg chain synchronously and returns
    # (or drives) completion events; the only heap entries are the
    # timeouts that genuinely advance virtual time.  A step starts in
    # the dispatch that completes the step before it, whatever the
    # shape, striping or impairments.  At a *busy* instant (something
    # else is scheduled now) only the occupancies (a leg's step after
    # one included; a call step never defers), the LAN join and the WAN
    # deposit defer through the heap, so same-instant races linearize
    # the one way the golden manifest pins; at a quiet instant those
    # deferrals are unobservable and elided.

    def _link_busy(self, res: Resource, cls: str, size: int,
                   msg_id: int) -> Callable[[float, float, int], None]:
        """The ``on_release`` hook of a traced occupancy of ``res``: one
        ``link.busy`` record, right after the release and before the
        completion triggers.  ``cls``/``size``/``msg_id`` only label the
        record (see :func:`repro.obs.schema.classify_link` for the class
        names; ``msg_id`` joins the span into the causal chains of
        :mod:`repro.obs.chains`, -1 when the occupancy is shared between
        several deliveries).  Built only while tracing."""
        return _LinkBusy(self.tracer, self.sim, res, cls, size, msg_id)

    def _deposit_complete(self, msg: Message, done: Event,
                          _ev: Optional[Event] = None) -> None:
        """Deposit ``msg`` and fire the delivery event (inline when quiet).
        ``_ev`` lets ``partial(self._deposit_complete, msg, done)`` be a
        leg's completion callback."""
        self._deposit(msg)
        sim = self.sim
        if sim.idle_at_now():
            fire(done, msg)
        else:
            done.succeed(msg)

    def _route_self(self, msg: Message) -> Event:
        # Loopback: negligible wire, small fixed cost — one delay.
        done = Event(self.sim)
        self.sim.leg((1e-6,)).callbacks.append(
            partial(self._deposit_complete, msg, done))
        return done

    def _route_lan(self, msg: Message) -> Event:
        # Cut-through: the injection port and the delivery port are each
        # occupied for one serialization time, but they overlap (the
        # switch forwards as bytes arrive), so an uncontended transfer
        # takes latency + size/bw, while endpoint contention still
        # serializes.  The injection and the receive leg join on a
        # countdown.
        src, dst, size = msg.src, msg.dst, msg.size
        lan = self._cluster_lan[self.node_cluster[src]]
        tx = size / lan.bandwidth
        done = Event(self.sim)
        pending = [2]

        def leg_done(_ev: Event) -> None:
            pending[0] -= 1
            if not pending[0]:
                self._deposit_complete(msg, done)

        lan_out = self._lan_out[src]
        hook = (self._link_busy(lan_out, "lan_out", size, msg.msg_id)
                if self.tracer is not None else None)
        lan_out.occupy(tx, 0, hook).callbacks.append(leg_done)
        lan_in = self._lan_in[dst]
        hook = (self._link_busy(lan_in, "lan_in", size, msg.msg_id)
                if self.tracer is not None else None)
        self.sim.leg((lan.latency, (lan_in, tx, hook),
                      (self.nodes[dst].cpu,
                       lan.o_recv + size * lan.per_byte_cpu, None))
                     ).callbacks.append(leg_done)
        return done

    # ---------------------------------------------------------- the WAN path
    #
    # A WAN transfer is two legs.  Leg A runs the access link up and its
    # latency (point-to-point only: a fan-out shares one access trip),
    # then the source-gateway forward.  Its completion callback draws
    # the impairment plan and counts the transfer (:meth:`_pvc_steps`),
    # then starts leg B: the PVC copies, the WAN latency, the
    # destination-gateway forward and the caller's tail.  The
    # ``wan.xfer`` and ``gw.forward`` records ride as call steps (or on
    # a completion callback, where a record would end a leg), built only
    # while tracing, like the ``link.busy`` hooks.

    def _up_steps(self, size: int, src_cluster: int, msg_id: int) -> tuple:
        """Node -> local gateway as leg steps: the shared access link,
        then its latency.

        Takes ``(size, src_cluster)`` directly — fan-out paths share one
        access-link trip among many deliveries and must not fabricate a
        :class:`Message` (which would burn a ``msg_id``) to ride the leg.
        """
        access = self.params.access
        link = self._gw_access[src_cluster]
        hook = (self._link_busy(link, "access", size, msg_id)
                if self.tracer is not None else None)
        return ((link, size / access.bandwidth, hook), access.latency)

    def _down_steps(self, msg: Message, dst_cluster: int) -> tuple:
        """Remote gateway -> destination node as leg steps: the access
        link, its latency, then the node's receive overhead."""
        access = self.params.access
        dst, size = msg.dst, msg.size
        link = self._gw_access[dst_cluster]
        hook = (self._link_busy(link, "access", size, msg.msg_id)
                if self.tracer is not None else None)
        return ((link, size / access.bandwidth, hook), access.latency,
                (self.nodes[dst].cpu,
                 access.o_recv + size * access.per_byte_cpu, None))

    def _gw_leg(self, head: tuple, cluster: int, size: int, msg_id: int,
                tail: tuple, then: Callable[[Event], None]) -> None:
        """Start one leg: ``head``, the store-and-forward charge on
        ``cluster``'s gateway CPU, then ``tail``; ``then`` is its
        callback.

        The charge is a priority-0 occupancy of the gateway CPU.  While
        tracing, its hook keeps the request instant and the depth of the
        queue the forward joined (counting itself), sampled atomically
        with the request, and the ``gw.forward`` record is emitted where
        the forward's completion is observed: by a call step before
        ``tail``, or first on the completion event when nothing follows.
        """
        gw = self.gateways[cluster]
        gwp = self.params.gateway
        cost = gwp.forward_cost + size * gwp.per_byte_cost
        tr = self.tracer
        if tr is None:
            self.sim.leg(head + ((gw, cost, None),) + tail).callbacks.append(
                then)
            return
        sim = self.sim
        fwd = _GwForward(tr, sim, cluster, size, msg_id)
        steps = head + ((gw, cost, fwd.sample),)
        if tail:
            sim.leg(steps + (fwd.emit,) + tail).callbacks.append(then)
            return
        sim.leg(steps).callbacks.extend((fwd.emit, then))

    def _pvc_steps(self, size: int, src_cluster: int, dst_cluster: int,
                   msg_id: int) -> Tuple[tuple, float, Optional[Callable]]:
        """One transfer of ``size`` bytes over the directed PVC as leg
        steps; returns ``(steps, latency, xfer)``.

        The PVC serializes transmissions; ``latency`` is the pipeline
        delay that follows the steps.  With impairments installed the
        plan is drawn *here* — one draw per transfer, in transfer order
        on this directed pair — and each lost copy is a full (impaired)
        serialization on the PVC plus the retransmit timeout before the
        next; queueing effects emerge from the resource model.  The
        transfer is counted here too (:meth:`TrafficMeter.record_wan`).
        ``xfer`` — None unless tracing — emits the ``wan.xfer`` record
        of the delivered copy at its arrival.
        """
        wan = self.params.wan
        pvc = self._wan[(src_cluster, dst_cluster)]
        tx = size / wan.bandwidth
        latency = wan.latency
        plan = None
        if self.impair is not None:
            plan = self.impair.plan(src_cluster, dst_cluster, size, tx,
                                    latency, msg_id)
            tx, latency = plan.tx, plan.latency
        self.meter.record_wan(size)
        traced = self.tracer is not None
        xfer = None
        delivered = (pvc, tx, None)
        if traced:
            span = _WanXfer(self.tracer, self.sim, pvc, size, msg_id,
                            src_cluster, dst_cluster, tx)
            delivered = (pvc, tx, span)
            xfer = span.emit
        if plan is None or not plan.retries:
            return (delivered,), latency, xfer
        lost = (pvc, tx, self._link_busy(pvc, "wan", size, msg_id)
                if traced else None)
        return (lost, plan.rto) * plan.retries + (delivered,), latency, xfer

    def _wan_leg(self, size: int, src_cluster: int, dst_cluster: int,
                 msg_id: int, head: tuple, tail: tuple,
                 then: Callable[[Event], None], streams: int = 1) -> None:
        """Gateway -> WAN PVC -> remote gateway (shared by all WAN paths):
        leg A is ``head`` and the source-gateway forward, leg B the PVC
        stage, the remote-gateway forward and ``tail``; ``then`` is leg
        B's callback.

        ``msg_id`` labels the trace records with the point-to-point
        message this leg serves; fan-out paths that share one leg among
        many deliveries pass -1.  ``streams`` > 1 stripes the PVC stage
        over that many near-equal chunks, each drawing its own plan, all
        in flight at once (MPWide-style): chunks still serialize on the
        capacity-1 PVC, but their latencies and — under loss impairment
        — retransmit timeouts overlap.  Each chunk is its own leg, joined
        on a countdown; the last arrival starts one leg, the remote
        forward and ``tail``.
        """
        self._gw_leg(head, src_cluster, size, msg_id, (),
                     partial(self._pvc_leg, size, src_cluster, dst_cluster,
                             msg_id, tail, then, streams))

    def _pvc_leg(self, size: int, src_cluster: int, dst_cluster: int,
                 msg_id: int, tail: tuple, then: Callable[[Event], None],
                 streams: int, _ev: Event) -> None:
        """Leg A's completion: start leg B (see :meth:`_wan_leg`), or the
        chunk legs of a striped stage."""
        if streams <= 1 or size <= 1:
            steps, latency, xfer = self._pvc_steps(size, src_cluster,
                                                   dst_cluster, msg_id)
            self._gw_leg(steps + ((latency, xfer) if xfer else (latency,)),
                         dst_cluster, size, msg_id, tail, then)
            return
        sim = self.sim
        k = min(streams, size)
        base, rem = divmod(size, k)
        pending = [k]

        def chunk_arrived(_ev: Event) -> None:
            pending[0] -= 1
            if not pending[0]:
                self._gw_leg((), dst_cluster, size, msg_id, tail, then)

        for i in range(k):
            steps, latency, xfer = self._pvc_steps(
                base + 1 if i < rem else base, src_cluster, dst_cluster,
                msg_id)
            done = sim.leg(steps + (latency,))
            if xfer is not None:
                done.callbacks.append(xfer)
            done.callbacks.append(chunk_arrived)

    def _route_wan(self, msg: Message) -> Event:
        done = Event(self.sim)
        size, msg_id = msg.size, msg.msg_id
        clusters = self.node_cluster
        src_cluster, dst_cluster = clusters[msg.src], clusters[msg.dst]
        # Striping factor: 1 without a decision model (the fixed default).
        decision = self.decision
        streams = 1
        if decision is not None:
            streams = self._stripes.get(size)
            if streams is None:
                streams = self._stripes[size] = max(
                    1, decision.wan_streams(size, self.topo.n_clusters))
        self._wan_leg(size, src_cluster, dst_cluster, msg_id,
                      self._up_steps(size, src_cluster, msg_id),
                      self._down_steps(msg, dst_cluster),
                      partial(self._deposit_complete, msg, done), streams)
        return done

    # ------------------------------------------------------------ multicast

    def _lan_receive(self, src: int, dsts: List[int], lan: LinkParams,
                     size: int, payload: Any, port: str, kind: str,
                     then: Callable[[Event], None]) -> None:
        """One receive leg per node of ``dsts``, in order: the wire
        latency, the node's delivery port for one serialization time,
        then its receive overhead.  Each deposits its own
        :class:`Message` (ids drawn here, in order) and calls ``then``."""
        sim = self.sim
        tx = size / lan.bandwidth
        latency = lan.latency
        cost = lan.o_recv + size * lan.per_byte_cpu
        traced = self.tracer is not None
        now = sim.now
        deposit = self._deposit
        seq = self._msg_seq[src]
        self._msg_seq[src] = seq + len(dsts)
        for msg_id, dst in enumerate(dsts, src * MSG_ID_STRIDE + seq):
            msg = Message(src, dst, size, payload, port, kind, msg_id, now)
            lan_in = self._lan_in[dst]
            hook = (self._link_busy(lan_in, "lan_in", size, msg_id)
                    if traced else None)

            def delivered(ev: Event, msg: Message = msg) -> None:
                deposit(msg)
                then(ev)

            sim.leg((latency, (lan_in, tx, hook),
                     (self.nodes[dst].cpu, cost, None))
                    ).callbacks.append(delivered)

    def _multicast(self, src: int, cluster: int, size: int, payload: Any,
                   port: str, kind: str) -> Event:
        lan = self._cluster_lan[cluster]
        done = Event(self.sim)
        dsts = self.topo.nodes_in(cluster)
        pending = [1 + len(dsts)]
        n = len(dsts)

        def leg_done(_ev: Event) -> None:
            pending[0] -= 1
            if not pending[0]:
                done.succeed(n)

        # Injection overlaps delivery (spanning-tree forwarding in the NIC).
        lan_out = self._lan_out[src]
        hook = (self._link_busy(lan_out, "lan_out", size, -1)
                if self.tracer is not None else None)
        lan_out.occupy(size / lan.bandwidth, 0, hook).callbacks.append(
            leg_done)
        self._lan_receive(src, dsts, lan, size, payload, port, kind,
                          leg_done)
        return done

    def _remote_gw_multicast(self, src: int, dst_cluster: int, size: int,
                             payload: Any, port: str, kind: str,
                             then: Callable[[int], None]) -> None:
        """Re-inject a WAN arrival as a local multicast in ``dst_cluster``."""
        lan = self._cluster_lan[dst_cluster]
        cpu = self.gateways[dst_cluster].occupy(
            lan.o_send + self.params.bcast_extra)

        def after_cpu(_ev: Event) -> None:
            dsts = self.topo.nodes_in(dst_cluster)
            if not dsts:
                then(0)
                return
            pending = [len(dsts)]

            def recv_done(_ev2: Event) -> None:
                pending[0] -= 1
                if not pending[0]:
                    then(len(dsts))

            self._lan_receive(src, dsts, lan, size, payload, port, kind,
                              recv_done)

        cpu.callbacks.append(after_cpu)

    def _wan_fanout(self, src: int, src_cluster: int, remote: List[int],
                    size: int, payload: Any, port: str, kind: str,
                    shape: str, streams: int) -> Event:
        """One access-link trip, then WAN legs over the ``shape`` tree;
        every remote gateway re-multicasts as its leg arrives.  Each step
        starts in the dispatch that completes the one before it, on every
        shape.  The returned event is triggered with the delivery count
        in the dispatch of the last remote delivery."""
        done = Event(self.sim)
        total = [0, len(remote)]

        def mcast_done(n: int) -> None:
            total[0] += n
            total[1] -= 1
            if not total[1]:
                done.succeed(total[0])

        def mcast(to: int) -> None:
            self._remote_gw_multicast(src, to, size, payload, port, kind,
                                      mcast_done)

        def leg(frm: int, to: int, then: Callable[[Event], None]) -> None:
            self._wan_leg(size, frm, to, -1, (), (), then, streams)

        def relay(_ev: Event) -> None:
            order = [src_cluster] + remote
            if shape == "chain":
                _relay_chain(leg, mcast, order, 0)
            elif shape == "binomial":
                _relay_binomial(leg, mcast, order, 0, len(order))
            else:
                for c in remote:
                    leg(src_cluster, c, lambda _ev, c=c: mcast(c))

        self.sim.leg(self._up_steps(size, src_cluster, -1)).callbacks.append(
            relay)
        return done

    # ---------------------------------------------------------------- util

    def _deposit(self, msg: Message) -> None:
        """Hand ``msg`` to its port, bound or channel: one ``put``
        (:meth:`Node.port` only creates a missing mailbox)."""
        msg.recv_time = now = self.sim.now
        tr = self.tracer
        if tr is not None:
            tr.emit(now, "msg.deliver", msg_id=msg.msg_id, src=msg.src,
                    dst=msg.dst, size=msg.size, msg_kind=msg.kind,
                    port=msg.port, latency=now - msg.send_time)
        node = self.nodes[msg.dst]
        ch = node._ports.get(msg.port)
        if ch is None:
            ch = node.port(msg.port)
        ch.put(msg)
