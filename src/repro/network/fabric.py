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
<repro.sim.Resource.occupy>` / :meth:`CPU.execute_ev
<repro.sim.CPU.execute_ev>` for one occupancy, and ``Simulator.leg``
for a receive or access leg — wire latency, delivery port or access
link, receive overhead — run as one engine call.  An uncontended step
costs a single heap entry, no generator and no
:class:`~repro.sim.Process`; Python runs between occupancies only where
the model does work there, in the WAN PVC stage and the gateway
forwards.  Impairments, striping and the fan-out shapes are behaviours
*of that one path* — the WAN leg draws its
:class:`~repro.scenario.apply.WanImpairments` plan, stripes its PVC
stage and chains its relays itself — so no traffic ever detours onto a
second implementation.  What a chain defers at a busy instant, and why,
is the determinism contract in ``docs/ARCHITECTURE.md`` (*The message
path and its determinism contract*); ``tests/golden/manifest.json``
pins its results.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from ..metrics.counters import TrafficMeter
from ..sim import (CPU, Channel, Event, Resource, SimulationError, Simulator,
                   Tracer, fire)
from .message import MSG_ID_STRIDE, Message
from .params import LINK_CLASSES, LinkParams, NetworkParams
from .topology import Topology

__all__ = ["Node", "Gateway", "Fabric"]


def _NO_THEN() -> None:
    """Placeholder continuation: nothing follows this leg here."""


_Leg = Callable[[int, int, Callable[[], None]], None]
_Mcast = Callable[[int], None]


def _relay_chain(leg: _Leg, mcast: _Mcast, order: List[int], i: int) -> None:
    """Gateway relay over ``order``: each cluster forwards to the next
    while its own multicast proceeds; the store-and-forward costs inside
    the leg are the relay cost.  A leg's arrival starts the multicast and
    then the next leg, in the dispatch that completes the leg."""
    if i + 1 < len(order):
        to = order[i + 1]

        def relayed() -> None:
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

        def relayed() -> None:
            mcast(order[mid])
            _relay_binomial(leg, mcast, order, mid, hi)
            _relay_binomial(leg, mcast, order, lo, mid)

        leg(order[lo], order[mid], relayed)


class Node:
    """A compute node: CPU + named mailboxes (ports)."""

    def __init__(self, sim: Simulator, nid: int, cluster: int):
        self.sim = sim
        self.nid = nid
        self.cluster = cluster
        self.cpu = CPU(sim, name=f"cpu{nid}")
        self._ports: Dict[str, Channel] = {}

    def port(self, name: str = "default") -> Channel:
        """The named mailbox on this node (created on first use)."""
        ch = self._ports.get(name)
        if ch is None:
            ch = self._ports[name] = Channel(self.sim, name=f"n{self.nid}:{name}")
        return ch

    def __repr__(self) -> str:
        return f"Node({self.nid}@c{self.cluster})"


class Gateway:
    """A dedicated store-and-forward gateway for one cluster."""

    def __init__(self, sim: Simulator, cluster: int):
        self.sim = sim
        self.cluster = cluster
        self.cpu = CPU(sim, name=f"gw{cluster}")

    def __repr__(self) -> str:
        return f"Gateway(c{self.cluster})"


class Fabric:
    """Routes messages over the multilevel cluster."""

    def __init__(self, sim: Simulator, topo: Topology, params: NetworkParams,
                 tracer: Optional[Tracer] = None):
        self.sim = sim
        self.topo = topo
        self.params = params
        self.meter = TrafficMeter()
        self.tracer = tracer if tracer is not None else Tracer()
        #: Next message sequence number per source node (see
        #: :data:`~repro.network.message.MSG_ID_STRIDE`): ids are
        #: run-scoped, so two fabrics never share allocation state.
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
        #: Optional :class:`repro.sim.pdes.PartitionBoundary`.  When a
        #: PDES worker installs one, point-to-point WAN deliveries whose
        #: destination cluster lives in *another* partition stop at the
        #: PVC stage: the source half runs here (access up, gateway
        #: forward, PVC occupancy, ``wan.xfer`` emit) and the boundary
        #: exports a timestamped arrival for the owning partition, which
        #: replays the destination half via :meth:`pdes_arrive`.  ``None``
        #: (always, outside PDES workers) keeps every path single-process.
        self.pdes = None

        self.nodes: List[Node] = [
            Node(sim, nid, topo.cluster_of(nid)) for nid in range(topo.n_nodes)
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
        self.gateways: List[Gateway] = [
            Gateway(sim, ci) for ci in range(topo.n_clusters)
        ]
        # Per-node LAN ports: injection (out) and delivery (in).
        self._lan_out = [Resource(sim, name=f"lanout{n}") for n in range(topo.n_nodes)]
        self._lan_in = [Resource(sim, name=f"lanin{n}") for n in range(topo.n_nodes)]
        # Per-cluster gateway access links (shared by the whole cluster —
        # the DAS gateways hang off Fast Ethernet, a genuine bottleneck).
        self._gw_access = [Resource(sim, name=f"gwaccess{c}")
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

    def _p2p_streams(self, size: int) -> int:
        """Striping factor for one point-to-point WAN transfer (1 =
        no decision model installed = the fixed default)."""
        if self.decision is None:
            return 1
        return max(1, self.decision.wan_streams(size, self.topo.n_clusters))

    def send(self, src: int, dst: int, size: int, payload: Any = None,
             port: str = "default", kind: str = "msg", *,
             _wait: bool = False) -> Generator:
        """Generator: caller pays sender overhead, delivery runs in background.

        Yields from the calling process; *returns* the delivery
        :class:`Event` (fires with the :class:`Message` once deposited in
        the destination port).  ``_wait`` marks the send as one the
        caller will block on (:meth:`send_and_wait` sets it) — only the
        PDES boundary consumes it, to arm the delivery acknowledgment.
        """
        msg, route, cost = self._new_message(src, dst, size, payload, port,
                                             kind)
        # Sender-side CPU overhead, paid synchronously by the caller.
        yield self.nodes[src].cpu.execute_ev(cost)
        return route(msg, _wait)

    def send_and_wait(self, src: int, dst: int, size: int, payload: Any = None,
                      port: str = "default", kind: str = "msg") -> Generator:
        """Generator: like :meth:`send` but blocks until delivery."""
        done = yield from self.send(src, dst, size, payload, port, kind,
                                    _wait=True)
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
        cluster = self.topo.cluster_of(src)
        yield self.nodes[src].cpu.execute_ev(
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
        src_cluster = self.topo.cluster_of(src)
        remote = [c for c in range(self.topo.n_clusters) if c != src_cluster]
        if not remote:
            done = Event(self.sim)
            done.succeed(0)
            return done
        yield self.nodes[src].cpu.execute_ev(self._access_send_cost(size))
        return self._wan_fanout(src, src_cluster, remote, size, payload,
                                port, kind, shape, streams)

    # ----------------------------------------------- chain-style entry points
    #
    # Non-generator counterparts of send / multicast_local /
    # wan_fanout_multicast for callers that are themselves callback
    # chains (the Orca runtime).  They charge the sender-side CPU
    # exactly like the generator APIs, then launch the same route;
    # ``then`` runs where a process driving the generator would resume.

    def _overhead_then(self, src: int, cost: float,
                     launch: Callable[[], Event],
                     then: Optional[Callable[[Event], None]]) -> None:
        def _launch(_ev: Event) -> None:
            done = launch()
            if then is not None:
                then(done)

        self.nodes[src].cpu.execute_ev(cost).callbacks.append(_launch)

    def send_chain(self, src: int, dst: int, size: int, payload: Any = None,
                   port: str = "default", kind: str = "msg",
                   then: Optional[Callable[[Event], None]] = None) -> None:
        """:meth:`send` as a callback chain: charge the sender CPU, then
        launch the delivery legs.  ``then(done)`` — if given — receives
        the delivery event once the sender-side overhead is paid, the
        point a driving process resumes at."""
        msg, route, cost = self._new_message(src, dst, size, payload, port,
                                             kind)
        self._overhead_then(src, cost, lambda: route(msg), then)

    def multicast_local_chain(self, src: int, size: int, payload: Any = None,
                              port: str = "default", kind: str = "msg",
                              then: Optional[Callable[[Event], None]] = None
                              ) -> None:
        """:meth:`multicast_local` as a callback chain (see
        :meth:`send_chain`); ``then(done)`` receives the all-delivered
        event."""
        cluster = self.topo.cluster_of(src)
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
        :meth:`send_chain`).  With no remote clusters ``then(None)``
        runs synchronously — no event is created, so a quiet instant
        stays quiet."""
        src_cluster = self.topo.cluster_of(src)
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
        """Build a point-to-point message, emit its ``msg.send`` record
        and pick its route; returns ``(msg, route, sender CPU cost)``.
        ``route(msg, wait=False)`` launches the delivery legs and
        returns the delivery event."""
        msg = Message(src=src, dst=dst, size=size, payload=payload,
                      port=port, kind=kind, msg_id=self._next_msg_id(src),
                      send_time=self.sim.now)
        if src == dst:
            scope, route = "self", self._route_self
        elif self.topo.same_cluster(src, dst):
            scope, route = "lan", self._route_lan
        else:
            scope, route = "wan", self._route_wan
        tr = self.tracer
        if tr.enabled:
            tr.emit(self.sim.now, "msg.send", msg_id=msg.msg_id, src=src,
                    dst=dst, size=size, msg_kind=kind, port=port, scope=scope)
        link = self.params.access if scope == "wan" \
            else self._cluster_lan[self.nodes[src].cluster]
        return msg, route, link.o_send + size * link.per_byte_cpu

    def _next_msg_id(self, src: int) -> int:
        """The next message id for source node ``src``."""
        seq = self._msg_seq[src]
        self._msg_seq[src] = seq + 1
        return src * MSG_ID_STRIDE + seq

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
    # one included), the LAN join and the WAN deposit defer through the
    # heap, so same-instant races linearize the one way the golden
    # manifest pins; at a quiet instant those deferrals are unobservable
    # and elided.

    def _link_busy(self, res: Resource, cls: str, size: int,
                   msg_id: int) -> Callable[[float, float, int], None]:
        """The ``on_release`` hook of a traced occupancy of ``res``: one
        ``link.busy`` record, right after the release and before the
        completion triggers.  ``cls``/``size``/``msg_id`` only label the
        record (see :func:`repro.obs.schema.classify_link` for the class
        names; ``msg_id`` joins the span into the causal chains of
        :mod:`repro.obs.chains`, -1 when the occupancy is shared between
        several deliveries).  Built only while tracing."""
        tr = self.tracer
        sim = self.sim

        def emit(t_req: float, t0: float, _qdepth: int) -> None:
            now = sim.now
            tr.emit(now, "link.busy", link=res.name, cls=cls, size=size,
                    wait=t0 - t_req, msg_id=msg_id, t0=t0, dur=now - t0)

        return emit

    def _occupy_ev(self, res: Resource, seconds: float, cls: str = "",
                   size: int = 0, msg_id: int = -1) -> Event:
        """Hold ``res`` for ``seconds``; completion event, one ``link.busy``.

        :meth:`Resource.occupy <repro.sim.Resource.occupy>` runs the
        whole request/grant/hold/release machine (see there for the
        quiet- and busy-instant dispatch depths); while tracing it
        carries the :meth:`_link_busy` hook.
        """
        if not self.tracer.enabled:
            return res.occupy(seconds)
        return res.occupy(seconds, 0, self._link_busy(res, cls, size, msg_id))

    def _deposit_complete(self, msg: Message, done: Event) -> None:
        """Deposit ``msg`` and fire the delivery event (inline when quiet)."""
        self._deposit(msg)
        sim = self.sim
        if sim.idle_at_now():
            fire(done, msg)
        else:
            done.succeed(msg)

    def _route_self(self, msg: Message, wait: bool = False) -> Event:
        # Loopback: negligible wire, small fixed cost — one timeout.
        done = Event(self.sim)
        self.sim.after(1e-6,
                       lambda _ev: self._deposit_complete(msg, done))
        return done

    def _route_lan(self, msg: Message, wait: bool = False) -> Event:
        # Cut-through: the injection port and the delivery port are each
        # occupied for one serialization time, but they overlap (the
        # switch forwards as bytes arrive), so an uncontended transfer
        # takes latency + size/bw, while endpoint contention still
        # serializes.  The injection and the receive leg join on a
        # countdown.
        src, dst, size = msg.src, msg.dst, msg.size
        lan = self._cluster_lan[self.nodes[src].cluster]
        tx = size / lan.bandwidth
        done = Event(self.sim)
        pending = [2]

        def leg_done(_ev: Event) -> None:
            pending[0] -= 1
            if not pending[0]:
                self._deposit_complete(msg, done)

        self._occupy_ev(self._lan_out[src], tx, "lan_out", size,
                        msg.msg_id).callbacks.append(leg_done)
        lan_in = self._lan_in[dst]
        hook = (self._link_busy(lan_in, "lan_in", size, msg.msg_id)
                if self.tracer.enabled else None)
        self.sim.leg((lan.latency, (lan_in, tx, hook),
                      (self.nodes[dst].cpu,
                       lan.o_recv + size * lan.per_byte_cpu, None))
                     ).callbacks.append(leg_done)
        return done

    def _access_up(self, size: int, src_cluster: int, msg_id: int,
                   then: Callable[[Event], None]) -> None:
        """Node -> local gateway over the shared access link: one leg,
        the access link then its latency; ``then`` is its callback.

        Takes ``(size, src_cluster)`` directly — fan-out paths share one
        access-link trip among many deliveries and must not fabricate a
        :class:`Message` (which would burn a ``msg_id``) to ride the leg.
        """
        access = self.params.access
        link = self._gw_access[src_cluster]
        hook = (self._link_busy(link, "access", size, msg_id)
                if self.tracer.enabled else None)
        self.sim.leg(((link, size / access.bandwidth, hook), access.latency)
                     ).callbacks.append(then)

    def _access_down(self, msg: Message,
                     then: Callable[[Event], None]) -> None:
        """Remote gateway -> destination node: one leg, the access link,
        its latency, then the node's receive overhead; ``then`` is its
        callback."""
        access = self.params.access
        dst, size = msg.dst, msg.size
        link = self._gw_access[self.topo.cluster_of(dst)]
        hook = (self._link_busy(link, "access", size, msg.msg_id)
                if self.tracer.enabled else None)
        self.sim.leg(((link, size / access.bandwidth, hook), access.latency,
                      (self.nodes[dst].cpu,
                       access.o_recv + size * access.per_byte_cpu, None))
                     ).callbacks.append(then)

    def _gw_forward(self, cluster: int, msg_size: int, msg_id: int,
                    then: Callable[[], None]) -> None:
        """Store-and-forward charge on one gateway CPU; one ``gw.forward``.

        One :meth:`Resource.occupy <repro.sim.Resource.occupy>` on the
        gateway CPU: its queue-depth sample is atomic with the request
        — the queue this forward actually joins, counting itself — and
        at a busy instant the request is deferred one dispatch (the
        grant one more), so same-instant forwards sample and schedule
        in arrival order.  ``then()`` runs on the completion event, one
        dispatch after the charge completes at a busy instant.
        """
        gw = self.gateways[cluster].cpu
        gwp = self.params.gateway
        cost = gwp.forward_cost + msg_size * gwp.per_byte_cost
        tr = self.tracer
        if not tr.enabled:
            gw.occupy(cost).callbacks.append(lambda _ev: then())
            return
        sim = self.sim
        t0 = sim.now
        sampled: List[int] = []

        def emit_then(_ev: Event) -> None:
            now = sim.now
            tr.emit(now, "gw.forward", cluster=cluster, size=msg_size,
                    qdepth=sampled[0], msg_id=msg_id, t0=t0, dur=now - t0)
            then()

        gw.occupy(cost, 0, lambda _t_req, _t_grant, qdepth:
                  sampled.append(qdepth)).callbacks.append(emit_then)

    def _pvc_stage(self, size: int, src_cluster: int, dst_cluster: int,
                   msg_id: int, then: Callable[[], None],
                   export: Optional[Callable[[float], None]] = None,
                   plan: Any = None, lost: int = 0) -> None:
        """One transfer of ``size`` bytes over the directed PVC; ``then()``
        runs at its arrival at the remote gateway.

        The PVC serializes transmissions; latency is pipeline delay.
        With impairments installed the stage draws its plan *here* —
        one draw per transfer, in transfer order on this directed pair —
        and pays it itself: each lost transmission is a full (impaired)
        serialization on the PVC plus the retransmit timeout, after
        which the stage re-enters with the same ``plan`` and one fewer
        copy ``lost``; queueing effects emerge from the resource model.
        ``export`` — see :meth:`_wan_leg`.
        """
        wan = self.params.wan
        sim = self.sim
        pvc = self._wan[(src_cluster, dst_cluster)]
        tx = size / wan.bandwidth
        latency = wan.latency
        if self.impair is not None:
            if plan is None:
                plan = self.impair.plan(src_cluster, dst_cluster, size, tx,
                                        latency, msg_id)
                lost = plan.retries
            tx, latency = plan.tx, plan.latency
            if lost:
                def retry(_ev: Event) -> None:
                    self._pvc_stage(size, src_cluster, dst_cluster, msg_id,
                                    then, export, plan, lost - 1)

                self._occupy_ev(pvc, tx, "wan", size, msg_id).callbacks.append(
                    lambda _ev: sim.after(plan.rto, retry))
                return
        t0 = sim.now
        occ = self._occupy_ev(pvc, tx, "wan", size, msg_id)

        def after_occ(_ev: Event) -> None:
            self.meter.record_wan(size)
            if export is not None:
                export(sim.now + latency)

            def after_lat(_ev2: Event) -> None:
                tr = self.tracer
                if tr.enabled:
                    now = sim.now
                    tr.emit(now, "wan.xfer", src_cluster=src_cluster,
                            dst_cluster=dst_cluster, size=size, tx=tx,
                            msg_id=msg_id, t0=t0, dur=now - t0)
                then()

            sim.after(latency, after_lat)

        occ.callbacks.append(after_occ)

    def _striped_stage(self, size: int, k: int, src_cluster: int,
                       dst_cluster: int, msg_id: int,
                       then: Callable[[], None]) -> None:
        """The PVC stage of one transfer striped over ``k`` chunks:
        near-equal chunks, each drawing its own impairment plan, all in
        flight at once, joined on a countdown; ``then()`` runs in the
        dispatch of the last chunk's arrival."""
        base, rem = divmod(size, k)
        pending = [k]

        def chunk_arrived() -> None:
            pending[0] -= 1
            if not pending[0]:
                then()

        for i in range(k):
            self._pvc_stage(base + 1 if i < rem else base, src_cluster,
                            dst_cluster, msg_id, chunk_arrived)

    def _wan_leg(self, msg_size: int, src_cluster: int, dst_cluster: int,
                 msg_id: int, then: Callable[[], None], streams: int = 1,
                 export: Optional[Callable[[float], None]] = None) -> None:
        """Gateway -> WAN PVC -> remote gateway (shared by all WAN paths).

        ``msg_id`` labels the trace records with the point-to-point
        message this leg serves; fan-out paths that share one leg among
        many deliveries pass -1.  ``streams`` > 1 stripes the PVC stage
        over that many parallel chunk transfers (MPWide-style): chunks
        still serialize on the capacity-1 PVC, but their latencies and —
        under loss impairment — retransmit timeouts overlap.  The
        gateway forwards bracket the whole transfer either way.

        ``export`` — set only on a PDES partition boundary — cuts the
        leg at the PVC: it is called at PVC *release* with the known
        (possibly impairment-perturbed) arrival time, the ``wan.xfer``
        record is still emitted here (the PVC is source-owned), and the
        remote gateway forward is left to the destination partition
        (:meth:`pdes_arrive`) instead of running ``then``.  Exporting at
        release rather than arrival is what gives the coordinator a full
        WAN-latency lookahead window.  Striped transfers cannot be cut
        (their chunks arrive independently); PDES eligibility excludes
        them.
        """
        if export is not None:
            arrived = _NO_THEN  # the owning partition forwards and delivers
        else:
            def arrived() -> None:
                self._gw_forward(dst_cluster, msg_size, msg_id, then)

        if streams > 1 and msg_size > 1:
            if export is not None:
                raise SimulationError(
                    "striped WAN transfers cannot cross a PDES partition "
                    "boundary (eligibility should have fallen back)")

            def stage() -> None:
                self._striped_stage(msg_size, min(streams, msg_size),
                                    src_cluster, dst_cluster, msg_id, arrived)
        else:
            def stage() -> None:
                self._pvc_stage(msg_size, src_cluster, dst_cluster, msg_id,
                                arrived, export)

        self._gw_forward(src_cluster, msg_size, msg_id, stage)

    def _route_wan(self, msg: Message, wait: bool = False) -> Event:
        done = Event(self.sim)
        src_cluster = self.topo.cluster_of(msg.src)
        dst_cluster = self.topo.cluster_of(msg.dst)
        streams = self._p2p_streams(msg.size)
        bnd = self.pdes
        if bnd is not None and not bnd.owns(dst_cluster):
            # Partition boundary: run the source half, export the
            # arrival; the owning partition replays the remote half and
            # acks the deposit, which fires ``done`` at the delivery
            # time (only consumed when ``wait`` armed it).
            bnd.register(msg, done, wait)
            tail = _NO_THEN

            def export(arrival: float) -> None:
                bnd.export(msg, arrival)
        else:
            export = None

            def tail() -> None:
                self._wan_tail(msg, done)

        def leg(_ev: Event) -> None:
            self._wan_leg(msg.size, src_cluster, dst_cluster, msg.msg_id,
                          tail, streams, export)

        self._access_up(msg.size, src_cluster, msg.msg_id, leg)
        return done

    def _wan_tail(self, msg: Message, done: Event) -> None:
        """Access down -> deposit -> fire ``done``: the last legs of a
        point-to-point WAN delivery, after the remote gateway forward."""
        self._access_down(msg,
                          lambda _ev: self._deposit_complete(msg, done))

    # --------------------------------------------- PDES partition boundary

    def pdes_arrive(self, msg: Message) -> None:
        """Replay the destination half of a WAN delivery (PDES injection).

        Called by the partition worker at the exported arrival instant —
        the moment the payload clears the WAN PVC toward this
        partition's gateway: gateway forward -> access down -> deposit,
        exactly as the single-process run continues there.  Deposits
        always ack back through the boundary; the source partition fires
        the sender's delivery event at that time (or drops the ack when
        nobody waits).
        """
        sim = self.sim
        done = Event(sim)
        done.callbacks.append(
            lambda _ev: self.pdes.export_ack(msg.msg_id, sim.now))
        self._gw_forward(self.topo.cluster_of(msg.dst), msg.size, msg.msg_id,
                         lambda: self._wan_tail(msg, done))

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
        traced = self.tracer.enabled
        now = sim.now
        deposit = self._deposit
        for dst in dsts:
            msg = Message(src=src, dst=dst, size=size, payload=payload,
                          port=port, kind=kind,
                          msg_id=self._next_msg_id(src), send_time=now)
            lan_in = self._lan_in[dst]
            hook = (self._link_busy(lan_in, "lan_in", size, msg.msg_id)
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
        self._occupy_ev(self._lan_out[src], size / lan.bandwidth, "lan_out",
                        size).callbacks.append(leg_done)
        self._lan_receive(src, dsts, lan, size, payload, port, kind,
                          leg_done)
        return done

    def _remote_gw_multicast(self, src: int, dst_cluster: int, size: int,
                             payload: Any, port: str, kind: str,
                             then: Callable[[int], None]) -> None:
        """Re-inject a WAN arrival as a local multicast in ``dst_cluster``."""
        lan = self._cluster_lan[dst_cluster]
        gw = self.gateways[dst_cluster]
        cpu = gw.cpu.execute_ev(lan.o_send + self.params.bcast_extra)

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

        def leg(frm: int, to: int, then: Callable[[], None]) -> None:
            self._wan_leg(size, frm, to, -1, then, streams)

        def relay(_ev: Event) -> None:
            order = [src_cluster] + remote
            if shape == "chain":
                _relay_chain(leg, mcast, order, 0)
            elif shape == "binomial":
                _relay_binomial(leg, mcast, order, 0, len(order))
            else:
                for c in remote:
                    leg(src_cluster, c, lambda c=c: mcast(c))

        self._access_up(size, src_cluster, -1, relay)
        return done

    # ---------------------------------------------------------------- util

    def _deposit(self, msg: Message) -> None:
        msg.recv_time = self.sim.now
        tr = self.tracer
        if tr.enabled:
            tr.emit(self.sim.now, "msg.deliver", msg_id=msg.msg_id,
                    src=msg.src, dst=msg.dst, size=msg.size,
                    msg_kind=msg.kind, port=msg.port,
                    latency=self.sim.now - msg.send_time)
        self.nodes[msg.dst].port(msg.port).put(msg)
