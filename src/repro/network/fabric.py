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

Two implementations of every message path coexist (see
``docs/ARCHITECTURE.md``, *The two-tier resource model*):

* the default **fast path** drives each leg as a flat callback chain on
  :meth:`Resource.occupy <repro.sim.Resource.occupy>` /
  :meth:`CPU.execute_ev <repro.sim.CPU.execute_ev>` completion events —
  an uncontended leg costs a single heap entry, no generator and no
  :class:`~repro.sim.Process`;
* the **legacy path** (``fast_paths=False``) is the original per-leg
  process tree, kept as the executable reference for the determinism
  contract: both tiers must produce bit-identical answers, virtual
  times, traffic counters and (non-process) trace records.  The golden
  equivalence suite in ``tests/test_fabric_fastpath_golden.py`` enforces
  this for all eight applications.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from ..metrics.counters import TrafficMeter
from ..sim import (CPU, Channel, Event, Resource, SimulationError, Simulator,
                   Tracer, fire)
from .message import Message
from .params import LINK_CLASSES, NetworkParams
from .topology import Topology

__all__ = ["Node", "Gateway", "Fabric"]


def _NO_THEN() -> None:
    """Placeholder continuation for legs cut at a PDES boundary."""


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
                 meter: Optional[TrafficMeter] = None,
                 tracer: Optional[Tracer] = None,
                 fast_paths: bool = True):
        self.sim = sim
        self.topo = topo
        self.params = params
        self.meter = meter if meter is not None else TrafficMeter()
        self.tracer = tracer if tracer is not None else Tracer()
        #: True: callback-chained legs (the default).  False: the
        #: original per-leg process trees — the executable reference
        #: implementation the golden equivalence suite compares against.
        self.fast_paths = fast_paths
        #: Optional :class:`repro.scenario.apply.WanImpairments`.  When
        #: installed, every WAN path routes through the legacy generator
        #: leg (even on the fast tier) so the impairment RNG draws in
        #: deterministic event order — determinism is then *per seed*,
        #: not cross-tier (see docs/SCENARIOS.md).
        self.impair = None
        #: Optional :class:`repro.tuner.DecisionModel`.  When installed,
        #: point-to-point WAN transfers consult it for a striping factor
        #: (MPWide-style parallel streams); striped transfers route
        #: through the legacy generator leg like impaired ones.  ``None``
        #: (the default tier) means one stream — bit-identical to the
        #: pre-tuner fabric.  See docs/TUNING.md.
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
        #: pre-heterogeneity fabric).  Both tiers read this table.
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
        msg = Message(src=src, dst=dst, size=size, payload=payload,
                      port=port, kind=kind, send_time=self.sim.now)
        local = self.topo.same_cluster(src, dst)
        tr = self.tracer
        if tr.enabled:
            scope = "self" if src == dst else ("lan" if local else "wan")
            tr.emit(self.sim.now, "msg.send", msg_id=msg.msg_id, src=src,
                    dst=dst, size=size, msg_kind=kind, port=port, scope=scope)
        link = self._cluster_lan[self.nodes[src].cluster] if local \
            else self.params.access
        cost = link.o_send + size * link.per_byte_cpu
        # Sender-side CPU overhead, paid synchronously by the caller.
        if self.fast_paths:
            yield self.nodes[src].cpu.execute_ev(cost)
            if src == dst:
                return self._fast_self(msg)
            if local:
                return self._fast_lan(msg)
            streams = self._p2p_streams(size)
            if self.impair is not None or streams > 1:
                # Impaired or striped WAN: the legacy leg draws and pays
                # the perturbations (and chunk legs) in deterministic
                # event order.
                return self.sim.spawn(
                    self._deliver_wan(msg, streams, wait=_wait),
                    name="wanmsg")
            return self._fast_wan(msg, wait=_wait)
        yield self.sim.spawn(self.nodes[src].cpu.execute(cost))
        if src == dst:
            done = self.sim.spawn(self._deliver_self(msg), name="selfmsg")
        elif local:
            done = self.sim.spawn(self._deliver_lan(msg), name="lanmsg")
        else:
            done = self.sim.spawn(
                self._deliver_wan(msg, self._p2p_streams(size), wait=_wait),
                name="wanmsg")
        return done

    def send_and_wait(self, src: int, dst: int, size: int, payload: Any = None,
                      port: str = "default", kind: str = "msg") -> Generator:
        """Generator: like :meth:`send` but blocks until delivery."""
        done = yield from self.send(src, dst, size, payload, port, kind,
                                    _wait=True)
        msg = yield done
        return msg

    def multicast_local(self, src: int, size: int, payload: Any = None,
                        port: str = "default", kind: str = "msg",
                        include_self: bool = True) -> Generator:
        """Myrinet-style LAN multicast from ``src`` to its whole cluster.

        Caller pays sender overhead; returns an event firing when *all*
        receivers have the message.
        """
        lan = self._cluster_lan[self.nodes[src].cluster]
        cost = lan.o_send + self.params.bcast_extra + size * lan.per_byte_cpu
        if self.fast_paths:
            yield self.nodes[src].cpu.execute_ev(cost)
            return self._fast_multicast(src, self.topo.cluster_of(src), size,
                                        payload, port, kind, include_self)
        yield self.sim.spawn(self.nodes[src].cpu.execute(cost))
        done = self.sim.spawn(
            self._deliver_multicast(src, self.topo.cluster_of(src), size,
                                    payload, port, kind, include_self),
            name="mcast")
        return done

    def gateway_multicast(self, src: int, dst_cluster: int, size: int,
                          payload: Any = None, port: str = "default",
                          kind: str = "msg") -> Generator:
        """Send over the WAN to ``dst_cluster``'s gateway, which re-multicasts
        to every node of that cluster (how Orca broadcasts cross the WAN)."""
        if self.topo.cluster_of(src) == dst_cluster:
            raise ValueError("gateway_multicast targets a *remote* cluster")
        access = self.params.access
        cost = access.o_send + size * access.per_byte_cpu
        streams = self._p2p_streams(size)
        if self.fast_paths:
            yield self.nodes[src].cpu.execute_ev(cost)
            if self.impair is not None or streams > 1:
                return self.sim.spawn(
                    self._deliver_wan_multicast(src, dst_cluster, size,
                                                payload, port, kind, streams),
                    name="wanmcast")
            return self._fast_wan_multicast(src, dst_cluster, size, payload,
                                            port, kind)
        yield self.sim.spawn(self.nodes[src].cpu.execute(cost))
        done = self.sim.spawn(
            self._deliver_wan_multicast(src, dst_cluster, size, payload,
                                        port, kind, streams),
            name="wanmcast")
        return done

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
        chunks.  Non-default shapes/streams run on the legacy generator
        legs even on the fast tier — the defaults are bit-identical to
        the pre-tuner fabric."""
        src_cluster = self.topo.cluster_of(src)
        remote = [c for c in range(self.topo.n_clusters) if c != src_cluster]
        if not remote:
            done = Event(self.sim)
            done.succeed(0)
            return done
        access = self.params.access
        cost = access.o_send + size * access.per_byte_cpu
        if self.fast_paths:
            yield self.nodes[src].cpu.execute_ev(cost)
            if self.impair is not None or shape != "flat" or streams > 1:
                return self.sim.spawn(
                    self._deliver_wan_fanout(src, src_cluster, remote, size,
                                             payload, port, kind, shape,
                                             streams),
                    name="wanfanout")
            return self._fast_wan_fanout(src, src_cluster, remote, size,
                                         payload, port, kind)
        yield self.sim.spawn(self.nodes[src].cpu.execute(cost))
        done = self.sim.spawn(
            self._deliver_wan_fanout(src, src_cluster, remote, size, payload,
                                     port, kind, shape, streams),
            name="wanfanout")
        return done

    # ----------------------------------------------- chain-style entry points
    #
    # Non-generator counterparts of send / multicast_local /
    # wan_fanout_multicast for callers that are themselves callback
    # chains (the Orca runtime's fast tier).  They charge the
    # sender-side CPU exactly like the generator APIs, then launch the
    # same fast delivery legs; ``then`` runs where a process driving
    # the generator would resume.  Only meaningful on the fast tier —
    # the Orca runtime refuses to combine its fast paths with a
    # legacy-tier fabric.

    def send_chain(self, src: int, dst: int, size: int, payload: Any = None,
                   port: str = "default", kind: str = "msg",
                   then: Optional[Callable[[Event], None]] = None) -> None:
        """:meth:`send` as a callback chain: charge the sender CPU, then
        launch the delivery legs.  ``then(done)`` — if given — receives
        the delivery event once the sender-side overhead is paid, the
        point a driving process resumes at."""
        msg = Message(src=src, dst=dst, size=size, payload=payload,
                      port=port, kind=kind, send_time=self.sim.now)
        local = self.topo.same_cluster(src, dst)
        tr = self.tracer
        if tr.enabled:
            scope = "self" if src == dst else ("lan" if local else "wan")
            tr.emit(self.sim.now, "msg.send", msg_id=msg.msg_id, src=src,
                    dst=dst, size=size, msg_kind=kind, port=port, scope=scope)
        link = self._cluster_lan[self.nodes[src].cluster] if local \
            else self.params.access
        cost = link.o_send + size * link.per_byte_cpu

        def _launch(_ev: Event) -> None:
            if src == dst:
                done = self._fast_self(msg)
            elif local:
                done = self._fast_lan(msg)
            else:
                streams = self._p2p_streams(size)
                if self.impair is not None or streams > 1:
                    done = self.sim.spawn(self._deliver_wan(msg, streams),
                                          name="wanmsg")
                else:
                    done = self._fast_wan(msg)
            if then is not None:
                then(done)

        self.nodes[src].cpu.execute_ev(cost).callbacks.append(_launch)

    def multicast_local_chain(self, src: int, size: int, payload: Any = None,
                              port: str = "default", kind: str = "msg",
                              include_self: bool = True,
                              then: Optional[Callable[[Event], None]] = None
                              ) -> None:
        """:meth:`multicast_local` as a callback chain (see
        :meth:`send_chain`); ``then(done)`` receives the all-delivered
        event."""
        cluster = self.topo.cluster_of(src)
        lan = self._cluster_lan[cluster]
        cost = lan.o_send + self.params.bcast_extra + size * lan.per_byte_cpu

        def _launch(_ev: Event) -> None:
            done = self._fast_multicast(src, cluster, size, payload, port,
                                        kind, include_self)
            if then is not None:
                then(done)

        self.nodes[src].cpu.execute_ev(cost).callbacks.append(_launch)

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
        access = self.params.access
        cost = access.o_send + size * access.per_byte_cpu

        def _launch(_ev: Event) -> None:
            if self.impair is not None or shape != "flat" or streams > 1:
                done = self.sim.spawn(
                    self._deliver_wan_fanout(src, src_cluster, remote, size,
                                             payload, port, kind, shape,
                                             streams),
                    name="wanfanout")
            else:
                done = self._fast_wan_fanout(src, src_cluster, remote, size,
                                             payload, port, kind)
            if then is not None:
                then(done)

        self.nodes[src].cpu.execute_ev(cost).callbacks.append(_launch)

    # ------------------------------------------------- fast callback chains
    #
    # Each _fast_* builds the whole leg chain synchronously and returns
    # (or drives) completion events; the only heap entries are the
    # timeouts that genuinely advance virtual time.  Every trace emit
    # and TrafficMeter call happens at the same virtual time, with the
    # same fields, as on the legacy process path below.

    def _occupy_ev(self, res: Resource, seconds: float, cls: str = "",
                   size: int = 0, msg_id: int = -1) -> Event:
        """Hold ``res`` for ``seconds``; completion event, one ``link.busy``.

        The callback-chained counterpart of :meth:`_occupy`:
        :meth:`Resource.occupy <repro.sim.Resource.occupy>` runs the
        whole request/grant/hold/release machine (see there for the
        quiet- and busy-instant dispatch depths).  While tracing, its
        ``on_release`` hook emits the ``link.busy`` record right after
        the release and before the completion triggers — the point the
        legacy occupy *process* emitted it at.
        """
        tr = self.tracer
        if not tr.enabled:
            return res.occupy(seconds)
        sim = self.sim

        def emit(t_req: float, t0: float, _qdepth: int) -> None:
            now = sim.now
            tr.emit(now, "link.busy", link=res.name, cls=cls, size=size,
                    wait=t0 - t_req, msg_id=msg_id, t0=t0, dur=now - t0)

        return res.occupy(seconds, 0, emit)

    def _deposit_complete(self, msg: Message, done: Event) -> None:
        """Deposit ``msg`` and fire the delivery event (inline when quiet)."""
        self._deposit(msg)
        sim = self.sim
        if sim.idle_at_now():
            fire(done, msg)
        else:
            done.succeed(msg)

    def _fast_self(self, msg: Message) -> Event:
        # Loopback: negligible wire, small fixed cost — one timeout.
        done = Event(self.sim)
        self.sim.after(1e-6,
                       lambda _ev: self._deposit_complete(msg, done))
        return done

    def _fast_lan(self, msg: Message) -> Event:
        # Cut-through: injection and delivery ports overlap (see
        # _deliver_lan); the two legs join on a countdown.
        lan = self._cluster_lan[self.nodes[msg.src].cluster]
        tx = msg.size / lan.bandwidth
        sim = self.sim
        done = Event(sim)
        pending = [2]

        def arrive(_ev: Event) -> None:
            self._deposit_complete(msg, done)

        def leg_done(_ev: Event) -> None:
            pending[0] -= 1
            if not pending[0]:
                # Two deferred dispatches before the deposit, mirroring
                # the legacy join (leg completion -> AllOf -> deliver
                # process): deposits keep their relative dispatch depth
                # — multicast, then WAN, then LAN — when arrivals on
                # different path shapes land at the same instant.
                # Elided at a quiet instant (nothing to race).
                if sim.idle_at_now():
                    arrive(_ev)
                else:
                    sim.after(0.0, lambda _e: sim.after(0.0, arrive))

        self._occupy_ev(self._lan_out[msg.src], tx, "lan_out", msg.size,
                        msg.msg_id).callbacks.append(leg_done)

        def start_in(_ev: Event) -> None:
            occ = self._occupy_ev(self._lan_in[msg.dst], tx, "lan_in",
                                  msg.size, msg.msg_id)
            occ.callbacks.append(
                lambda _ev2: self.nodes[msg.dst].cpu.execute_ev(
                    lan.o_recv + msg.size * lan.per_byte_cpu
                ).callbacks.append(leg_done))

        sim.after(lan.latency, start_in)
        return done

    def _fast_access_up(self, size: int, src_cluster: int, msg_id: int,
                        then: Callable[[], None]) -> None:
        """Node -> local gateway over the shared access link."""
        access = self.params.access
        occ = self._occupy_ev(self._gw_access[src_cluster],
                              size / access.bandwidth, "access", size, msg_id)
        occ.callbacks.append(
            lambda _ev: self.sim.after(access.latency, lambda _ev2: then()))

    def _fast_access_down(self, msg: Message,
                          then: Callable[[], None]) -> None:
        """Remote gateway -> destination node."""
        access = self.params.access
        dst = msg.dst
        occ = self._occupy_ev(self._gw_access[self.topo.cluster_of(dst)],
                              msg.size / access.bandwidth, "access",
                              msg.size, msg.msg_id)

        def after_occ(_ev: Event) -> None:
            def after_lat(_ev2: Event) -> None:
                self.nodes[dst].cpu.execute_ev(
                    access.o_recv + msg.size * access.per_byte_cpu
                ).callbacks.append(lambda _ev3: then())

            self.sim.after(access.latency, after_lat)

        occ.callbacks.append(after_occ)

    def _fast_gw_forward(self, cluster: int, msg_size: int, msg_id: int,
                         then: Callable[[], None]) -> None:
        """Store-and-forward charge on one gateway CPU; one ``gw.forward``.

        One :meth:`Resource.occupy <repro.sim.Resource.occupy>` on the
        gateway CPU: its queue-depth sample is atomic with the request
        — the queue this forward actually joins, counting itself — and
        at a busy instant the request is deferred one dispatch (the
        grant one more), matching the spawn-deferred legacy
        :meth:`_gw_execute` so same-instant forwards sample and
        schedule identically.  ``then()`` runs on the completion event,
        one dispatch after the charge completes at a busy instant — the
        position the legacy ``_wan_leg`` process resumed at.
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

    def _fast_wan_leg(self, msg_size: int, src_cluster: int, dst_cluster: int,
                      msg_id: int, then: Callable[[], None],
                      export: Optional[Callable[[float], None]] = None
                      ) -> None:
        """Gateway -> WAN PVC -> remote gateway (shared by all WAN paths).

        ``export`` — set only on a PDES partition boundary — cuts the
        leg at the PVC: it is called at PVC *release* with the known
        arrival time (release + latency), the ``wan.xfer`` record is
        still emitted here (the PVC is source-owned), and the remote
        gateway forward is left to the destination partition
        (:meth:`pdes_arrive`) instead of running ``then``.  Exporting at
        release rather than arrival is what gives the coordinator a full
        WAN-latency lookahead window.
        """
        wan = self.params.wan
        sim = self.sim
        tr = self.tracer

        def after_fwd() -> None:
            # PVC serializes transmissions; latency is pipeline delay.
            tx = msg_size / wan.bandwidth
            t1 = sim.now
            occ = self._occupy_ev(self._wan[(src_cluster, dst_cluster)],
                                  tx, "wan", msg_size, msg_id)

            def after_occ(_ev2: Event) -> None:
                self.meter.record_wan(msg_size)
                if export is not None:
                    export(sim.now + wan.latency)

                def after_lat(_ev3: Event) -> None:
                    if tr.enabled:
                        now = sim.now
                        tr.emit(now, "wan.xfer", src_cluster=src_cluster,
                                dst_cluster=dst_cluster, size=msg_size,
                                tx=tx, msg_id=msg_id, t0=t1, dur=now - t1)
                    if export is None:
                        self._fast_gw_forward(dst_cluster, msg_size, msg_id,
                                              then)

                sim.after(wan.latency, after_lat)

            occ.callbacks.append(after_occ)

        self._fast_gw_forward(src_cluster, msg_size, msg_id, after_fwd)

    def _fast_wan(self, msg: Message, wait: bool = False) -> Event:
        sim = self.sim
        done = Event(sim)
        src_cluster = self.topo.cluster_of(msg.src)
        dst_cluster = self.topo.cluster_of(msg.dst)
        bnd = self.pdes
        if bnd is not None and not bnd.owns(dst_cluster):
            # Partition boundary: run the source half, export the
            # arrival; the owning partition replays the remote half and
            # acks the deposit, which fires ``done`` at the delivery
            # time (only consumed when ``wait`` armed it).
            bnd.register(msg, done, wait)
            self._fast_access_up(
                msg.size, src_cluster, msg.msg_id,
                lambda: self._fast_wan_leg(
                    msg.size, src_cluster, dst_cluster, msg.msg_id,
                    _NO_THEN,
                    export=lambda arrival: bnd.export(msg, arrival, "fast")))
            return done

        def arrive(_ev: Event) -> None:
            self._deposit_complete(msg, done)

        def finish() -> None:
            # One deferred dispatch (access-leg completion on the
            # legacy path) so WAN deposits stay one dispatch shallower
            # than LAN deposits — see _fast_lan.  Elided when quiet.
            if sim.idle_at_now():
                arrive(None)
            else:
                sim.after(0.0, arrive)

        self._fast_access_up(
            msg.size, src_cluster, msg.msg_id,
            lambda: self._fast_wan_leg(
                msg.size, src_cluster, dst_cluster, msg.msg_id,
                lambda: self._fast_access_down(msg, finish)))
        return done

    def _fast_multicast_recv(self, msg: Message, tx: float,
                             then: Callable[[Event], None]) -> None:
        lan = self._cluster_lan[self.nodes[msg.dst].cluster]

        def after_lat(_ev: Event) -> None:
            occ = self._occupy_ev(self._lan_in[msg.dst], tx, "lan_in",
                                  msg.size, msg.msg_id)

            def after_occ(_ev2: Event) -> None:
                cpu = self.nodes[msg.dst].cpu.execute_ev(
                    lan.o_recv + msg.size * lan.per_byte_cpu)

                def after_cpu(ev3: Event) -> None:
                    self._deposit(msg)
                    then(ev3)

                cpu.callbacks.append(after_cpu)

            occ.callbacks.append(after_occ)

        self.sim.after(lan.latency, after_lat)

    def _fast_multicast(self, src: int, cluster: int, size: int, payload: Any,
                        port: str, kind: str, include_self: bool) -> Event:
        lan = self._cluster_lan[cluster]
        tx = size / lan.bandwidth
        sim = self.sim
        done = Event(sim)
        dsts = [d for d in self.topo.nodes_in(cluster)
                if include_self or d != src]
        pending = [1 + len(dsts)]
        n = len(dsts)

        def leg_done(_ev: Event) -> None:
            pending[0] -= 1
            if not pending[0]:
                done.succeed(n)

        # Injection overlaps delivery (spanning-tree forwarding in the NIC).
        self._occupy_ev(self._lan_out[src], tx, "lan_out",
                        size).callbacks.append(leg_done)
        for dst in dsts:
            msg = Message(src=src, dst=dst, size=size, payload=payload,
                          port=port, kind=kind, send_time=sim.now)
            self._fast_multicast_recv(msg, tx, leg_done)
        return done

    def _fast_remote_gw_multicast(self, src: int, dst_cluster: int, size: int,
                                  payload: Any, port: str, kind: str,
                                  then: Callable[[int], None]) -> None:
        """Re-inject a WAN arrival as a local multicast in ``dst_cluster``."""
        lan = self._cluster_lan[dst_cluster]
        gw = self.gateways[dst_cluster]
        cpu = gw.cpu.execute_ev(lan.o_send + self.params.bcast_extra)

        def after_cpu(_ev: Event) -> None:
            tx = size / lan.bandwidth
            dsts = self.topo.nodes_in(dst_cluster)
            if not dsts:
                then(0)
                return
            pending = [len(dsts)]

            def recv_done(_ev2: Event) -> None:
                pending[0] -= 1
                if not pending[0]:
                    then(len(dsts))

            for dst in dsts:
                msg = Message(src=src, dst=dst, size=size, payload=payload,
                              port=port, kind=kind, send_time=self.sim.now)
                self._fast_multicast_recv(msg, tx, recv_done)

        cpu.callbacks.append(after_cpu)

    def _fast_wan_fanout(self, src: int, src_cluster: int, remote: List[int],
                         size: int, payload: Any, port: str,
                         kind: str) -> Event:
        done = Event(self.sim)
        total = [0, len(remote)]

        def leg_done(n: int) -> None:
            total[0] += n
            total[1] -= 1
            if not total[1]:
                done.succeed(total[0])

        def after_up() -> None:
            for c in remote:
                self._fast_wan_leg(
                    size, src_cluster, c, -1,
                    lambda c=c: self._fast_remote_gw_multicast(
                        src, c, size, payload, port, kind, leg_done))

        self._fast_access_up(size, src_cluster, -1, after_up)
        return done

    def _fast_wan_multicast(self, src: int, dst_cluster: int, size: int,
                            payload: Any, port: str, kind: str) -> Event:
        done = Event(self.sim)
        src_cluster = self.topo.cluster_of(src)

        def after_up() -> None:
            self._fast_wan_leg(
                size, src_cluster, dst_cluster, -1,
                lambda: self._fast_remote_gw_multicast(
                    src, dst_cluster, size, payload, port, kind,
                    done.succeed))

        self._fast_access_up(size, src_cluster, -1, after_up)
        return done

    # ------------------------------------------- legacy path processes
    #
    # The original per-leg process trees, selected by ``fast_paths=
    # False``.  They are the reference implementation of the fabric's
    # timing semantics: the golden equivalence suite runs every app in
    # both modes and requires identical results and traces.

    def _occupy(self, res: Resource, seconds: float, cls: str = "",
                size: int = 0, msg_id: int = -1) -> Generator:
        """Hold ``res`` for ``seconds``; traced as one ``link.busy`` span.

        ``cls``/``size``/``msg_id`` only label the trace record (see
        :func:`repro.obs.schema.classify_link` for the class names;
        ``msg_id`` joins the span into the causal chains of
        :mod:`repro.obs.chains`, -1 when the occupancy is shared between
        several deliveries); with tracing disabled they cost nothing.
        """
        t_req = self.sim.now
        yield res.request()
        t0 = self.sim.now
        try:
            if seconds > 0:
                yield self.sim.timeout(seconds)
        finally:
            res.release()
            tr = self.tracer
            if tr.enabled:
                now = self.sim.now
                tr.emit(now, "link.busy", link=res.name, cls=cls, size=size,
                        wait=t0 - t_req, msg_id=msg_id, t0=t0, dur=now - t0)

    def _deliver_self(self, msg: Message) -> Generator:
        # Loopback: negligible wire, small fixed cost.
        yield self.sim.timeout(1e-6)
        self._deposit(msg)
        return msg

    def _deliver_lan(self, msg: Message) -> Generator:
        # Cut-through: the injection port and the delivery port are each
        # occupied for one serialization time, but they overlap (the switch
        # forwards as bytes arrive), so an uncontended transfer takes
        # latency + size/bw, while endpoint contention still serializes.
        lan = self._cluster_lan[self.nodes[msg.src].cluster]
        tx = msg.size / lan.bandwidth
        out_leg = self.sim.spawn(self._occupy(self._lan_out[msg.src], tx,
                                              "lan_out", msg.size,
                                              msg.msg_id))
        in_leg = self.sim.spawn(self._lan_in_leg(msg, tx))
        yield self.sim.all_of([out_leg, in_leg])
        self._deposit(msg)
        return msg

    def _lan_in_leg(self, msg: Message, tx: float) -> Generator:
        lan = self._cluster_lan[self.nodes[msg.dst].cluster]
        yield self.sim.timeout(lan.latency)
        yield self.sim.spawn(self._occupy(self._lan_in[msg.dst], tx,
                                          "lan_in", msg.size, msg.msg_id))
        yield self.sim.spawn(self.nodes[msg.dst].cpu.execute(
            lan.o_recv + msg.size * lan.per_byte_cpu))

    def _wan_leg(self, msg_size: int, src_cluster: int, dst_cluster: int,
                 msg_id: int = -1, streams: int = 1,
                 export: Optional[Callable[[float], None]] = None
                 ) -> Generator:
        """Gateway -> WAN PVC -> remote gateway (shared by all WAN paths).

        ``msg_id`` labels the trace records with the point-to-point
        message this leg serves; fan-out paths that share one leg among
        many deliveries pass -1.  ``streams`` > 1 stripes the PVC stage
        over that many parallel chunk transfers (MPWide-style): chunks
        still serialize on the capacity-1 PVC, but their latencies and —
        under loss impairment — retransmit timeouts overlap.  The
        gateway forwards bracket the whole transfer either way.

        ``export`` cuts the leg at the PVC for a PDES partition
        boundary, exactly like :meth:`_fast_wan_leg`: called at PVC
        release with the (possibly impairment-perturbed) arrival time;
        the remote gateway forward then belongs to the destination
        partition.  Striped transfers cannot be cut (their chunks
        arrive independently), and PDES eligibility excludes them.
        """
        if export is not None and streams > 1:
            raise SimulationError(
                "striped WAN transfers cannot cross a PDES partition "
                "boundary (eligibility should have fallen back)")
        gwp = self.params.gateway
        wan = self.params.wan
        tr = self.tracer
        traced = tr.enabled
        fwd_cost = gwp.forward_cost + msg_size * gwp.per_byte_cost
        # Local gateway store-and-forward.
        t0 = self.sim.now
        qd = yield self.sim.spawn(self._gw_execute(src_cluster, fwd_cost))
        if traced:
            now = self.sim.now
            tr.emit(now, "gw.forward", cluster=src_cluster, size=msg_size,
                    qdepth=qd, msg_id=msg_id, t0=t0, dur=now - t0)
        k = max(1, min(streams, msg_size))
        if k > 1:
            # Striped PVC stage: near-equal chunks, each drawing its own
            # impairment plan, all in flight at once.
            base, rem = divmod(msg_size, k)
            chunks = [base + 1] * rem + [base] * (k - rem)
            legs = [self.sim.spawn(
                self._wan_stripe(chunk, src_cluster, dst_cluster, msg_id),
                name="wanstripe") for chunk in chunks]
            yield self.sim.all_of(legs)
        else:
            # The PVC serializes transmissions; latency is pipeline delay.
            tx = msg_size / wan.bandwidth
            latency = wan.latency
            imp = self.impair
            if imp is not None:
                plan = imp.plan(src_cluster, dst_cluster, msg_size, tx,
                                latency, msg_id)
                tx, latency = plan.tx, plan.latency
                # Each lost transmission pays a full (impaired)
                # serialization on the PVC plus the retransmit timeout
                # before the copy that gets through.
                for _ in range(plan.retries):
                    yield self.sim.spawn(self._occupy(
                        self._wan[(src_cluster, dst_cluster)], tx, "wan",
                        msg_size, msg_id))
                    yield self.sim.timeout(plan.rto)
            t0 = self.sim.now
            yield self.sim.spawn(self._occupy(
                self._wan[(src_cluster, dst_cluster)], tx, "wan", msg_size,
                msg_id))
            self.meter.record_wan(msg_size)
            if export is not None:
                export(self.sim.now + latency)
            yield self.sim.timeout(latency)
            if traced:
                now = self.sim.now
                tr.emit(now, "wan.xfer", src_cluster=src_cluster,
                        dst_cluster=dst_cluster, size=msg_size, tx=tx,
                        msg_id=msg_id, t0=t0, dur=now - t0)
        if export is not None:
            return  # remote gateway forward runs in the owning partition
        # Remote gateway store-and-forward.
        t0 = self.sim.now
        qd = yield self.sim.spawn(self._gw_execute(dst_cluster, fwd_cost))
        if traced:
            now = self.sim.now
            tr.emit(now, "gw.forward", cluster=dst_cluster, size=msg_size,
                    qdepth=qd, msg_id=msg_id, t0=t0, dur=now - t0)

    def _wan_stripe(self, chunk_size: int, src_cluster: int,
                    dst_cluster: int, msg_id: int) -> Generator:
        """One striped chunk of a WAN transfer: the PVC stage of
        :meth:`_wan_leg` for ``chunk_size`` bytes."""
        wan = self.params.wan
        tr = self.tracer
        tx = chunk_size / wan.bandwidth
        latency = wan.latency
        imp = self.impair
        if imp is not None:
            plan = imp.plan(src_cluster, dst_cluster, chunk_size, tx,
                            latency, msg_id)
            tx, latency = plan.tx, plan.latency
            for _ in range(plan.retries):
                yield self.sim.spawn(self._occupy(
                    self._wan[(src_cluster, dst_cluster)], tx, "wan",
                    chunk_size, msg_id))
                yield self.sim.timeout(plan.rto)
        t0 = self.sim.now
        yield self.sim.spawn(self._occupy(
            self._wan[(src_cluster, dst_cluster)], tx, "wan", chunk_size,
            msg_id))
        self.meter.record_wan(chunk_size)
        yield self.sim.timeout(latency)
        if tr.enabled:
            now = self.sim.now
            tr.emit(now, "wan.xfer", src_cluster=src_cluster,
                    dst_cluster=dst_cluster, size=chunk_size, tx=tx,
                    msg_id=msg_id, t0=t0, dur=now - t0)

    def _gw_execute(self, cluster: int, cost: float) -> Generator:
        """Charge ``cost`` to a gateway CPU; returns the queue depth.

        Depth is sampled atomically with the request — the queue this
        forward actually joins, counting itself — so fast and legacy
        paths report identical ``qdepth`` even when several forwards
        arrive at the same instant.
        """
        gw = self.gateways[cluster].cpu
        qd = gw.queue_length + gw.in_use + 1
        yield gw.request()
        try:
            yield self.sim.timeout(cost)
        finally:
            gw.release()
        return qd

    def _access_leg_up(self, size: int, src_cluster: int,
                       msg_id: int = -1) -> Generator:
        """Node -> local gateway over the shared access link.

        Takes ``(size, src_cluster)`` directly — fan-out paths share one
        access-link trip among many deliveries and must not fabricate a
        :class:`Message` (which would burn a ``msg_id`` and skew the
        run-local id-reset determinism guarantees) just to ride the leg.
        """
        access = self.params.access
        tx = size / access.bandwidth
        yield self.sim.spawn(self._occupy(self._gw_access[src_cluster], tx,
                                          "access", size, msg_id))
        yield self.sim.timeout(access.latency)

    def _access_leg_down(self, msg: Message, dst: int) -> Generator:
        """Remote gateway -> destination node."""
        access = self.params.access
        tx = msg.size / access.bandwidth
        dst_cluster = self.topo.cluster_of(dst)
        yield self.sim.spawn(self._occupy(self._gw_access[dst_cluster], tx,
                                          "access", msg.size, msg.msg_id))
        yield self.sim.timeout(access.latency)
        yield self.sim.spawn(self.nodes[dst].cpu.execute(
            access.o_recv + msg.size * access.per_byte_cpu))

    def _deliver_wan(self, msg: Message, streams: int = 1,
                     wait: bool = False) -> Generator:
        src_cluster = self.topo.cluster_of(msg.src)
        dst_cluster = self.topo.cluster_of(msg.dst)
        bnd = self.pdes
        if bnd is not None and not bnd.owns(dst_cluster):
            # Partition boundary (legacy/impaired path): source half
            # here, arrival exported at PVC release; the delivery ack
            # fires ``gate`` at the deposit time so this process — the
            # event send_and_wait callers block on — completes at the
            # same virtual time the single-process run delivers at.
            gate = Event(self.sim)
            bnd.register(msg, gate, wait)
            yield self.sim.spawn(self._access_leg_up(msg.size, src_cluster,
                                                     msg.msg_id))
            yield self.sim.spawn(self._wan_leg(
                msg.size, src_cluster, dst_cluster, msg.msg_id, streams,
                export=lambda arrival: bnd.export(msg, arrival, "legacy")))
            yield gate
            return msg
        yield self.sim.spawn(self._access_leg_up(msg.size, src_cluster,
                                                 msg.msg_id))
        yield self.sim.spawn(self._wan_leg(msg.size, src_cluster, dst_cluster,
                                           msg.msg_id, streams))
        yield self.sim.spawn(self._access_leg_down(msg, msg.dst))
        self._deposit(msg)
        return msg

    # --------------------------------------------- PDES partition boundary

    def pdes_arrive(self, msg: Message, path: str) -> None:
        """Replay the destination half of a WAN delivery (PDES injection).

        Called by the partition worker at the exported arrival instant —
        the moment the payload clears the WAN PVC toward this
        partition's gateway.  ``path`` selects the tier the source half
        ran on (``"fast"`` callback chains or ``"legacy"`` process
        legs) so the remaining legs replay at identical dispatch depths
        and virtual times.  Deposits always ack back through the
        boundary; the source partition fires the sender's delivery
        event at that time (or drops the ack when nobody waits).
        """
        if path == "fast":
            self._pdes_fast_tail(msg)
        else:
            self.sim.spawn(self._pdes_legacy_tail(msg), name="wanmsg")

    def _pdes_fast_tail(self, msg: Message) -> None:
        """Remote half of :meth:`_fast_wan`: gateway forward -> access
        down -> deposit, then the delivery ack."""
        sim = self.sim
        done = Event(sim)
        done.callbacks.append(
            lambda _ev: self.pdes.export_ack(msg.msg_id, sim.now))

        def arrive(_ev: Optional[Event]) -> None:
            self._deposit_complete(msg, done)

        def finish() -> None:
            # Same deferred dispatch as _fast_wan's finish (see there).
            if sim.idle_at_now():
                arrive(None)
            else:
                sim.after(0.0, arrive)

        self._fast_gw_forward(
            self.topo.cluster_of(msg.dst), msg.size, msg.msg_id,
            lambda: self._fast_access_down(msg, finish))

    def _pdes_legacy_tail(self, msg: Message) -> Generator:
        """Remote half of :meth:`_deliver_wan` (via :meth:`_wan_leg`'s
        remote gateway forward), then the delivery ack."""
        gwp = self.params.gateway
        fwd_cost = gwp.forward_cost + msg.size * gwp.per_byte_cost
        dst_cluster = self.topo.cluster_of(msg.dst)
        tr = self.tracer
        t0 = self.sim.now
        qd = yield self.sim.spawn(self._gw_execute(dst_cluster, fwd_cost))
        if tr.enabled:
            now = self.sim.now
            tr.emit(now, "gw.forward", cluster=dst_cluster, size=msg.size,
                    qdepth=qd, msg_id=msg.msg_id, t0=t0, dur=now - t0)
        yield self.sim.spawn(self._access_leg_down(msg, msg.dst))
        self._deposit(msg)
        self.pdes.export_ack(msg.msg_id, self.sim.now)
        return msg

    def _deliver_multicast(self, src: int, cluster: int, size: int,
                           payload: Any, port: str, kind: str,
                           include_self: bool) -> Generator:
        lan = self._cluster_lan[cluster]
        tx = size / lan.bandwidth
        # Injection overlaps delivery (spanning-tree forwarding in the NIC).
        legs = [self.sim.spawn(self._occupy(self._lan_out[src], tx,
                                            "lan_out", size))]
        for dst in self.topo.nodes_in(cluster):
            if dst == src and not include_self:
                continue
            msg = Message(src=src, dst=dst, size=size, payload=payload,
                          port=port, kind=kind, send_time=self.sim.now)
            legs.append(self.sim.spawn(self._multicast_recv(msg, tx)))
        yield self.sim.all_of(legs)
        return len(legs) - 1

    def _multicast_recv(self, msg: Message, tx: float) -> Generator:
        lan = self._cluster_lan[self.nodes[msg.dst].cluster]
        yield self.sim.timeout(lan.latency)
        yield self.sim.spawn(self._occupy(self._lan_in[msg.dst], tx,
                                          "lan_in", msg.size, msg.msg_id))
        yield self.sim.spawn(self.nodes[msg.dst].cpu.execute(
            lan.o_recv + msg.size * lan.per_byte_cpu))
        self._deposit(msg)

    def _deliver_wan_fanout(self, src: int, src_cluster: int,
                            remote: List[int], size: int, payload: Any,
                            port: str, kind: str, shape: str = "flat",
                            streams: int = 1) -> Generator:
        yield self.sim.spawn(self._access_leg_up(size, src_cluster))
        if shape == "chain":
            total = yield self.sim.spawn(
                self._fanout_chain(src, src_cluster, remote, size, payload,
                                   port, kind, streams),
                name="fanchain")
            return total
        if shape == "binomial":
            total = yield self.sim.spawn(
                self._fanout_binomial(src, src_cluster, remote, size,
                                      payload, port, kind, streams),
                name="fanbinom")
            return total
        legs = [self.sim.spawn(
            self._wan_leg_and_remote_multicast(src, src_cluster, c, size,
                                               payload, port, kind, streams))
            for c in remote]
        counts = yield self.sim.all_of(legs)
        return sum(counts)

    def _fanout_chain(self, src: int, src_cluster: int, remote: List[int],
                      size: int, payload: Any, port: str, kind: str,
                      streams: int) -> Generator:
        """Gateway relay: each cluster's gateway forwards the payload to
        the next remote cluster while its own local multicast proceeds in
        the background.  One PVC hop per link of the chain; the store-
        and-forward costs inside :meth:`_wan_leg` are the relay cost."""
        mcasts = []
        prev = src_cluster
        for c in remote:
            yield self.sim.spawn(self._wan_leg(size, prev, c, -1, streams))
            mcasts.append(self.sim.spawn(
                self._remote_gateway_multicast(src, c, size, payload, port,
                                               kind)))
            prev = c
        counts = yield self.sim.all_of(mcasts)
        return sum(counts)

    def _fanout_binomial(self, src: int, src_cluster: int, remote: List[int],
                         size: int, payload: Any, port: str, kind: str,
                         streams: int) -> Generator:
        """Recursive halving over the cluster gateways: the source covers
        the farthest half first, then each new holder re-broadcasts into
        its own half — ceil(log2(n_clusters)) rounds of parallel hops."""
        order = [src_cluster] + remote
        sim = self.sim
        done = Event(sim)
        state = [0, len(remote)]  # delivered count, outstanding multicasts

        def mcast_then_count(dst_c: int) -> Generator:
            n = yield sim.spawn(
                self._remote_gateway_multicast(src, dst_c, size, payload,
                                               port, kind))
            state[0] += n
            state[1] -= 1
            if not state[1]:
                done.succeed(state[0])

        def branch(lo: int, hi: int) -> Generator:
            # order[lo] holds the payload and covers order[lo+1:hi].
            while hi - lo > 1:
                mid = (lo + hi + 1) // 2
                yield sim.spawn(self._wan_leg(size, order[lo], order[mid],
                                              -1, streams))
                sim.spawn(mcast_then_count(order[mid]), name="fanmcast")
                if hi - mid > 1:
                    sim.spawn(branch(mid, hi), name="fanbranch")
                hi = mid

        sim.spawn(branch(0, len(order)), name="fanbranch")
        total = yield done
        return total

    def _wan_leg_and_remote_multicast(self, src: int, src_cluster: int,
                                      dst_cluster: int, size: int,
                                      payload: Any, port: str, kind: str,
                                      streams: int = 1) -> Generator:
        yield self.sim.spawn(self._wan_leg(size, src_cluster, dst_cluster,
                                           -1, streams))
        n = yield self.sim.spawn(
            self._remote_gateway_multicast(src, dst_cluster, size, payload,
                                           port, kind))
        return n

    def _remote_gateway_multicast(self, src: int, dst_cluster: int, size: int,
                                  payload: Any, port: str,
                                  kind: str) -> Generator:
        """Re-inject a WAN arrival as a local multicast in ``dst_cluster``."""
        lan = self._cluster_lan[dst_cluster]
        gw = self.gateways[dst_cluster]
        yield self.sim.spawn(gw.cpu.execute(lan.o_send + self.params.bcast_extra))
        tx = size / lan.bandwidth
        waits = []
        for dst in self.topo.nodes_in(dst_cluster):
            msg = Message(src=src, dst=dst, size=size, payload=payload,
                          port=port, kind=kind, send_time=self.sim.now)
            waits.append(self.sim.spawn(self._multicast_recv(msg, tx)))
        if waits:
            yield self.sim.all_of(waits)
        return len(waits)

    def _deliver_wan_multicast(self, src: int, dst_cluster: int, size: int,
                               payload: Any, port: str, kind: str,
                               streams: int = 1) -> Generator:
        src_cluster = self.topo.cluster_of(src)
        yield self.sim.spawn(self._access_leg_up(size, src_cluster))
        n = yield self.sim.spawn(
            self._wan_leg_and_remote_multicast(src, src_cluster, dst_cluster,
                                               size, payload, port, kind,
                                               streams))
        return n

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
