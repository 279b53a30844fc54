"""Sequencers for totally-ordered broadcast.

Orca keeps replicated objects consistent with a write-update protocol on a
totally-ordered broadcast.  Ordering comes from a sequencer that stamps
every broadcast with a global sequence number.  This module provides the
paper's three protocols:

* :class:`CentralizedSequencer` — one sequencer machine for the whole
  system.  Excellent on a single LAN cluster; on the wide-area system every
  remote broadcast pays WAN round trips through the sequencer (the
  "major performance problem" of Section 2).
* :class:`DistributedSequencer` — one sequencer per cluster; clusters
  broadcast *in turn* (a token rotates over the WAN in ring order).  The
  system default on multicluster DAS.
* :class:`MigratingSequencer` — the ASP optimization (Section 4.3): a
  single sequencer that *migrates* to the cluster that is broadcasting, so
  a machine issuing a run of broadcasts gets its sequence numbers locally
  and can pipeline computation with communication.

A sequencer's job here is ordering only; dissemination (who multicasts the
stamped message where) is shared code in :class:`repro.orca.broadcast`.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Generator, List, Optional, Tuple

from ..sim import Event, Simulator, fire

__all__ = [
    "SequencerProtocol",
    "CentralizedSequencer",
    "DistributedSequencer",
    "MigratingSequencer",
    "make_sequencer",
]


class SequencerProtocol:
    """Interface: assign the next global sequence number to a request.

    ``acquire(cluster)`` is a generator the broadcast layer drives from the
    *stamping site*; it returns the sequence number once ordering is
    established.  Timing differs per protocol; counting is shared.
    """

    name = "base"

    def __init__(self, sim: Simulator, n_clusters: int, hop_latency: float,
                 tracer=None):
        self.sim = sim
        self.n_clusters = n_clusters
        self.hop_latency = hop_latency
        self._next_seq = 0
        #: optional repro.sim.Tracer; ``seq.acquire``/``seq.migrate``
        #: records are emitted through it when enabled.
        self.tracer = tracer

    def _stamp(self) -> int:
        seq = self._next_seq
        self._next_seq += 1
        return seq

    def _trace_acquire(self, cluster: int, seq: int, t0: float) -> None:
        tr = self.tracer
        if tr is not None and tr.enabled:
            now = self.sim.now
            tr.emit(now, "seq.acquire", cluster=cluster, seq=seq,
                    protocol=self.name, t0=t0, dur=now - t0)

    def acquire(self, cluster: int) -> Generator:
        raise NotImplementedError

    def try_acquire(self, cluster: int) -> Optional[int]:
        """Analytic shortcut: stamp synchronously, or ``None``.

        Succeeds only when :meth:`acquire` would have returned at the
        current instant with no observable intermediate state — i.e.
        stamping is local (token already here / centralized stamp) and,
        for the token protocols, nothing else is scheduled at this
        instant that could race the grant.  On ``None`` the caller
        falls back to driving the :meth:`acquire` generator, so
        same-instant contention linearizes through the ring's waiter
        order.  Emits the same ``seq.acquire`` record either way.
        """
        return None

    def try_acquire_deferred(self, cluster: int) -> Optional[Event]:
        """Analytic remote-token path: an event firing with the stamp.

        The token-ring extension of :meth:`try_acquire` — succeeds when
        the ring is uncontended (token parked, no holder) but the token
        is *k* hops away, so the acquire cannot complete at this
        instant.  Returns an event that fires with the sequence number
        after the analytic ``k * hop_latency`` delay, reproducing the
        generator grant's dispatch schedule exactly (one call-slot, one
        event dispatch, state changes in the same order); the ring
        invariant — waiters only accumulate while the token is held —
        makes the uncontended check sufficient.  ``None`` means the
        caller must drive :meth:`acquire`.
        """
        return None

    def _deferred_grant(self, ring: "_TokenRing", cluster: int,
                        dist: int) -> Event:
        """Shared remote-token shortcut for the token protocols."""
        sim = self.sim
        t0 = sim.now
        # Replicate _grant's state changes: the token is committed to
        # the requester immediately, arrival is dist hops out.
        ring.held = True
        ring.at = cluster
        ring._turn_done = False
        done = Event(sim)

        def _resume(_ev: Event) -> None:
            seq = self._stamp()
            ring.release()
            self._trace_acquire(cluster, seq, t0)
            fire(done, seq)

        def _slot() -> None:
            # The generator grant's ev.succeed: one posted event
            # dispatch between the call-slot and the resume, so
            # same-instant arrivals linearize at identical depths.
            gate = Event(sim)
            gate.callbacks.append(_resume)
            gate.succeed(None)

        sim.call_at(t0 + dist * self.hop_latency, _slot)
        return done


class CentralizedSequencer(SequencerProtocol):
    """Single sequencer, fixed at ``home`` cluster (cluster 0 by default)."""

    name = "centralized"

    def __init__(self, sim: Simulator, n_clusters: int, hop_latency: float,
                 home: int = 0, tracer=None):
        super().__init__(sim, n_clusters, hop_latency, tracer=tracer)
        self.home = home

    def stamping_cluster(self, sender_cluster: int) -> int:
        return self.home

    def acquire(self, cluster: int) -> Generator:
        # The request already traveled to the sequencer node (the broadcast
        # layer routes it there); stamping itself is immediate.
        if False:  # pragma: no cover - make this a generator
            yield None
        seq = self._stamp()
        self._trace_acquire(cluster, seq, self.sim.now)
        return seq

    def try_acquire(self, cluster: int) -> Optional[int]:
        # Stamping never yields, so the synchronous stamp is always
        # available and needs no quiet-instant check.
        seq = self._stamp()
        self._trace_acquire(cluster, seq, self.sim.now)
        return seq


class _TokenRing:
    """A token moving between clusters; grants honor ring order.

    The token is *lazy*: it sits parked until some cluster requests it, then
    travels the ring distance from its current position (one WAN hop of
    latency per step for the distributed protocol, a single direct hop for
    the migrating protocol).
    """

    def __init__(self, sim: Simulator, n_clusters: int, hop_latency: float,
                 direct: bool):
        self.sim = sim
        self.n = n_clusters
        self.hop_latency = hop_latency
        self.direct = direct
        self.at = 0
        self.held = False
        # A finished turn means the token has departed: the same cluster
        # only gets it back after a full ring rotation.
        self._turn_done = False
        self._waiters: List[Tuple[int, Event]] = []

    def _distance(self, src: int, dst: int) -> int:
        if self.n == 1:
            return 0  # a single cluster never pays WAN token hops
        if src == dst:
            return self.n if (self._turn_done and not self.direct) else 0
        if self.direct:
            return 1
        return (dst - src) % self.n

    def request(self, cluster: int) -> Event:
        ev = Event(self.sim)
        if not self.held:
            self._grant(cluster, ev)
        else:
            self._waiters.append((cluster, ev))
        return ev

    def _grant(self, cluster: int, ev: Event) -> None:
        self.held = True
        dist = self._distance(self.at, cluster)
        self.at = cluster
        self._turn_done = False
        if dist == 0:
            ev.succeed(cluster)
        else:
            delay = dist * self.hop_latency
            self.sim.call_at(self.sim.now + delay, lambda: ev.succeed(cluster))

    def release(self) -> None:
        self.held = False
        if not self.direct:
            # A cluster's turn covers everything queued there meanwhile:
            # grant same-cluster waiters before the token moves on.
            for i, (cluster, ev) in enumerate(self._waiters):
                if cluster == self.at:
                    del self._waiters[i]
                    self._grant(cluster, ev)
                    return
            # "Each cluster broadcasts in turn": the token departs, so a
            # cluster issuing back-to-back broadcasts waits a *full ring
            # rotation* between them — what makes original ASP slow and
            # what puts the Table 1 WAN broadcast latency near 3 ms.
            self._turn_done = True
        if not self._waiters:
            return
        # Ring order: the waiter closest ahead of the token goes first.
        self._waiters.sort(key=lambda cw: self._distance(self.at, cw[0]))
        cluster, ev = self._waiters.pop(0)
        self._grant(cluster, ev)


class DistributedSequencer(SequencerProtocol):
    """One sequencer per cluster; clusters broadcast in (ring) turn."""

    name = "distributed"

    def __init__(self, sim: Simulator, n_clusters: int, hop_latency: float,
                 tracer=None):
        super().__init__(sim, n_clusters, hop_latency, tracer=tracer)
        self._ring = _TokenRing(sim, n_clusters, hop_latency, direct=False)

    def stamping_cluster(self, sender_cluster: int) -> int:
        return sender_cluster  # stamped by the sender's own cluster sequencer

    def acquire(self, cluster: int) -> Generator:
        t0 = self.sim.now
        yield self._ring.request(cluster)
        seq = self._stamp()
        self._ring.release()
        self._trace_acquire(cluster, seq, t0)
        return seq

    def try_acquire(self, cluster: int) -> Optional[int]:
        ring = self._ring
        if ring.held or ring._distance(ring.at, cluster) != 0:
            return None  # token away or departing: WAN hops, not instant
        sim = self.sim
        if not sim.idle_at_now():
            return None  # busy instant: the grant dispatch is observable
        t0 = sim.now
        # Replicate _grant's distance-0 state changes, minus the event.
        ring.held = True
        ring.at = cluster
        ring._turn_done = False
        seq = self._stamp()
        ring.release()
        self._trace_acquire(cluster, seq, t0)
        return seq

    def try_acquire_deferred(self, cluster: int) -> Optional[Event]:
        ring = self._ring
        if ring.held:
            return None  # contended: waiter ordering is the ring's job
        dist = ring._distance(ring.at, cluster)
        if dist == 0:
            return None  # local token: try_acquire's (cheaper) territory
        return self._deferred_grant(ring, cluster, dist)

    @property
    def token_at(self) -> int:
        return self._ring.at


class MigratingSequencer(SequencerProtocol):
    """A single sequencer that migrates to the requesting cluster.

    Repeated broadcasts from one cluster (ASP's phases) pay the migration
    once and then get local-latency sequence numbers, pipelining the
    remaining WAN transfers with computation.
    """

    name = "migrating"

    def __init__(self, sim: Simulator, n_clusters: int, hop_latency: float,
                 tracer=None):
        super().__init__(sim, n_clusters, hop_latency, tracer=tracer)
        self._ring = _TokenRing(sim, n_clusters, hop_latency, direct=True)
        self.migrations = 0

    def stamping_cluster(self, sender_cluster: int) -> int:
        return sender_cluster

    def acquire(self, cluster: int) -> Generator:
        t0 = self.sim.now
        if self._ring.at != cluster:
            self.migrations += 1
            tr = self.tracer
            if tr is not None and tr.enabled:
                tr.emit(t0, "seq.migrate", frm=self._ring.at, to=cluster)
        yield self._ring.request(cluster)
        seq = self._stamp()
        self._ring.release()
        self._trace_acquire(cluster, seq, t0)
        return seq

    def try_acquire(self, cluster: int) -> Optional[int]:
        ring = self._ring
        if ring.held or ring.at != cluster:
            return None  # a migration pays a WAN hop: not instant
        sim = self.sim
        if not sim.idle_at_now():
            return None  # busy instant: the grant dispatch is observable
        t0 = sim.now
        ring.held = True
        ring._turn_done = False
        seq = self._stamp()
        ring.release()
        self._trace_acquire(cluster, seq, t0)
        return seq

    def try_acquire_deferred(self, cluster: int) -> Optional[Event]:
        ring = self._ring
        if ring.held or ring.at == cluster:
            return None  # held: ring's job; local: try_acquire's
        # The migration bookkeeping the generator acquire does at request
        # time, before the token travels.
        self.migrations += 1
        tr = self.tracer
        if tr is not None and tr.enabled:
            tr.emit(self.sim.now, "seq.migrate", frm=ring.at, to=cluster)
        return self._deferred_grant(ring, cluster, 1)

    @property
    def located_at(self) -> int:
        return self._ring.at


def make_sequencer(kind: str, sim: Simulator, n_clusters: int,
                   hop_latency: float, tracer=None) -> SequencerProtocol:
    """Factory: ``kind`` in {"centralized", "distributed", "migrating"}.

    ``tracer`` (a :class:`repro.sim.Tracer`) enables ``seq.*`` trace
    records; the runtime passes the fabric's tracer through here.
    """
    kinds = {
        "centralized": CentralizedSequencer,
        "distributed": DistributedSequencer,
        "migrating": MigratingSequencer,
    }
    try:
        cls = kinds[kind]
    except KeyError:
        raise ValueError(f"unknown sequencer kind {kind!r}; "
                         f"choose from {sorted(kinds)}") from None
    return cls(sim, n_clusters, hop_latency, tracer=tracer)
