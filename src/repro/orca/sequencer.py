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

from typing import List, Tuple, Union

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

    ``acquire(cluster)`` is called by the broadcast layer at the
    *stamping site*.  It returns the sequence number as an ``int`` when
    ordering is established at this very instant with no observable
    intermediate state, else an :class:`Event` that fires with it.
    Timing differs per protocol; counting is shared.
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

    def _stamp(self, cluster: int, t0: float) -> int:
        seq = self._next_seq
        self._next_seq += 1
        tr = self.tracer
        if tr is not None and tr.enabled:
            now = self.sim.now
            tr.emit(now, "seq.acquire", cluster=cluster, seq=seq,
                    protocol=self.name, t0=t0, dur=now - t0)
        return seq

    def acquire(self, cluster: int) -> Union[int, Event]:
        raise NotImplementedError


class CentralizedSequencer(SequencerProtocol):
    """Single sequencer, fixed at ``home`` cluster (cluster 0 by default)."""

    name = "centralized"

    def __init__(self, sim: Simulator, n_clusters: int, hop_latency: float,
                 home: int = 0, tracer=None):
        super().__init__(sim, n_clusters, hop_latency, tracer=tracer)
        self.home = home

    def stamping_cluster(self, sender_cluster: int) -> int:
        return self.home

    def acquire(self, cluster: int) -> int:
        # The request already traveled to the sequencer node (the broadcast
        # layer routes it there); stamping itself is immediate.
        return self._stamp(cluster, self.sim.now)


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

    def take(self, cluster: int) -> int:
        """Commit the free token to ``cluster``; returns the hops it
        travels (the token is the requester's from this instant, its
        arrival is that many hop latencies out)."""
        self.held = True
        dist = self._distance(self.at, cluster)
        self.at = cluster
        self._turn_done = False
        return dist

    def request(self, cluster: int) -> Event:
        ev = Event(self.sim)
        if not self.held:
            self._grant(cluster, ev)
        else:
            self._waiters.append((cluster, ev))
        return ev

    def _grant(self, cluster: int, ev: Event) -> None:
        dist = self.take(cluster)
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


class _TokenSequencer(SequencerProtocol):
    """The token protocols: whoever holds the token stamps.

    Subclasses pick how the token travels (``_direct``); taking,
    waiting for and releasing it is the same for both.
    """

    _direct: bool

    def __init__(self, sim: Simulator, n_clusters: int, hop_latency: float,
                 tracer=None):
        super().__init__(sim, n_clusters, hop_latency, tracer=tracer)
        self._ring = _TokenRing(sim, n_clusters, hop_latency,
                                direct=self._direct)

    def stamping_cluster(self, sender_cluster: int) -> int:
        return sender_cluster  # stamped by the sender's own cluster sequencer

    def acquire(self, cluster: int) -> Union[int, Event]:
        ring = self._ring
        sim = self.sim
        t0 = sim.now
        if not ring.held and ring._distance(ring.at, cluster) == 0 \
                and sim.idle_at_now():
            # The token is here and free, and nothing else is scheduled
            # at this instant that could race the grant: take, stamp and
            # release without an event.
            ring.take(cluster)
            seq = self._stamp(cluster, t0)
            ring.release()
            return seq
        # The token is away (it travels ``dist`` hops), held (the ring's
        # waiter order linearizes the contenders), or the instant is
        # busy (the grant's dispatch is observable).
        done = Event(sim)

        def _granted(_ev: Event) -> None:
            seq = self._stamp(cluster, t0)
            ring.release()
            fire(done, seq)

        ring.request(cluster).callbacks.append(_granted)
        return done


class DistributedSequencer(_TokenSequencer):
    """One sequencer per cluster; clusters broadcast in (ring) turn."""

    name = "distributed"
    _direct = False


class MigratingSequencer(_TokenSequencer):
    """A single sequencer that migrates to the requesting cluster.

    Repeated broadcasts from one cluster (ASP's phases) pay the migration
    once and then get local-latency sequence numbers, pipelining the
    remaining WAN transfers with computation.  The token is the
    sequencer itself: it moves in one direct hop instead of round the
    ring, and a cluster may keep it for back-to-back turns.
    """

    name = "migrating"
    _direct = True

    def __init__(self, sim: Simulator, n_clusters: int, hop_latency: float,
                 tracer=None):
        super().__init__(sim, n_clusters, hop_latency, tracer=tracer)
        self.migrations = 0

    def acquire(self, cluster: int) -> Union[int, Event]:
        frm = self._ring.at
        if frm != cluster:
            # Counted at request time, before the token travels.
            self.migrations += 1
            tr = self.tracer
            if tr is not None and tr.enabled:
                tr.emit(self.sim.now, "seq.migrate", frm=frm, to=cluster)
        return super().acquire(cluster)


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
