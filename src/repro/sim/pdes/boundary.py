"""The partition boundary: where a partition's fabric meets the others.

One :class:`PartitionBoundary` lives in each partition (partition 0's
in the coordinator's process, the others' in forked workers), and
:meth:`~PartitionBoundary.attach` installs its ``_route_wan`` and
``send_and_wait`` on that partition's fabric, which knows nothing of
partitions.  A WAN send into an owned cluster takes the fabric's own
route.  A cross-partition send runs the source half of it and, at PVC
*release*, :meth:`~PartitionBoundary.export` ships the message to the
owning partition with its arrival instant at the remote gateway, known
a full lookahead before it happens.  That partition replays the
destination half and acks the deposit back
(:meth:`~PartitionBoundary.export_ack`); an awaited send resumes at the
acked time.  ``attach`` refuses a fabric with a decision model: striped
chunks arrive independently and cannot be cut.

Synchronous sends are where conservatism gets subtle: the sender blocks
until a *remote* deposit whose time depends on remote queueing, so the
source partition must not outrun it.  An armed (awaited) export plants
a *floor* at its arrival time: the coordinator caps the partition at
``max(arrival, N_dst)`` until the ack lands, and a probe scheduled at
the floor raises :class:`EpochBreak` out of ``Simulator.run`` if the
cap would otherwise sail past it (floors created mid-epoch).  The
worker catches it, shortens the epoch, and re-enters the run loop.

Every export — armed or not — additionally plants an *echo bound* at
``arrival + lookahead`` for the rest of the epoch.  The epoch's cap
was computed before the export existed; the message can wake an idle
peer whose earliest response lands strictly after ``arrival +
lookahead`` (the reply still crosses the WAN, and the remote deposit
is strictly later than the arrival).  Without the bound, a partition
running under a loose cap could sail past its own traffic's echoes.
Next round the coordinator takes over seamlessly: the routed message
lowers the destination's effective frontier to ``arrival``, capping
this partition at the same ``arrival + lookahead``.

An epoch's exports leave the boundary as sections (:class:`Section`),
one per destination partition, and reach the destination's boundary as
their ``raw`` pickles, which the coordinator routes unopened.
"""

from __future__ import annotations

import pickle
from functools import partial
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..engine import Event, SimulationError, fire

__all__ = ["EpochBreak", "PartitionBoundary", "Section", "pack_sections"]


class EpochBreak(Exception):
    """Raised inside ``Simulator.run`` when an ack floor comes due."""


class Section(NamedTuple):
    """One epoch's routed items for one destination partition.

    ``raw`` is one pickle of the items, messages first, then acks, each
    kind in outbox order.  The coordinator routes ``raw`` verbatim into
    the destination's next grant and reads only the other fields —
    ``min_time`` is the minimum over message arrivals and ack deposit
    times, which is exactly the term its cap algebra needs.
    """

    dst: int
    n_msgs: int
    n_acks: int
    min_time: float
    raw: bytes


def pack_sections(items: Sequence[tuple]) -> List[Section]:
    """Group one epoch's outbox by destination: one :class:`Section`
    each, in order of each destination's first item."""
    groups: Dict[int, List[tuple]] = {}
    for item in items:
        groups.setdefault(item[1], []).append(item)
    sections = []
    for dst, group in groups.items():
        msgs = [it for it in group if it[0] == "msg"]
        acks = [it for it in group if it[0] == "ack"]
        sections.append(Section(dst, len(msgs), len(acks),
                                min(it[3] for it in group),
                                pickle.dumps(msgs + acks, -1)))
    return sections


def _inject_key(item) -> tuple:
    """Serial-engine tie order for same-instant routed deliveries.

    The serial engine schedules same-instant WAN completions in the
    order the sends entered the pipeline — node-index order for sends
    issued at one instant — so held arrivals enter the heap sorted by
    (time, source node, id) regardless of which epoch routed them.
    """
    return (item[3], item[2].src, item[2].msg_id)


class PartitionBoundary:
    """Cross-partition traffic staging for one PDES worker."""

    def __init__(self, sim, topo, cluster_partition: Sequence[int],
                 part_id: int, lookahead: float = 0.0):
        self.sim = sim
        self.topo = topo
        self.part = tuple(cluster_partition)   # cluster -> partition index
        self.part_id = part_id
        self.lookahead = lookahead
        self.fabric = None                     # set by attach
        self.outbox: List[tuple] = []          # drained every epoch
        # msg_id -> (msg, done event): synchronous sends awaiting acks.
        self._armed: Dict[int, Tuple[Any, Any]] = {}
        # msg_id -> (arrival, owing partition): armed *and* exported.
        self._floors: Dict[int, Tuple[float, int]] = {}
        # Armed exports the coordinator has not heard about yet: these
        # bound the *current* epoch only.  Once reported, the
        # coordinator's ``max(arrival, N_dst)`` cap term takes over —
        # it tracks the destination's live frontier, so the partition
        # may then run up to (but never past) the eventual deposit.
        self._fresh: set = set()
        # Earliest possible echo of this epoch's exports: min over fresh
        # exports of (arrival + lookahead).  Bounds the current epoch
        # only; cleared at drain (the routed message then lowers the
        # destination's frontier, and the coordinator's cap algebra
        # enforces the same bound).
        self._echo: Optional[float] = None
        # msg_id -> source partition, for acking injected messages back.
        self._ack_to: Dict[int, int] = {}
        # Routed-in message deliveries not yet proven dispatchable.
        self._hold: List[tuple] = []
        # Merged into the run's sim_stats by the coordinator.
        self.epoch_breaks = 0

    # ------------------------------------------------- fabric-facing API

    def attach(self, fabric) -> None:
        """Install this boundary's ``_route_wan`` and ``send_and_wait``
        on ``fabric``, this worker's own."""
        if fabric.decision is not None:
            raise SimulationError(
                "striped WAN transfers cannot cross a PDES partition "
                "boundary (eligibility should have fallen back)")
        self.fabric = fabric
        self._local_wan = fabric._route_wan
        fabric._route_wan = self._route_wan
        fabric.send_and_wait = self.send_and_wait

    def send_and_wait(self, src: int, dst: int, size: int,
                      payload: Any = None, port: str = "default",
                      kind: str = "msg"):
        """The fabric's ``send_and_wait``.  A cross-partition send is
        armed before its first yield, and the caller resumes at the
        deposit the owning partition acks."""
        fabric = self.fabric
        msg, route, cost = fabric._new_message(src, dst, size, payload, port,
                                               kind)
        acked = None
        if self.part[fabric.node_cluster[dst]] != self.part_id:
            acked = Event(self.sim)
            self._armed[msg.msg_id] = (msg, acked)
        yield fabric.nodes[src].cpu.occupy(cost)
        done = route(msg)
        return (yield done if acked is None else acked)

    def _route_wan(self, msg) -> Event:
        """The fabric's route into an owned cluster; else the source half
        of it, whose delivery event never fires (see
        :meth:`send_and_wait`)."""
        fabric = self.fabric
        clusters = fabric.node_cluster
        src_cluster, dst_cluster = clusters[msg.src], clusters[msg.dst]
        if self.part[dst_cluster] == self.part_id:
            return self._local_wan(msg)
        size, msg_id = msg.size, msg.msg_id
        fabric._gw_leg(fabric._up_steps(size, src_cluster, msg_id),
                       src_cluster, size, msg_id, (),
                       partial(self._pvc_release, msg, src_cluster,
                               dst_cluster))
        return Event(self.sim)

    def _pvc_release(self, msg, src_cluster: int, dst_cluster: int,
                     _ev: Event) -> None:
        """Leg A's completion on a cross-partition send: leg B is the
        PVC stage and the latency, the export a call step at PVC
        release (a full WAN latency of lookahead); ``wan.xfer`` ends
        it."""
        sim = self.sim
        steps, latency, xfer = self.fabric._pvc_steps(
            msg.size, src_cluster, dst_cluster, msg.msg_id)
        done = sim.leg(steps + (lambda: self.export(msg, sim.now + latency),
                                latency))
        if xfer is not None:
            done.callbacks.append(xfer)

    def _arrive(self, msg) -> None:
        """Replay the destination half of a cross-partition delivery at
        its exported arrival, as the single-process run continues there,
        and ack the deposit."""
        fabric, sim = self.fabric, self.sim
        done = Event(sim)
        done.callbacks.append(
            lambda _ev: self.export_ack(msg.msg_id, sim.now))
        dst_cluster = fabric.node_cluster[msg.dst]
        fabric._gw_leg((), dst_cluster, msg.size, msg.msg_id,
                       fabric._down_steps(msg, dst_cluster),
                       partial(fabric._deposit_complete, msg, done))

    def export(self, msg, arrival: float) -> None:
        """Source side, at PVC release: ship the message at ``arrival``."""
        dst_part = self.part[self.topo.cluster_of(msg.dst)]
        self.outbox.append(("msg", dst_part, msg, arrival))
        if msg.msg_id in self._armed:
            self._floors[msg.msg_id] = (arrival, dst_part)
            self._fresh.add(msg.msg_id)
            self.sim.call_at(arrival, self._probe)
        echo = arrival + self.lookahead
        if self._echo is None or echo < self._echo:
            self._echo = echo
            self.sim.call_at(echo, self._probe)

    def export_ack(self, msg_id: int, t_deposit: float) -> None:
        """Destination side, at deposit: ack back to the source partition."""
        src_part = self._ack_to.pop(msg_id)
        self.outbox.append(("ack", src_part, msg_id, t_deposit))

    # ------------------------------------------------- worker-facing API

    def receive(self, raws: Sequence[bytes]) -> None:
        """Take one epoch's routed sections (their ``raw`` pickles):
        acks apply now, messages hold.

        Message deliveries are *not* scheduled immediately: same-instant
        arrivals from different partitions can reach this worker in
        different epochs, and heap insertion order would then leak the
        epoch schedule into downstream FIFO stages (the destination
        gateway serves same-instant arrivals in insertion order).  They
        wait in a holding pen until :meth:`flush` proves every arrival
        at their instant is present, then enter the heap in the serial
        engine's tie order.
        """
        for item in [it for raw in raws for it in pickle.loads(raw)]:
            if item[0] == "msg":
                self._hold.append(item)
            else:
                _kind, _dst, msg_id, t_deposit = item
                entry = self._armed.pop(msg_id, None)
                self._floors.pop(msg_id, None)
                self._fresh.discard(msg_id)
                if entry is None:
                    # Asynchronous send: the sender never looked back.
                    continue
                msg, done = entry
                msg.recv_time = t_deposit
                self.sim.call_at(
                    t_deposit, lambda d=done, m=msg: self._complete(d, m))

    def flush(self, cap, gmin) -> None:
        """Schedule held arrivals that this epoch may legally dispatch.

        An arrival at ``T`` is released once ``T < cap`` or ``T ==
        gmin`` (the global minimum): either condition implies every
        partition's frontier plus the lookahead clears ``T``, so any
        other message arriving at the same instant has already been
        exported and routed here — the whole instant is in hand and can
        be ordered the way the serial engine would have (see
        :func:`_inject_key`).  ``cap=None`` (every other partition dry)
        releases everything.

        ``call_at`` refuses past times, so each schedule *is* the
        conservative guarantee: a cross-partition message can never be
        delivered earlier than this partition has already simulated.
        If the cap algebra were ever wrong, this raises instead of
        silently corrupting the timeline.
        """
        if not self._hold:
            return
        if cap is None:
            due, self._hold = self._hold, []
        else:
            due = [it for it in self._hold
                   if it[3] < cap or it[3] == gmin]
            if not due:
                return
            self._hold = [it for it in self._hold
                          if not (it[3] < cap or it[3] == gmin)]
        due.sort(key=_inject_key)
        for _kind, _dst, msg, arrival in due:
            self._ack_to[msg.msg_id] = self.part[self.topo.cluster_of(msg.src)]
            self.sim.call_at(arrival, partial(self._arrive, msg))

    def held_min(self):
        """Earliest held arrival — part of this partition's frontier."""
        if not self._hold:
            return None
        return min(item[3] for item in self._hold)

    def drain_outbox(self) -> List[Section]:
        """End of epoch: hand over exports as sections, promote fresh
        floors.

        Clearing ``_fresh`` (and the echo bound) is what lets the
        partition move again next epoch — the floors it reported become
        the coordinator's responsibility (the ack term in
        ``compute_caps``), and the routed messages lower their
        destinations' effective frontiers.
        """
        self._fresh.clear()
        self._echo = None
        out, self.outbox = self.outbox, []
        return pack_sections(out)

    def pending(self) -> List[Tuple[int, float]]:
        """Armed, exported, un-acked sends: ``(owing partition, floor)``."""
        return [(owing, arrival)
                for arrival, owing in self._floors.values()]

    def floor(self) -> Optional[float]:
        """Earliest bound the coordinator has not seen — the current
        epoch may not run past it (armed-export floors and the echo
        bound of any fresh export)."""
        if not self._fresh:
            return self._echo
        low = min(self._floors[mid][0] for mid in self._fresh)
        if self._echo is not None and self._echo < low:
            return self._echo
        return low

    # ------------------------------------------------------------ guts

    def _probe(self) -> None:
        """Scheduled at each floor/echo bound: break the epoch when due.

        Bounds planted *mid-epoch* (an export inside a running window)
        can undercut the epoch's cap; the probe turns that into an
        :class:`EpochBreak` exactly at the bound, before any event past
        it dispatches.  Probes whose floor was acked away (or whose
        echo bound was drained) in the meantime fall through
        harmlessly.
        """
        now = self.sim.now
        if self._echo is not None and self._echo <= now:
            self.epoch_breaks += 1
            raise EpochBreak
        for mid in self._fresh:
            if self._floors[mid][0] <= now:
                self.epoch_breaks += 1
                raise EpochBreak

    def _complete(self, done, msg) -> None:
        """Fire the sender's delivery event at the acked deposit time.

        Same inline-when-quiet dispatch as the fabric's
        ``_deposit_complete`` — the sender resumes at the exact depth
        the single-process engine would have used.
        """
        sim = self.sim
        if sim.idle_at_now():
            fire(done, msg)
        else:
            done.succeed(msg)
