"""The conservative PDES coordinator: fork, synchronize, merge.

``run_app_pdes`` is the partitioned twin of
:func:`repro.harness.experiment.run_app`.  It splits the topology's
clusters into contiguous blocks (:mod:`.plan`), runs partition 0 in
its own process and forks one worker for each other block, and drives
them all through *epochs*: windows of virtual time each partition may
simulate without hearing from the others.  A coordinator that only
relayed would sit idle in ``recv`` through every epoch, one process
more than the partitions on the host's cores and one pipe round trip
more per epoch; running partition 0 itself removes that hop, and
partition 0's final state never crosses a pipe.

The window algebra (:func:`compute_caps`) is the whole correctness
story.  With ``N_j`` the earliest event time partition ``j`` could
still dispatch (its next heap entry, or anything routed to it this
epoch) and ``L`` the WAN lookahead:

    cap_i = min( H_i,
                 min over i's un-acked floors (p, A) of max(A, N_p) )

    H_i = M_i + L                          (M_i = min_{j != i} N_j)
    H_o = min( M_o + L, max(N_o + L, M_o) )    o the lone owner of min N

The first term is classic conservative synchronization — nothing
another partition does before ``N_j`` can reach ``i`` before
``N_j + L``.  The lone owner ``o`` of the earliest frontier stops
sooner: at its peers' next event or one lookahead past its own,
whichever is later.  Its full ``M_o + L`` window would carry it a
lookahead past the runner-up, which would then run the next window
alone while ``o`` sat skipped — two dense partitions would take turns
instead of running together.  Every ``H_i`` is at most ``M_i + L``,
so the peer-horizon argument covers the owner too; at ``L = 0`` the
two agree.  The second term handles synchronous sends: until the
destination ``p`` acks the deposit of an armed message arriving at
``A``, partition ``i`` may not outrun ``max(A, N_p)``; the deposit
happens strictly after the arrival, and ``N_p`` tracks the
destination's frontier, so the sender's delivery event is always
planted in ``i``'s future.  Every term is ``>= min_j N_j``, so the
globally-earliest event is always dispatchable: the protocol cannot
deadlock.

Partitions run each epoch up to their cap (exclusive, but for the
exceptions :func:`run_epoch` lists), report their new frontier plus
everything they exported, and the coordinator routes messages/acks
into the next epoch's injections.  A partition's own
:class:`~.boundary.PartitionBoundary` refuses (`call_at` raises) any
injection before its clock — the conservative guarantee is asserted on
every delivery, not assumed.

**The sync fast lane**: a grant is the plain tuple ``(cap, gmin,
raws)`` and a report ``(clock, frontier, pendings, sections)``, and
:meth:`_Partition.epoch`, the one partition body's step, turns one into
the other.  The coordinator calls partition 0's directly, so its grants
and reports are never pickled.  A forked worker's grants and reports
cross its one pipe, one pickle per message, through the one
:func:`_send` / :func:`_receive` pair, which also carries the
handshakes and a shipped error, and returns the bytes each message
took (``pdes_channel_bytes`` sums the epoch ones).  The coordinator runs
the cap algebra every round but only *delivers* a grant to partitions
that can act on it.  A partition is skipped when
its inbox is empty and its cap is at or below its own frontier (and it
does not own ``gmin``): granting it would route nothing, release no
held arrival, and dispatch no event, so eliding the round-trip leaves
the partition's state bit-identical and the next grant it does receive
subsumes every elided epoch — a multi-epoch cap.  A run forks its
workers at its start, each inheriting its :class:`WorkerSpec` through
the fork, and reaps them at its end: joined after their finals, killed
first on any error, so no worker outlives the run.

Determinism: partitions allocate the same per-site message/request ids
as the single-process run, impairment randomness is drawn from
per-(model, directed pair) substreams, and every cross-partition
delivery replays the destination half of the serial fabric code at the
exported instant — so answers, finish times and trace *contents* are
bit-identical to the golden manifest's cells (``tools/golden.py``);
only same-instant interleavings across independent partitions may
differ: the record order and, where two partitions' messages tie at
one gateway instant, which message the tied records name.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import pickle
import time
import traceback
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..engine import SimulationError
from ..trace import TraceSpec
from . import plan
from .boundary import EpochBreak, PartitionBoundary, Section

__all__ = ["WorkerSpec", "compute_caps", "run_app_pdes", "run_epoch",
           "shutdown_pool"]

INF = float("inf")


# --------------------------------------------------------------- protocol
#
# Partition 0 runs in the coordinator's process; partitions 1..width-1
# are workers forked at the run's start with their WorkerSpec, each
# with one duplex pipe, and each exits after its final.  Every pipe
# message is one pickle, in this order:
#   Worker -> parent:  ("ready", next_time)         stack built
#   then per granted epoch:
#   Parent -> worker:  (cap_or_None, gmin, raws)    the grant
#   Worker -> parent:  ("report", (clock, frontier, pendings, sections))
#   and to end the run:
#   Parent -> worker:  None
#   Worker -> parent:  ("final", payload_dict)
# In place of any worker message, fatal:
#                      ("error", (tb, exc_or_None))
# Partition 0 takes the same grant tuples and returns the same report
# bodies through _Partition.epoch, by call; its build, ready, end and
# final steps are plain calls too, and nothing of it is pickled but the
# sections' raws.  Each epoch the grants go to the forked workers
# first, then partition 0 runs its epoch while they run theirs, and
# only then does the coordinator read their reports: partition 0 first
# would serialize the run.
#
# Routed items inside a Section's raw (built by PartitionBoundary.export
# / export_ack; index 3 is always the item's virtual time, which
# compute_caps relies on via the section's min_time):
#   ("msg", dst_partition, Message, arrival)
#   ("ack", dst_partition, msg_id, t_deposit)


@dataclass
class WorkerSpec:
    """Everything a forked partition worker needs to rebuild its stack."""

    part_id: int
    clusters: Tuple[int, ...]
    cluster_partition: Tuple[int, ...]
    app: str
    variant: str
    params: Any
    network: Any
    sequencer: str
    dedicated_sequencer_node: bool
    topology: Any                      # final Topology (scenario applied)
    scenario: Any = None
    trace: Optional[TraceSpec] = None
    lookahead: float = 0.0


def compute_caps(neff: Sequence[float], reals: Sequence[float],
                 pendings: Sequence[Sequence[Tuple[int, float]]],
                 lookahead: float) -> List[float]:
    """Per-partition epoch caps from effective frontiers and floors.

    ``reals[i]`` is the earliest virtual time partition ``i`` could
    still dispatch — its next heap entry, held arrivals, anything
    routed to it this round (``inf`` when dry).  ``neff[i]`` is
    ``reals[i]`` further lowered by partition ``i``'s own un-acked
    floors: a partition awaiting an ack wakes at the deposit (>= its
    floor) and can emit with one lookahead of margin, so for capping
    *others* it is only as far along as its earliest floor.
    ``pendings[i]`` lists partition ``i``'s un-acked synchronous sends
    as ``(owing partition, arrival floor)``; the deposit the ack
    reports is produced by *real* events at the owing partition, so
    that term uses ``reals`` — using ``neff`` there would let two
    mutually-waiting partitions pin each other's caps below the very
    chains that produce the deposits.  Pure, so the safety properties
    are directly property-testable.

    The peer term is ``min_{j != i} neff_j + L`` for every partition
    but the lone holder of the smallest ``neff`` (``m1``), whose term
    is ``min(m2 + L, max(m1 + L, m2))`` with ``m2`` the runner-up: it
    runs to its peers' next event or one lookahead past its own,
    whichever is later, so that two dense partitions share each window
    instead of leapfrogging one another.  Both come from the two
    smallest values — one pass instead of a scan per partition; this
    runs every epoch on the coordinator's critical path.
    """
    width = len(neff)
    m1 = INF        # smallest neff
    m1_count = 0    # how many partitions attain it
    m2 = INF        # smallest neff over the rest
    no_floors = True
    for v in neff:
        if v < m1:
            m1, m2, m1_count = v, m1, 1
        elif v == m1:
            m1_count += 1
        elif v < m2:
            m2 = v
    for p in pendings:
        if p:
            no_floors = False
            break
    e1 = m1 + lookahead
    own = min(m2 + lookahead, max(e1, m2)) if m1_count == 1 else e1
    if no_floors:
        return [own if neff[i] == m1 else e1 for i in range(width)]
    caps = []
    for i in range(width):
        cap = own if neff[i] == m1 else e1
        for owing, floor in pendings[i]:
            cap = min(cap, max(floor, reals[owing]))
        caps.append(cap)
    return caps


def run_epoch(sim, boundary: PartitionBoundary, cap: Optional[float],
              gmin: Optional[float]) -> None:
    """Run one epoch: strictly below ``cap``, never past an ack floor.

    The cap is *exclusive* — events exactly at it wait for a later
    epoch — with two exceptions that keep the protocol live and exact:

    * ``gmin``, the globally-earliest event time, always dispatches
      (nothing in flight can precede or tie it un-routed, and some
      partition must move every epoch);
    * a fresh ack floor dispatches inclusively (events *at* an armed
      export's arrival are source-local; the remote deposit is
      strictly later).

    Exclusivity is what makes same-instant ties exact: an instant only
    dispatches once every partition's frontier plus the lookahead
    clears it, by which time all cross-partition arrivals at that
    instant are held at the boundary and enter the heap in serial
    order (see ``PartitionBoundary.flush``).

    Floors planted mid-run surface as :class:`EpochBreak` from the
    boundary's probes; each re-entry shortens the window to the
    earliest live floor.  ``cap=None`` means unbounded (every other
    partition is dry) — the worker drains, pausing only at floors.
    """
    while True:
        floor = boundary.floor()
        if cap is None:
            bound = floor
        elif floor is None:
            bound = cap
        else:
            bound = min(cap, floor)
        if bound is None:
            target = None
        else:
            if gmin is not None and bound < gmin:
                # Floors folded into the cap algebra can push a cap
                # below the globally-earliest real event; events at
                # gmin itself are always safe (nothing anywhere — wake
                # chains included — can produce an earlier one), and
                # the gmin owner must move for the protocol to be live.
                bound = gmin
            if bound < sim.now:
                # A slower partition dragged the cap below our clock:
                # the previous epoch already covered this window.
                return
            inclusive = bound == gmin or bound == floor
            target = bound if inclusive \
                else math.nextafter(bound, -math.inf)
            if target < sim.now:
                return
        try:
            sim.run(until=target)
        except EpochBreak:
            continue
        return


# ----------------------------------------------------------------- worker

class _Partition:
    """One partition's simulation, driven one epoch grant at a time.

    Built from its :class:`WorkerSpec` exactly as a fresh process would
    build it: the per-run state (message/request id counters, the whole
    simulator stack) starts over, so running many simulations in one
    process is the same invariant the test suite and the sweep pool
    already rely on.  :meth:`epoch` turns one grant into one report
    and :meth:`final` collects what the coordinator merges.  A forked
    worker drives it over its pipe (:func:`_worker`) and the
    coordinator drives partition 0 in its own process, on the same
    tuples.
    """

    def __init__(self, spec: WorkerSpec):
        # Deferred imports: top-level imports here would cycle (apps ->
        # orca -> sim -> pdes); a forked worker has them loaded already.
        from ...apps import make_app
        from ...harness.experiment import _build_stack, _spawn_workers

        app = make_app(spec.app)
        topo = spec.topology
        self.part_id = spec.part_id
        self.tracer = spec.trace.build() if spec.trace is not None else None
        self.sim, fabric, self.rts = _build_stack(
            topo, spec.network, spec.sequencer,
            spec.dedicated_sequencer_node, tracer=self.tracer,
            scenario=spec.scenario)
        self.boundary = PartitionBoundary(
            self.sim, topo, spec.cluster_partition, spec.part_id,
            lookahead=spec.lookahead)
        self.boundary.attach(fabric)
        self.shared = app.register(self.rts, spec.params, spec.variant)
        self.finished_at: Dict[int, float] = {}
        self.workers = _spawn_workers(
            self.sim, app, self.rts, spec.params, spec.variant, self.shared,
            [n for c in spec.clusters for n in topo.nodes_in(c)],
            self.finished_at)

    def epoch(self, grant: tuple) -> tuple:
        """Run the epoch ``(cap, gmin, raws)`` grants — ``cap`` is
        ``None`` when unbounded, ``raws`` the routed sections' — and
        report ``(clock, frontier, pendings, sections)``: ``frontier``
        is ``None`` when the partition is dry, ``pendings`` its un-acked
        floors and ``sections`` its outbox."""
        cap, gmin, raws = grant
        sim, boundary = self.sim, self.boundary
        if raws:
            boundary.receive(raws)
        boundary.flush(cap, gmin)
        run_epoch(sim, boundary, cap, gmin)
        frontier = sim.next_time()
        held = boundary.held_min()
        if frontier is None or (held is not None and held < frontier):
            frontier = held
        return (sim.now, frontier, boundary.pending(),
                boundary.drain_outbox())

    def final(self, blocked_s: float) -> Dict[str, Any]:
        """The run's outcome for the merge, ``shared`` whole (unshipped).

        ``run_app``'s post-run check is reported instead of raised: the
        coordinator re-raises with the partition attached."""
        from ...harness.experiment import _scan_workers

        deadlocked, failure = _scan_workers(self.workers)
        if failure is not None:
            failure = "".join(traceback.format_exception(
                type(failure), failure, failure.__traceback__))
        tracer = self.tracer
        return {
            "part": self.part_id,
            "clock": self.sim.now,
            "finished_at": self.finished_at,
            "shared": self.shared,
            "traffic": self.rts.meter.snapshot(),
            "sim_stats": self.sim.stats(),
            "records": list(tracer.records) if tracer is not None else None,
            "blocked_s": blocked_s,
            "deadlocked": deadlocked,
            "failure": failure,
            "epoch_breaks": self.boundary.epoch_breaks,
        }


def _worker(conn, spec: WorkerSpec, parent_ends) -> None:
    """A forked partition's body: one run over its pipe — ready, one
    report per grant until ``None``, then the final payload, shipped —
    and exit.

    The spec comes through the fork, not the pipe.  A worker that fails
    ships the error and exits.  ``parent_ends`` are the parent's pipe
    ends this fork inherited (its elder siblings'): closed, so that
    only the parent holds them.
    """
    for end in parent_ends:
        end.close()
    try:
        part = _Partition(spec)
        conn.send(("ready", part.sim.next_time()))
        blocked = 0.0
        # Hot-path bindings: this loop turns over once per granted epoch.
        perf = time.perf_counter
        w_recv, w_send, step = conn.recv, conn.send, part.epoch
        while True:
            t0 = perf()
            grant = w_recv()
            blocked += perf() - t0
            if grant is None:
                break
            w_send(("report", step(grant)))
        payload = part.final(blocked)
        payload["shared"] = plan.APP_ADAPTERS[spec.app].ship(
            payload["shared"])
        conn.send(("final", payload))
    except BaseException as exc:
        # Ship the exception object itself when it pickles: the
        # coordinator then re-raises the app's real error (the serial
        # engine lets a ValueError out of ``register`` surface as a
        # ValueError, and partitioning must not change that contract).
        try:
            pickle.dumps(exc)
        except Exception:
            exc = None
        try:
            conn.send(("error", (traceback.format_exc(), exc)))
        except Exception:
            pass


# ------------------------------------------------------------------ pipes

def _died(part_id: int) -> SimulationError:
    return SimulationError(
        f"pdes: partition {part_id} worker died without reporting")


def _send(conn, part_id: int, msg) -> int:
    """Write ``msg``, pickled, to partition ``part_id``'s worker; the
    bytes it took.  A worker gone from the far end is the typed error
    :func:`_receive` raises."""
    data = pickle.dumps(msg, -1)
    try:
        conn.send_bytes(data)
    except OSError:
        raise _died(part_id) from None
    return len(data)


def _receive(conn, part_id: int, want: str) -> Tuple[Any, int]:
    """The body of partition ``part_id``'s next message, whose tag the
    protocol says is ``want``, and the bytes it took.

    The parent's one read of a worker pipe, for the handshakes and the
    epochs alike.  Each pipe is made just before its worker forks and
    the parent closes the worker's end, so only the worker holds it: a
    worker that dies closes it, and the read ends at EOF at once.  A
    worker that failed sends ``("error", (tb, exc))`` in place of the
    message: ``exc`` is re-raised when it pickled, so the app's own
    error keeps the type the serial engine gives it.  Any other tag is
    a protocol error.
    """
    try:
        data = conn.recv_bytes()
    except (EOFError, OSError):
        raise _died(part_id) from None
    tag, body = pickle.loads(data)
    if tag == want:
        return body, len(data)
    if tag == "error":
        tb, exc = body
        if exc is not None:
            raise exc
        raise SimulationError(
            f"pdes: partition {part_id} worker failed:\n{tb}")
    raise SimulationError(
        f"pdes: partition {part_id} sent {tag!r} where {want!r} was due")


# ------------------------------------------------------------ coordinator

def shutdown_pool() -> None:
    """Nothing to do: every partitioned run reaps its own workers before
    it returns or raises.  Kept for callers written when the workers
    outlived a run."""


def run_app_pdes(app, variant: str, n_clusters: int, nodes_per_cluster: int,
                 params: Any, *, network, sequencer: Optional[str],
                 dedicated_sequencer_node: bool, topo,
                 tracer, scenario, decision, utilization: bool,
                 workers: Optional[int]):
    """Partitioned ``run_app``: same result, all host cores.

    ``topo`` is the final topology (scenario layout applied) and
    ``workers`` the width asked for (``None``: every core).  Returns the
    same :class:`AppResult` the single-process path would, with PDES
    counters added to ``sim_stats`` — or ``None`` when
    :func:`plan.partition_width` declines the run, which ``run_app``
    then runs single-process.
    """
    from ...apps.base import AppResult
    from ...harness.experiment import _build_stack

    n_workers = plan.partition_width(
        app, variant, topo.n_clusters, workers, scenario=scenario,
        decision=decision, utilization=utilization, tracer=tracer)
    if not n_workers:
        return None
    blocks = plan.partition_clusters(topo.n_clusters, n_workers)
    width = len(blocks)
    part_map = plan.cluster_partition_map(blocks)
    lookahead = plan.wan_lookahead(network, scenario)
    seq_kind = sequencer if sequencer is not None \
        else app.sequencer_for(variant)

    # Only the kinds filter ships: plan declines ring and sample bounds.
    trace_spec = None if tracer is None else TraceSpec(
        kinds=tuple(sorted(tracer.kinds))
        if tracer.kinds is not None else None)

    specs = [WorkerSpec(
        part_id=pi, clusters=block,
        cluster_partition=part_map, app=app.name, variant=variant,
        params=params, network=network, sequencer=seq_kind,
        dedicated_sequencer_node=dedicated_sequencer_node, topology=topo,
        scenario=scenario, trace=trace_spec, lookahead=lookahead)
        for pi, block in enumerate(blocks)]

    conns: List[Any] = []           # conns[i - 1]: partition i's pipe
    procs: List[Any] = []
    epochs = 0
    round_trips = 0
    coalesced = 0
    cross_msgs = 0
    cross_acks = 0
    channel_bytes = 0               # epoch messages that crossed a pipe
    blocked = 0.0                   # partition 0's wait on the workers
    ok = False
    try:
        ctx = mp.get_context("fork")
        for spec in specs[1:]:
            # Made just before this worker forks, so no sibling inherits
            # its worker end: the worker's death closes the last copy,
            # and the parent's next read of the pipe ends at EOF.
            conn, wconn = ctx.Pipe()
            proc = ctx.Process(target=_worker,
                               args=(wconn, spec, conns + [conn]),
                               daemon=True)
            proc.start()
            wconn.close()
            conns.append(conn)
            procs.append(proc)
        # Partition 0 builds its stack while the workers build theirs.
        local = _Partition(specs[0])
        clocks = [0.0] * width
        nexts: List[Optional[float]] = [local.sim.next_time()]
        pendings: List[List[Tuple[int, float]]] = [[] for _ in range(width)]
        inboxes: List[List[Section]] = [[] for _ in range(width)]
        inbox_min = [INF] * width       # min over queued sections' times
        for i in range(1, width):
            nexts.append(_receive(conns[i - 1], i, "ready")[0])

        stall = 0
        # Hot-path bindings: this loop turns over once per epoch.
        perf = time.perf_counter
        send, receive = _send, _receive
        part_range = range(width)
        neff = [INF] * width        # per-round scratch, reused
        reals = [INF] * width
        while True:
            for i in part_range:
                nx = nexts[i]
                v = nx if nx is not None else INF
                if inbox_min[i] < v:
                    v = inbox_min[i]
                reals[i] = v
                # A partition awaiting an ack is not inert: the deposit
                # wakes it at >= its floor, from where it can emit with
                # arrival >= floor + lookahead — so for capping *others*
                # its effective frontier includes its own floors.  The
                # floors stay out of reals/gmin: inclusive dispatch at
                # gmin needs an actual event at that instant, and
                # wake-generated events are always >= the real minimum
                # (the deposit is produced by real chain events).
                for _owing, floor in pendings[i]:
                    if floor < v:
                        v = floor
                neff[i] = v
            gmin = min(reals)
            if gmin == INF:
                if any(pendings):
                    raise SimulationError(
                        "pdes: un-acked synchronous sends with no "
                        "schedulable events anywhere (protocol stall)")
                break
            caps = compute_caps(neff, reals, pendings, lookahead)
            epochs += 1
            # Quiescence coalescing: deliver the grant only where it
            # can matter.  With an empty inbox, a finite cap at or
            # below the partition's own frontier (reals includes its
            # held arrivals), and no claim on gmin, the grant would
            # route nothing, release nothing from the holding pen, and
            # dispatch no event — a provable no-op, so the round-trip
            # is elided and the partition's next grant carries a cap
            # that subsumes every elided epoch.  The gmin owner is
            # never skipped (liveness), and a dry partition
            # (reals == inf) only runs when its cap is unbounded.
            active = [i for i in part_range
                      if inboxes[i] or caps[i] == INF
                      or (reals[i] != INF
                          and (caps[i] > reals[i] or reals[i] == gmin))]
            round_trips += len(active)
            coalesced += width - len(active)
            grant0 = None
            for i in active:
                cap = None if caps[i] == INF else caps[i]
                inbox = inboxes[i]
                if inbox:
                    grant = (cap, gmin, [sec.raw for sec in inbox])
                    inboxes[i] = []
                    inbox_min[i] = INF
                else:
                    grant = (cap, gmin, ())
                if i:
                    channel_bytes += send(conns[i - 1], i, grant)
                else:
                    grant0 = grant
            # The workers have their grants: partition 0 runs its epoch
            # beside theirs, and only then are their reports read.
            report0 = local.epoch(grant0) if grant0 is not None else None
            routed = 0
            moved = False
            for i in active:
                if i:
                    t0 = perf()
                    report, nbytes = receive(conns[i - 1], i, "report")
                    blocked += perf() - t0
                    channel_bytes += nbytes
                else:
                    report = report0
                clock, nt, pending, sections = report
                moved = moved or clock != clocks[i] or nt != nexts[i] \
                    or pending != pendings[i]
                clocks[i] = clock
                nexts[i] = nt
                pendings[i] = pending
                for sec in sections:
                    dst = sec.dst
                    inboxes[dst].append(sec)
                    if sec.min_time < inbox_min[dst]:
                        inbox_min[dst] = sec.min_time
                    routed += sec.n_msgs + sec.n_acks
                    cross_msgs += sec.n_msgs
                    cross_acks += sec.n_acks
            # Belt-and-braces against protocol bugs: some partition must
            # advance or transfer something every epoch (the min-N one
            # always can).  Several idle epochs in a row mean the cap
            # algebra broke; fail loudly rather than spin.
            stall = 0 if (routed or moved) else stall + 1
            if stall > 3:
                raise SimulationError(
                    f"pdes: no progress for {stall} epochs "
                    f"(clocks={clocks}, frontiers={nexts}, "
                    f"pending={pendings})")

        for i in range(1, width):
            channel_bytes += send(conns[i - 1], i, None)
        # Partition 0's payload stays in-process, unpickled; its stack
        # goes before the workers' finals arrive.
        finals = [local.final(blocked)]
        local = None
        finals += [_receive(conns[i - 1], i, "final")[0]
                   for i in range(1, width)]
        ok = True
    finally:
        # Each worker exits after its final; on any error nothing is
        # resumable, so each is killed first.  Either way all are reaped.
        for conn in conns:
            conn.close()
        if not ok:
            for proc in procs:
                proc.kill()
        for proc in procs:
            proc.join()

    for payload in finals:
        if payload["failure"]:
            raise SimulationError(
                f"pdes: partition {payload['part']} application error:\n"
                f"{payload['failure']}")
    deadlocked = [name for p in finals for name in p["deadlocked"]]
    if deadlocked:
        raise SimulationError(
            f"{app.name}/{variant} on {n_clusters}x{nodes_per_cluster}: "
            f"workers {deadlocked} never finished "
            f"(deadlock; partition clocks "
            f"{[p['clock'] for p in finals]})")

    # ---- merge: finish times, shared state, meters, stats, traces ----
    finished_at = [0.0] * topo.n_nodes
    for payload in finals:
        for nid, t in payload["finished_at"].items():
            finished_at[nid] = t
    elapsed = max(finished_at)

    merged_shared = plan.APP_ADAPTERS[app.name].merge(
        [p["shared"] for p in finals])

    # Fresh, never-run stack so finalize/stats see the usual interfaces
    # (topology, runtime) against the merged shared state.
    _fsim, _ffabric, frts = _build_stack(topo, network, seq_kind,
                                         dedicated_sequencer_node)
    answer = app.finalize(frts, params, variant, merged_shared)
    stats = app.stats(frts, params, variant, merged_shared)

    traffic: Dict[str, Dict[str, int]] = {}
    for payload in finals:
        for bucket, counters in payload["traffic"].items():
            slot = traffic.setdefault(bucket, {})
            for key, val in counters.items():
                slot[key] = slot.get(key, 0) + val

    sim_stats: Dict[str, Any] = {}
    for payload in finals:
        for key, val in payload["sim_stats"].items():
            sim_stats[key] = sim_stats.get(key, 0) + val
    sim_stats["pdes_partitions"] = width
    sim_stats["pdes_epochs"] = epochs
    sim_stats["pdes_round_trips"] = round_trips
    sim_stats["pdes_coalesced_round_trips"] = coalesced
    sim_stats["pdes_channel_bytes"] = channel_bytes
    sim_stats["pdes_cross_messages"] = cross_msgs
    sim_stats["pdes_acks"] = cross_acks
    sim_stats["pdes_epoch_breaks"] = sum(p["epoch_breaks"] for p in finals)
    sim_stats["pdes_blocked_s"] = sum(p["blocked_s"] for p in finals)

    if tracer is not None:
        merged = [r for p in finals for r in p["records"]]
        merged.sort(key=lambda r: r.time)   # stable: partition order ties
        tracer.records.extend(merged)

    return AppResult(
        app=app.name, variant=variant, n_clusters=n_clusters,
        nodes_per_cluster=nodes_per_cluster, elapsed=elapsed, answer=answer,
        stats=stats, traffic=traffic, utilization=None,
        sim_stats=sim_stats)
