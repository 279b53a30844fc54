"""The conservative PDES coordinator: fork, synchronize, merge.

``run_app_pdes`` is the partitioned twin of
:func:`repro.harness.experiment.run_app`.  It splits the topology's
clusters into contiguous blocks (:mod:`.plan`), forks one worker per
block, and drives them through *epochs*: windows of virtual time each
partition may simulate without hearing from the others.

The window algebra (:func:`compute_caps`) is the whole correctness
story.  With ``N_j`` the earliest event time partition ``j`` could
still dispatch (its next heap entry, or anything routed to it this
epoch) and ``L`` the WAN lookahead:

    cap_i = min( min_{j != i} N_j + L,
                 min over i's un-acked floors (p, A) of max(A, N_p) )

The first term is classic conservative synchronization — nothing
another partition does before ``N_j`` can reach ``i`` before
``N_j + L``.  The second handles synchronous sends: until the
destination ``p`` acks the deposit of an armed message arriving at
``A``, partition ``i`` may not outrun ``max(A, N_p)``; the deposit
happens strictly after the arrival, and ``N_p`` tracks the
destination's frontier, so the sender's delivery event is always
planted in ``i``'s future.  Every term is ``>= min_j N_j``, so the
globally-earliest event is always dispatchable: the protocol cannot
deadlock.

Workers run each epoch *inclusively* to their cap (the engine's
``run(until=...)`` dispatches events at the horizon), report their new
frontier plus everything they exported, and the coordinator routes
messages/acks into the next epoch's injections.  A worker's own
:class:`~.boundary.PartitionBoundary` refuses (`call_at` raises) any
injection before its clock — the conservative guarantee is asserted on
every delivery, not assumed.

**The sync fast lane** (see :mod:`.channel`): grants and reports cross
each worker's one pipe as pickled blocks, in protocol order beside the
run dispatch, the handshakes and errors — and the coordinator runs
the cap algebra every round but only *delivers* a grant to partitions
that can act on it.  A partition is skipped when
its inbox is empty and its cap is at or below its own frontier (and it
does not own ``gmin``): granting it would route nothing, release no
held arrival, and dispatch no event, so eliding the round-trip leaves
the worker's state bit-identical and the next grant it does receive
subsumes every elided epoch — a multi-epoch cap.  Workers are pooled:
the forked processes persist across runs of the same width, so a
figure sweep re-synchronizes instead of re-forking.

Determinism: partitions allocate the same per-site message/request ids
as the single-process run, impairment randomness is drawn from
per-(model, directed pair) substreams, and every cross-partition
delivery replays the destination half of the serial fabric code at the
exported instant — so answers, finish times and trace *contents* are
bit-identical to the oracle; only same-instant interleavings across
independent partitions (invisible in any record field) may differ.
"""

from __future__ import annotations

import atexit
import math
import multiprocessing as mp
import pickle
import time
import traceback
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..engine import SimulationError
from ..trace import TraceSpec
from . import channel, plan
from .boundary import EpochBreak, PartitionBoundary

__all__ = ["WorkerSpec", "compute_caps", "run_app_pdes", "run_epoch",
           "shutdown_pool"]

INF = float("inf")


# --------------------------------------------------------------- protocol
#
# One duplex pipe per worker, long-lived across runs; every message is
# one pickled tuple, in this order (see channel.py for the blocks):
#   Parent -> worker:  ("run", WorkerSpec)          start one simulation
#   Worker -> parent:  ("ready", next_time)         stack built
#   then per granted epoch:
#   Parent -> worker:  (GRANT, cap_or_None, gmin, section raws)
#   Worker -> parent:  (REPORT, clock, frontier, pendings, sections)
#   and to end the run:
#   Parent -> worker:  (FINISH, None, 0.0, ())
#   Worker -> parent:  ("final", payload_dict)
# In place of any worker message, fatal:
#                      ("error", part_id, tb, exc_or_None)
#
# Routed items inside sections (built by PartitionBoundary.export /
# export_ack; index 3 is always the item's virtual time, which
# compute_caps relies on via the section's min_time):
#   ("msg", dst_partition, Message, arrival)
#   ("ack", dst_partition, msg_id, t_deposit)


@dataclass
class WorkerSpec:
    """Everything a forked partition worker needs to rebuild its stack."""

    part_id: int
    n_partitions: int
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

    ``min_{j != i} neff_j`` is computed from the two smallest values
    (the minimum, unless ``i`` is its only holder, else the runner-up)
    — one pass instead of a scan per partition; this runs every epoch
    on the coordinator's critical path.
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
    if no_floors:
        e1 = m1 + lookahead
        e2 = m2 + lookahead
        lone = m1_count == 1
        return [e2 if (lone and neff[i] == m1) else e1
                for i in range(width)]
    caps = []
    for i in range(width):
        others = m2 if (neff[i] == m1 and m1_count == 1) else m1
        cap = others + lookahead
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

def _worker_loop(conn, part_id: int, parent_ends) -> None:
    """Pooled worker body: one forked process, many runs.

    Each ``("run", spec)`` on the pipe drives one full simulation; the
    per-run state (message/request id counters, the whole simulator
    stack) is rebuilt from the spec exactly as a fresh process would —
    running many simulations in one process is the same invariant the
    test suite and the sweep pool already rely on.  A worker that fails
    ships the error and exits; the coordinator then retires the whole
    pool.  ``parent_ends`` are the parent's pipe ends this fork
    inherited (its own and its elder siblings'): closed, so that only
    the parent holds them.
    """
    for end in parent_ends:
        end.close()
    while True:
        try:
            cmd = conn.recv()
        except (EOFError, OSError):
            return
        if not isinstance(cmd, tuple) or cmd[0] != "run":
            return
        try:
            _worker_run(conn, cmd[1])
        except BaseException as exc:
            # Ship the exception object itself when it pickles: the
            # coordinator then re-raises the app's real error (the
            # serial engine lets a ValueError out of ``register``
            # surface as a ValueError, and partitioning must not
            # change that contract).
            try:
                pickle.dumps(exc)
            except Exception:
                exc = None
            try:
                conn.send(("error", part_id, traceback.format_exc(), exc))
            except Exception:
                pass
            return


def _worker_run(conn, spec: WorkerSpec) -> None:
    # Deferred imports: the worker is forked, so these are usually
    # already loaded; top-level imports here would cycle (apps -> orca
    # -> sim -> pdes).
    from ...apps import make_app
    from ...harness.experiment import (_build_stack, _scan_workers,
                                       _spawn_workers)

    app = make_app(spec.app)
    topo = spec.topology
    tracer = spec.trace.build() if spec.trace is not None else None
    sim, fabric, rts = _build_stack(
        topo, spec.network, spec.sequencer, spec.dedicated_sequencer_node,
        tracer=tracer, scenario=spec.scenario)
    boundary = PartitionBoundary(sim, topo, spec.cluster_partition,
                                 spec.part_id, lookahead=spec.lookahead)
    boundary.attach(fabric)

    shared = app.register(rts, spec.params, spec.variant)
    finished_at: Dict[int, float] = {}
    workers = _spawn_workers(
        sim, app, rts, spec.params, spec.variant, shared,
        [n for c in spec.clusters for n in topo.nodes_in(c)], finished_at)

    conn.send(("ready", sim.next_time()))
    blocked = 0.0
    # Hot-path bindings: this loop turns over once per granted epoch.
    perf = time.perf_counter
    w_recv, w_send = conn.recv_bytes, conn.send_bytes
    decode_grant = channel.decode_grant
    encode_report = channel.encode_report
    encode_sections = channel.encode_sections
    while True:
        t0 = perf()
        block = w_recv()
        blocked += perf() - t0
        kind, cap, gmin, incoming = decode_grant(block)
        if kind == channel.FINISH:
            break
        if incoming:
            boundary.receive(incoming)
        boundary.flush(cap, gmin)
        run_epoch(sim, boundary, cap, gmin)
        frontier = sim.next_time()
        held = boundary.held_min()
        if frontier is None or (held is not None and held < frontier):
            frontier = held
        outbox = boundary.drain_outbox()
        w_send(encode_report(
            sim.now, frontier, boundary.pending(),
            encode_sections(outbox) if outbox else ()))

    # run_app's post-run check, reported instead of raised: the
    # coordinator re-raises with the partition attached.
    deadlocked, failure = _scan_workers(workers)
    if failure is not None:
        failure = "".join(traceback.format_exception(
            type(failure), failure, failure.__traceback__))
    conn.send(("final", {
        "part": spec.part_id,
        "clock": sim.now,
        "finished_at": finished_at,
        "shared": plan.APP_ADAPTERS[spec.app].ship(shared),
        "traffic": rts.meter.snapshot(),
        "sim_stats": sim.stats(),
        "records": list(tracer.records) if tracer is not None else None,
        "blocked_s": blocked,
        "deadlocked": deadlocked,
        "failure": failure,
        "counters": {
            "exported": boundary.exported,
            "injected": boundary.injected,
            "acks_out": boundary.acks_out,
            "acks_in": boundary.acks_in,
            "epoch_breaks": boundary.epoch_breaks,
        },
    }))


# ------------------------------------------------------------ coordinator

class _WorkerPool:
    """Persistent forked partition workers, one duplex pipe each.

    Forked once per width and reused across runs: ``repro figure`` grid
    points and bench repeats of the same topology re-synchronize over
    the existing pipes instead of re-forking the whole stack.  Any
    error retires the pool (the failing worker has exited; the rest are
    terminated).
    """

    def __init__(self, width: int):
        ctx = mp.get_context("fork")
        self.width = width
        self.conns = []
        self.procs = []
        for i in range(width):
            # Made just before this worker forks, so no sibling inherits
            # its worker end: the worker's death closes the last copy,
            # and the parent's next read of the pipe ends at EOF.
            conn, wconn = ctx.Pipe()
            proc = ctx.Process(target=_worker_loop,
                               args=(wconn, i, self.conns + [conn]),
                               daemon=True)
            proc.start()
            wconn.close()
            self.conns.append(conn)
            self.procs.append(proc)
        self.runs = 0

    def alive(self) -> bool:
        return all(proc.is_alive() for proc in self.procs)

    def start(self, specs: Sequence[WorkerSpec]) -> None:
        self.runs += 1
        for i, spec in enumerate(specs):
            channel.send(self.conns[i], i, pickle.dumps(("run", spec), -1))

    def recv(self, i: int, want: str):
        """Worker ``i``'s ``("ready", ...)`` or ``("final", ...)``
        handshake payload."""
        return channel.expect(channel.receive(self.conns[i], i), want)[1]

    def close(self) -> None:
        for conn in self.conns:
            conn.close()
        for proc in self.procs:
            if proc.is_alive():
                proc.terminate()
            proc.join(timeout=5)


_POOL: Optional[_WorkerPool] = None


def _acquire_pool(width: int) -> _WorkerPool:
    """The module-level pool singleton, re-forked only when the width
    changes (or a worker died)."""
    global _POOL
    if _POOL is not None and not (_POOL.width == width and _POOL.alive()):
        _POOL.close()
        _POOL = None
    if _POOL is None:
        _POOL = _WorkerPool(width)
    return _POOL


def _release_pool(pool: _WorkerPool, ok: bool) -> None:
    """Return the pool after a run: keep it on success, retire on error
    (a failed worker has exited mid-protocol; nothing is resumable)."""
    global _POOL
    if ok and pool is _POOL and pool.alive():
        return
    pool.close()
    if pool is _POOL:
        _POOL = None


def shutdown_pool() -> None:
    """Terminate the persistent worker pool (idempotent; also atexit)."""
    global _POOL
    if _POOL is not None:
        _POOL.close()
        _POOL = None


atexit.register(shutdown_pool)


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
        part_id=pi, n_partitions=width, clusters=block,
        cluster_partition=part_map, app=app.name, variant=variant,
        params=params, network=network, sequencer=seq_kind,
        dedicated_sequencer_node=dedicated_sequencer_node, topology=topo,
        scenario=scenario, trace=trace_spec, lookahead=lookahead)
        for pi, block in enumerate(blocks)]

    pool = _acquire_pool(width)
    epochs = 0
    round_trips = 0
    coalesced = 0
    cross_msgs = 0
    cross_acks = 0
    channel_bytes = 0               # grant, report and finish blocks
    ok = False
    try:
        pool.start(specs)
        clocks = [0.0] * width
        nexts: List[Optional[float]] = []
        pendings: List[List[Tuple[int, float]]] = [[] for _ in range(width)]
        inboxes: List[List[channel.Section]] = [[] for _ in range(width)]
        inbox_min = [INF] * width       # min over queued sections' times
        for i in range(width):
            nexts.append(pool.recv(i, "ready"))

        stall = 0
        # Hot-path bindings: this loop turns over once per epoch.
        conns = pool.conns
        send, receive = channel.send, channel.receive
        encode_grant = channel.encode_grant
        decode_report = channel.decode_report
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
            for i in active:
                cap = None if caps[i] == INF else caps[i]
                inbox = inboxes[i]
                if inbox:
                    block = encode_grant(cap, gmin,
                                         [sec.raw for sec in inbox])
                    inboxes[i] = []
                    inbox_min[i] = INF
                else:
                    block = encode_grant(cap, gmin, ())
                channel_bytes += len(block)
                send(conns[i], i, block)
            routed = 0
            moved = False
            for i in active:
                block = receive(conns[i], i)
                channel_bytes += len(block)
                clock, nt, pending, sections = decode_report(block)
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

        finish = channel.encode_finish()
        for i in part_range:
            channel_bytes += len(finish)
            send(conns[i], i, finish)
        finals = [pool.recv(i, "final") for i in part_range]
        ok = True
    finally:
        _release_pool(pool, ok)

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
    sim_stats["pdes_epoch_breaks"] = sum(
        p["counters"]["epoch_breaks"] for p in finals)
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
