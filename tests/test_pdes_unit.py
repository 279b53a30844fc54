"""PDES building blocks: partition planning, cap algebra, scheduling.

The property tests state the conservative-synchronization contract
directly: a partition capped by :func:`compute_caps` can never process
past the earliest instant at which any other partition might still
send it something (``N_j + L``), and the abstract epoch model in
:func:`test_never_delivers_early` drives randomized message traffic
through the real cap algebra and asserts the invariant the whole
design exists for — no cross-partition message is ever delivered
before the destination's clock.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import small_params
from repro.network import DAS_PARAMS
from repro.scenario import Impairment, Scenario
from repro.sim import SimulationError
from repro.sim.pdes import (
    cluster_partition_map,
    compute_caps,
    partition_clusters,
    pdes_ineligible_reason,
    plan,
    wan_lookahead,
)

INF = math.inf


# ------------------------------------------------------------- planning


@pytest.mark.parametrize("n_clusters,n_partitions", [
    (2, 2), (3, 2), (4, 2), (4, 4), (7, 3), (64, 8), (5, 16), (1, 4),
])
def test_partition_clusters_contiguous_balanced(n_clusters, n_partitions):
    blocks = partition_clusters(n_clusters, n_partitions)
    # Exact cover, in order, contiguous.
    assert [c for b in blocks for c in b] == list(range(n_clusters))
    sizes = [len(b) for b in blocks]
    assert min(sizes) >= 1
    assert max(sizes) - min(sizes) <= 1
    # Width never exceeds either bound.
    assert len(blocks) == max(1, min(n_partitions, n_clusters))


def test_partition_clusters_rejects_empty():
    with pytest.raises(ValueError):
        partition_clusters(0, 2)


def test_cluster_partition_map_roundtrip():
    blocks = partition_clusters(7, 3)
    part = cluster_partition_map(blocks)
    assert len(part) == 7
    for pid, block in enumerate(blocks):
        for c in block:
            assert part[c] == pid


# ------------------------------------------------------------ lookahead


def test_wan_lookahead_clean_is_wan_latency():
    assert wan_lookahead(DAS_PARAMS) == DAS_PARAMS.wan.latency


def test_wan_lookahead_jitter_collapses_to_zero():
    scen = Scenario(seed=1, impairments=(Impairment.of("jitter", sigma=0.1),))
    assert wan_lookahead(DAS_PARAMS, scen) == 0.0


def test_wan_lookahead_loss_keeps_latency():
    scen = Scenario(seed=1, impairments=(Impairment.of("loss", p=0.1),))
    assert wan_lookahead(DAS_PARAMS, scen) == DAS_PARAMS.wan.latency


# ----------------------------------------------------------------- mode


def test_pdes_mode_invalid_raises():
    """``run_app`` takes ``pdes="off"`` or ``"on"`` and nothing else —
    not the retired ``auto``, nor a spelling the old selector folded
    into one of the two — and names the argument it refused."""
    from repro.apps import make_app
    from repro.harness import run_app
    for value in ("auto", "ON", " on", "", None):
        with pytest.raises(SimulationError, match="unknown pdes value"):
            run_app(make_app("sor"), "original", 2, 3, small_params("sor"),
                    pdes=value)


@pytest.mark.parametrize("workers", [0, -1, -5])
def test_pdes_workers_below_one_raises(workers):
    """A width below 1 is refused by name, before anything forks — it
    used to run silently at every core — also where the run could not
    be partitioned anyway (one cluster)."""
    from repro.apps import make_app
    from repro.harness import run_app
    for clusters in (2, 1):
        with pytest.raises(SimulationError, match="pdes_workers must be >= 1"):
            run_app(make_app("sor"), "original", clusters, 3,
                    small_params("sor"), pdes="on", pdes_workers=workers)


def test_default_run_does_not_import_pdes():
    """The partitioned engine is imported by a run that asks for it and
    by nothing else: a default ``run_app`` (and the CLI, profiler and
    sweep modules around it) leave ``repro.sim.pdes`` unloaded."""
    import subprocess
    import sys
    code = (
        "import sys\n"
        "import repro.__main__, repro.harness, repro.obs\n"
        "from repro.apps import make_app, small_params\n"
        "from repro.harness import run_app\n"
        "run_app(make_app('sor'), 'original', 2, 3, small_params('sor'))\n"
        "print(sorted(m for m in sys.modules if 'pdes' in m))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------- eligibility


def test_ineligible_reasons():
    from repro.apps import make_app
    sor, water = make_app("sor"), make_app("water")
    assert pdes_ineligible_reason(sor, 2) is None
    assert "single-cluster" in pdes_ineligible_reason(sor, 1)
    assert "broadcast" in pdes_ineligible_reason(water, 2)
    from repro.scenario import Fault
    scen = Scenario(seed=1, faults=(
        Fault.of("slow_node", at=0.01, duration=0.01, target="n0"),))
    assert "faults" in pdes_ineligible_reason(sor, 2, scenario=scen)
    assert "decision" in pdes_ineligible_reason(sor, 2, decision=object())
    assert "utilization" in pdes_ineligible_reason(sor, 2, utilization=True)
    from repro.sim import Tracer
    for bounded in (Tracer(ring=5), Tracer(sample={"msg.send": 2})):
        assert "bounded tracing" in pdes_ineligible_reason(
            sor, 2, tracer=bounded)
    assert pdes_ineligible_reason(
        sor, 2, tracer=Tracer(kinds=frozenset({"msg.send"}))) is None


def test_attach_refuses_a_fabric_with_a_decision():
    """A decision model may stripe WAN transfers, whose chunks arrive
    independently: the boundary cannot cut them, so it refuses to
    attach to a fabric that has one installed."""
    from repro.network import ClusterSpec, Fabric, Topology
    from repro.sim import Simulator
    from repro.sim.pdes import PartitionBoundary
    topo = Topology([ClusterSpec("c0", 2), ClusterSpec("c1", 2)])
    sim = Simulator()
    fabric = Fabric(sim, topo, DAS_PARAMS)
    fabric.decision = object()
    boundary = PartitionBoundary(sim, topo, (0, 1), 0)
    with pytest.raises(SimulationError, match="striped"):
        boundary.attach(fabric)


# -------------------------------------------------------------- workers


def test_pdes_workers_explicit_honored_and_capped(monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    # Explicit requests are honored even beyond the host's core count
    # (oversubscribed workers still compute the identical result)...
    assert plan.pdes_workers(8, 6) == 6
    # ...but never beyond the partition count.
    assert plan.pdes_workers(4, 64) == 4
    assert plan.pdes_workers(4, 1) == 1
    # No request: every core, under the same cap.
    assert plan.pdes_workers(16, None) == 2
    monkeypatch.setattr("os.cpu_count", lambda: 8)
    assert plan.pdes_workers(16, None) == 8
    assert plan.pdes_workers(4, None) == 4


# ----------------------------------------------------------- cap algebra

finite_t = st.floats(min_value=0.0, max_value=100.0,
                     allow_nan=False, allow_infinity=False)
maybe_t = st.one_of(st.just(INF), finite_t)


@st.composite
def cap_states(draw):
    """A coordinator round's view: reals, neff, pendings, lookahead."""
    width = draw(st.integers(min_value=2, max_value=5))
    reals = draw(st.lists(maybe_t, min_size=width, max_size=width))
    # neff = reals lowered by own pending floors; pendings point at peers.
    pendings = []
    neff = list(reals)
    for i in range(width):
        floors = draw(st.lists(
            st.tuples(st.integers(min_value=0, max_value=width - 1),
                      finite_t),
            max_size=3))
        floors = [(owing, f) for owing, f in floors if owing != i]
        pendings.append(floors)
        for _owing, f in floors:
            neff[i] = min(neff[i], f)
    lookahead = draw(st.floats(min_value=0.0, max_value=10.0,
                               allow_nan=False))
    return neff, reals, pendings, lookahead


@given(cap_states())
def test_caps_never_exceed_peer_horizons(state):
    """cap_i <= N_j + L for every peer j: partition i can never run past
    the earliest instant any peer might still emit toward it."""
    neff, reals, pendings, lookahead = state
    caps = compute_caps(neff, reals, pendings, lookahead)
    width = len(neff)
    for i in range(width):
        for j in range(width):
            if j != i:
                assert caps[i] <= neff[j] + lookahead


@given(cap_states())
def test_caps_respect_ack_floors(state):
    """Every un-acked synchronous send pins its sender at
    max(arrival, reals[owing]) — it cannot outrun the remote deposit."""
    neff, reals, pendings, lookahead = state
    caps = compute_caps(neff, reals, pendings, lookahead)
    for i, floors in enumerate(pendings):
        for owing, floor in floors:
            assert caps[i] <= max(floor, reals[owing])


def _lone_owner(neff):
    """The one partition holding the smallest ``neff``, else ``None``."""
    m1 = min(neff)
    return neff.index(m1) if neff.count(m1) == 1 else None


@given(cap_states(), maybe_t)
def test_non_owner_caps_ignore_own_frontier(state, moved):
    """Every cap but the lone owner's is independent of the partition's
    own frontier: moving reals[i]/neff[i] anywhere that keeps ``i`` a
    non-owner must not change cap_i (no self-capping)."""
    neff, reals, pendings, lookahead = state
    caps = compute_caps(neff, reals, pendings, lookahead)
    for i in range(len(neff)):
        if i == _lone_owner(neff):
            continue
        # Floors owed *by others to i* reference reals[i]; keep those.
        if any(owing == i for fl in pendings for owing, _f in fl):
            continue
        reals2 = list(reals)
        reals2[i] = moved
        neff2 = list(neff)
        neff2[i] = min([moved] + [f for _owing, f in pendings[i]])
        if _lone_owner(neff2) == i:
            continue
        caps2 = compute_caps(neff2, reals2, pendings, lookahead)
        assert caps2[i] == caps[i]


@given(cap_states())
def test_lone_owner_cap_is_one_lookahead_or_the_runner_up(state):
    """The lone owner (own frontier m1, runner-up m2) runs to its peers'
    next event or one lookahead past its own, whichever is later:
    cap <= max(m1 + L, m2), and without floors of its own exactly
    min(m2 + L, max(m1 + L, m2)).  A full ``m2 + L`` window would carry
    it one lookahead past the runner-up, which would then run the next
    window alone — the two would take turns instead of running
    together."""
    neff, reals, pendings, lookahead = state
    owner = _lone_owner(neff)
    if owner is None:
        return
    caps = compute_caps(neff, reals, pendings, lookahead)
    m1 = neff[owner]
    m2 = min(v for j, v in enumerate(neff) if j != owner)
    assert caps[owner] <= max(m1 + lookahead, m2)
    if not pendings[owner]:
        assert caps[owner] == min(m2 + lookahead, max(m1 + lookahead, m2))


@given(cap_states(), st.floats(min_value=0.0, max_value=5.0,
                               allow_nan=False))
def test_caps_monotone_in_lookahead(state, bump):
    """More lookahead never shrinks any cap (it only buys freedom)."""
    neff, reals, pendings, lookahead = state
    lo = compute_caps(neff, reals, pendings, lookahead)
    hi = compute_caps(neff, reals, pendings, lookahead + bump)
    assert all(h >= l for l, h in zip(lo, hi))


@given(cap_states())
def test_gmin_owner_is_live(state):
    """Liveness: with run_epoch's raise-to-gmin rule, the partition
    holding the globally-earliest real event can always dispatch it."""
    neff, reals, pendings, lookahead = state
    gmin = min(reals)
    if gmin == INF:
        return
    caps = compute_caps(neff, reals, pendings, lookahead)
    i = reals.index(gmin)
    bound = max(caps[i], gmin)   # run_epoch raises bound < gmin to gmin
    assert bound >= gmin         # inclusive at gmin: the event dispatches


# ------------------------------------------- abstract scheduling model


@st.composite
def traffic_models(draw):
    """Random partitions, local event times, and message-emission plans."""
    width = draw(st.integers(min_value=2, max_value=4))
    lookahead = draw(st.floats(min_value=0.01, max_value=1.0,
                               allow_nan=False))
    events = []
    for _ in range(width):
        times = sorted(draw(st.lists(
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
            max_size=6)))
        events.append(times)
    # For each partition: which of its events emit, to whom, how late.
    emissions = draw(st.lists(
        st.tuples(st.integers(min_value=0, max_value=width - 1),   # src
                  st.integers(min_value=0, max_value=5),           # event #
                  st.integers(min_value=0, max_value=width - 1),   # dst
                  st.floats(min_value=0.0, max_value=2.0,
                            allow_nan=False)),                     # extra
        max_size=8))
    return width, lookahead, events, emissions


@settings(max_examples=200, deadline=None)
@given(traffic_models())
def test_never_delivers_early(model):
    """The conservative contract, end to end on an abstract model.

    Partitions hold sorted local event queues; processing an event may
    emit a message that arrives at a peer ``lookahead + extra`` later
    (the lookahead is the minimum WAN propagation — nothing arrives
    sooner).  Rounds run the *real* ``compute_caps`` plus run_epoch's
    dispatch rules (exclusive below the cap, inclusive at gmin) plus
    the boundary's echo rule — an emission mid-epoch bounds the rest
    of that partition's epoch at ``arrival + lookahead``, because the
    epoch cap was computed before the message existed and the earliest
    reply lands after that instant.  (Dropping the echo rule makes
    hypothesis find the two-partition counterexample the real
    ``PartitionBoundary._echo`` machinery exists for.)  The assertion
    is the one the whole design exists for: no routed message is ever
    delivered at a time the destination has already passed.
    """
    width, lookahead, events, emissions = model
    queues = [list(ts) for ts in events]   # sorted local event times
    clocks = [0.0] * width
    emit_plan = {}
    for src, idx, dst, extra in emissions:
        if dst != src:
            emit_plan.setdefault((src, idx), (dst, extra))
    counts = [0] * width                   # events processed per partition

    for _round in range(200):
        reals = [q[0] if q else INF for q in queues]
        gmin = min(reals)
        if gmin == INF:
            break
        # No synchronous sends in the model: neff == reals, no floors.
        caps = compute_caps(reals, reals, [[] for _ in range(width)],
                            lookahead)
        for i in range(width):
            bound = max(caps[i], gmin)     # run_epoch's raise-to-gmin
            ebound = INF                   # echo bound of this epoch
            while queues[i]:
                nxt = queues[i][0]
                if nxt >= ebound:
                    break                  # boundary._probe's EpochBreak
                if not (nxt < bound or nxt == gmin):
                    break
                t = queues[i].pop(0)
                # Delivery: the destination must not have passed it.
                assert t >= clocks[i], (
                    f"partition {i} delivered at {t} after advancing "
                    f"to {clocks[i]} (cap {caps[i]}, gmin {gmin})")
                clocks[i] = t
                plan = emit_plan.get((i, counts[i]))
                counts[i] += 1
                if plan is not None:
                    dst, extra = plan
                    arrival = t + lookahead + extra
                    ebound = min(ebound, arrival + lookahead)
                    # Insert keeping the queue sorted.
                    q = queues[dst]
                    lo = 0
                    while lo < len(q) and q[lo] <= arrival:
                        lo += 1
                    q.insert(lo, arrival)
    else:
        pytest.fail("model did not drain in 200 rounds (liveness)")
    assert all(not q for q in queues)


def _run_epoch_model(model, skip, grants=None):
    """The abstract model again, now with coordinator-style routing:
    emissions land in per-partition *inboxes* and reach the destination
    with its next grant, exactly like the real section routing.  With
    ``skip`` the grant/report round-trip is elided for partitions the
    quiescence rule marks inert; without it every partition is granted
    every round.  Returns the processed-event sequence and final clocks;
    a ``grants`` list collects each round's granted partitions.
    """
    width, lookahead, events, emissions = model
    queues = [list(ts) for ts in events]
    inboxes = [[] for _ in range(width)]    # routed, not yet granted
    clocks = [0.0] * width
    emit_plan = {}
    for src, idx, dst, extra in emissions:
        if dst != src:
            emit_plan.setdefault((src, idx), (dst, extra))
    counts = [0] * width
    processed = []

    for _round in range(300):
        reals = [min(queues[i][0] if queues[i] else INF,
                     min(inboxes[i], default=INF))
                 for i in range(width)]
        gmin = min(reals)
        if gmin == INF:
            return processed, clocks
        caps = compute_caps(reals, reals, [[] for _ in range(width)],
                            lookahead)
        if skip:
            active = [i for i in range(width)
                      if inboxes[i] or caps[i] == INF
                      or (reals[i] != INF
                          and (caps[i] > reals[i] or reals[i] == gmin))]
        else:
            active = list(range(width))
        if grants is not None:
            grants.append(active)
        outbox = []
        for i in active:
            for arrival in inboxes[i]:      # the grant delivers the inbox
                q = queues[i]
                lo = 0
                while lo < len(q) and q[lo] <= arrival:
                    lo += 1
                q.insert(lo, arrival)
            inboxes[i] = []
            bound = max(caps[i], gmin)
            ebound = INF
            while queues[i]:
                nxt = queues[i][0]
                if nxt >= ebound:
                    break
                if not (nxt < bound or nxt == gmin):
                    break
                t = queues[i].pop(0)
                assert t >= clocks[i], "delivered into the past"
                clocks[i] = t
                processed.append((i, t))
                plan = emit_plan.get((i, counts[i]))
                counts[i] += 1
                if plan is not None:
                    dst, extra = plan
                    arrival = t + lookahead + extra
                    ebound = min(ebound, arrival + lookahead)
                    outbox.append((dst, arrival))
        for dst, arrival in outbox:         # reports route after the round
            inboxes[dst].append(arrival)
    pytest.fail("model did not drain in 300 rounds (liveness)")


@settings(max_examples=200, deadline=None)
@given(traffic_models())
def test_quiescence_skip_equals_full_protocol(model):
    """The coalescing rule elides only provable no-ops: running the
    same traffic with every partition granted every round and with the
    real quiescence skip produces the identical processed-event
    sequence and final clocks — a skipped report is never one the
    protocol needed.  (Weakening the rule — e.g. dropping the gmin
    clause — makes hypothesis find a stalled or diverging schedule.)

    Runs each model twice more with the lookahead collapsed to 0 — the
    jitter-impairment degenerate where partitions min-step in lockstep.
    That is the one regime where the gmin clause is load-bearing: with
    any positive lookahead, the gmin owner's cap strictly exceeds its
    frontier anyway, and a skip rule missing the clause would look
    correct."""
    width, lookahead, events, emissions = model
    for la in (lookahead, 0.0):
        m = (width, la, events, emissions)
        full = _run_epoch_model(m, skip=False)
        skipped = _run_epoch_model(m, skip=True)
        assert full == skipped


@pytest.mark.parametrize("lag", [1.0, 1.5])
def test_dense_partitions_run_in_step(lag):
    """Two dense partitions (an event every L/4 for 20 L, the second
    starting ``lag`` lookaheads later) share their windows: under the
    coordinator's skip rule, all but at most two rounds grant both.  A
    lone-owner cap of the runner-up's frontier plus L makes them take
    turns instead — each round one partition runs a 2L window while the
    other is skipped, and no round grants both."""
    lookahead = 1.0
    step = lookahead / 4
    events = [[k * step for k in range(80)],
              [lag + k * step for k in range(80)]]
    grants = []
    _run_epoch_model((2, lookahead, events, []), skip=True, grants=grants)
    both = sum(len(active) == 2 for active in grants)
    assert both >= len(grants) - 2, grants
