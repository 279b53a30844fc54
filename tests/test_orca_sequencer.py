"""Property tests for the three sequencer protocols' one ``acquire``.

Hypothesis draws request schedules — (cluster, time) pairs on a grid
coarse enough that requests tie with each other and with token
arrivals — and the grants a bare sequencer hands out are replayed
against the protocol's rules: every stamp exactly once, an uncontended
token trip costs its ring distance in hops, waiters go in ring order
(same-cluster waiters before the token departs), migrations count the
acquires that found the token elsewhere, and the stamp comes back as a
plain ``int`` only at a quiet instant with the token local and free.

Whole-stack behaviour (dispatch depths, trace records) is pinned by the
``seq/*/contended`` and ``app/*`` cells of the golden manifest.
"""

from dataclasses import dataclass

from hypothesis import given, settings, strategies as st

from repro.orca.sequencer import make_sequencer
from repro.sim import Event, Simulator

HOP = 2.0 ** -10   # binary fractions: every time below is exact
STEP = HOP / 4


@dataclass
class Req:
    cluster: int
    t0: float
    token_at: int = -1      # where the token was when acquire was called
    held: bool = False
    quiet: bool = False
    inline: bool = False    # acquire returned the int itself
    stamp: int = -1
    done: float = -1.0


def run_schedule(kind, n_clusters, schedule):
    """Issue ``schedule``'s acquires on a bare sequencer; requests at
    one instant are issued in list order."""
    sim = Simulator()
    seq = make_sequencer(kind, sim, n_clusters, HOP)
    ring = getattr(seq, "_ring", None)
    reqs = [Req(c % n_clusters, q * STEP)
            for c, q in sorted(schedule, key=lambda cq: cq[1])]

    def issue(req):
        if ring is not None:
            req.token_at, req.held = ring.at, ring.held
        req.quiet = sim.idle_at_now()
        got = seq.acquire(req.cluster)

        def granted(stamp):
            req.stamp, req.done = stamp, sim.now

        req.inline = type(got) is int
        if req.inline:
            granted(got)
        else:
            assert isinstance(got, Event)
            got.callbacks.append(lambda ev: granted(ev.value))

    for req in reqs:
        sim.call_at(req.t0, lambda req=req: issue(req))
    sim.run()
    return seq, reqs


schedules = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 24)),
                     min_size=1, max_size=12)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), schedules)
def test_centralized_stamps_in_call_order(n_clusters, schedule):
    _seq, reqs = run_schedule("centralized", n_clusters, schedule)
    assert [r.stamp for r in reqs] == list(range(len(reqs)))
    assert all(r.inline and r.done == r.t0 for r in reqs)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["distributed", "migrating"]), st.integers(1, 4),
       schedules)
def test_token_protocols_follow_the_ring_rules(kind, n, schedule):
    seq, reqs = run_schedule(kind, n, schedule)
    direct = kind == "migrating"

    # Every stamp exactly once.
    order = sorted(reqs, key=lambda r: r.stamp)
    assert [r.stamp for r in order] == list(range(len(reqs)))

    # An int only at a quiet instant with the token local and free —
    # and then the stamp costs no virtual time.
    for r in reqs:
        if r.inline:
            assert r.quiet and not r.held and r.token_at == r.cluster
            assert r.done == r.t0
        elif direct and r.quiet and not r.held and r.token_at == r.cluster:
            raise AssertionError(f"{r} should have been stamped inline")

    if direct:
        assert seq.migrations == sum(r.token_at != r.cluster for r in reqs)

    def hops(at, turn_done, dst):
        if n == 1:
            return 0
        if direct:
            return 0 if at == dst else 1
        if at == dst:
            return n if turn_done else 0
        return (dst - at) % n

    # Replay the grants in stamp order against the ring's rules.
    at, released = 0, None
    pending = list(reqs)                    # in request order
    for k, got in enumerate(order):
        waiting = [] if released is None else \
            [r for r in pending if r.t0 <= released]
        if not waiting:
            # Token parked and free: the earliest request takes it and
            # pays the full trip from where the last turn left it.
            want = pending[0]
            dist = hops(at, k > 0, want.cluster)
            arrives = want.t0 + dist * HOP
        else:
            here = [r for r in waiting if r.cluster == at]
            if here:
                # Same-cluster waiters ride the current turn.
                want, dist = here[0], 0
            else:
                # The token departs; the waiter closest ahead gets it
                # (requests of one cluster in request order).
                want = min(waiting,
                           key=lambda r: hops(at, True, r.cluster))
                dist = hops(at, True, want.cluster)
            arrives = released + dist * HOP
        assert got is want, (k, got, want)
        assert got.done == arrives, (k, got, arrives)
        pending.remove(got)
        at, released = got.cluster, got.done
