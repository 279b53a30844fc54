"""Unit tests for channels, resources (a CPU is a capacity-1 resource),
and barriers."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Barrier, Channel, Resource, SimulationError, Simulator


# ---------------------------------------------------------------- Channel


def test_channel_put_then_get():
    sim = Simulator()
    ch = Channel(sim)
    ch.put("x")

    def proc():
        v = yield ch.get()
        return v

    assert sim.run_process(proc()) == "x"


def test_channel_get_blocks_until_put():
    sim = Simulator()
    ch = Channel(sim)

    def getter():
        v = yield ch.get()
        return (sim.now, v)

    def putter():
        yield sim.timeout(3.0)
        ch.put("late")

    p = sim.spawn(getter())
    sim.spawn(putter())
    sim.run()
    t, v = p.value
    assert t == pytest.approx(3.0)
    assert v == "late"


def test_channel_fifo_order():
    sim = Simulator()
    ch = Channel(sim)
    for i in range(5):
        ch.put(i)

    def proc():
        out = []
        for _ in range(5):
            out.append((yield ch.get()))
        return out

    assert sim.run_process(proc()) == [0, 1, 2, 3, 4]


def test_channel_getters_served_fifo():
    sim = Simulator()
    ch = Channel(sim)
    got = {}

    def getter(name):
        got[name] = yield ch.get()

    sim.spawn(getter("first"))
    sim.spawn(getter("second"))

    def putter():
        yield sim.timeout(1.0)
        ch.put("a")
        ch.put("b")

    sim.spawn(putter())
    sim.run()
    assert got == {"first": "a", "second": "b"}


# ---------------------------------------------------------------- Resource


def test_resource_serializes_users():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    times = []

    def user(name):
        yield res.request()
        yield sim.timeout(2.0)
        times.append((name, sim.now))
        res.release()

    for i in range(3):
        sim.spawn(user(i))
    sim.run()
    assert times == [(0, pytest.approx(2.0)), (1, pytest.approx(4.0)),
                     (2, pytest.approx(6.0))]


def test_resource_capacity_two_runs_pairs():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    done = []

    def user(name):
        yield res.request()
        yield sim.timeout(1.0)
        done.append((name, sim.now))
        res.release()

    for i in range(4):
        sim.spawn(user(i))
    sim.run()
    assert [t for _, t in done] == [pytest.approx(1.0), pytest.approx(1.0),
                                    pytest.approx(2.0), pytest.approx(2.0)]


def test_resource_release_idle_rejected():
    sim = Simulator()
    res = Resource(sim)
    with pytest.raises(SimulationError):
        res.release()


def test_resource_bad_capacity_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Resource(sim, capacity=0)


def test_resource_busy_time_accounting():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def user():
        yield res.request()
        yield sim.timeout(5.0)
        res.release()
        yield sim.timeout(5.0)

    sim.run_process(user())
    assert res.busy_time() == pytest.approx(5.0)
    assert sim.now == pytest.approx(10.0)


# ---------------------------------------------------------------- CPU
#
# A node or gateway CPU is ``Resource(sim, 1)``, charged with ``occupy``.


def _execute(sim, cpu, seconds, priority=0):
    """The request/timeout/release process ``occupy`` stands for: the
    reference it is held to."""
    yield cpu.request(priority)
    try:
        yield sim.timeout(seconds)
    finally:
        cpu.release()


def test_cpu_execute_charges_time():
    sim = Simulator()
    cpu = Resource(sim, 1)

    def proc():
        yield cpu.occupy(1.25)
        return sim.now

    assert sim.run_process(proc()) == pytest.approx(1.25)


def test_cpu_execute_serializes():
    sim = Simulator()
    cpu = Resource(sim, 1)
    ends = []

    def proc(i):
        yield cpu.occupy(1.0)
        ends.append(sim.now)

    for i in range(3):
        sim.spawn(proc(i))
    sim.run()
    assert ends == [pytest.approx(1.0), pytest.approx(2.0), pytest.approx(3.0)]


def test_cpu_negative_time_rejected():
    sim = Simulator()
    cpu = Resource(sim, 1)

    def proc():
        yield cpu.occupy(-0.1)

    with pytest.raises(SimulationError):
        sim.run_process(proc())
    assert cpu.in_use == 0 and sim.stats()["events_processed"] == 1


# ---------------------------------------------------------------- Barrier


def test_barrier_releases_all_at_last_arrival():
    sim = Simulator()
    bar = Barrier(sim, parties=3)
    release_times = []

    def party(i):
        yield sim.timeout(float(i))
        yield bar.wait()
        release_times.append(sim.now)

    for i in range(3):
        sim.spawn(party(i))
    sim.run()
    assert release_times == [pytest.approx(2.0)] * 3


def test_barrier_is_reusable():
    sim = Simulator()
    bar = Barrier(sim, parties=2)
    log = []

    def party(name, delays):
        for d in delays:
            yield sim.timeout(d)
            yield bar.wait()
            log.append((name, sim.now))

    sim.spawn(party("a", [1.0, 1.0]))
    sim.spawn(party("b", [2.0, 3.0]))
    sim.run()
    times = sorted(t for _, t in log)
    assert times == [pytest.approx(2.0), pytest.approx(2.0),
                     pytest.approx(5.0), pytest.approx(5.0)]
    assert bar.generation == 2


def test_barrier_single_party_never_blocks():
    sim = Simulator()
    bar = Barrier(sim, parties=1)

    def proc():
        yield bar.wait()
        yield bar.wait()
        return sim.now

    assert sim.run_process(proc()) == 0.0


def test_barrier_bad_parties_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Barrier(sim, parties=0)


def test_barrier_quiet_episode_costs_one_heap_entry():
    """At a quiet instant the last arriver fires the gate inline: the
    earlier arrivers resume without a dispatch, and the episode's only
    heap entry is the last arriver's own (recycled) kick event."""
    def run(with_barrier):
        sim = Simulator()
        bar = Barrier(sim, parties=3)
        released = []

        def party(i):
            yield sim.timeout(float(i))
            if with_barrier:
                yield bar.wait()
            released.append(sim.now)

        for i in range(3):
            sim.spawn(party(i))
        sim.run()
        return released, sim.stats()

    _, base = run(False)
    released, stats = run(True)
    assert released == [2.0] * 3
    assert stats["events_processed"] == base["events_processed"] + 1
    assert stats["fast_completions"] == base["fast_completions"] + 1
    assert stats["fallbacks"] == 0


# --------------------------------------------------------------------------
# Property tests: occupy() == request/timeout/release under contention.

#: (start, hold, priority) triples.  Integer-derived floats keep the
#: arithmetic identical between the two executions; equal starts and
#: zero-length holds are the interesting collision cases.
_JOBS = st.lists(
    st.tuples(st.integers(0, 6).map(lambda t: t * 0.5),     # start
              st.integers(0, 8).map(lambda d: d * 0.25),    # hold
              st.integers(0, 1)),                           # priority
    min_size=1, max_size=12)


def _via_occupy(capacity, jobs):
    sim = Simulator()
    res = Resource(sim, capacity)
    done = [None] * len(jobs)

    def launch(i, hold, priority):
        ev = res.occupy(hold, priority)
        ev.callbacks.append(lambda _e, i=i: done.__setitem__(i, sim.now))

    for i, (start, hold, priority) in enumerate(jobs):
        sim.call_at(start, lambda i=i, h=hold, p=priority: launch(i, h, p))
    sim.run()
    return done, res.busy_time(), res.in_use


def _via_process(capacity, jobs):
    """The pattern ``occupy`` replaced: spawn a request/hold/release
    process at the start instant.  (Parity is with a freshly *spawned*
    process — spawn posts a bootstrap event, so the request lands one
    dispatch after the call, exactly where ``occupy`` defers its
    request at busy instants.)"""
    sim = Simulator()
    res = Resource(sim, capacity)
    done = [None] * len(jobs)

    def worker(i, hold, priority):
        yield res.request(priority)
        try:
            yield sim.timeout(hold)
        finally:
            res.release()
        done[i] = sim.now

    for i, (start, hold, priority) in enumerate(jobs):
        sim.call_at(start, lambda i=i, h=hold, p=priority:
                    sim.spawn(worker(i, h, p)))
    sim.run()
    return done, res.busy_time(), res.in_use


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), _JOBS)
def test_occupy_matches_process_pattern(capacity, jobs):
    fast_done, fast_busy, fast_in_use = _via_occupy(capacity, jobs)
    slow_done, slow_busy, slow_in_use = _via_process(capacity, jobs)
    assert fast_done == slow_done
    assert fast_busy == slow_busy
    assert fast_in_use == slow_in_use == 0


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5).map(lambda d: d * 0.125),
                          st.integers(0, 1)),
                min_size=1, max_size=8))
def test_occupy_matches_execute(charges):
    """``occupy`` holds a CPU exactly like the request/timeout/release
    process ``_execute``."""
    def waiter(ev):
        yield ev

    def via_occupy():
        sim = Simulator()
        cpu = Resource(sim, 1)
        for seconds, priority in charges:
            sim.spawn(waiter(cpu.occupy(seconds, priority)))
        sim.run()
        return sim.now, cpu.busy_time()

    def via_execute():
        sim = Simulator()
        cpu = Resource(sim, 1)
        for seconds, priority in charges:
            sim.spawn(_execute(sim, cpu, seconds, priority))
        sim.run()
        return sim.now, cpu.busy_time()

    assert via_occupy() == via_execute()


def test_occupy_rejects_negative():
    sim = Simulator()
    res = Resource(sim, 1)
    with pytest.raises(SimulationError):
        res.occupy(-1.0)
