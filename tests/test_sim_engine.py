"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import (
    Event,
    SimulationError,
    Simulator,
)


def test_timeout_advances_clock():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.5)
        yield sim.timeout(2.5)
        return sim.now

    assert sim.run_process(proc()) == pytest.approx(4.0)


def test_timeout_value_passthrough():
    """A timeout fires with ``None``; a value reaches a waiter through
    an event the timeout's callback succeeds."""
    sim = Simulator()
    ev = Event(sim)
    sim.timeout(1.0).callbacks.append(lambda _t: ev.succeed("hello"))

    def proc():
        assert (yield sim.timeout(0.5)) is None
        return (yield ev)

    assert sim.run_process(proc()) == "hello"
    assert sim.now == pytest.approx(1.0)


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_timeout_cannot_be_triggered_by_hand():
    """A timeout is on the heap from birth: ``succeed`` on it is refused
    instead of giving it a second heap entry."""
    sim = Simulator()
    with pytest.raises(SimulationError, match="already scheduled"):
        sim.timeout(1.0).succeed()


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    order = []

    def maker(tag):
        def proc():
            yield sim.timeout(1.0)
            order.append(tag)
        return proc

    for tag in range(5):
        sim.spawn(maker(tag)())
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_process_return_value():
    sim = Simulator()

    def child():
        yield sim.timeout(3.0)
        return 42

    def parent():
        result = yield sim.spawn(child())
        return result * 2

    assert sim.run_process(parent()) == 84
    assert sim.now == pytest.approx(3.0)


def test_process_exception_propagates_to_waiter():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        raise ValueError("boom")

    def parent():
        try:
            yield sim.spawn(child())
        except ValueError as exc:
            return f"caught {exc}"

    assert sim.run_process(parent()) == "caught boom"


def test_uncaught_process_exception_raises_from_run_process():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)
        raise KeyError("lost")

    with pytest.raises(KeyError):
        sim.run_process(proc())


def test_event_succeed_wakes_waiter():
    sim = Simulator()
    ev = Event(sim)

    def waiter():
        v = yield ev
        return v

    def firer():
        yield sim.timeout(2.0)
        ev.succeed("fired")

    p = sim.spawn(waiter())
    sim.spawn(firer())
    sim.run()
    assert p.value == "fired"
    assert sim.now == pytest.approx(2.0)


def test_event_double_trigger_rejected():
    sim = Simulator()
    ev = Event(sim)
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_requires_exception():
    sim = Simulator()
    ev = Event(sim)
    with pytest.raises(SimulationError):
        ev.fail("not an exception")


def test_waiting_on_already_processed_event():
    sim = Simulator()
    ev = Event(sim)
    ev.succeed("early")
    sim.run()  # process the event so callbacks are consumed

    def late_waiter():
        v = yield ev
        return v

    assert sim.run_process(late_waiter()) == "early"


def test_all_of_waits_for_every_event():
    sim = Simulator()

    def tagged(delay, tag):
        yield sim.timeout(delay)
        return tag

    def proc():
        evs = [sim.spawn(tagged(d, tag))
               for d, tag in ((1.0, "a"), (3.0, "b"), (2.0, "c"))]
        vals = yield sim.all_of(evs)
        return vals

    assert sim.run_process(proc()) == ["a", "b", "c"]
    assert sim.now == pytest.approx(3.0)


def test_all_of_empty_fires_immediately():
    sim = Simulator()

    def proc():
        vals = yield sim.all_of([])
        return vals

    assert sim.run_process(proc()) == []
    assert sim.now == 0.0


def test_run_until_stops_clock():
    sim = Simulator()

    def proc():
        yield sim.timeout(10.0)

    sim.spawn(proc())
    final = sim.run(until=4.0)
    assert final == pytest.approx(4.0)
    assert sim.now == pytest.approx(4.0)


def test_deadlock_detection_in_run_process():
    sim = Simulator()

    def stuck():
        yield Event(sim)  # never fired

    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_process(stuck())


def test_call_at_runs_function_at_absolute_time():
    sim = Simulator()
    seen = []
    sim.call_at(5.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [pytest.approx(5.0)]


def test_call_at_past_rejected():
    sim = Simulator()

    def proc():
        yield sim.timeout(10.0)
        sim.call_at(5.0, lambda: None)

    with pytest.raises(SimulationError):
        sim.run_process(proc())


def test_yielding_non_event_is_an_error():
    sim = Simulator()

    def bad():
        yield 42

    with pytest.raises(SimulationError):
        sim.run_process(bad())


def test_nested_process_trees():
    sim = Simulator()
    results = []

    def leaf(i):
        yield sim.timeout(float(i))
        return i

    def branch(lo, hi):
        procs = [sim.spawn(leaf(i)) for i in range(lo, hi)]
        vals = yield sim.all_of(procs)
        return sum(vals)

    def root():
        a = sim.spawn(branch(0, 5))
        b = sim.spawn(branch(5, 10))
        vals = yield sim.all_of([a, b])
        results.append(vals)
        return sum(vals)

    assert sim.run_process(root()) == sum(range(10))
    assert results == [[10, 35]]


def test_non_event_yield_recovery_by_reyield():
    """A generator that catches the misuse error and yields a real Event
    must keep running (the engine used to drop the throw's response)."""
    sim = Simulator()

    def recovers():
        try:
            yield "not an event"
        except SimulationError:
            yield sim.timeout(2.0)
        return "recovered"

    assert sim.run_process(recovers()) == "recovered"
    assert sim.now == pytest.approx(2.0)


def test_non_event_yield_recovery_by_return():
    """Catching the misuse error and returning completes the process."""
    sim = Simulator()

    def bails():
        try:
            yield object()
        except SimulationError:
            return "bailed"

    assert sim.run_process(bails()) == "bailed"


def test_non_event_yield_repeated_misuse_still_fails():
    sim = Simulator()

    def stubborn():
        try:
            yield 1
        except SimulationError:
            pass
        try:
            yield 2
        except SimulationError:
            raise ValueError("gave up")

    with pytest.raises(ValueError, match="gave up"):
        sim.run_process(stubborn())


def test_non_event_yield_failure_reaches_waiting_parent():
    sim = Simulator()

    def bad():
        yield 42

    def parent():
        try:
            yield sim.spawn(bad())
        except SimulationError as exc:
            return f"child misused: {exc}"

    out = sim.run_process(parent())
    assert "expected an Event" in out


def test_stats_counters():
    sim = Simulator()
    assert sim.stats() == {"events_processed": 0, "spawns": 0,
                           "fast_completions": 0, "fallbacks": 0}

    def child():
        yield sim.timeout(1.0)

    def proc():
        yield sim.spawn(child())
        yield sim.timeout(1.0)

    sim.run_process(proc())
    stats = sim.stats()
    assert stats["spawns"] == 2
    # Two bootstraps, two timeouts, and the process-completion events.
    assert stats["events_processed"] >= 5


def test_stats_counts_kick_resumes():
    """Waiting on an already-processed event costs exactly one extra
    (recycled) kick event per resume."""
    sim = Simulator()
    fired = Event(sim)
    fired.succeed("v")

    def proc():
        yield sim.timeout(1.0)  # lets the fired event get processed
        before = sim.stats()["events_processed"]
        for _ in range(3):
            v = yield fired
            assert v == "v"
        return sim.stats()["events_processed"] - before

    # 3 kick events, each popped once (plus nothing else in the heap).
    assert sim.run_process(proc()) == 3
    assert sim.now == pytest.approx(1.0)
