"""Pure-Python tier of the discrete-event core.

The engine is an event-heap scheduler: simulated activities are Python
generators (wrapped by :class:`Process`) that yield :class:`Event`
objects, and the engine resumes a generator when the event it waits on
fires.  Virtual time is a ``float`` in seconds and the engine is fully
deterministic — events scheduled for the same instant fire in schedule
order (a monotonically increasing tie-break counter guarantees this).

This module is the **portable tier** of a two-tier core (see
``engine.py`` for tier selection and ``_ccore.c`` for the compiled
tier).  The hot path is organized around the *event store* contract
both tiers share:

* heap entries are compact ``(time, tiebreak, item)`` triples where
  ``item`` is either a boxed :class:`Event` **or a bare callable** — a
  *call slot*.  Engine-internal one-shot steps (process bootstraps,
  analytic resource holds, deferred requests) and
  :meth:`Simulator.call_at` push a call slot instead of boxing a
  timeout event, so the hottest schedule sites allocate no event
  object at all;
* a timeout is a plain :class:`Event` put on the heap still pending; the
  dispatch loop fires it with ``None`` when it pops;
* the run loop drains all events of one instant in a batched dispatch
  run: the clock store and the ``until`` horizon check happen once per
  *instant*, not once per event;
* a process waiting on an already-processed event resumes through its
  one recycled kick event (allocated on first use, re-armed after).

The contract is what the simulated machine calls: processes, timeouts,
callbacks and call slots, all-of joins, FIFO resources, delivery legs
(delays, occupancies and call steps in sequence on one event), and the
``fire``/``idle_at_now`` quiet-instant hooks.  Nothing preempts a
process or waits for the first of several events, so neither tier
implements either.

Counter contract: every heap entry — boxed or call slot — bumps the
tie-break counter exactly once, so ``Simulator.stats()`` reports the
same ``events_processed`` for a given workload on either tier.

The compiled tier implements this same store with C-native parallel
arrays (times / tie-breaks / items) and a C event record; the two tiers
are drop-in interchangeable.  Both are held to the committed golden
manifest (``REPRO_ENGINE=python|compiled``), whose ``engine/*`` cells
pin this contract directly: value logs, clocks, ``busy_time()`` and
``stats()`` of fixed corpora of differential programs.
"""

from __future__ import annotations

import heapq
import operator
from collections import deque
from typing import Any, Callable, Deque, Generator, Iterable, Optional

from ._conditions import build_conditions

__all__ = [
    "Event",
    "AllOf",
    "Process",
    "Simulator",
    "Resource",
    "SimulationError",
    "fire",
    "PENDING",
]


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation API (not for modeled failures)."""


PENDING = object()


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*; calling :meth:`succeed` (or :meth:`fail`)
    triggers it, schedules its callbacks, and records a value that is sent
    into every waiting process.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_scheduled")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[list] = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._scheduled = False

    @property
    def triggered(self) -> bool:
        return self._value is not PENDING

    @property
    def ok(self) -> bool:
        if self._value is PENDING:
            raise SimulationError("event not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is PENDING:
            raise SimulationError("event not yet triggered")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event; ``value`` is sent to every waiting process."""
        if self._value is not PENDING:
            raise SimulationError("event already triggered")
        self._value = value
        self._ok = True
        _schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed; waiters receive the exception."""
        if self._value is not PENDING:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._value = exception
        self._ok = False
        _schedule(self)
        return self


def _schedule(ev: Event) -> None:
    """Put triggered ``ev`` on the heap for dispatch at the current instant.

    A timeout is on the heap from birth, so triggering one by hand is
    refused rather than giving it a second entry."""
    if ev._scheduled:
        raise SimulationError("event already scheduled")
    ev._scheduled = True
    sim = ev.sim
    sim._seq = seq = sim._seq + 1
    heapq.heappush(sim._heap, (sim.now, seq, ev))


AllOf = build_conditions(Event)


class Process(Event):
    """Wraps a generator; the process event fires when the generator returns.

    The generator yields :class:`Event` objects.  The yielded event's value is
    sent back into the generator when it fires; failed events are thrown in as
    exceptions, so processes can use ordinary ``try/except``.
    """

    __slots__ = ("_gen", "name", "_kick", "_kick_cbs")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        super().__init__(sim)
        if not hasattr(gen, "send"):
            raise SimulationError(f"Process requires a generator, got {gen!r}")
        self._gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self._kick: Optional[Event] = None
        self._kick_cbs: Optional[list] = None
        sim._n_spawned += 1
        # Bootstrap: resume the generator at the current instant via a
        # call slot — one heap entry (the count the manifest's
        # ``events_processed`` pins) and zero boxed events.
        sim._seq = seq = sim._seq + 1
        heapq.heappush(sim._heap, (sim.now, seq, self._start))

    def _start(self) -> None:
        """Call-slot bootstrap: first resume, at the spawn instant."""
        self._step(None, True)

    def _resume(self, ev: Event) -> None:
        self._step(ev._value, ev._ok)

    def _step(self, value: Any, ok: bool) -> None:
        gen = self._gen
        while True:
            try:
                if ok:
                    target = gen.send(value)
                else:
                    target = gen.throw(value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except BaseException as exc:
                if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                    raise
                self.fail(exc)
                return
            if isinstance(target, Event):
                break
            # Misuse: throw into the generator *and keep driving it* — it
            # may catch the error and yield a proper Event (loop again),
            # return (StopIteration above), or let it propagate (the
            # process fails with the SimulationError).
            ok = False
            value = SimulationError(
                f"process {self.name!r} yielded {target!r}, expected an Event"
            )
        if target.callbacks is None:
            # Already fired and processed: resume immediately (next tick)
            # via a recycled per-process kick event instead of allocating
            # a fresh one for every such resume.  A process waits on one
            # event at a time, so its kick has always been dispatched by
            # the time it is needed again.
            kick = self._kick
            if kick is None:
                kick = self._kick = Event(self.sim)
                self._kick_cbs = kick.callbacks = [self._resume]
            else:
                kick.callbacks = self._kick_cbs
            kick._value = target._value
            kick._ok = target._ok
            sim = self.sim
            sim._seq = seq = sim._seq + 1
            heapq.heappush(sim._heap, (sim.now, seq, kick))
        else:
            target.callbacks.append(self._resume)


class _Leg(Event):
    """The completion event of one :meth:`Simulator.leg` call, carrying
    its steps and the index of the running one (as the compiled tier's
    occupancy object does).  Its continuations are bound methods, not
    closures over each other: no reference cycle per leg."""

    __slots__ = ("_steps", "_k")

    def _next(self) -> None:
        """Start the next step.  Call steps run here, one after another,
        until an occupancy or a delay starts.  A delay is one heap entry:
        a call slot, or this event itself (a timeout) when it is the
        last step."""
        steps = self._steps
        while True:
            k = self._k = self._k + 1
            step = steps[k]
            if isinstance(step, tuple):
                res, seconds, on_release = step
                res._occupy_start(self, seconds, 0, on_release,
                                  None if k == len(steps) - 1
                                  else self._held)
                return
            if not callable(step):
                break
            step()
        if k == len(steps) - 1:
            item = self
            self._scheduled = True
        else:
            item = self._next
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        heapq.heappush(sim._heap, (sim.now + step, seq, item))

    def _held(self) -> None:
        """After an occupancy that is not the last step: the next step
        inline at a quiet instant, else posted as one heap entry."""
        sim = self.sim
        heap = sim._heap
        if not heap or heap[0][0] > sim.now:
            sim._n_fast += 1
            self._next()
        else:
            sim._seq = seq = sim._seq + 1
            heapq.heappush(heap, (sim.now, seq, self._next))


class Simulator:
    """The event loop over the slot-based store.

    The heap holds ``(time, tiebreak, item)`` triples; ``item`` is a
    boxed :class:`Event` or a bare callable (a *call slot*, see
    :meth:`call_at`).  Dispatch drains one instant per batch.
    """

    def __init__(self):
        self.now: float = 0.0
        self._heap: list = []
        self._seq: int = 0
        self._running = False
        self._n_spawned: int = 0
        # Chain observability (see stats()): inline completions a
        # callback chain performed without a heap dispatch, and the
        # times a chain site had to defer through the heap (or hand a
        # flow to the sequencers' generator acquire) to preserve
        # same-instant ordering.  Both are plain integer bumps on paths that already
        # branch, so the dispatch loop never sees them.
        self._n_fast: int = 0
        self._n_fallback: int = 0
        # Optional observer (a repro.sim.Tracer) for process-lifecycle
        # records; None keeps spawn() free of any tracing work and the
        # dispatch loop is never touched either way.
        self.obs = None

    # -- event factory helpers -------------------------------------------
    def timeout(self, delay: float) -> Event:
        """An event that fires with ``None`` ``delay`` seconds from now.

        The single most-called boxed allocation in the simulator, so the
        event is built and pushed inline: a plain :class:`Event`, on the
        heap while still pending.
        """
        if not delay >= 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        ev = Event.__new__(Event)
        ev.sim = self
        ev.callbacks = []
        ev._value = PENDING
        ev._ok = True
        ev._scheduled = True
        self._seq = seq = self._seq + 1
        heapq.heappush(self._heap, (self.now + delay, seq, ev))
        return ev

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def spawn(self, gen: Generator, name: str = "") -> Process:
        """Start a new simulation process from a generator."""
        proc = Process(self, gen, name=name)
        obs = self.obs
        if obs is not None:
            pid = self._n_spawned
            obs.emit(self.now, "proc.spawn", pid=pid, name=proc.name)
            # The finish record rides on the process's own completion
            # event, so the resume hot path carries no tracing branch.
            proc.callbacks.append(
                lambda ev, p=proc, i=pid: obs.emit(
                    self.now, "proc.finish", pid=i, name=p.name, ok=p._ok))
        return proc

    # -- scheduling -------------------------------------------------------
    def call_at(self, when: float, fn: Callable[[], None]) -> None:
        """Schedule bare ``fn()`` as a *call slot* at absolute virtual
        time ``when`` (>= now): one heap entry, no event object.

        The slot lands at ``now + (when - now)``, which can differ from
        ``when`` in the last bit; both tiers compute it so.  Nothing can
        wait on a call slot; an exception ``fn`` raises propagates out
        of :meth:`run`.  A past ``when`` is refused — the partition boundary
        relies on that as its no-early-delivery check.
        """
        if not when >= self.now:
            raise SimulationError(f"call_at past time {when} < now {self.now}")
        if not callable(fn):
            raise TypeError(f"call_at needs a callable, got {fn!r}")
        self._seq = seq = self._seq + 1
        heapq.heappush(self._heap, (self.now + (when - self.now), seq, fn))

    def leg(self, steps: tuple) -> Event:
        """Run ``steps`` one after another; returns the one completion event.

        A step is a delay in seconds, an occupancy ``(resource,
        seconds, on_release)`` at priority 0 (``on_release`` as for
        :meth:`Resource.occupy`, or None) or a *call step*, a
        zero-argument callable.  Exactly the callback chain that starts
        each step on the completion event of the step before — a
        ``timeout(delay)`` callback, ``resource.occupy(seconds, 0,
        on_release)``, or a call followed by the next step in the same
        callback — with the same heap entries and counters: each
        occupancy starts with :meth:`Resource.occupy`'s quiet/busy logic,
        and where the chain's callback ran on a completed occupancy, a
        quiet instant starts the next step inline (one
        ``fast_completions``, the ``fire`` it stands for) and a busy one
        posts it as one heap entry (the posted completion).  A delay
        starts the next step in its own timer's dispatch; a final delay
        is the completion event's own timer.  A call step runs where the
        step before it finished (at the call, for a first step) and adds
        no heap entry and no counter; an exception it raises propagates
        as a callback's does.  The last step is never a call step: the
        completion event's callbacks serve there.  The event fires with
        ``None``.
        """
        if not isinstance(steps, tuple):
            raise TypeError("leg() takes a tuple of steps")
        if not steps:
            raise SimulationError("leg needs at least one step")
        for step in steps:
            if isinstance(step, tuple):
                res, seconds, _on_release = step
                if not isinstance(res, Resource):
                    raise TypeError(f"leg occupies a Resource, got {res!r}")
                if not seconds >= 0:
                    raise SimulationError(f"negative occupy time: {seconds}")
            elif not callable(step) and not step >= 0:
                raise SimulationError(f"negative leg delay: {step}")
        if callable(steps[-1]):
            raise SimulationError("a leg cannot end with a call step")
        done = _Leg.__new__(_Leg)  # built inline, as timeout() does
        done.sim = self
        done.callbacks = []
        done._value = PENDING
        done._ok = True
        done._scheduled = False
        done._steps = steps
        done._k = -1
        done._next()
        return done

    # -- introspection ----------------------------------------------------
    def idle_at_now(self) -> bool:
        """True when nothing further is scheduled at the current instant.

        The quiet-instant guard every analytic fast path checks before
        completing work inline: when the next heap entry (if any) lies
        strictly in the future, an elided dispatch cannot interleave
        with anything.  Both tiers implement this as a peek at the top
        of the event store.
        """
        heap = self._heap
        return not heap or heap[0][0] > self.now

    def next_time(self) -> Optional[float]:
        """Virtual time of the earliest scheduled entry, or ``None``.

        A peek at the top of the event store — a partitioned run's
        coordinator uses it between epochs to size the next conservative
        window.  Both tiers expose it.
        """
        heap = self._heap
        return heap[0][0] if heap else None

    def stats(self) -> dict:
        """Dispatch and fast-path counters.

        ``events_processed`` is derived — every scheduled entry (boxed
        event or call slot) bumps ``_seq`` and sits in the heap until
        popped, so the difference is exactly the number of dispatches.
        This keeps the counter live mid-run without any cost in the
        dispatch loop.

        The other counters are the engine's own; nothing outside the
        two tiers bumps them:

        * ``spawns`` — processes started.
        * ``fast_completions`` — a completion, quantum segment or leg
          step the engine ran inline at a quiet instant.
        * ``fallbacks`` — an occupancy requested at a busy instant.
        """
        return {
            "events_processed": self._seq - len(self._heap),
            "spawns": self._n_spawned,
            "fast_completions": self._n_fast,
            "fallbacks": self._n_fallback,
        }

    # -- main loop --------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Run until the heap is empty or virtual time passes ``until``.

        Returns the final virtual time.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        # The dispatch loop is inlined (no per-event method frame) with
        # hot globals bound to locals, and drains one *instant* per
        # outer iteration: the until-horizon check and the clock store
        # happen once per instant, then the inner loop pops every entry
        # scheduled for it.  An event triggered by succeed/fail already
        # carries its value, so only heap-fired events (timeouts) take
        # the PENDING branch and fire with None, and ``_ok`` needs no
        # write (fail() always sets the value, so a PENDING pop is ok).
        heappop = heapq.heappop
        heap = self._heap
        _event = Event
        _pending = PENDING
        try:
            while heap:
                when = heap[0][0]
                if until is not None and when > until:
                    self.now = until
                    break
                self.now = when
                while heap and heap[0][0] == when:
                    _when, _seq, item = heappop(heap)
                    if not isinstance(item, _event):
                        item()  # call slot
                        continue
                    if item._value is _pending:
                        item._value = None
                    callbacks = item.callbacks
                    item.callbacks = None
                    if callbacks is not None:
                        for cb in callbacks:
                            cb(item)
        finally:
            self._running = False
        return self.now

    def run_process(self, gen: Generator, name: str = "") -> Any:
        """Spawn ``gen``, run to completion, and return its value.

        Raises the process's exception if it failed, and
        :class:`SimulationError` if the simulation deadlocks before the
        process finishes (usually a process waiting on a message that is
        never sent).
        """
        proc = self.spawn(gen, name=name)
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        heappop = heapq.heappop
        heap = self._heap
        _event = Event
        _pending = PENDING
        try:
            # Stop as soon as the process completes so orphaned timers
            # (e.g. abandoned timeouts) do not advance the clock further.
            while heap and proc._value is _pending:
                when = heap[0][0]
                self.now = when
                while heap and heap[0][0] == when and proc._value is _pending:
                    _when, _seq, item = heappop(heap)
                    if not isinstance(item, _event):
                        item()
                        continue
                    if item._value is _pending:
                        item._value = None
                    callbacks = item.callbacks
                    item.callbacks = None
                    if callbacks is not None:
                        for cb in callbacks:
                            cb(item)
        finally:
            self._running = False
        if proc._value is PENDING:
            raise SimulationError(
                f"deadlock: process {proc.name!r} never finished "
                f"(simulation ran dry at t={self.now})"
            )
        if not proc._ok:
            raise proc._value
        return proc._value


def fire(ev: Event, value: Any = None) -> None:
    """Trigger ``ev`` and run its callbacks inline, bypassing the heap.

    Equivalent to ``ev.succeed(value)`` followed immediately by the heap
    pop that would dispatch it — sound only when nothing else is
    scheduled at the current instant, so the skipped dispatch could not
    have interleaved with anything.  The fabric's chains use it to
    complete occupancies at quiet instants (checking the heap first); at
    busy instants they post through the heap like everything else.
    """
    if ev._value is not PENDING:
        raise SimulationError("event already triggered")
    ev._value = value
    ev._ok = True
    ev._scheduled = True
    ev.sim._n_fast += 1
    callbacks = ev.callbacks
    ev.callbacks = None
    if callbacks is not None:
        for cb in callbacks:
            cb(ev)


def _call_in(sim: Simulator, delay: float, fn: Callable[[], None]) -> None:
    """Push bare ``fn()`` as a call slot ``delay`` seconds out: the
    occupancy machine's one-shot steps (``delay`` is checked by the
    caller)."""
    sim._seq = seq = sim._seq + 1
    heapq.heappush(sim._heap, (sim.now + delay, seq, fn))


def _complete(done: Event) -> None:
    """Complete an occupancy after its release: inline at a quiet
    instant (skipping one dispatch), else posted."""
    if done.sim.idle_at_now():
        fire(done, None)
    else:
        done.succeed(None)


_INF = float("inf")


class Resource:
    """A counted resource with FIFO granting per priority level.

    Two priority levels: 0 (urgent — protocol/interrupt work) and 1
    (background — application compute).  Level-0 waiters are always
    granted before level-1 waiters; within a level the order is FIFO.
    This mirrors interrupt-driven message handling preempting user
    compute between quanta on a real node.

    Usage from a process::

        grant = yield resource.request()
        ...
        resource.release()

    Part of the event-store contract: this class is the readable
    reference, and the compiled tier runs the same occupancy state
    machine as typed heap entries inside its dispatch loop
    (``_ccore.c``, *Resource*).  Every step that is a heap entry here
    is exactly one heap entry there, in the same order.
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        capacity = operator.index(capacity)  # an int, as the C tier parses it
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1: {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: Deque[Event] = deque()       # priority 0
        self._low_waiters: Deque[Event] = deque()   # priority 1
        # Occupancy accounting (for utilization reports).
        self._busy_time = 0.0
        self._last_change = 0.0

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters) + len(self._low_waiters)

    def _account(self) -> None:
        now = self.sim.now
        self._busy_time += self._in_use * (now - self._last_change)
        self._last_change = now

    def busy_time(self) -> float:
        """Integral of in-use servers over time (divide by elapsed for util)."""
        self._account()
        return self._busy_time

    def _qdepth(self) -> int:
        """Depth of the queue a request arriving now joins, counting
        itself and the slots in use (only sampled for a traced occupy)."""
        return self.queue_length + self._in_use + 1

    def request(self, priority: int = 0) -> Event:
        """Ask for one slot; the returned event fires when granted."""
        ev = Event(self.sim)
        if self._in_use < self.capacity:
            self._account()
            self._in_use += 1
            ev.succeed(self)
        elif priority <= 0:
            self._waiters.append(ev)
        else:
            self._low_waiters.append(ev)
        return ev

    def occupy(self, seconds: float, priority: int = 0,
               on_release: Optional[Callable[[float, float, int], None]]
               = None) -> Event:
        """One-shot request/hold/release; returns the completion event.

        The event-minimizing counterpart of the request/timeout/release
        process pattern.  When a slot is free the grant is synchronous
        and the hold is a single analytically-scheduled timeout — no
        generator, no :class:`Process`.  When the resource is contended
        it falls back to the queued path: the request joins the same
        FIFO (per priority level) as :meth:`request`, so fast and
        queued occupancies interleave with identical semantics.

        The completion event is *posted* after the release (not the
        hold timeout itself), so a waiter resumes one dispatch later —
        the same position a process-based request/timeout/release
        caller resumes at, after the slot has been handed to the next
        waiter.

        Dispatch-order parity: when other events are pending at the
        current instant, the request and grant go through the heap at
        the same dispatch depths the process pattern used (request one
        dispatch after the call, hold scheduled one dispatch after the
        grant), so same-instant races — a release racing a fresh
        arrival, holds on different resources expiring together —
        linearize identically in fast and process-based runs.  When
        nothing else is scheduled at this instant the deferrals are
        unobservable and are elided: one timeout, zero intermediate
        dispatches.  Virtual-time behavior is identical to the process
        pattern either way — only the host-side event count differs.

        ``on_release(t_req, t_grant, qdepth)`` — pass it only while
        tracing — runs right after the slot is released and before the
        completion event triggers: ``t_req`` is the instant of the
        call, ``t_grant`` the instant the slot was granted, and
        ``qdepth`` the depth of the queue this occupancy joined,
        counting itself and the slots in use, sampled atomically with
        the request.
        """
        if not seconds >= 0:
            raise SimulationError(f"negative occupy time: {seconds}")
        done = Event(self.sim)
        self._occupy_start(done, seconds, priority, on_release, None)
        return done

    def occupy_quanta(self, seconds: float, quantum: float,
                      priority: int = 1, speeds: Optional[list] = None,
                      index: int = 0) -> Event:
        """``seconds`` of work held in ``quantum``-sized segments; returns
        the one completion event of the last segment.

        Exactly a process that, while work is left, takes ``step =
        min(left, quantum)``, yields ``occupy(step / speeds[index],
        priority)`` and subtracts ``step`` (speed ``1.0`` when ``speeds``
        is None; the division is skipped at speed ``1.0``), with the same
        heap entries and counters: the speed is read as a segment starts
        and each segment starts with :meth:`occupy`'s quiet/busy logic.
        Where that process resumed between segments, a quiet instant
        starts the next segment inline (one ``fast_completions``, as the
        ``fire`` it stands for) and a busy one posts it as one heap entry
        (the posted completion it stands for).  So a priority-1 holder
        yields to urgent waiters at every segment boundary.  ``seconds ==
        0`` is one zero-length segment.
        """
        if not 0 <= seconds < _INF:
            raise SimulationError(f"occupy_quanta time must be finite and "
                                  f"non-negative: {seconds}")
        if not quantum > 0:
            raise SimulationError(f"occupy_quanta quantum must be > 0: "
                                  f"{quantum}")
        sim = self.sim
        done = Event(sim)
        remaining = seconds

        def _segment() -> None:
            nonlocal remaining
            step = remaining if remaining <= quantum else quantum
            sp = 1.0 if speeds is None else speeds[index]
            cost = step if sp == 1.0 else step / sp
            if not cost >= 0:
                raise SimulationError(f"negative occupy time: {cost}")
            remaining -= step
            self._occupy_start(done, cost, priority, None, _held)

        def _held() -> None:
            if remaining <= 0:
                _complete(done)
            elif sim.idle_at_now():
                sim._n_fast += 1
                _segment()
            else:
                _call_in(sim, 0.0, _segment)

        _segment()
        return done

    def _occupy_start(self, done: Event, seconds: float, priority: int,
                      on_release: Optional[Callable[[float, float, int],
                                                    None]],
                      then: Optional[Callable[[], None]]) -> None:
        """Request one hold of ``seconds``; after its release, ``then()``
        runs if given, else ``done`` completes."""
        sim = self.sim
        hook = None  # (on_release, t_req, qdepth), only while tracing
        if sim.idle_at_now():
            # Quiet instant: grant (or enqueue) synchronously.
            if on_release is not None:
                hook = (on_release, sim.now, self._qdepth())
            if self._in_use < self.capacity:
                self._account()
                self._in_use += 1
                self._occupy_granted(done, seconds, hook, then)
            else:
                gate = Event(sim)
                if priority <= 0:
                    self._waiters.append(gate)
                else:
                    self._low_waiters.append(gate)
                gate.callbacks.append(lambda _ev: self._occupy_granted(
                    done, seconds, hook, then))
            return

        # Busy instant: request one dispatch later (request() posts the
        # grant, putting the hold two dispatches out — process parity).
        sim._n_fallback += 1
        t_req = sim.now

        def _request() -> None:
            hook = None
            if on_release is not None:
                hook = (on_release, t_req, self._qdepth())
            gate = self.request(priority)
            gate.callbacks.append(lambda _ev: self._occupy_granted(
                done, seconds, hook, then))

        _call_in(sim, 0.0, _request)

    def _occupy_granted(self, done: Event, seconds: float,
                        hook: Optional[tuple],
                        then: Optional[Callable[[], None]]) -> None:
        # The hold is a bare call slot — one heap entry (same count as the
        # timeout the process pattern scheduled), zero boxed events.
        sim = self.sim
        t_grant = sim.now

        def _fin() -> None:
            self.release()
            if hook is not None:
                on_release, t_req, qdepth = hook
                on_release(t_req, t_grant, qdepth)
            if then is not None:
                then()
            else:
                _complete(done)

        _call_in(sim, seconds, _fin)

    def release(self) -> None:
        """Return a slot; the next waiter (urgent first) is granted."""
        if self._in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        for queue in (self._waiters, self._low_waiters):
            while queue:
                waiter = queue.popleft()
                if not waiter.triggered:
                    waiter.succeed(self)  # hand the slot over directly
                    return
        self._account()
        self._in_use -= 1
