"""Micro-benchmark for the discrete-event engine's dispatch hot path.

Unlike the figure/table benchmarks (which measure *virtual* time), this
one measures *host* wall-clock throughput of the event loop itself:
events popped per second across workloads that mirror what the fabric
and Orca layers do millions of times per run — timeout chains, process
spawning, already-fired-event resumes (the "kick" path), channel
ping-pong, resource contention, one-shot resource occupancies at
busy and at quiet instants, and quantized compute charges preempted by
urgent work.

Each workload returns the events its simulator popped.  Run it with::

    PYTHONPATH=src python -m repro bench --suite engine [--repeat 3]

which measures every engine tier this host can build, one subprocess
per tier (``repro.harness.bench`` owns the timing loop).
"""

from __future__ import annotations

from repro.sim import Channel, Event, Resource, Simulator


def wl_timeout_chain(n: int = 200_000) -> int:
    """One process yielding a long chain of timeouts (heap churn)."""
    sim = Simulator()

    def proc():
        timeout = sim.timeout
        for _ in range(n):
            yield timeout(1.0)

    sim.run_process(proc())
    return sim.stats()["events_processed"]


def wl_spawn_storm(n: int = 60_000) -> int:
    """Spawn many tiny children and wait on each (the fabric send shape)."""
    sim = Simulator()

    def child():
        yield sim.timeout(0.5)
        return 1

    def proc():
        total = 0
        for _ in range(n):
            total += yield sim.spawn(child())
        return total

    assert sim.run_process(proc()) == n
    return sim.stats()["events_processed"]


def wl_processed_target(n: int = 600_000) -> int:
    """Yield an already-processed event repeatedly (the kick fast path).

    Sized so the compiled tier still runs tens of milliseconds: at
    150k iterations its ~18M ev/s finished in ~8 ms, inside this
    container's throttling granularity, and the measured rate went
    bimodal (±45% run to run) — far outside perf-smoke's 30% band.
    """
    sim = Simulator()
    fired = Event(sim)
    fired.succeed("x")

    def toucher():
        yield sim.timeout(0.0)

    def proc():
        # Let the pre-fired event get processed off the heap first.
        yield sim.timeout(1.0)
        for _ in range(n):
            v = yield fired
            assert v == "x"

    sim.spawn(toucher())
    sim.run_process(proc())
    return sim.stats()["events_processed"]


def wl_channel_pingpong(n: int = 60_000) -> int:
    """Two processes exchanging messages over channels."""
    sim = Simulator()
    a, b = Channel(sim, "a"), Channel(sim, "b")

    def left():
        for i in range(n):
            a.put(i)
            yield b.get()

    def right():
        for _ in range(n):
            v = yield a.get()
            b.put(v)

    sim.spawn(right())
    sim.run_process(left())
    return sim.stats()["events_processed"]


def _execute(sim: Simulator, cpu: Resource, seconds: float):
    """Hold ``cpu`` for ``seconds`` as a process: request, timeout,
    release (the pattern ``Resource.occupy`` stands for)."""
    yield cpu.request()
    try:
        yield sim.timeout(seconds)
    finally:
        cpu.release()


def wl_cpu_contention(n: int = 20_000, workers: int = 4) -> int:
    """Several processes serialized through one CPU resource."""
    sim = Simulator()
    cpu = Resource(sim, name="c")

    def worker():
        for _ in range(n):
            yield sim.spawn(_execute(sim, cpu, 1e-6))

    procs = [sim.spawn(worker()) for _ in range(workers)]
    sim.run()
    assert all(p.triggered for p in procs)
    return sim.stats()["events_processed"]


def wl_occupy_lockstep(n: int = 3_000, cpus: int = 60) -> int:
    """60 CPUs stepping in lockstep: every charge lands at a busy
    instant, so each occupancy takes the full deferred path (request,
    grant, hold, completion — four heap entries).  The ``asp`` shape:
    98 % of its 425 k occupancies per pass at 4x15 are of this kind."""
    sim = Simulator()

    def stepper(cpu):
        for _ in range(n):
            yield cpu.occupy(1e-3)

    for i in range(cpus):
        sim.spawn(stepper(Resource(sim, name=f"c{i}")))
    sim.run()
    return sim.stats()["events_processed"]


def wl_occupy_quiet(n: int = 200_000) -> int:
    """One process charging one CPU back to back: every occupancy is
    granted at a quiet instant — one hold entry, completed inline."""
    sim = Simulator()
    cpu = Resource(sim, name="c")

    def proc():
        for _ in range(n):
            yield cpu.occupy(1e-3)

    sim.run_process(proc())
    return sim.stats()["events_processed"]


def wl_compute_quanta(n: int = 300, cpus: int = 60) -> int:
    """60 CPUs, each running ``n`` application computes of 2.5 ms in
    1 ms quanta (``Context.compute``'s charge: one ``occupy_quanta`` at
    priority 1) against a stream of 10 us urgent occupancies, one every
    0.7 ms per CPU.  The quanta end in lockstep, so most segment starts
    are at busy instants and cost one posted entry each."""
    sim = Simulator()
    every = 7e-4
    bursts = int(n * 2.5e-3 / every)

    def computer(cpu):
        for _ in range(n):
            yield cpu.occupy_quanta(2.5e-3, 1e-3, 1)

    def interrupts(cpu):
        for _ in range(bursts):
            yield sim.timeout(every)
            cpu.occupy(1e-5)

    for i in range(cpus):
        cpu = Resource(sim, name=f"c{i}")
        sim.spawn(computer(cpu))
        sim.spawn(interrupts(cpu))
    sim.run()
    return sim.stats()["events_processed"]


WORKLOADS = [
    ("timeout_chain", wl_timeout_chain),
    ("spawn_storm", wl_spawn_storm),
    ("processed_target", wl_processed_target),
    ("channel_pingpong", wl_channel_pingpong),
    ("cpu_contention", wl_cpu_contention),
    ("occupy_lockstep", wl_occupy_lockstep),
    ("occupy_quiet", wl_occupy_quiet),
    ("compute_quanta", wl_compute_quanta),
]

