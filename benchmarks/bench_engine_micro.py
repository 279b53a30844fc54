"""Micro-benchmark for the discrete-event engine's dispatch hot path.

Unlike the figure/table benchmarks (which measure *virtual* time), this
one measures *host* wall-clock throughput of the event loop itself:
events popped per second across workloads that mirror what the fabric
and Orca layers do millions of times per run — timeout chains, process
spawning, already-fired-event resumes (the "kick" path), channel
ping-pong, resource contention and one-shot resource occupancies at
busy and at quiet instants.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_engine_micro.py [--repeat 3]

(``repro bench --suite engine`` measures both engine tiers this way).
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.sim import CPU, Channel, Event, Simulator


def _events_processed(sim: Simulator, fallback: int) -> int:
    """Events popped, via Simulator.stats() when available."""
    stats = getattr(sim, "stats", None)
    if callable(stats):
        try:
            return stats()["events_processed"]
        except (KeyError, TypeError):
            pass
    return fallback


def wl_timeout_chain(n: int = 200_000):
    """One process yielding a long chain of timeouts (heap churn)."""
    sim = Simulator()

    def proc():
        timeout = sim.timeout
        for _ in range(n):
            yield timeout(1.0)

    sim.run_process(proc())
    return sim, n


def wl_spawn_storm(n: int = 60_000):
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
    return sim, 3 * n


def wl_processed_target(n: int = 600_000):
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
    return sim, 2 * n


def wl_channel_pingpong(n: int = 60_000):
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
    return sim, 2 * n


def wl_cpu_contention(n: int = 20_000, workers: int = 4):
    """Several processes serialized through one CPU resource."""
    sim = Simulator()
    cpu = CPU(sim, name="c")

    def worker():
        for _ in range(n):
            yield sim.spawn(cpu.execute(1e-6))

    procs = [sim.spawn(worker()) for _ in range(workers)]
    sim.run()
    assert all(p.triggered for p in procs)
    return sim, 4 * n * workers


def wl_occupy_lockstep(n: int = 3_000, cpus: int = 60):
    """60 CPUs stepping in lockstep: every charge lands at a busy
    instant, so each occupancy takes the full deferred path (request,
    grant, hold, completion — four heap entries).  The ``asp`` shape:
    98 % of its 425 k occupancies per pass at 4x15 are of this kind."""
    sim = Simulator()

    def stepper(cpu):
        for _ in range(n):
            yield cpu.execute_ev(1e-3)

    for i in range(cpus):
        sim.spawn(stepper(CPU(sim, name=f"c{i}")))
    sim.run()
    return sim, 4 * n * cpus


def wl_occupy_quiet(n: int = 200_000):
    """One process charging one CPU back to back: every occupancy is
    granted at a quiet instant — one hold entry, completed inline."""
    sim = Simulator()
    cpu = CPU(sim, name="c")

    def proc():
        for _ in range(n):
            yield cpu.execute_ev(1e-3)

    sim.run_process(proc())
    return sim, n


WORKLOADS = [
    ("timeout_chain", wl_timeout_chain),
    ("spawn_storm", wl_spawn_storm),
    ("processed_target", wl_processed_target),
    ("channel_pingpong", wl_channel_pingpong),
    ("cpu_contention", wl_cpu_contention),
    ("occupy_lockstep", wl_occupy_lockstep),
    ("occupy_quiet", wl_occupy_quiet),
]


def run_suite(repeat: int = 3) -> str:
    lines = ["engine micro-benchmark: event dispatch throughput",
             f"{'workload':>18} {'events':>10} {'best(s)':>9} {'events/s':>12}"]
    total_events = 0
    total_best = 0.0
    for name, fn in WORKLOADS:
        best = float("inf")
        events = 0
        for _ in range(repeat):
            t0 = time.perf_counter()
            sim, approx = fn()
            dt = time.perf_counter() - t0
            events = _events_processed(sim, approx)
            best = min(best, dt)
        total_events += events
        total_best += best
        lines.append(f"{name:>18} {events:>10} {best:>9.3f} "
                     f"{events / best:>12.0f}")
    lines.append(f"{'TOTAL':>18} {total_events:>10} {total_best:>9.3f} "
                 f"{total_events / total_best:>12.0f}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3,
                        help="repetitions per workload (best is reported)")
    args = parser.parse_args(argv)
    text = run_suite(repeat=args.repeat)
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
