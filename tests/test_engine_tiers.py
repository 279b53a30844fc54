"""Cross-tier event-core tests: properties and record-for-record parity.

The simulator core ships in two implementations that must agree
observable-for-observable:

* ``repro.sim._pyengine`` — the portable core (the reference tier);
* ``repro.sim._cengine`` — the optional compiled core (skipped here
  when no C compiler is available).

Their oracle is recorded, not kept alive: the ``engine/*`` cells of the
golden manifest (``tools/golden.py``) pin the value logs, clocks,
``busy_time()`` and ``stats()`` of fixed corpora of the differential
programs below, and both tiers must reproduce them.  ``Resource`` is part
of the same contract: ``_pyengine.Resource`` is the reference, ``_ccore``
runs its occupancy state machine inside the dispatch loop, and both are
held to the request/timeout/release *process* pattern, which uses only
processes, timeouts and events.

Five kinds of coverage:

* hypothesis properties every tier must satisfy on its own
  (same-instant FIFO tie-break; recycled kick events never resurrect
  an already-processed resume);
* hypothesis-drawn op programs run on both tiers, whose value log, final
  clock and ``stats()`` counters must be identical — the counter-parity
  contract that keeps ``events_processed`` comparable across tiers —
  and same-instant programs, which mix entries scheduled ahead for an
  instant with pushes made at it (from inside the loop and from outside,
  after a ``run(until=)`` or ``run_process`` stop) and log
  ``next_time()``, ``idle_at_now()`` and ``stats()`` at every step;
* hypothesis-drawn resource programs (request/release/occupy at quiet
  and busy instants, cancelled waiters, traced occupancies) whose whole
  log must be identical across the tiers and equal to the process
  pattern run on the python tier, quantized-compute programs whose
  ``occupy_quanta`` must equal the loop of ``occupy`` calls it replaced,
  and delivery-leg programs whose ``Simulator.leg`` must equal the
  closure chain of ``timeout``/``occupy`` callbacks (and call steps run
  in the same callback) it replaced;
* subprocess runs of a full application under ``REPRO_ENGINE=python``
  vs ``REPRO_ENGINE=compiled`` whose trace streams must match record
  for record (tiers cannot be mixed in one process, so tier selection
  itself is always exercised via subprocesses), and of every entry
  point that takes a time, fed a NaN or infinity under a timeout;
* host faults of the one native artefact (``_ccore``: the event core
  *and* SOR's ``sweep_phase``), each in a private copy of the package:
  a failing C build, a stale extension (other source, flags or
  ``$CC``), an extension that lacks a symbol — every one ends in a
  whole tier or a typed error.
"""

import gc
import itertools
import json
import os
import re
import shutil
import subprocess
import sys
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import _pyengine
from repro.sim._build import compiler_available

from .test_golden_manifest import golden

TIERS = [("python", _pyengine)]
if compiler_available():
    from repro.sim import _cengine

    TIERS.append(("compiled", _cengine))

_tier = pytest.mark.parametrize(
    "engine", [m for _, m in TIERS], ids=[n for n, _ in TIERS])

needs_cc = pytest.mark.skipif(
    not compiler_available(),
    reason="no C compiler: compiled tier unavailable")


# ------------------------------------------------- per-tier properties


@_tier
@settings(deadline=None, max_examples=60)
@given(delays=st.lists(st.sampled_from([0.0, 1.0, 1.0, 2.0, 3.5]),
                       min_size=1, max_size=30))
def test_same_instant_callbacks_fire_in_schedule_order(engine, delays):
    """Equal-time events dispatch FIFO in scheduling order (the heap
    tiebreak counter), for any mix of colliding instants."""
    sim = engine.Simulator()
    fired = []
    for i, d in enumerate(delays):
        ev = sim.timeout(d)
        ev.callbacks.append(lambda _ev, i=i: fired.append(i))
    sim.run()
    # A stable sort by delay *is* FIFO-within-instant.
    assert fired == sorted(range(len(delays)), key=lambda i: delays[i])


@_tier
@settings(deadline=None, max_examples=60)
@given(plan=st.lists(st.booleans(), min_size=1, max_size=30))
def test_recycled_kicks_never_resurrect(engine, plan):
    """Yielding already-processed events reuses the kick event; the
    recycled slot must deliver each resume exactly once, in order,
    never replaying a processed entry (True = pre-triggered yield
    target, False = fresh timeout; consecutive Trues re-reuse)."""
    sim = engine.Simulator()
    got = []

    def proc():
        for i, pre in enumerate(plan):
            if pre:
                ev = engine.Event(sim)
                ev.succeed(("pre", i))
                got.append(((yield ev), sim.now))
            else:
                got.append(((yield sim.timeout(1.0)), sim.now))

    sim.run_process(proc())
    want, now = [], 0.0
    for i, pre in enumerate(plan):
        now += 0.0 if pre else 1.0
        want.append((("pre", i) if pre else None, now))
    assert got == want


# ------------------------------------- cross-tier workload equivalence

# The interpreters and the program space are golden's (one copy): the
# ``engine/*`` manifest cells run a fixed seeded corpus of the same
# programs; hypothesis explores beyond it.
_randoms = st.randoms(use_true_random=False)


@needs_cc
@settings(deadline=None, max_examples=40)
@given(rng=_randoms)
def test_tiers_agree_on_log_clock_and_stats(rng):
    """Both tiers produce the identical value log, final clock, and
    stats() counters — including ``events_processed``, whose definition
    (one tiebreak per heap entry) is part of the cross-tier contract."""
    ops = golden._op_program(rng)
    assert (golden._run_program(_cengine, ops)
            == golden._run_program(_pyengine, ops))


@_tier
def test_stats_dict_shape(engine):
    def noop():
        return
        yield  # pragma: no cover - makes this a generator function

    sim = engine.Simulator()
    sim.run_process(noop(), name="noop")
    assert tuple(sim.stats()) == golden.STAT_KEYS


def test_tiers_share_sentinels_and_exceptions():
    """PENDING / exception types are identical objects across tiers, so
    isinstance and identity checks agree no matter which tier made an
    object (the facade re-exports them from the pure module)."""
    from repro.sim import engine

    names = ["Event", "AllOf", "Process", "Simulator", "Resource",
             "SimulationError", "fire", "PENDING"]
    for _, mod in TIERS:
        for n in names:
            assert hasattr(mod, n), n
    assert engine.Resource is dict(TIERS)[engine.ENGINE_TIER].Resource
    assert engine.PENDING is _pyengine.PENDING
    assert engine.SimulationError is _pyengine.SimulationError
    if compiler_available():
        assert _cengine.PENDING is _pyengine.PENDING
        assert _cengine.SimulationError is _pyengine.SimulationError


def _public(obj):
    return {n for n in dir(obj) if not n.startswith("_")}


#: The whole public surface of the two contract classes with a second
#: spelling to lose: one scheduling call per operation (``call_at`` for
#: a bare callback, ``leg`` for delays and occupancies, ``timeout`` for
#: an event to wait on) and one charge per occupancy shape.
SIMULATOR_SURFACE = {"all_of", "call_at", "idle_at_now", "leg", "next_time",
                     "now", "obs", "run", "run_process", "spawn", "stats",
                     "timeout"}
RESOURCE_SURFACE = {"busy_time", "capacity", "in_use", "name", "occupy",
                    "occupy_quanta", "queue_length", "release", "request",
                    "sim"}


@needs_cc
def test_tiers_expose_one_surface():
    """``Simulator``, ``Event``, ``Process`` and ``Resource`` instances
    have the same public attributes on both live tiers, so a name added
    to one tier only fails here; ``Simulator`` and ``Resource`` have
    exactly the contract's, so a second spelling added to both fails
    too."""
    def idle():
        return
        yield  # pragma: no cover - makes this a generator function

    def instances(engine):
        sim = engine.Simulator()
        return {"Simulator": sim, "Event": engine.Event(sim),
                "Process": sim.spawn(idle()), "Resource": engine.Resource(sim)}

    py, cc = instances(_pyengine), instances(_cengine)
    for name in py:
        assert _public(py[name]) == _public(cc[name]), name
    for tier in (py, cc):
        assert _public(tier["Simulator"]) == SIMULATOR_SURFACE
        assert _public(tier["Resource"]) == RESOURCE_SURFACE


# ------------------------------------- cross-tier resource equivalence


@settings(deadline=None, max_examples=120)
@given(rng=_randoms)
def test_resource_tiers_agree_with_process_pattern(rng):
    """Grant order, completion times, hook arguments, ``busy_time()``
    and the ``queue_length``/``in_use`` samples of a random resource
    program are identical on every tier — ``stats()`` included, so
    each step of the occupancy machine is one heap entry on both — and
    equal to the request/timeout/release process pattern run on the
    python tier."""
    capacities, ops = golden._resource_program(rng)
    *ref, _ = golden._run_resource_program(_pyengine, capacities, ops,
                                           process_pattern=True)
    results = [(name, golden._run_resource_program(engine, capacities, ops))
               for name, engine in TIERS]
    for name, (*observed, _stats) in results:
        assert observed == ref, name
    for name, (*_observed, stats) in results[1:]:
        assert stats == results[0][1][3], name


@_tier
@settings(deadline=None, max_examples=80)
@given(rng=_randoms)
def test_occupy_quanta_equals_the_loop_of_occupies(engine, rng):
    """One ``occupy_quanta`` is the loop of priority-1 ``occupy`` calls a
    process would run, to the heap entry: the same log (completion
    times, queue samples), ``busy_time()``s, final clock and all four
    ``stats()`` counters, for any mix of sub-quantum, exact and long
    charges racing urgent occupies and speed changes."""
    program = golden._quanta_program(rng)
    assert (golden._run_quanta_program(engine, *program)
            == golden._run_quanta_program(engine, *program, loop=True))


@_tier
@settings(deadline=None, max_examples=80)
@given(rng=_randoms)
def test_leg_equals_the_closure_chain(engine, rng):
    """One ``Simulator.leg`` is the closure chain of ``timeout``
    callbacks and priority-0 ``occupy`` calls it replaced, to the heap
    entry: the same log (hook arguments, completion values and times,
    queue samples), ``busy_time()``s, final clock and all four
    ``stats()`` counters, for every step shape racing plain occupies and
    quantized computes."""
    program = golden._leg_program(rng)
    assert (golden._run_leg_program(engine, *program)
            == golden._run_leg_program(engine, *program, loop=True))


@_tier
@settings(deadline=None, max_examples=80)
@given(rng=_randoms)
def test_leg_with_call_steps_equals_the_closure_chain(engine, rng):
    """A leg with call steps is the closure chain whose callback runs
    the call and starts the next step in the same dispatch: the same
    log (call instants and queue samples there, hook arguments,
    completion values and times), ``busy_time()``s, final clock and all
    four ``stats()`` counters — a call step adds no heap entry and no
    counter, wherever it stands."""
    program = golden._leg_program(
        rng, golden.LEG_SHAPES + golden.CALL_LEG_SHAPES)
    assert (golden._run_leg_program(engine, *program)
            == golden._run_leg_program(engine, *program, loop=True))


@_tier
def test_leg_rejects_a_final_call_step_and_an_unknown_step(engine):
    """The completion event's callbacks serve after the last step, so a
    call step there is refused; a step that is no occupancy tuple,
    delay or callable is a ``TypeError``.  Both at the call, before any
    step runs."""
    sim = engine.Simulator()
    res = engine.Resource(sim)
    ran = []
    for steps in ((lambda: ran.append(1),),
                  (1.0, (res, 1.0, None), lambda: ran.append(1))):
        with pytest.raises(engine.SimulationError, match="call step"):
            sim.leg(steps)
    for bad in ("1.0", None, [res, 1.0, None]):
        with pytest.raises(TypeError):
            sim.leg((lambda: ran.append(1), bad, 1.0))
    assert not ran and sim.stats()["events_processed"] == 0
    assert sim.next_time() is None and res.in_use == 0


@_tier
@pytest.mark.parametrize("before", ["delay", "occupancy"])
def test_call_step_exception_surfaces_from_run(engine, before):
    """An exception raised by a call step propagates out of
    ``sim.run()`` as a callback's does, whether the call follows a
    delay (the timer's dispatch) or an occupancy (the hold's)."""
    sim = engine.Simulator()
    res = engine.Resource(sim)

    def boom():
        raise ValueError("call step failed")

    first = 0.5 if before == "delay" else (res, 0.5, None)
    sim.leg((first, boom, 1.0))
    with pytest.raises(ValueError, match="call step failed"):
        sim.run()


@_tier
def test_call_at_is_one_bare_call_slot(engine):
    """``call_at`` refuses a non-callable at the call, with no heap
    entry; otherwise it returns ``None``, adds exactly one
    ``events_processed``, runs ``fn()`` at exactly ``when`` (not at
    ``now + (when - now)``: 0.2 + (0.9 - 0.2) is not 0.9), and an
    exception ``fn`` raises surfaces from ``run()``."""
    sim = engine.Simulator()
    with pytest.raises(TypeError):
        sim.call_at(1.0, 42)
    assert sim.stats()["events_processed"] == 0 and sim.next_time() is None

    seen = []
    sim.call_at(0.2, lambda: seen.append(
        sim.call_at(0.9, lambda: seen.append(sim.now))))
    sim.run()
    assert seen == [None, 0.9]
    assert sim.stats()["events_processed"] == 2

    def boom():
        raise ValueError("call slot failed")

    sim.call_at(sim.now + 1.0, boom)
    with pytest.raises(ValueError, match="call slot failed"):
        sim.run()
    assert sim.stats()["events_processed"] == 3


@_tier
def test_resource_capacity_is_an_integer(engine):
    """A capacity is a count of slots: a float is a ``TypeError`` on
    both tiers (the compiled tier parses an integer), even an integral
    one, and a count below one a ``SimulationError``."""
    sim = engine.Simulator()
    for capacity in (1.5, 2.0):
        with pytest.raises(TypeError):
            engine.Resource(sim, capacity)
    with pytest.raises(engine.SimulationError):
        engine.Resource(sim, 0)
    assert engine.Resource(sim, 2).capacity == 2


@_tier
def test_release_of_idle_resource_raises(engine):
    sim = engine.Simulator()
    res = engine.Resource(sim, name="idle")
    with pytest.raises(engine.SimulationError, match="idle"):
        res.release()
    res.occupy(1.0)
    sim.run()
    with pytest.raises(engine.SimulationError, match="idle"):
        res.release()


@_tier
def test_resource_event_cycle_is_collected(engine):
    """A resource, its queued waiters (a gate whose callback closes
    over the resource, and a queued occupancy pointing back at it), a
    leg waiting out its first delay (its steps name the resource, its
    callback closes over the leg), a leg whose call step closes over
    the leg itself and the simulator holding a pending hold form
    reference cycles; the collector must be able to traverse and clear
    them."""
    class Tracked(engine.Resource):  # a heap subtype: weakref-able
        pass

    sim = engine.Simulator()
    res = Tracked(sim, name="cyc")
    res.occupy(1.0)                                  # sim heap -> hold
    res.request().callbacks.append(lambda _ev: res)  # queue -> gate -> res
    res.occupy(2.0, on_release=lambda *a: res)       # queue -> occupancy
    leg = sim.leg((0.5, (res, 1.0, None)))           # sim heap -> steps -> res
    leg.callbacks.append(lambda _ev: leg)            # leg -> callback -> leg
    mine = []
    mine.append(sim.leg((0.5, lambda: mine, (res, 1.0, None))))
    del leg, mine                                    # leg -> steps -> call -> leg
    assert res.queue_length == 2
    probe = weakref.ref(res)
    del sim, res
    gc.collect()
    assert probe() is None

# ------------------------------------------------ same-instant entries

# What the simulated machine schedules, at the instant it runs at (a
# zero delay, a ``succeed``, ``call_at(now)``, a process start, an
# occupancy at a quiet or busy instant, a leg) or at a later one.
_ENTRY_KINDS = ("timeout", "succeed", "call_at", "spawn", "occupy", "leg")
_entry = st.tuples(st.sampled_from(_ENTRY_KINDS),
                   st.sampled_from((0.0, 0.0, 0.5, 1.0)))
_outside_step = st.one_of(
    st.tuples(st.just("push"), _entry),
    st.tuples(st.just("until"), st.sampled_from((-0.5, 0.0, 0.5, 1.0))),
    st.tuples(st.just("process"), _entry),
    st.tuples(st.just("run"), st.none()))


def _run_same_instant_program(engine, fans, steps):
    """Run ``steps`` from outside the loop; return the whole log.

    Each entry logs its dispatch and, below depth 2, schedules the
    entries of ``fans[id % len(fans)]`` from inside the loop.  A
    ``process`` step is a ``run_process`` whose process returns with
    two entries pending at its instant; an ``until`` step stops at
    ``now + dt``, on a tied instant or (``dt < 0``) behind the clock.
    Every log line carries ``now``, ``next_time()``, ``idle_at_now()``
    and ``stats()``."""
    sim = engine.Simulator()
    cpu = engine.Resource(sim, 1)
    ids = itertools.count()
    log = []

    def observe(*tag):
        log.append((*tag, sim.now, sim.next_time(), sim.idle_at_now(),
                    tuple(sim.stats().items())))

    def schedule(kind, delay, depth=0):
        i = next(ids)

        def fire(_ev=None):
            observe("fire", i)
            if depth < 2:
                for entry in fans[i % len(fans)]:
                    schedule(*entry, depth=depth + 1)

        if kind == "timeout":
            sim.timeout(delay).callbacks.append(fire)
        elif kind == "succeed":
            ev = engine.Event(sim)
            ev.callbacks.append(fire)
            ev.succeed(i)
        elif kind == "call_at":
            sim.call_at(sim.now + delay, fire)
        elif kind == "spawn":
            def proc():
                fire()
                yield sim.timeout(delay)
                observe("woke", i)
            sim.spawn(proc())
        elif kind == "occupy":
            cpu.occupy(delay).callbacks.append(fire)
        else:
            sim.leg((delay, (cpu, 0.5, None))).callbacks.append(fire)

    def returns_with_work_pending(kind, delay):
        yield sim.timeout(delay)
        schedule(kind, 0.0)
        schedule("timeout", 0.0)
        return "done"

    for op, arg in steps:
        if op == "push":
            schedule(*arg)
        elif op == "until":
            sim.run(until=sim.now + arg)
        elif op == "process":
            observe("returned", sim.run_process(returns_with_work_pending(*arg)))
        else:
            sim.run()
        observe("step", op)
    sim.run()
    observe("end")
    return log


@needs_cc
@settings(deadline=None, max_examples=150)
@given(fans=st.lists(st.lists(_entry, max_size=3), min_size=1, max_size=4),
       steps=st.lists(_outside_step, min_size=1, max_size=10))
def test_tiers_agree_on_same_instant_order(fans, steps):
    """Entries scheduled ahead for an instant and entries pushed at it
    dispatch in one ``(time, seq)`` order on both tiers, and every
    reader of the event store (``now``, ``next_time()``,
    ``idle_at_now()``, ``stats()``) agrees at every dispatch and after
    every step taken from outside the loop."""
    assert (_run_same_instant_program(_cengine, fans, steps)
            == _run_same_instant_program(_pyengine, fans, steps))


def _run_crowded_instant(engine, queued=500, ahead=40):
    """``ahead`` entries scheduled for t=1 from t=0, then ``queued``
    entries pushed at t=1 two at a time by the entries dispatched there:
    the same-instant queue grows while its head advances.  Returns the
    dispatch log, the final clock and ``stats()``."""
    sim = engine.Simulator()
    log = []
    pushes = itertools.count()

    def entry(tag):
        log.append((tag, sim.now, sim.next_time(), sim.idle_at_now(),
                    sim.stats()["events_processed"]))
        for _ in range(2):
            j = next(pushes)
            if j >= queued:
                return
            if j % 2:
                sim.timeout(0.0).callbacks.append(lambda _ev, j=j: entry(j))
            else:
                sim.call_at(sim.now, lambda j=j: entry(j))

    for k in range(ahead):
        sim.call_at(1.0, lambda k=k: entry(("ahead", k)))
    sim.run()
    return log, sim.now, sim.stats()


@_tier
def test_crowded_instant_is_fifo(engine):
    """Hundreds of entries at one instant dispatch after the entries
    scheduled ahead for it, then in push order."""
    log, now, stats = _run_crowded_instant(engine)
    assert [tag for tag, *_ in log] == (
        [("ahead", k) for k in range(40)] + list(range(500)))
    assert now == 1.0 and stats["events_processed"] == 540


@needs_cc
def test_tiers_agree_on_a_crowded_instant():
    assert _run_crowded_instant(_cengine) == _run_crowded_instant(_pyengine)


@_tier
def test_pending_same_instant_entries_die_with_the_simulator(engine):
    """A simulator dropped with a hundred entries still pending at its
    instant releases them, also when a pending entry closes over the
    simulator (a cycle only the collector can see through)."""
    def stop_early():
        yield sim.timeout(1.0)
        for _ in range(100):
            sim.call_at(sim.now, lambda: None)

    sim = engine.Simulator()
    sim.run_process(stop_early())
    plain = lambda: None                              # noqa: E731
    sim.call_at(sim.now, plain)
    probe = weakref.ref(plain)
    del sim, plain
    gc.collect()
    assert probe() is None

    sim = engine.Simulator()
    sim.run_process(stop_early())
    cyclic = lambda: sim                              # sim -> entry -> sim
    sim.call_at(sim.now, cyclic)
    assert sim.next_time() == sim.now and not sim.idle_at_now()
    probe = weakref.ref(cyclic)
    del sim, cyclic
    gc.collect()
    assert probe() is None


# ---------------------------------------------- tier selection (subproc)


_SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


def _subprocess(code, tier, src=_SRC, timeout=None, **extra_env):
    """Run a snippet under a forced REPRO_ENGINE tier; return the result."""
    env = dict(os.environ, **extra_env)
    env["REPRO_ENGINE"] = tier
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=timeout)


def test_engine_env_selects_tier():
    code = "from repro.sim.engine import ENGINE_TIER; print(ENGINE_TIER)"
    out = _subprocess(code, "python")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "python"
    out = _subprocess(code, "auto")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() in ("python", "compiled")
    if compiler_available():
        out = _subprocess(code, "compiled")
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "compiled"


def test_engine_env_rejects_unknown_value():
    out = _subprocess("import repro.sim.engine", "bogus")
    assert out.returncode != 0
    assert "REPRO_ENGINE" in out.stderr


# ------------------------------------- non-finite times (subproc)

# Every entry point that takes a time, called with a non-finite one.  A
# NaN heap key never equals the instant being drained, so the compiled
# drain loop spun on it with no Python check in between (Ctrl-C could
# not stop it); ``compute(inf)`` charged quanta forever.  Each runs in
# a subprocess under a timeout, so a hang fails instead of hanging.
_NONFINITE = {
    "timeout": ("sim.timeout(nan)", "SimulationError"),
    "call_at": ("sim.call_at(nan, lambda: None)", "SimulationError"),
    "occupy": ("cpu.occupy(nan)", "SimulationError"),
    "occupy_quanta": ("cpu.occupy_quanta(nan, 1e-3)", "SimulationError"),
    "leg-delay": ("sim.leg((nan, (cpu, 1e-3, None)))", "SimulationError"),
    "leg-seconds": ("sim.leg((1e-3, (cpu, nan, None)))", "SimulationError"),
    "compute-nan": ("sim.run_process(ctx.compute(nan))", "ValueError"),
    "compute-inf": ("sim.run_process(ctx.compute(math.inf))", "ValueError"),
}

_NONFINITE_SCRIPT = """
import math
from repro.network import DAS_PARAMS, Fabric, uniform_clusters
from repro.orca import OrcaRuntime
from repro.sim import Simulator
nan = math.nan
sim = Simulator()
fabric = Fabric(sim, uniform_clusters(1, 1), DAS_PARAMS)
ctx = OrcaRuntime(sim, fabric).context(0)
cpu = fabric.nodes[0].cpu
try:
    {call}
except Exception as exc:
    print(type(exc).__name__)
sim.run()
"""


@pytest.mark.parametrize("tier", [n for n, _ in TIERS])
@pytest.mark.parametrize("entry", sorted(_NONFINITE))
def test_non_finite_time_is_rejected_not_a_hang(tier, entry):
    call, error = _NONFINITE[entry]
    out = _subprocess(_NONFINITE_SCRIPT.format(call=call), tier, timeout=30)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == [error]


# --------------------------------- full-stack trace parity (subproc)

# Runs one traced grid point and prints every record plus the result's
# metrics, normalized to JSON.  Identical stdout across tiers means the
# tiers are indistinguishable record-for-record at the application level.
_TRACE_SCRIPT = """
import json
from repro.apps import small_params
from repro.harness.sweeps import RunSpec
from repro.sim.trace import TraceSpec

spec = RunSpec("water", "optimized", 2, 3, small_params("water"),
               trace=TraceSpec())
res = spec.execute()
records = [[r.time, r.kind, sorted(r.detail.items())]
           for r in res.trace_records]
print(json.dumps({"records": records, "elapsed": res.elapsed,
                  "traffic": res.traffic, "sim_stats": res.sim_stats},
                 sort_keys=True, default=repr))
"""


@needs_cc
def test_trace_streams_identical_across_tiers():
    py = _subprocess(_TRACE_SCRIPT, "python")
    cc = _subprocess(_TRACE_SCRIPT, "compiled")
    assert py.returncode == 0, py.stderr
    assert cc.returncode == 0, cc.stderr
    a, b = json.loads(py.stdout), json.loads(cc.stdout)
    assert a["elapsed"] == b["elapsed"]
    assert a["sim_stats"] == b["sim_stats"]
    assert a["traffic"] == b["traffic"]
    assert len(a["records"]) == len(b["records"])
    assert a["records"] == b["records"]


# --------------------------------------- host faults of the C build

# One SOR run: which tier loaded, which ``sweep_phase`` the app bound,
# and the answer down to the grid's bytes.
_SOR_SCRIPT = """
import hashlib, json
from repro.apps.sor import SORApp, SORParams, grid
from repro.harness import run_app
from repro.sim import engine

res = run_app(SORApp(), "optimized", 2, 2, SORParams.small())
print(json.dumps({
    "tier": engine.ENGINE_TIER,
    "kernel": ("reference" if grid.sweep_phase is grid.sweep_phase_reference
               else "compiled"),
    "answer": [res.elapsed, res.answer["iterations"],
               hashlib.sha256(res.answer["grid"].tobytes()).hexdigest()]}))
"""


def _sor(tier, src=_SRC, **env):
    out = _subprocess(_SOR_SCRIPT, tier, src, **env)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def _copy_package(dest):
    """The package as a fresh checkout has it: no built extension."""
    shutil.copytree(
        os.path.join(_SRC, "repro"), dest,
        ignore=shutil.ignore_patterns("__pycache__", "_ccore*.so",
                                      "_ccore*.pyd", "_ccore.stamp",
                                      "_ccore.build*"))


@pytest.fixture
def private_src(tmp_path):
    """A copy of the package with no built extension.  ``_build`` writes
    next to the source it compiles, so faults injected here never touch
    the extension the rest of the suite is running on."""
    _copy_package(tmp_path / "repro")
    return str(tmp_path)


def test_a_built_package_ships_the_c_source(tmp_path):
    """``_build`` compiles ``_ccore.c`` from next to ``_build.py``, so a
    non-editable install has a compiled tier only if the C file is
    package data; without it ``auto`` runs the python tier, silently."""
    pytest.importorskip("setuptools")
    repo = os.path.dirname(_SRC)
    for name in ("pyproject.toml", "README.md"):
        shutil.copy(os.path.join(repo, name), tmp_path / name)
    _copy_package(tmp_path / "src" / "repro")
    out = subprocess.run(
        [sys.executable, "-c", "import setuptools; setuptools.setup()",
         "build_py", "--build-lib", "lib"],
        cwd=tmp_path, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    built = tmp_path / "lib" / "repro" / "sim"
    assert (built / "_build.py").is_file()
    assert (built / "_ccore.c").is_file()


def test_failed_build_under_auto_is_the_whole_python_tier(private_src):
    want = _sor("python")
    assert (want["tier"], want["kernel"]) == ("python", "reference")
    # ``false`` stands in for a compiler that is installed and broken.
    assert _sor("auto", private_src, CC="false") == want


def test_failed_build_under_compiled_is_a_typed_error(private_src):
    out = _subprocess(_SOR_SCRIPT, "compiled", private_src, CC="false")
    assert out.returncode != 0
    assert "SimulationError: REPRO_ENGINE=compiled but the compiled core " \
        "is unavailable" in out.stderr


@needs_cc
def test_stale_extension_is_rebuilt_and_a_partial_one_never_loads(
        private_src, tmp_path):
    source = tmp_path / "repro" / "sim" / "_ccore.c"
    current = source.read_text(encoding="utf-8")
    # The extension as a checkout from before ``sweep_phase`` built it.
    older = re.sub(r' *\{"sweep_phase",.*?\},\n', "", current, flags=re.S)
    assert older != current
    source.write_text(older, encoding="utf-8")
    out = _subprocess(
        "from repro.sim._build import _ext_path, load_ccore\n"
        "print(hasattr(load_ccore(), 'sweep_phase'), _ext_path())",
        "python", private_src)
    assert out.returncode == 0, out.stderr
    has_symbol, ext = out.stdout.split()
    assert has_symbol == "False"
    with open(ext, "rb") as fh:
        older_ext = fh.read()

    # Stale: the stamp no longer matches the source, so it is rebuilt.
    source.write_text(current, encoding="utf-8")
    want = _sor("python")
    got = _sor("compiled", private_src)
    assert (got["tier"], got["kernel"]) == ("compiled", "compiled")
    assert got["answer"] == want["answer"]

    # Worse than stale: an extension without the symbol under a stamp
    # that vouches for it.  The tier loads whole or not at all.
    with open(ext, "wb") as fh:
        fh.write(older_ext)
    assert _sor("auto", private_src) == want
    out = _subprocess(_SOR_SCRIPT, "compiled", private_src)
    assert out.returncode != 0
    assert "SimulationError" in out.stderr and "sweep_phase" in out.stderr


@needs_cc
def test_changed_flags_or_compiler_rebuild_the_extension(private_src,
                                                         monkeypatch):
    """Same source, other flags: an extension built under the old ones
    (say, before ``-ffp-contract=off``) could round differently, so it
    is rebuilt, not reused.  ``$CC`` is in the stamp as given."""
    def load(*flags):
        out = _subprocess(
            "import os\n"
            "from repro.sim import _build\n"
            f"_build._CFLAGS += {flags!r}\n"
            "_build.load_ccore()\n"
            "print(os.stat(_build._ext_path()).st_ino)",
            "python", private_src)
        assert out.returncode == 0, out.stderr
        return out.stdout.strip()

    built = load()
    assert load() == built
    assert load("-DCCORE_NO_AVX2") != built

    from repro.sim import _build
    monkeypatch.delenv("CC", raising=False)
    unset = _build._signature()
    monkeypatch.setenv("CC", "cc")
    assert _build._signature() != unset
