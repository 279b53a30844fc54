"""Failure-injection tests: the harness must report failures faithfully.

The simulator is deterministic, so "failures" here are programming-model
failures — workers crashing mid-protocol, lost wakeups, deadlocks — and
the contract under test is that nothing is swallowed: exceptions surface
with their original type, deadlocks are reported with the stuck worker's
name, and partial protocol state does not corrupt survivors.
"""

import pytest

from repro.apps.base import Application
from repro.harness import run_app
from repro.network import DAS_PARAMS, Fabric, uniform_clusters
from repro.orca import Blocked, ObjectSpec, Operation, OrcaRuntime
from repro.sim import SimulationError, Simulator


class CrashyApp(Application):
    """Workers that fail in configurable ways."""

    name = "crashy"
    variants = ("original",)

    def __init__(self, mode: str, crash_node: int = 1):
        self.mode = mode
        self.crash_node = crash_node

    def register(self, rts, params, variant):
        def bump(state):
            state["v"] = state.get("v", 0) + 1
            return state["v"]

        rts.register(ObjectSpec("ctr", dict,
                                {"bump": Operation(fn=bump, writes=True)},
                                owner=0))
        return {}

    def process(self, ctx, params, variant, shared):
        if ctx.node == self.crash_node:
            if self.mode == "raise_before":
                raise RuntimeError("worker died before communicating")
            if self.mode == "raise_mid_rpc":
                yield from ctx.invoke("ctr", "bump")
                raise ValueError("worker died after an RPC")
            if self.mode == "hang":
                yield from ctx.receive(port="never.sent")
        yield from ctx.invoke("ctr", "bump")
        yield from ctx.compute(1e-4)
        return None


def test_worker_exception_surfaces_with_type():
    with pytest.raises(ValueError, match="died after an RPC"):
        run_app(CrashyApp("raise_mid_rpc"), "original", 2, 2, None)


def test_worker_exception_before_any_io():
    with pytest.raises(RuntimeError, match="before communicating"):
        run_app(CrashyApp("raise_before"), "original", 1, 3, None)


def test_hung_worker_reported_as_deadlock_with_name():
    with pytest.raises(SimulationError) as exc:
        run_app(CrashyApp("hang"), "original", 2, 2, None)
    assert "crashy1" in str(exc.value)
    assert "deadlock" in str(exc.value)


def test_other_workers_progress_despite_crash():
    """A crashing worker doesn't corrupt the shared object: the survivors'
    RPCs all land (we observe the exception, but state is consistent)."""
    sim = Simulator()
    fabric = Fabric(sim, uniform_clusters(2, 2), DAS_PARAMS)
    rts = OrcaRuntime(sim, fabric)

    def bump(state):
        state["v"] = state.get("v", 0) + 1

    rts.register(ObjectSpec("ctr", dict,
                            {"bump": Operation(fn=bump, writes=True)},
                            owner=0))

    def good(nid):
        ctx = rts.context(nid)
        for _ in range(5):
            yield from ctx.invoke("ctr", "bump")

    def bad():
        ctx = rts.context(3)
        yield from ctx.invoke("ctr", "bump")
        raise RuntimeError("boom")

    goods = [sim.spawn(good(nid)) for nid in range(3)]
    crash = sim.spawn(bad())
    sim.run()
    assert all(g.triggered and g._ok for g in goods)
    assert crash.triggered and not crash._ok
    assert rts.state_of("ctr")["v"] == 16  # 3*5 + 1


def test_guard_waiter_starvation_is_a_detectable_deadlock():
    """A consumer blocked on a guard nobody satisfies shows up as a
    deadlock, not as silent termination."""
    sim = Simulator()
    fabric = Fabric(sim, uniform_clusters(1, 2), DAS_PARAMS)
    rts = OrcaRuntime(sim, fabric)

    def deq(state):
        raise Blocked  # never satisfiable

    rts.register(ObjectSpec("q", list, {"deq": Operation(fn=deq)}, owner=0))

    def consumer():
        ctx = rts.context(0)
        yield from ctx.invoke("q", "deq")

    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_process(consumer())
