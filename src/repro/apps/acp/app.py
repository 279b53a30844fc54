"""The ACP application: irregular broadcasts of domain prunings.

The variables are statically divided over the processors; when a
processor prunes one of its domains it must inform everyone, which the
program does by updating a replicated object — many small broadcasts, a
heavy load for the cluster gateways (Section 4.7).

The paper implements *no* optimization for ACP but suggests asynchronous
broadcasts.  We ship that suggestion as the ``optimized`` variant
(flagged as an extension in EXPERIMENTS.md): writes to the replicated
domain object are issued without waiting for the local apply, so a run
of prunings pipelines through the sequencer.  Total order — and thus the
fixpoint — is unchanged.

Termination: rounds with a broadcast-based report.  Because reports and
prunings share the totally-ordered broadcast channel, a round that
reports zero changes globally is a true fixpoint.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List

from ...orca import Blocked, Context, ObjectSpec, Operation, OrcaRuntime
from ..base import Application
from ..partition import block_slices
from . import csp
from .csp import ACPParams

__all__ = ["ACPApp"]


def _domains_spec(params: ACPParams) -> ObjectSpec:
    def set_domain(state, x, mask):
        state[x] = mask

    def get_domain(state, x, default):
        return state.get(x, default)

    return ObjectSpec(
        "acp.domains", dict,
        {"set_domain": Operation(fn=set_domain, writes=True, arg_bytes=12),
         "get_domain": Operation(fn=get_domain, arg_bytes=8, result_bytes=4)},
        replicated=True)


def _round_spec(p: int) -> ObjectSpec:
    def report(state, rnd, changes):
        entry = state.setdefault(rnd, [0, 0])
        entry[0] += 1
        entry[1] += changes

    def wait_round(state, rnd, parties):
        entry = state.get(rnd)
        if entry is None or entry[0] < parties:
            raise Blocked
        return entry[1]

    return ObjectSpec(
        "acp.round", dict,
        {"report": Operation(fn=report, writes=True, arg_bytes=12),
         "wait_round": Operation(fn=wait_round, arg_bytes=8, result_bytes=4)},
        replicated=True)


class ACPApp(Application):
    """Arc consistency on the multilevel cluster."""

    name = "acp"

    def build_instance(self, params: ACPParams) -> None:
        csp.build_network(params)

    def register(self, rts: OrcaRuntime, params: ACPParams,
                 variant: str) -> Dict[str, Any]:
        rts.register(_domains_spec(params))
        rts.register(_round_spec(rts.topo.n_nodes))
        net = csp.build_network(params)
        return {
            "net": net,
            "slices": block_slices(params.n_vars, rts.topo.n_nodes),
            "final": {},
            "rounds": 0,
            "prunings": 0,
        }

    def process(self, ctx: Context, params: ACPParams, variant: str,
                shared: Dict[str, Any]) -> Generator:
        net: csp.Network = shared["net"]
        lo, hi = shared["slices"][ctx.node]
        mine = {x: net.initial_domains[x] for x in range(lo, hi)}
        full = params.full_domain
        p = ctx.topo.n_nodes
        asynchronous = variant == "optimized"

        # Publish non-default initial domains so peers see the seeds.
        pending = []
        for x, mask in mine.items():
            if mask != full:
                if asynchronous:
                    pending.append(ctx.invoke_async("acp.domains",
                                                    "set_domain", x, mask))
                else:
                    yield from ctx.invoke("acp.domains", "set_domain", x, mask)

        rnd = 0
        while True:
            changes = 0
            for x in range(lo, hi):
                dom_x = mine[x]
                if dom_x == 0:
                    continue
                for y, supports in net.arcs_of(x):
                    if lo <= y < hi:
                        dom_y = mine[y]
                    else:
                        dom_y = yield from ctx.invoke(
                            "acp.domains", "get_domain", y, full)
                    new, checks = csp.revise(dom_x, dom_y, supports)
                    yield from ctx.compute(checks * params.check_cost)
                    if new != dom_x:
                        dom_x = new
                        changes += 1
                        shared["prunings"] += 1
                        if asynchronous:
                            pending.append(ctx.invoke_async(
                                "acp.domains", "set_domain", x, new))
                        else:
                            yield from ctx.invoke("acp.domains",
                                                  "set_domain", x, new)
                mine[x] = dom_x
            # Round gate: report our change count, wait for everyone's.
            yield from ctx.invoke("acp.round", "report", rnd, changes)
            total = yield from ctx.invoke("acp.round", "wait_round", rnd, p)
            rnd += 1
            if total == 0:
                break
        shared["rounds"] = max(shared["rounds"], rnd)
        shared["final"].update(mine)
        # Flush stragglers so the simulation drains cleanly.
        for ev in pending:
            if not ev.triggered:
                yield ev
        return None

    def finalize(self, rts: OrcaRuntime, params: ACPParams, variant: str,
                 shared: Dict[str, Any]) -> List[int]:
        return [shared["final"][x] for x in range(params.n_vars)]

    def stats(self, rts: OrcaRuntime, params: ACPParams, variant: str,
              shared: Dict[str, Any]) -> Dict[str, Any]:
        return {"rounds": shared["rounds"], "prunings": shared["prunings"]}
