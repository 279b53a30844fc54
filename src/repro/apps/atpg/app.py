"""The ATPG application: per-pattern accumulator vs cluster-level reduction.

Original (Section 4.4): every processor RPCs a shared statistics object
(on processor 0) each time it generates a pattern; on multiple clusters
many of those RPCs cross the WAN.

Optimized: processors accumulate locally and the totals are combined with
one cluster-level reduction at the end — a single intercluster RPC per
cluster.  At DAS bandwidth/latency the difference is minor (the paper
found the same); on the slower 10 ms / 2 Mbit/s network it matters.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Tuple

from ...core import cluster_reduce
from ...orca import Context, ObjectSpec, Operation, OrcaRuntime
from ..base import Application, KERNEL_REAL
from ..partition import block_slices
from . import circuit as circuit_mod
from .circuit import ATPGParams

__all__ = ["ATPGApp"]


def _stats_object_spec() -> ObjectSpec:
    def add(state, patterns, covered):
        state["patterns"] += patterns
        state["covered"] += covered

    def read(state):
        return (state["patterns"], state["covered"])

    return ObjectSpec(
        "atpg.stats", lambda: {"patterns": 0, "covered": 0},
        {"add": Operation(fn=add, writes=True, arg_bytes=16),
         "read": Operation(fn=read, arg_bytes=1, result_bytes=16)},
        owner=0)


class ATPGApp(Application):
    """Automatic test pattern generation on the multilevel cluster."""

    name = "atpg"

    def build_instance(self, params: ATPGParams) -> None:
        if params.kernel != KERNEL_REAL:
            for gate in range(params.n_gates):
                circuit_mod.synthetic_gate_effort(params, gate)

    def register(self, rts: OrcaRuntime, params: ATPGParams,
                 variant: str) -> Dict[str, Any]:
        rts.register(_stats_object_spec())
        shared: Dict[str, Any] = {
            "circuit": (circuit_mod.build_circuit(params)
                        if params.kernel == KERNEL_REAL else None),
            "slices": block_slices(params.n_gates, rts.topo.n_nodes),
            "result": None,
            "tries": 0,
        }
        return shared

    def process(self, ctx: Context, params: ATPGParams, variant: str,
                shared: Dict[str, Any]) -> Generator:
        real = params.kernel == KERNEL_REAL
        lo, hi = shared["slices"][ctx.node]
        local_patterns = 0
        local_covered = 0

        for gate in range(lo, hi):
            if real:
                p, c, tries = circuit_mod.generate_for_gate(
                    shared["circuit"], gate, params)
            else:
                p, c, tries = circuit_mod.synthetic_gate_effort(params, gate)
            # Two circuit simulations per candidate pattern.
            yield from ctx.compute(2 * tries * params.eval_cost)
            shared["tries"] += tries
            if variant == "original":
                # One RPC to the shared statistics object per pattern
                # (each generated pattern covers the fault it was found for).
                for _ in range(p):
                    yield from ctx.invoke("atpg.stats", "add", 1, 1)
            else:
                local_patterns += p
                local_covered += c

        if variant == "optimized":
            total = yield from cluster_reduce(
                ctx, (local_patterns, local_covered),
                lambda a, b: (a[0] + b[0], a[1] + b[1]),
                size=16, root=0, tag="atpg")
            if ctx.node == 0:
                shared["result"] = total
        elif ctx.node == 0:
            pass  # totals live in the shared object; read them in finalize
        return None

    def finalize(self, rts: OrcaRuntime, params: ATPGParams, variant: str,
                 shared: Dict[str, Any]) -> Tuple[int, int]:
        if variant == "optimized":
            return shared["result"]
        state = rts.state_of("atpg.stats")
        return (state["patterns"], state["covered"])

    def stats(self, rts: OrcaRuntime, params: ATPGParams, variant: str,
              shared: Dict[str, Any]) -> Dict[str, Any]:
        return {"tries": shared["tries"]}
