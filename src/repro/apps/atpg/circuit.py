"""ATPG domain: combinational circuits and random-pattern test generation.

The paper's ATPG statically partitions the gates of a combinational
circuit over the processors; each processor searches test patterns for
the (stuck-at) faults of its gates and the processors communicate only to
maintain global statistics — the all-to-one accumulator pattern.

The real kernel builds a random topological circuit and searches input
patterns that *detect* each gate's stuck-at-0/1 faults (a pattern detects
a fault if the primary output differs with and without the fault — honest
single-fault simulation).  The synthetic kernel draws the per-gate search
effort from the same deterministic streams without simulating the logic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

from ...sim.rng import substream
from ..instance import INSTANCE_MEMO, InstanceTable

__all__ = ["ATPGParams", "Circuit", "build_circuit", "generate_for_gate",
           "synthetic_gate_effort", "sequential_reference"]


@dataclass(frozen=True)
class ATPGParams:
    n_gates: int = 2048
    n_inputs: int = 16
    max_tries: int = 24
    seed: int = 5
    #: seconds per single full-circuit evaluation (two per try).  Sized so
    #: each processor issues tens of statistics RPCs per second, matching
    #: the paper's Table 2 rate of ~70 RPC/s per processor.
    eval_cost: float = 2e-3
    kernel: str = "synthetic"

    @staticmethod
    def paper() -> "ATPGParams":
        return ATPGParams()

    @staticmethod
    def small(n_gates: int = 96, n_inputs: int = 10) -> "ATPGParams":
        return ATPGParams(n_gates=n_gates, n_inputs=n_inputs, kernel="real")

    def with_(self, **kw) -> "ATPGParams":
        return replace(self, **kw)


OPS = ("AND", "OR", "NOT", "XOR")


@dataclass
class Circuit:
    """A random combinational circuit in topological order.

    Signal ids: 0..n_inputs-1 are primary inputs; n_inputs..n_inputs+
    n_gates-1 are gate outputs.  The last gate is the primary output.
    """

    n_inputs: int
    gates: List[Tuple[str, int, int]]  # (op, in_a, in_b); NOT ignores in_b

    @property
    def n_gates(self) -> int:
        return len(self.gates)

    @property
    def outputs(self) -> List[int]:
        """Primary outputs: gate signals with no fan-out (circuit convention)."""
        used = {a for _, a, _ in self.gates} | {b for _, _, b in self.gates}
        return [self.n_inputs + g for g in range(self.n_gates)
                if self.n_inputs + g not in used]

    def eval_values(self, inputs: np.ndarray,
                    fault: Optional[Tuple[int, int]] = None) -> np.ndarray:
        """All signal values for one input vector, optionally with gate
        ``fault = (gate_index, stuck_value)`` injected."""
        values = np.empty(self.n_inputs + self.n_gates, dtype=np.int8)
        values[:self.n_inputs] = inputs
        for g, (op, a, b) in enumerate(self.gates):
            va, vb = values[a], values[b]
            if op == "AND":
                v = va & vb
            elif op == "OR":
                v = va | vb
            elif op == "XOR":
                v = va ^ vb
            else:  # NOT
                v = 1 - va
            if fault is not None and fault[0] == g:
                v = fault[1]
            values[self.n_inputs + g] = v
        return values

    def evaluate(self, inputs: np.ndarray,
                 fault: Optional[Tuple[int, int]] = None) -> int:
        """Value of the last gate (kept for simple truth-table checks)."""
        return int(self.eval_values(inputs, fault)[-1])

    def detects(self, inputs: np.ndarray, fault: Tuple[int, int]) -> bool:
        """True if the pattern makes any primary output differ."""
        outs = self.outputs
        good = self.eval_values(inputs)[outs]
        bad = self.eval_values(inputs, fault)[outs]
        return bool((good != bad).any())


def build_circuit(params: ATPGParams) -> Circuit:
    rng = substream(params.seed, "atpg.circuit")
    gates: List[Tuple[str, int, int]] = []
    for g in range(params.n_gates):
        n_signals = params.n_inputs + g
        op = OPS[int(rng.integers(0, len(OPS)))]
        # Bias inputs toward recent signals so the circuit stays deep and
        # faults propagate to the output often enough to be detectable.
        lo = max(0, n_signals - 12)
        a = int(rng.integers(lo, n_signals))
        b = int(rng.integers(lo, n_signals))
        gates.append((op, a, b))
    return Circuit(params.n_inputs, gates)


def generate_for_gate(circuit: Circuit, gate: int,
                      params: ATPGParams) -> Tuple[int, int, int]:
    """Random-pattern test generation for one gate's two stuck-at faults.

    Returns ``(patterns_found, covered_faults, tries)`` — ``tries`` is the
    number of candidate patterns evaluated (each costs two circuit
    simulations: fault-free and faulty).
    """
    rng = substream(params.seed, f"atpg.gate.{gate}")
    patterns = 0
    covered = 0
    tries = 0
    for stuck in (0, 1):
        for _ in range(params.max_tries):
            tries += 1
            vec = rng.integers(0, 2, size=params.n_inputs).astype(np.int8)
            if circuit.detects(vec, (gate, stuck)):
                patterns += 1
                covered += 1
                break
    return patterns, covered, tries


@lru_cache(maxsize=INSTANCE_MEMO)
def _gate_effort(seed: int, max_tries: int) -> InstanceTable:
    """gate -> (patterns, covered, tries); an ``eval_cost`` sweep shares
    one table."""

    def draw(gate: int) -> Tuple[int, int, int]:
        rng = substream(seed, f"atpg.gate.{gate}")
        patterns = 0
        covered = 0
        tries = 0
        for _stuck in (0, 1):
            # Per-fault detection probability; some faults are hard.
            p_detect = float(rng.beta(1.2, 2.0))
            t = int(rng.geometric(max(p_detect, 1e-3)))
            if t <= max_tries:
                tries += t
                patterns += 1
                covered += 1
            else:
                tries += max_tries
        return patterns, covered, tries

    return InstanceTable(draw)


def synthetic_gate_effort(params: ATPGParams, gate: int) -> Tuple[int, int, int]:
    """Deterministic (patterns, covered, tries) without logic simulation.

    The tries distribution is geometric-flavored like real random-pattern
    ATPG: easy faults detect in a try or two, hard ones exhaust the budget.
    One pair of draws per gate per process (``apps/instance.py``).
    """
    return _gate_effort(params.seed, params.max_tries)[gate]


def sequential_reference(params: ATPGParams) -> Tuple[int, int]:
    """Total (patterns, covered) over the whole circuit."""
    total_p = 0
    total_c = 0
    if params.kernel == "real":
        circuit = build_circuit(params)
        for g in range(params.n_gates):
            p, c, _ = generate_for_gate(circuit, g, params)
            total_p += p
            total_c += c
    else:
        for g in range(params.n_gates):
            p, c, _ = synthetic_gate_effort(params, g)
            total_p += p
            total_c += c
    return total_p, total_c
