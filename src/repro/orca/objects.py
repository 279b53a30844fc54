"""Orca shared-object model.

Orca processes communicate exclusively through operations on *shared
objects*.  The runtime implements an object either **non-replicated**
(stored on one owner node; remote invocations become RPCs) or
**replicated** (every node holds a copy; read operations run locally,
write operations are broadcast with a write-update, function-shipping
protocol in total order).

Operations may *block* on a guard (Orca condition synchronization) by
raising :class:`Blocked`; the owner retries the invocation after every
write to the object — this is how a worker blocks on an empty job queue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Union

__all__ = ["Blocked", "Operation", "ObjectSpec", "Replica", "estimate_bytes"]


class Blocked(Exception):
    """Raised by an operation whose guard does not (yet) hold."""


SizeSpec = Union[int, Callable[..., int]]
CostSpec = Union[float, Callable[..., float]]

#: Default CPU cost of executing one operation (unmarshalling + dispatch).
DEFAULT_OP_COST = 2e-6


def estimate_bytes(value: Any) -> int:
    """Crude structural size estimate used when no explicit size is given."""
    if value is None:
        return 0
    if isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, str):
        return len(value)
    if isinstance(value, bytes):
        return len(value)
    if isinstance(value, (list, tuple, set, frozenset)):
        return 8 + sum(estimate_bytes(v) for v in value)
    if isinstance(value, dict):
        return 8 + sum(estimate_bytes(k) + estimate_bytes(v)
                       for k, v in value.items())
    nbytes = getattr(value, "nbytes", None)  # numpy arrays
    if nbytes is not None:
        return int(nbytes)
    return 64


@dataclass
class Operation:
    """One operation on a shared object.

    ``fn(state, *args)`` mutates/queries ``state`` and returns a result.
    ``writes`` decides the protocol (RPC/local for reads, broadcast for
    writes on replicated objects).  ``arg_bytes``/``result_bytes`` size the
    messages; ``cpu_cost`` charges the executing node's CPU.  A constant
    of any of the three must be finite and non-negative, and is resolved
    here, once: a size to an ``int``, a cost to a ``float``.
    """

    fn: Callable[..., Any]
    writes: bool = False
    arg_bytes: Optional[SizeSpec] = None
    result_bytes: Optional[SizeSpec] = None
    cpu_cost: CostSpec = DEFAULT_OP_COST

    def __post_init__(self):
        for name, kind in (("arg_bytes", int), ("result_bytes", int),
                           ("cpu_cost", float)):
            spec = getattr(self, name)
            if spec is None or callable(spec):
                continue
            if not 0 <= spec < math.inf:
                raise ValueError(f"{name} must be finite and >= 0: {spec!r}")
            setattr(self, name, kind(spec))

    def args_size(self, args: tuple) -> int:
        spec = self.arg_bytes
        if type(spec) is int:
            return spec
        return estimate_bytes(args) if spec is None else int(spec(*args))

    def result_size(self, result: Any) -> int:
        spec = self.result_bytes
        if type(spec) is int:
            return spec
        return estimate_bytes(result) if spec is None else int(spec(result))

    def cost(self, args: tuple) -> float:
        spec = self.cpu_cost
        return spec if type(spec) is float else float(spec(*args))


@dataclass
class ObjectSpec:
    """Declaration of a shared object.

    ``state_factory`` builds the initial state; for replicated objects it
    is called once per node so every replica owns independent state.
    ``owner`` is the node storing a non-replicated object.
    """

    name: str
    state_factory: Callable[[], Any]
    operations: Dict[str, Operation]
    replicated: bool = False
    owner: int = 0

    def __post_init__(self):
        if not self.operations:
            raise ValueError(f"object {self.name!r} declares no operations")

    def op(self, op_name: str) -> Operation:
        try:
            return self.operations[op_name]
        except KeyError:
            raise KeyError(
                f"object {self.name!r} has no operation {op_name!r}; "
                f"available: {sorted(self.operations)}") from None


@dataclass
class Replica:
    """Per-node instantiation of an object (state + parked guard waiters)."""

    spec: ObjectSpec
    state: Any
    # Invocations parked on a failed guard, retried after each write.
    parked: list = field(default_factory=list)
