"""Correctness oracle: every operation of every pass is checked.

An operation *fails* if it raised or timed out, if its fingerprint
differs from the committed expectation in ``expected.json`` (compared
when the operation is first seen; it applies whenever the generated
request equals the committed one — at seed 0 always, at other seeds for
inputs no seed reaches), or if it breaks an invariant that holds at any
seed:

* every pass equals the first — which makes the serial twins of the
  traced run (``jobs=1`` for the sweep, ``pdes="off"`` for PDES) equal
  the pooled / partitioned passes, operation by operation;
* the ``original`` and ``optimized`` variants of one request agree on
  ``answer``;
* an operation seen in the first pass is present in every pass.

A mismatch is a failed operation, never a crash: the pass continues.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Optional

import numpy as np

__all__ = ["fingerprint", "Oracle"]


def _canon(obj: Any) -> Any:
    """A repr-stable form: arrays by content hash, dicts/sets sorted."""
    if isinstance(obj, np.ndarray):
        data = np.ascontiguousarray(obj).tobytes()
        return ("ndarray", str(obj.dtype), obj.shape,
                hashlib.sha256(data).hexdigest())
    if isinstance(obj, np.generic):
        return repr(obj.item())
    if isinstance(obj, dict):
        return tuple(sorted((repr(k), _canon(v)) for k, v in obj.items()))
    if isinstance(obj, (list, tuple)):
        return tuple(_canon(v) for v in obj)
    if isinstance(obj, (set, frozenset)):
        return tuple(sorted(repr(_canon(v)) for v in obj))
    return repr(obj)


def _digest(obj: Any) -> str:
    return hashlib.sha256(repr(_canon(obj)).encode()).hexdigest()[:16]


def fingerprint(result: Any) -> Dict[str, str]:
    """What ``expected.json`` pins per operation.  Host-side numbers
    (``sim_stats``, timings) are deliberately not part of it."""
    if hasattr(result, "elapsed"):  # AppResult
        return {"elapsed": repr(result.elapsed),
                "answer": _digest(result.answer),
                "traffic": _digest(result.traffic),
                "stats": _digest(result.stats)}
    if hasattr(result, "to_json"):  # DecisionModel
        return {"model": _digest(result.to_json())}
    return {"value": _digest(result)}  # figure bars


def _agreed(result: Any) -> Any:
    """What two variants of one request must agree on: the answer.  The
    real ``tsp`` kernel answers ``(length, tour)``; equal-length tours
    tie-break by discovery order, so there it is the length."""
    answer = getattr(result, "answer", None)
    if getattr(result, "app", None) == "tsp" and answer is not None:
        return answer[0]
    return answer


def _request(op_id: str) -> str:
    """The op id with its variant removed: what two variants share."""
    return op_id.replace("-original", "").replace("-optimized", "")


class Oracle:
    """Checks passes of one workload; counts attempted/failed operations."""

    def __init__(self, expected: Optional[Dict[str, Any]] = None):
        self.expected = expected or {}
        #: op id -> {"spec", "print"} as first seen; what every later
        #: pass must equal and what ``--write-expected`` commits.
        self.first: Dict[str, Dict[str, Any]] = {}
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, label: str, ops) -> None:
        by_request: Dict[str, str] = {}
        for op in ops:
            self.attempted += 1
            why = self._judge(op, by_request)
            if why is not None:
                self.failures.append(f"{label}/{op.id}: {why}")
        for op_id in sorted(self.first.keys() - {op.id for op in ops}):
            self.attempted += 1
            self.failures.append(f"{label}/{op_id}: operation missing")

    def _judge(self, op, by_request: Dict[str, str]) -> Optional[str]:
        if op.error is not None:
            return op.error
        fp = fingerprint(op.result)
        agreed = _digest(_agreed(op.result))
        sibling = by_request.setdefault(_request(op.id), agreed)
        if op.id not in self.first:
            # First sight: this is what every later pass is held to, so
            # the committed expectation needs comparing only here.
            self.first[op.id] = {"spec": op.spec, "print": fp}
            exp = self.expected.get(op.id)
            if exp and exp["spec"] == op.spec and exp["print"] != fp:
                fields = [k for k in fp if exp["print"].get(k) != fp[k]]
                return f"differs from expected.json in {fields}"
        first = self.first[op.id]["print"]
        if fp != first:
            fields = [k for k in fp if first.get(k) != fp[k]]
            return f"differs from the first pass in {fields}"
        if sibling != agreed:
            return "original and optimized variants disagree on answer"
        return None
