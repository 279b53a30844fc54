"""Structured event tracing: the collection substrate for ``repro.obs``.

A :class:`Tracer` is a cheap append-only log of ``(time, kind, detail)``
records.  Holding one is the only switch: a run, fabric or simulator
is traced exactly when it is handed a tracer, and a tracer always
records, subject only to its ``kinds``, ``ring`` and ``sample`` bounds.
An untraced run holds ``None``, and every instrumented call site tests
``tracer is not None`` before building its record, so an untraced run
pays one identity test and a branch on the paths it observes and
nothing anywhere else.  The record *kinds* the instrumented layers emit,
their fields and their units are registered in :mod:`repro.obs.schema`
and documented in ``docs/TRACING.md``.

Filtering caveat — **filtering happens at emit time**: when ``kinds`` is
set, a record whose kind is not in the set is never appended, and there
is no way to recover it later.  Analyses that need a kind must enable it
*before* the run (this is deliberate: post-hoc filtering would require
keeping everything, and full traces of paper-scale runs are large).

Memory caveat — an unbounded tracer grows with every record for as long
as it is held.  Three complementary bounds exist:

* ``kinds`` — the emit-time filter above;
* ``ring`` — keep only the *last* ``ring`` records (a ring buffer: the
  oldest record is evicted on overflow).  Right for "what led up to the
  end of the run" questions on long sweeps;
* ``sample`` — per-kind deterministic 1-in-k downsampling: of every
  ``k`` emissions of a kind, the first is kept and the next ``k - 1``
  are dropped.  Right for high-volume kinds (``msg.send``,
  ``link.busy``) where a representative subset suffices.

Sampling is *deterministic*: it counts emissions per kind, so the same
simulation with the same tracer configuration keeps exactly the same
records — no randomness, no wall-clock dependence.  ``dropped`` counts
the records sampling skipped or the ring evicted.  Long sweeps that
reuse one tracer across grid points must still call
:meth:`Tracer.clear` between points (the profiler in
:mod:`repro.obs.profile` does this); ``clear`` also resets the sampling
counters so every grid point samples identically.  Both the sampling
counters and the ring count emissions in one global order, which a
partitioned run does not have, so a run that asks to be partitioned
with a ring- or sample-bounded tracer warns and runs single-process.

:class:`TraceSpec` is the frozen, picklable description of a tracer
configuration — the sweep harness ships it to worker processes so
``repro figure --jobs N --trace-dir ...`` runs stay traced with bounded
memory (see :mod:`repro.harness.sweeps`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, Mapping, Optional, Tuple

__all__ = ["TraceRecord", "Tracer", "TraceSpec"]


@dataclass(frozen=True)
class TraceRecord:
    time: float
    kind: str
    detail: Dict[str, Any]


@dataclass
class Tracer:
    records: Any = field(default_factory=list)  # List, or deque when ring set
    # Emit-time filter: kinds to keep (None = keep all).  Records of
    # other kinds are dropped as they are emitted and are unrecoverable.
    kinds: Optional[frozenset] = None
    # Ring-buffer bound: keep only the last `ring` records (None = all).
    ring: Optional[int] = None
    # Deterministic downsampling: kind -> k keeps the 1st of every k
    # emissions of that kind (None / missing kind / k <= 1 = keep all).
    sample: Optional[Mapping[str, int]] = None
    # Records not retained (sampled out or evicted by the ring).
    dropped: int = 0
    # Per-kind emission counters driving the 1-in-k sampling.
    _seen: Dict[str, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.ring is not None:
            if self.ring < 1:
                raise ValueError(f"ring must be >= 1: {self.ring}")
            self.records = deque(self.records, maxlen=self.ring)

    def emit(self, time: float, kind: str, **detail: Any) -> None:
        if self.kinds is not None and kind not in self.kinds:
            return
        if self.sample:
            k = self.sample.get(kind, 1)
            if k > 1:
                seen = self._seen.get(kind, 0)
                self._seen[kind] = seen + 1
                if seen % k:
                    self.dropped += 1
                    return
        if self.ring is not None and len(self.records) == self.ring:
            self.dropped += 1  # the append below evicts the oldest record
        self.records.append(TraceRecord(time, kind, detail))

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def clear(self) -> None:
        """Drop all collected records and reset the sampling state
        (``kinds``/``ring``/``sample`` unchanged).

        Call between sweep grid points when one tracer is shared across
        many runs, so memory is bounded by a single run's trace and each
        point's 1-in-k sampling starts from the same counters.
        """
        self.records.clear()
        self._seen.clear()
        self.dropped = 0


@dataclass(frozen=True)
class TraceSpec:
    """A frozen, picklable tracer configuration.

    The sweep harness attaches one of these to a
    :class:`~repro.harness.sweeps.RunSpec` so worker processes can
    rebuild an identical tracer; :meth:`build` constructs the tracer.
    Because the fields are hashable tuples, the spec participates in
    cache keys and batch deduplication like any other run parameter.

    Determinism: ``build()`` of the same spec always yields the same
    configuration, and the tracer's sampling is counter-based, so the
    same simulation traced under the same spec keeps exactly the same
    records.
    """

    kinds: Optional[Tuple[str, ...]] = None
    ring: Optional[int] = None
    sample: Tuple[Tuple[str, int], ...] = ()

    def build(self) -> Tracer:
        return Tracer(
            kinds=frozenset(self.kinds) if self.kinds is not None else None,
            ring=self.ring,
            sample=dict(self.sample) if self.sample else None)
