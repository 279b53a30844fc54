"""Facade over the two-tier discrete-event core: selects and re-exports.

The engine API has two implementations of one shared *event store*
contract — heap entries are compact ``(time, tiebreak, item)`` triples,
same-instant entries drain in batched dispatch runs, and every entry
bumps the tie-break counter exactly once so ``Simulator.stats()`` agrees
across tiers.  The contract is what the simulated machine calls, and no
more:

* :class:`Event` — ``succeed``/``fail``, ``triggered``/``ok``/``value``,
  a ``callbacks`` list;
* :class:`Process` — a generator resumed by the events it yields;
* :class:`Simulator` — ``timeout`` (a plain :class:`Event` that fires
  with ``None``), ``call_at`` (a bare callback at an absolute time, one
  heap entry, a past time refused), ``leg`` (delays, priority-0
  occupancies and call steps run in sequence on one event),
  ``spawn``, ``all_of``, ``run``/``run_process``,
  ``idle_at_now``/``next_time``
  and ``stats()`` (``events_processed``, ``spawns``,
  ``fast_completions``, ``fallbacks``);
* :class:`AllOf`, :class:`Resource` (two-priority FIFO with
  ``request``/``release``/``occupy``/``occupy_quanta``) and
  :func:`fire`.

The tiers:

* ``_pyengine`` — the portable pure-Python tier.  Always available.
* ``_cengine`` — the compiled tier: the same store as a C extension
  (``_ccore.c``) with C-native parallel arrays, built on demand with
  the system C compiler.  Unavailable without a compiler or Python
  headers.

Selection happens once at import via ``REPRO_ENGINE``:

* ``auto`` (default, also the empty string) — use the compiled tier
  when it builds/loads, else fall back to pure Python silently;
* ``compiled`` — require the compiled tier; raise if it cannot be
  built (use in CI to catch toolchain regressions);
* ``python`` — force the pure-Python tier (the reference engine for
  differential runs and for debugging with readable tracebacks).

The tier also decides one application kernel: SOR's ``sweep_phase`` is
a C function of the same extension on the compiled tier and the numpy
reference in ``repro.apps.sor.grid`` on the python tier — one build,
one fallback rule, no selector of its own.

``ENGINE_TIER`` names the tier that actually loaded (``"python"`` or
``"compiled"``).  Mixing tiers in one process is not supported: all
callers import from this module (or :mod:`repro.sim`), so one process
has one engine.  Cross-tier differential tests run the second tier in a
subprocess with ``REPRO_ENGINE`` set.

Everything downstream (``primitives``, ``network.fabric``, ``orca.*``)
is tier-agnostic: it sees the same classes, the same exception type
(:class:`SimulationError` is defined once in ``_pyengine`` and shared by
the compiled tier), and the same fast-path hooks
(``fire``/``idle_at_now``).  The contract's oracle is
recorded: the ``engine/*`` cells of the golden manifest
(``tools/golden.py``) pin the value logs, clocks, ``busy_time()`` and
``stats()`` of fixed corpora of differential programs, and both tiers
must reproduce every one.
"""

from __future__ import annotations

import os

from . import _pyengine
from ._pyengine import PENDING, SimulationError

__all__ = [
    "Event",
    "AllOf",
    "Process",
    "Simulator",
    "Resource",
    "SimulationError",
    "fire",
    "sweep_phase",
    "PENDING",
    "ENGINE_TIER",
]


def _select():
    requested = os.environ.get("REPRO_ENGINE", "auto").strip().lower() or "auto"
    if requested == "python":
        return _pyengine, "python"
    if requested not in ("auto", "compiled"):
        raise SimulationError(
            f"unknown REPRO_ENGINE value {requested!r} "
            "(expected 'auto', 'python', or 'compiled')")
    try:
        from . import _cengine
        return _cengine, "compiled"
    except Exception as exc:
        if requested == "compiled":
            raise SimulationError(
                f"REPRO_ENGINE=compiled but the compiled core is "
                f"unavailable: {exc}") from exc
        return _pyengine, "python"


_impl, ENGINE_TIER = _select()

Event = _impl.Event
AllOf = _impl.AllOf
Process = _impl.Process
Simulator = _impl.Simulator
Resource = _impl.Resource
fire = _impl.fire
#: SOR's half-sweep (``repro.apps.sor.grid`` binds it): the C function on
#: the compiled tier, ``None`` on the python tier, whose implementation
#: is the numpy reference that lives with the application.
sweep_phase = getattr(_impl, "sweep_phase", None)
