"""Compiled tier: loads ``_ccore`` and finishes its Python-side wiring.

The C extension implements the hot core (event store, dispatch loop,
generator protocol, resource occupancy state machine) and the one
compiled application kernel (SOR's ``sweep_phase``); this module
supplies the pieces that belong in Python — the shared
:class:`SimulationError` type and PENDING sentinel (imported from
``_pyengine`` so ``isinstance`` and identity checks agree across
tiers), the :class:`AllOf` join (a Python subclass of the C Event via
the shared factory), and the spawn-tracing hook — then injects them
into the extension via ``_ccore._set_helpers``.

Importing this module raises when no compiler/headers are available;
``engine.py`` turns that into a fallback (``REPRO_ENGINE=auto``) or a
hard error (``REPRO_ENGINE=compiled``).
"""

from __future__ import annotations

from ._build import load_ccore
from ._conditions import build_conditions
from ._pyengine import PENDING, SimulationError

_ccore = load_ccore()

Event = _ccore.Event
Process = _ccore.Process
Simulator = _ccore.Simulator
Resource = _ccore.Resource
fire = _ccore.fire
#: bound here, not looked up by its caller, so that an extension without
#: it fails the whole tier at import rather than loading half of one.
sweep_phase = _ccore.sweep_phase

AllOf = build_conditions(Event)

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
]


def _spawn_obs(sim, proc):
    """Emit proc.spawn / proc.finish records for a traced spawn.

    Called by the C core only when ``sim.obs`` is set; mirrors the pure
    tier's spawn() observability branch exactly (same record kinds,
    same pid numbering from the spawn counter).
    """
    obs = sim.obs
    if obs is None or not obs.enabled:
        return
    pid = sim._n_spawned
    obs.emit(sim.now, "proc.spawn", pid=pid, name=proc.name)
    proc.callbacks.append(
        lambda ev, p=proc, i=pid: obs.emit(
            sim.now, "proc.finish", pid=i, name=p.name, ok=p._ok))


_ccore._set_helpers(
    pending=PENDING,
    simerror=SimulationError,
    allof=AllOf,
    spawn_obs=_spawn_obs,
)
