"""Synchronization and queuing primitives on top of the event engine.

These are the building blocks the network and runtime layers use:

* :class:`Channel` — an unbounded FIFO mailbox (message delivery).
* :class:`Resource` — a counted FIFO resource (CPUs, link capacity).
  Re-exported from the engine: like :class:`Event` and
  :class:`Process` it is part of the event-store contract and is
  implemented once per engine tier (``_pyengine.Resource`` is the
  reference; the compiled tier runs the same occupancy state machine
  inside its dispatch loop).  A node or gateway CPU is a capacity-1
  ``Resource``: compute and protocol overhead are charged with
  :meth:`~Resource.occupy` / :meth:`~Resource.occupy_quanta`, FIFO.
* :class:`Barrier` — rendezvous for a fixed number of parties.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque

from .engine import Event, Resource, SimulationError, Simulator, fire

__all__ = ["Channel", "Resource", "Barrier"]


class Channel:
    """Unbounded FIFO channel; ``get()`` blocks until an item is available."""

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit an item; wakes the oldest waiting getter, if any."""
        while self._getters:
            getter = self._getters.popleft()
            if not getter.triggered:  # skip cancelled getters
                getter.succeed(item)
                return
        self._items.append(item)

    def get(self) -> Event:
        """Return an event that fires with the next item."""
        ev = Event(self.sim)
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev


class Barrier:
    """A reusable barrier for a fixed number of parties.

    The last arriver completes the episode analytically: at a quiet
    instant (nothing else scheduled *now*) the gate is fired inline,
    resuming every earlier arriver immediately instead of one dispatch
    later.  The last arriver itself then waits on an already-processed
    gate, which costs the usual recycled kick event — so the heap sees
    exactly one entry per episode.  At busy instants the gate is posted
    through the heap, so same-instant races linearize in arrival order.
    """

    def __init__(self, sim: Simulator, parties: int, name: str = ""):
        if parties < 1:
            raise SimulationError(f"barrier parties must be >= 1: {parties}")
        self.sim = sim
        self.parties = parties
        self.name = name
        self._arrived = 0
        self._gate = Event(sim)
        self.generation = 0

    def wait(self) -> Event:
        """Return an event that fires when all parties have arrived."""
        self._arrived += 1
        gate = self._gate
        if self._arrived == self.parties:
            sim = self.sim
            self._arrived = 0
            self._gate = Event(sim)
            self.generation += 1
            if sim.idle_at_now():
                fire(gate, self.generation)  # fire() counts the completion
            else:
                gate.succeed(self.generation)
        return gate
