"""The all-of join, parameterized over the Event base.

:class:`AllOf` is an ordinary Python subclass of :class:`Event` — it
only uses the public event surface (``triggered``, ``_value``, ``_ok``,
``callbacks``, ``succeed``/``fail``), so the same definition works over
either tier's Event: :func:`build_conditions` is called once by
``_pyengine`` with the pure-Python base and once by ``_cengine`` with
the compiled base.  Joins are control-plane objects (a handful per
collective episode, not per message), so a Python-level implementation
costs nothing measurable even on the compiled tier.
"""

from __future__ import annotations

__all__ = ["build_conditions"]


def build_conditions(Event):
    """Return the ``AllOf`` subclass of the given Event base."""

    class AllOf(Event):
        """Fires when *all* component events have fired; value is their values.

        The first component to fail fails the join with its exception.
        """

        __slots__ = ("events", "_n_fired")

        def __init__(self, sim, events):
            super().__init__(sim)
            self.events = list(events)
            self._n_fired = 0
            if not self.events:
                self.succeed([])
                return
            for ev in self.events:
                if ev.triggered:
                    self._on_fire(ev)
                else:
                    ev.callbacks.append(self._on_fire)

        def _on_fire(self, ev):
            if self.triggered:
                return
            if not ev._ok:
                self.fail(ev._value)
                return
            self._n_fired += 1
            if self._n_fired == len(self.events):
                self.succeed([e._value for e in self.events])

    return AllOf
