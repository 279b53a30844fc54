"""Instance tables: what a problem instance is, built once per process.

The paper keeps every application's input identical across 1, 2 and 4
clusters, so per-job work is a property of the *problem*, not of the
run.  The host side holds it the same way: everything that is a pure
function of an app's frozen params — RA's game graph, ACP's constraint
network, the synthetic kernels' per-job grain — is obtained from a
builder memoised with
``functools.lru_cache(maxsize=INSTANCE_MEMO)``, so the 13 machine
configurations of a speedup curve (or the two variants of one figure
bar) that run one instance in one process derive it once.  A pooled
sweep derives it once for the whole pool: the parent fills every table
a run of the pooled params reads (``Application.build_instance``) before
it forks, and the workers inherit the tables copy-on-write.

Four invariants hold for every such builder (docs/ARCHITECTURE.md,
*Process-level state*, lists the builders):

* **pure** — the value depends on the memo key alone, and the key is
  frozen params or fields of them.  The per-job tables are keyed on
  exactly the fields their draw reads: the draw is a closure over the
  builder's arguments and can see nothing else, so a field can neither
  be forgotten in the key nor split it needlessly;
* **read-only** — a run looks values up and never writes one; its own
  state lives in ``shared``;
* **bounded** — at most ``INSTANCE_MEMO`` instances per builder, least
  recently used evicted first;
* **invisible** — no result, trace record or counter can tell a filled
  table from an empty one.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable

__all__ = ["INSTANCE_MEMO", "InstanceTable"]

#: instances each memoised builder keeps (the one bound of every
#: ``lru_cache`` under ``repro.apps``): a figure sweeps machine
#: configurations over one instance per app, a sensitivity sweep over a
#: handful.
INSTANCE_MEMO = 8


class InstanceTable(dict):
    """``key -> draw(key)``, filled on first lookup.

    ``draw`` must be a pure function of ``key`` and of the memo key of
    the builder that returned this table, which makes the fill order —
    the one thing that differs between a first run and a later one —
    unobservable.
    """

    __slots__ = ("_draw",)

    def __init__(self, draw: Callable[[Hashable], Any]) -> None:
        super().__init__()
        self._draw = draw

    def __missing__(self, key: Hashable) -> Any:
        value = self[key] = self._draw(key)
        return value
