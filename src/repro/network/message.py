"""Message record passed through the fabric."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = ["Message", "MSG_ID_STRIDE"]

#: Message ids are allocated *per source node*: ``src * STRIDE + seq``,
#: from a table the :class:`~repro.network.fabric.Fabric` owns — ids are
#: run-scoped, so every stack starts each site at sequence 0 no matter
#: what else ran (or is still alive) in the process.  They do not depend
#: on how sends from *different* nodes interleave either — which is
#: exactly what a partitioned run cannot reproduce: each
#: partition allocates the same per-site sequences the single-process
#: oracle does, so merged traces join on identical ids.  Ids only label
#: trace records and join causal chains within one run.
MSG_ID_STRIDE = 1_000_000


@dataclass(slots=True)
class Message:
    """An application-level message.

    ``size`` is the payload size in bytes used for all timing and traffic
    accounting; ``payload`` is the actual Python object carried (never
    serialized — this is a simulator).  ``port`` names the logical mailbox
    on the destination node.  The fabric builds it positionally on the
    per-message path, so the field order is part of its contract.
    """

    src: int
    dst: int
    size: int
    payload: Any = None
    port: str = "default"
    kind: str = "msg"
    msg_id: int = -1
    send_time: float = 0.0
    recv_time: float = 0.0

    def __post_init__(self):
        if self.size < 0:
            raise ValueError(f"negative message size: {self.size}")
