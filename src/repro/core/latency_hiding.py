"""Split-phase (latency hiding) communication helpers.

The second family of wide-area optimizations: instead of blocking on an
intercluster transfer, issue it asynchronously, compute something
independent, and only then wait for arrival.  Orca's RPC model cannot
express this — the paper rewrote SOR in C against the low-level RTS
primitives — so these helpers sit on the runtime's raw message layer.
"""

from __future__ import annotations

from typing import Any, Generator

from ..orca import Context

__all__ = ["SplitPhaseExchange"]


class SplitPhaseExchange:
    """Post sends now, harvest receives later.

    Typical SOR-C iteration::

        xch = SplitPhaseExchange(ctx, tag="sor")
        yield from xch.post_send(left, row_bytes, top_row)
        yield from xch.post_send(right, row_bytes, bottom_row)
        yield from ctx.compute(inner_rows_cost)         # overlapped
        msgs = yield from xch.collect(expected=2)       # boundary rows
    """

    def __init__(self, ctx: Context, tag: str = "xch"):
        self.ctx = ctx
        self.port = f"core.splitphase.{tag}"
        self.posted = 0

    def post_send(self, dst: int, size: int, payload: Any = None) -> Generator:
        """Asynchronous send; only the sender-side overhead is paid now."""
        self.posted += 1
        yield from self.ctx.send(dst, size, payload, port=self.port)

    def collect(self, expected: int) -> Generator:
        """Receive ``expected`` messages posted to us by our peers."""
        msgs = []
        for _ in range(expected):
            msg = yield from self.ctx.receive(port=self.port)
            msgs.append(msg)
        return msgs
