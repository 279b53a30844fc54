"""Traffic and operation accounting.

The fabric and the Orca runtime report every message here.  The meter splits
traffic into intracluster vs intercluster, RPC vs broadcast — exactly the
categories of the paper's Tables 2, 4 and 5.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

__all__ = ["TrafficMeter", "TrafficRow"]


@dataclass
class TrafficRow:
    """One accounting bucket: message count and payload bytes."""

    count: int = 0
    bytes: int = 0

    def add(self, size: int) -> None:
        self.count += 1
        self.bytes += size

    @property
    def kbytes(self) -> float:
        return self.bytes / 1024.0

    def merged(self, other: "TrafficRow") -> "TrafficRow":
        return TrafficRow(self.count + other.count, self.bytes + other.bytes)


@dataclass
class TrafficMeter:
    """Counts application-level operations, split by locality and kind.

    ``kind`` is "rpc" (request/reply pairs count once, on the request),
    "bcast" (one logical broadcast counts once, regardless of fan-out), or
    "msg" (raw asynchronous messages).  Locality is decided by the caller:
    an operation is *intercluster* if it crosses a cluster boundary at any
    point (for a broadcast: if any receiver is in another cluster).
    """

    intra: Dict[str, TrafficRow] = field(default_factory=dict)
    inter: Dict[str, TrafficRow] = field(default_factory=dict)
    # Wire-level byte counters on the WAN links (includes forwarding copies).
    wan_bytes: int = 0
    wan_messages: int = 0

    def record(self, kind: str, size: int, intercluster: bool) -> None:
        """Count one ``kind`` operation of ``size`` bytes in its row."""
        table = self.inter if intercluster else self.intra
        row = table.get(kind)
        if row is None:
            row = table[kind] = TrafficRow()
        row.count += 1
        row.bytes += size

    def record_wan(self, size: int) -> None:
        """Count one WAN transfer (a stripe chunk counts as one; lost
        copies do not).  The fabric counts it when its PVC stage starts,
        at the end of the source-gateway forward, not at its arrival:
        ``sim.run()`` drains the heap, so a run's totals are the same,
        and in a partitioned run the count stays in the source
        partition, which owns the PVC."""
        self.wan_messages += 1
        self.wan_bytes += size

    # -- report helpers ----------------------------------------------------
    def row(self, kind: str, intercluster: bool) -> TrafficRow:
        table = self.inter if intercluster else self.intra
        return table.get(kind, TrafficRow())

    def total(self, kind: str) -> TrafficRow:
        return self.row(kind, False).merged(self.row(kind, True))

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        out: Dict[str, Dict[str, int]] = {}
        for loc, table in (("intra", self.intra), ("inter", self.inter)):
            for kind, row in table.items():
                out[f"{loc}.{kind}"] = {"count": row.count, "bytes": row.bytes}
        out["wan"] = {"count": self.wan_messages, "bytes": self.wan_bytes}
        return out

    def reset(self) -> None:
        self.intra.clear()
        self.inter.clear()
        self.wan_bytes = 0
        self.wan_messages = 0
