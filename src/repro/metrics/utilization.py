"""Resource-utilization reporting.

Every CPU, gateway and WAN PVC in the fabric tracks its busy time; this
module turns that into per-run utilization fractions — which resource was
the bottleneck is usually the entire explanation of a wide-area speedup
curve (RA: gateways; ASP original: the sequencer token; SOR: the
boundary processors' WAN stalls).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Tuple

if TYPE_CHECKING:  # avoid a circular import (fabric uses metrics.counters)
    from ..network.fabric import Fabric

__all__ = ["UtilizationReport", "collect_utilization", "format_utilization"]


@dataclass
class UtilizationReport:
    """Busy fractions over the measured interval (0..elapsed)."""

    elapsed: float
    cpu: List[float]                      # per compute node
    gateway: List[float]                  # per cluster
    wan: Dict[Tuple[int, int], float]     # per directed PVC

    @property
    def cpu_mean(self) -> float:
        return sum(self.cpu) / len(self.cpu) if self.cpu else 0.0

    @property
    def cpu_max(self) -> float:
        return max(self.cpu) if self.cpu else 0.0

    @property
    def gateway_max(self) -> float:
        return max(self.gateway) if self.gateway else 0.0

    @property
    def wan_max(self) -> float:
        return max(self.wan.values()) if self.wan else 0.0

    def bottleneck(self) -> str:
        """A one-word verdict on what bounds the run."""
        candidates = [("cpu", self.cpu_max), ("gateway", self.gateway_max),
                      ("wan", self.wan_max)]
        name, value = max(candidates, key=lambda kv: kv[1])
        if value < 0.5:
            return "latency"  # nothing saturated: stalls dominate
        return name


def collect_utilization(fabric: "Fabric", elapsed: float) -> UtilizationReport:
    """Snapshot busy fractions from a fabric after a run."""
    if elapsed <= 0:
        elapsed = 1e-12
    cpu = [min(1.0, node.cpu.busy_time() / elapsed) for node in fabric.nodes]
    gateway = [min(1.0, gw.busy_time() / elapsed)
               for gw in fabric.gateways]
    wan = {pair: min(1.0, link.busy_time() / elapsed)
           for pair, link in fabric._wan.items()}
    return UtilizationReport(elapsed=elapsed, cpu=cpu, gateway=gateway,
                             wan=wan)


def format_utilization(report: UtilizationReport) -> str:
    """Human-readable utilization summary with the bottleneck verdict."""
    lines = [
        f"utilization over {report.elapsed:.3f}s "
        f"(bottleneck: {report.bottleneck()})",
        f"  CPUs    : mean {report.cpu_mean:6.1%}  max {report.cpu_max:6.1%}",
    ]
    if report.gateway:
        lines.append(f"  gateways: max {report.gateway_max:6.1%}")
    if report.wan:
        busiest = max(report.wan, key=report.wan.get)
        lines.append(
            f"  WAN PVCs: max {report.wan_max:6.1%} "
            f"(cluster {busiest[0]} -> {busiest[1]})")
    return "\n".join(lines)
