"""Network parameter sets (latency, bandwidth, per-message CPU overheads).

All figures are *application-to-application*, as in the paper's Table 1 and
Section 2: Myrinet LAN null-RPC latency 40 us round trip and 208 Mbit/s;
DAS wide-area ATM 2.7 ms round trip and 4.53 Mbit/s; ordinary Internet on a
quiet Sunday morning 8 ms and 1.8 Mbit/s.

Units: seconds and bytes/second throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = [
    "LinkParams",
    "GatewayParams",
    "NetworkParams",
    "MYRINET",
    "FAST_ETHERNET",
    "ATM_DAS",
    "INTERNET_SUNDAY",
    "SLOW_WAN",
    "DAS_PARAMS",
    "INTERNET_PARAMS",
    "SLOW_WAN_PARAMS",
    "LINK_CLASSES",
    "mbit",
    "usec",
]


def mbit(x: float) -> float:
    """Megabits/second -> bytes/second."""
    return x * 1e6 / 8.0


def usec(x: float) -> float:
    """Microseconds -> seconds."""
    return x * 1e-6


@dataclass(frozen=True)
class LinkParams:
    """One network hop.

    ``latency`` is wire/propagation + switching delay per message (pipeline
    delay: it does not occupy the link).  ``bandwidth`` serializes messages
    on the link: a message holds the link for ``size / bandwidth``.
    ``o_send`` / ``o_recv`` are CPU occupancy per message on the endpoints
    (LogP o); ``per_byte_cpu`` models copy cost on the hosts.
    """

    name: str
    latency: float
    bandwidth: float
    o_send: float
    o_recv: float
    per_byte_cpu: float = 0.0

    def with_(self, **kw) -> "LinkParams":
        return replace(self, **kw)


@dataclass(frozen=True)
class GatewayParams:
    """Store-and-forward gateway service cost (per message, on gateway CPU)."""

    forward_cost: float = usec(150.0)
    per_byte_cost: float = 1.0 / mbit(400.0)


@dataclass(frozen=True)
class NetworkParams:
    """Complete parameter set for a multilevel cluster."""

    lan: LinkParams
    wan: LinkParams
    access: LinkParams  # node <-> gateway hop (Fast Ethernet in DAS)
    gateway: GatewayParams
    # Extra fixed software cost per broadcast *message* at the sender
    # (sequencer interaction is modeled explicitly by the Orca layer).
    bcast_extra: float = usec(18.0)

    def with_wan(self, wan: LinkParams) -> "NetworkParams":
        return replace(self, wan=wan)


# --------------------------------------------------------------------------
# Presets.  Calibrated so the Orca-level benchmarks reproduce Table 1:
#   RPC      LAN 40 us / 208 Mbit/s      WAN 2.7 ms / 4.53 Mbit/s
#   Bcast    LAN 65 us / 248 Mbit/s      WAN 3.0 ms / 4.53 Mbit/s
# A null RPC is request + reply; each one-way LAN message costs
# o_send + latency + o_recv = 5 + 10 + 5 = 20 us, so 40 us round trip.
# --------------------------------------------------------------------------

MYRINET = LinkParams(
    name="myrinet",
    latency=usec(10.0),
    bandwidth=mbit(208.0) * 1.02,  # slight headroom: o_send overlaps the wire
    o_send=usec(5.0),
    o_recv=usec(5.0),
    per_byte_cpu=0.0,
)

FAST_ETHERNET = LinkParams(
    name="fast-ethernet",
    latency=usec(35.0),
    bandwidth=mbit(100.0),
    o_send=usec(10.0),
    o_recv=usec(10.0),
)

# One-way WAN wire latency chosen so that the full intercluster RPC path
# (node ->FE-> gateway ->ATM-> gateway ->FE-> node, plus gateway forwarding)
# measures ~2.7 ms round trip at the Orca level.
ATM_DAS = LinkParams(
    name="atm-das",
    latency=0.949e-3,
    bandwidth=mbit(4.53),
    o_send=usec(15.0),
    o_recv=usec(15.0),
)

INTERNET_SUNDAY = LinkParams(
    name="internet-sunday",
    latency=3.599e-3,
    bandwidth=mbit(1.8),
    o_send=usec(15.0),
    o_recv=usec(15.0),
)

# The "slower network" of Section 4.4: 10 ms latency, 2 Mbit/s.
SLOW_WAN = LinkParams(
    name="slow-wan",
    latency=4.699e-3,  # one-way wire; total RT ~10 ms with endpoint costs
    bandwidth=mbit(2.0),
    o_send=usec(15.0),
    o_recv=usec(15.0),
)

DAS_PARAMS = NetworkParams(
    lan=MYRINET,
    wan=ATM_DAS,
    access=FAST_ETHERNET,
    gateway=GatewayParams(),
)

INTERNET_PARAMS = DAS_PARAMS.with_wan(INTERNET_SUNDAY)
SLOW_WAN_PARAMS = DAS_PARAMS.with_wan(SLOW_WAN)

#: Named link classes a heterogeneous cluster can select as its LAN
#: (see :class:`repro.network.topology.ClusterSpec` and
#: docs/SCENARIOS.md).  Keyed by each preset's ``name`` field.
LINK_CLASSES = {link.name: link for link in (
    MYRINET, FAST_ETHERNET, ATM_DAS, INTERNET_SUNDAY, SLOW_WAN)}
