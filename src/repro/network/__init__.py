"""Multilevel (LAN + WAN) cluster network substrate."""

from .fabric import Fabric, Node
from .message import Message
from .params import (
    ATM_DAS,
    DAS_PARAMS,
    FAST_ETHERNET,
    LINK_CLASSES,
    GatewayParams,
    INTERNET_PARAMS,
    INTERNET_SUNDAY,
    LinkParams,
    MYRINET,
    NetworkParams,
    SLOW_WAN,
    SLOW_WAN_PARAMS,
    mbit,
    usec,
)
from .topology import (
    ClusterSpec,
    Topology,
    das_experimentation,
    das_real,
    uniform_clusters,
)

__all__ = [
    "Fabric",
    "Node",
    "Message",
    "ATM_DAS",
    "DAS_PARAMS",
    "FAST_ETHERNET",
    "LINK_CLASSES",
    "GatewayParams",
    "INTERNET_PARAMS",
    "INTERNET_SUNDAY",
    "LinkParams",
    "MYRINET",
    "NetworkParams",
    "SLOW_WAN",
    "SLOW_WAN_PARAMS",
    "mbit",
    "usec",
    "ClusterSpec",
    "Topology",
    "das_experimentation",
    "das_real",
    "uniform_clusters",
]
