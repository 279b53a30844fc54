"""Discrete-event simulation engine (the bottom of the substrate stack)."""

from .engine import (
    AllOf,
    Event,
    Process,
    SimulationError,
    Simulator,
    fire,
)
from .primitives import Barrier, Channel, Resource
from .rng import derive_seed, substream
from .trace import TraceRecord, Tracer, TraceSpec

__all__ = [
    "AllOf",
    "Event",
    "Process",
    "SimulationError",
    "Simulator",
    "fire",
    "Barrier",
    "Channel",
    "Resource",
    "derive_seed",
    "substream",
    "TraceRecord",
    "Tracer",
    "TraceSpec",
]
