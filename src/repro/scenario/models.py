"""The scenario model registries: WAN impairments and timed faults.

This module is the machine-readable source of truth for what the
scenario layer can do — the same role :data:`repro.obs.schema.KINDS`
plays for trace records.  ``docs/SCENARIOS.md`` documents every model
for humans, and ``tools/check_docs.py`` (the CI docs job) keeps the two
in lockstep both ways: a model registered here without a reference
section, or a documented model that is not registered, fails the build.

Two registries:

* :data:`IMPAIRMENTS` — stochastic perturbations applied to every WAN
  PVC transfer for the whole run (deterministically seeded per
  directed cluster pair; see :class:`repro.scenario.apply.WanImpairments`).
* :data:`FAULTS` — timed events with an onset and a duration, delivered
  by processes the harness spawns at simulation start (see
  :mod:`repro.scenario.apply`).

Every model lists its parameters with defaults and units, so the CLI,
the docs checker and the reference manual all draw from one table.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = ["ModelSpec", "IMPAIRMENTS", "FAULTS", "model_spec", "in_range"]


@dataclass(frozen=True)
class ModelSpec:
    """One registered scenario model.

    ``params`` lists ``(name, default, range, unit/meaning)``; the
    range is an interval such as ``[0, 1)`` or ``(0, inf)`` that every
    value must lie in (:func:`in_range`), checked when an
    ``Impairment``/``Fault`` is built.  A parameter whose *default* is
    an ``int`` is integer-typed: its values must be whole, and ``of``
    stores them as ``int`` (``8``, never ``8.0``).  ``target``
    describes what the model's target label (faults only) names;
    impairments apply to every WAN PVC and take no target.
    """

    name: str
    kind: str                                # "impairment" | "fault"
    doc: str                                 # one-line human description
    params: Tuple[Tuple[str, float, str, str], ...]
    target: str = ""                         # fault target label syntax

    def defaults(self) -> Dict[str, float]:
        return {name: default for name, default, _range, _unit
                in self.params}

    def ranges(self) -> Dict[str, str]:
        return {name: interval for name, _default, interval, _unit
                in self.params}

    def integer_params(self) -> Tuple[str, ...]:
        """Names of the integer-typed parameters (int defaults)."""
        return tuple(name for name, default, _range, _unit in self.params
                     if isinstance(default, int) and not
                     isinstance(default, bool))


_INTERVAL = re.compile(r"^([\[(])(\S+), (\S+)([\])])$")


def in_range(value: float, interval: str) -> bool:
    """Whether ``value`` lies in ``interval`` (``[lo, hi]`` notation,
    ``(``/``)`` for an open end, ``inf`` for no bound)."""
    match = _INTERVAL.match(interval)
    if match is None:
        raise ValueError(f"bad interval {interval!r}")
    left, lo, hi, right = match.groups()
    lo_ok = float(lo) <= value if left == "[" else float(lo) < value
    hi_ok = value <= float(hi) if right == "]" else value < float(hi)
    return lo_ok and hi_ok


def _imp(name: str, doc: str,
         *params: Tuple[str, float, str, str]) -> ModelSpec:
    return ModelSpec(name=name, kind="impairment", doc=doc, params=params)


def _fault(name: str, doc: str, target: str,
           *params: Tuple[str, float, str, str]) -> ModelSpec:
    return ModelSpec(name=name, kind="fault", doc=doc, params=params,
                     target=target)


#: WAN impairment models: applied to every WAN PVC transfer, seeded per
#: directed cluster pair (see docs/SCENARIOS.md for the full reference).
IMPAIRMENTS: Dict[str, ModelSpec] = {spec.name: spec for spec in [
    _imp("jitter",
         "median-preserving lognormal multiplier on WAN one-way latency",
         ("sigma", 0.3, "[0, inf)",
          "lognormal sigma (dimensionless; 0 disables)")),
    _imp("loss",
         "per-transfer packet loss with retransmission: each lost "
         "attempt pays one extra PVC serialization plus a retransmit "
         "timeout",
         ("p", 0.01, "[0, 1]", "loss probability per attempt"),
         ("rto", 0.05, "[0, inf)",
          "retransmit timeout per lost attempt, seconds"),
         ("max_retries", 8, "[0, inf)",
          "cap on retransmissions per transfer")),
    _imp("bw_dip",
         "periodic bandwidth dips: during a deterministic, seeded-phase "
         "window the PVC serializes at a fraction of its bandwidth",
         ("depth", 0.5, "[0, 1)",
          "fractional bandwidth loss inside a dip"),
         ("period", 1.0, "(0, inf)", "dip cycle length, virtual seconds"),
         ("duty", 0.25, "[0, 1]",
          "fraction of each period spent dipped")),
    _imp("cross_traffic",
         "background cross traffic: each transfer serializes extra "
         "competing bytes drawn from an exponential distribution",
         ("load", 0.2, "[0, inf)",
          "mean competing bytes per payload byte")),
]}

#: Timed fault models: one onset + duration window each, targeted at a
#: gateway, a WAN link, or a node.
FAULTS: Dict[str, ModelSpec] = {spec.name: spec for spec in [
    _fault("gw_outage",
           "a cluster's gateway stops forwarding (its CPU is seized) "
           "and recovers after the window; in-service forwards drain "
           "first",
           "c<K> (cluster index, default c0)"),
    _fault("link_flap",
           "one WAN PVC pair goes down: both directed links between "
           "two clusters are seized for the window",
           "c<A>-c<B> (cluster pair, default c0-c1)"),
    _fault("slow_node",
           "one node computes at a fraction of its speed for the "
           "window (application compute only; protocol overheads are "
           "NIC/firmware costs and stay fixed)",
           "n<K> (global node id, default n0)",
           ("factor", 0.25, "(0, 1]",
            "speed multiplier inside the window")),
]}


def model_spec(name: str) -> ModelSpec:
    """Look up a registered model in either registry."""
    spec = IMPAIRMENTS.get(name) or FAULTS.get(name)
    if spec is None:
        known = sorted(IMPAIRMENTS) + sorted(FAULTS)
        raise ValueError(f"unknown scenario model {name!r}; "
                         f"choose from {known}")
    return spec
