"""Declarative scenario descriptions.

A :class:`Scenario` is a frozen, picklable, hashable value describing
everything that makes a run differ from the clean DAS model: WAN
impairments, per-cluster heterogeneity tweaks, and timed faults.  It
rides inside :class:`repro.harness.sweeps.RunSpec` — its ``repr`` spells
out every field, so the sweep layer's content-hash cache and parallel
runner work unchanged — and :func:`repro.harness.experiment.run_app`
applies it when building the stack.

Determinism contract (see docs/SCENARIOS.md): the same scenario (seed
included) produces bit-identical results — elapsed, answer, traffic and
trace records — across repeat runs, across processes, and across serial
vs. ``--jobs N`` sweeps.  A default :class:`Scenario` is a guaranteed
no-op: record-for-record identical to a plain run.

All collections are tuples (frozen dataclasses must hash); the parsing
helpers turn the CLI's compact specs (``lognormal:0.3``,
``gw_outage@2.0s+0.5s``, ``1:cpu=0.5,link=fast-ethernet``) into these
values.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real
from typing import Dict, Optional, Tuple

from .models import FAULTS, IMPAIRMENTS, in_range, model_spec

__all__ = [
    "Impairment",
    "Fault",
    "ClusterTweak",
    "Scenario",
    "parse_fault",
    "parse_cluster_tweak",
]


def _fill_defaults(name: str, params: Dict[str, float],
                   registry_kind: str) -> Tuple[Tuple[str, float], ...]:
    """``params`` over the model's defaults, as the sorted tuple an
    :class:`Impairment` or :class:`Fault` holds: a whole value of an
    integer-typed parameter becomes an ``int`` (``8``, never ``8.0``),
    every other value a ``float``.  The value built from it checks them
    (:func:`_check_params`)."""
    spec = model_spec(name)
    if spec.kind != registry_kind:
        raise ValueError(f"{name!r} is a {spec.kind} model, not a "
                         f"{registry_kind}")
    integers = set(spec.integer_params())
    merged = spec.defaults()
    merged.update(params)
    frozen = []
    for key, raw in merged.items():
        value = float(raw)
        whole = key in integers and value.is_integer()
        frozen.append((key, int(value) if whole else value))
    return tuple(sorted(frozen))


def _check_params(name: str, params: Tuple[Tuple[str, float], ...]) -> None:
    """Refuse an unknown key, a NaN, a value outside its documented
    range, or a fraction for an integer-typed parameter; run by every
    :class:`Impairment` and :class:`Fault`, however it was built."""
    spec = model_spec(name)
    known = spec.defaults()
    ranges = spec.ranges()
    integers = set(spec.integer_params())
    for key, value in params:
        if key not in known:
            raise ValueError(
                f"{name!r} has no parameter {key!r}; "
                f"it takes {sorted(known) or 'no parameters'}")
        if not isinstance(value, Real) or value != value:  # NaN != NaN
            raise ValueError(f"{name}.{key} must be a number, got {value!r}")
        if not in_range(value, ranges[key]):
            raise ValueError(
                f"{name}.{key} must be in {ranges[key]}, got {value!r}")
        if key in integers and not float(value).is_integer():
            raise ValueError(
                f"{name}.{key} must be an integer, got {value!r}")


@dataclass(frozen=True)
class Impairment:
    """One WAN impairment: a registered model plus its parameters.

    ``params`` is a sorted tuple of ``(name, value)`` pairs covering
    *every* parameter of the model (defaults filled in), so two
    impairments meaning the same thing always compare and hash equal.
    Build with :meth:`of` to get the defaults filled in; every value is
    checked against its model however the impairment is built.
    """

    model: str
    params: Tuple[Tuple[str, float], ...] = ()

    def __post_init__(self):
        if self.model not in IMPAIRMENTS:
            raise ValueError(f"unknown impairment model {self.model!r}; "
                             f"choose from {sorted(IMPAIRMENTS)}")
        _check_params(self.model, self.params)

    @classmethod
    def of(cls, model: str, **params: float) -> "Impairment":
        return cls(model, _fill_defaults(model, params, "impairment"))

    def param(self, name: str) -> float:
        for key, value in self.params:
            if key == name:
                return value
        defaults = IMPAIRMENTS[self.model].defaults()
        if name not in defaults:
            raise ValueError(
                f"{self.model!r} has no parameter {name!r}; "
                f"it takes {sorted(defaults) or 'no parameters'}")
        return defaults[name]


@dataclass(frozen=True)
class Fault:
    """One timed fault: model, onset, duration, target, parameters.

    ``at`` and ``duration`` are virtual seconds.  ``target`` names what
    the fault hits, in the label syntax of the model's registry entry
    (``c1``, ``c0-c1``, ``n3``); empty means the model's default.
    """

    model: str
    at: float
    duration: float
    target: str = ""
    params: Tuple[Tuple[str, float], ...] = ()

    def __post_init__(self):
        if self.model not in FAULTS:
            raise ValueError(f"unknown fault model {self.model!r}; "
                             f"choose from {sorted(FAULTS)}")
        if self.at < 0:
            raise ValueError(f"fault onset must be >= 0: {self.at}")
        if self.duration <= 0:
            raise ValueError(f"fault duration must be > 0: {self.duration}")
        _check_params(self.model, self.params)

    @classmethod
    def of(cls, model: str, at: float, duration: float, target: str = "",
           **params: float) -> "Fault":
        return cls(model, at, duration, target,
                   _fill_defaults(model, params, "fault"))

    def param(self, name: str) -> float:
        for key, value in self.params:
            if key == name:
                return value
        defaults = FAULTS[self.model].defaults()
        if name not in defaults:
            raise ValueError(
                f"{self.model!r} has no parameter {name!r}; "
                f"it takes {sorted(defaults) or 'no parameters'}")
        return defaults[name]


@dataclass(frozen=True)
class ClusterTweak:
    """Heterogeneity override for one cluster of the base topology.

    Defaults mean "leave as is"; a tweak with all defaults is a no-op.
    ``link`` names a LAN link class from
    :data:`repro.network.params.LINK_CLASSES`.
    """

    cluster: int
    cpu_speed: float = 1.0
    n_nodes: Optional[int] = None
    link: Optional[str] = None

    def __post_init__(self):
        if self.cluster < 0:
            raise ValueError(f"cluster index must be >= 0: {self.cluster}")
        if self.cpu_speed <= 0:
            raise ValueError(f"cpu_speed must be > 0: {self.cpu_speed}")
        if self.n_nodes is not None and self.n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1: {self.n_nodes}")
        if self.link is not None:
            from ..network.params import LINK_CLASSES
            if self.link not in LINK_CLASSES:
                raise ValueError(f"unknown link class {self.link!r}; "
                                 f"choose from {sorted(LINK_CLASSES)}")


@dataclass(frozen=True)
class Scenario:
    """Everything that makes a run differ from the clean DAS model.

    Composable with any app x topology x variant: the harness applies
    ``clusters`` to the topology, installs ``impairments`` on the
    fabric's WAN legs, and spawns one delivery process per fault.  The
    default ``Scenario()`` is a guaranteed no-op.
    """

    seed: int = 0
    impairments: Tuple[Impairment, ...] = ()
    faults: Tuple[Fault, ...] = ()
    clusters: Tuple[ClusterTweak, ...] = ()

    def __post_init__(self):
        models = [imp.model for imp in self.impairments]
        if len(models) != len(set(models)):
            raise ValueError(
                f"duplicate impairment models in scenario: {models}")

    def is_noop(self) -> bool:
        """True when applying this scenario cannot change any result."""
        return (not self.impairments and not self.faults
                and all(tw.cpu_speed == 1.0 and tw.n_nodes is None
                        and tw.link is None for tw in self.clusters))

    def describe(self) -> str:
        """One-line human summary (CLI headers, sweep logs)."""
        parts = []
        for imp in self.impairments:
            args = ", ".join(f"{k}={v:g}" for k, v in imp.params)
            parts.append(f"{imp.model}({args})")
        for flt in self.faults:
            label = f"@{flt.at:g}s+{flt.duration:g}s"
            if flt.target:
                label += f":{flt.target}"
            parts.append(f"{flt.model}{label}")
        for tw in self.clusters:
            bits = []
            if tw.cpu_speed != 1.0:
                bits.append(f"cpu={tw.cpu_speed:g}")
            if tw.n_nodes is not None:
                bits.append(f"nodes={tw.n_nodes}")
            if tw.link is not None:
                bits.append(f"link={tw.link}")
            if bits:
                parts.append(f"c{tw.cluster}[{','.join(bits)}]")
        body = "; ".join(parts) if parts else "no-op"
        return f"seed={self.seed}: {body}"


# ------------------------------------------------------- CLI spec parsing

def parse_fault(text: str) -> Fault:
    """Parse ``model@AT s+DUR s[:target][,key=value...]``.

    Examples: ``gw_outage@2.0s+0.5s``, ``link_flap@1s+0.2s:c0-c1``,
    ``slow_node@0.5s+1s:n3,factor=0.1``.
    """
    head, _, extras = text.partition(",")
    name, sep, when = head.partition("@")
    if not sep or name not in FAULTS:
        raise ValueError(
            f"bad fault spec {text!r}: want model@ATs+DURs[:target] with "
            f"model in {sorted(FAULTS)}")
    when, _, target = when.partition(":")
    at_text, sep, dur_text = when.partition("+")
    if not sep:
        raise ValueError(f"bad fault spec {text!r}: want AT s+DUR s, "
                         f"e.g. 2.0s+0.5s")
    try:
        at = float(at_text.rstrip("s"))
        duration = float(dur_text.rstrip("s"))
    except ValueError:
        raise ValueError(f"bad fault times in {text!r}: want numbers "
                         "like 2.0s+0.5s") from None
    params: Dict[str, float] = {}
    if extras:
        for part in extras.split(","):
            key, sep, value = part.partition("=")
            if not sep:
                raise ValueError(f"bad fault parameter {part!r} in {text!r} "
                                 "(want key=value)")
            try:
                params[key.strip()] = float(value)
            except ValueError:
                raise ValueError(f"bad fault parameter value {value!r} "
                                 f"in {text!r}") from None
    return Fault.of(name, at, duration, target.strip(), **params)


def parse_cluster_tweak(text: str) -> ClusterTweak:
    """Parse ``INDEX:key=value[,key=value...]``.

    Keys: ``cpu`` (speed multiplier), ``nodes`` (node count), ``link``
    (LAN link class).  Example: ``1:cpu=0.5,link=fast-ethernet``.
    """
    index_text, sep, body = text.partition(":")
    try:
        index = int(index_text)
    except ValueError:
        raise ValueError(f"bad cluster tweak {text!r}: want "
                         "INDEX:key=value,...") from None
    if not sep or not body:
        raise ValueError(f"bad cluster tweak {text!r}: want "
                         "INDEX:key=value,...")
    cpu_speed, n_nodes, link = 1.0, None, None
    for part in body.split(","):
        key, sep, value = part.partition("=")
        key = key.strip()
        if not sep:
            raise ValueError(f"bad cluster tweak entry {part!r} in {text!r}")
        if key == "cpu":
            cpu_speed = float(value)
        elif key == "nodes":
            n_nodes = int(value)
        elif key == "link":
            link = value.strip()
        else:
            raise ValueError(f"unknown cluster tweak key {key!r} in "
                             f"{text!r} (want cpu/nodes/link)")
    return ClusterTweak(index, cpu_speed=cpu_speed, n_nodes=n_nodes,
                        link=link)
