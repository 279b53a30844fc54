"""Throughput measurement against the committed perf baselines.

One entry point shared by humans and CI: the ``repro bench`` verb
(parsed in :mod:`repro.__main__`) calls :func:`write_baselines` /
:func:`check_baselines` here.  The repo commits five small JSON files
at its root, each stamped with the ``host_cores`` and ``engine_tier``
it was written on:

* ``BENCH_engine.json`` — events/s per engine micro-workload, one
  section per engine tier (``python`` always; ``compiled`` when the
  optional C core builds — checking on a compiler-less machine skips
  the compiled section with a log line instead of failing)
* ``BENCH_fabric.json`` — messages/s per fabric path (clean, impaired
  and striped WAN routes included)
* ``BENCH_orca.json``   — broadcasts/RPCs/s per control-plane workload
  (whole-app host time is ``benchmarks/e2e``'s, at paper scale)
* ``BENCH_collectives.json`` — collectives/s per tuner primitive (the
  shaped/striped WAN paths) plus the tuner probe loop
* ``BENCH_pdes.json``   — per-epoch protocol overhead of the
  partitioned engine over the single-process oracle (µs/epoch,
  lower-is-better: the check enforces a *ceiling*), plus informational
  throughput, epoch counts, the wall-clock speedup and the
  ``host_cores`` geometry it was measured on

``--suite`` accepts a suite name or ``suite:tier`` (e.g.
``engine:compiled``).  An *explicitly* requested suite or tier that has
no committed baseline section, or that this host cannot measure, is a
hard failure under ``--check``; only auto-discovered tiers (``--suite
all`` / bare ``engine``) skip-loudly when the host cannot build them.
The other suites hold one number per workload, baselined on the slower
``python`` engine tier (the stamped ``engine_tier``): only regressions
fail, so the same floor is checked under both ``REPRO_ENGINE`` tiers.

``--write`` refreshes them from a local run (do this on the machine
that defines the baseline, typically CI hardware, after a deliberate
perf change).  ``--check`` re-measures and prints a per-metric delta
table, failing if any workload dropped more than ``--threshold``
(default 30%) below its committed number — the CI perf-smoke job runs
this so event-path regressions surface in review rather than in a 10x
slower figure sweep three PRs later.

Run from the repo root::

    PYTHONPATH=src python -m repro bench --write
    PYTHONPATH=src python -m repro bench --check
    PYTHONPATH=src python -m repro bench --check --suite orca
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["measure_engine", "measure_fabric", "measure_orca",
           "measure_collectives", "measure_pdes", "write_baselines",
           "check_baselines", "parse_suite_request", "SUITES"]

ROOT = pathlib.Path(__file__).resolve().parents[3]

ENGINE_JSON = ROOT / "BENCH_engine.json"
FABRIC_JSON = ROOT / "BENCH_fabric.json"
ORCA_JSON = ROOT / "BENCH_orca.json"
COLLECTIVES_JSON = ROOT / "BENCH_collectives.json"
PDES_JSON = ROOT / "BENCH_pdes.json"


def _import_benchmarks() -> None:
    """Make the repo's ``benchmarks/`` modules importable."""
    bdir = str(ROOT / "benchmarks")
    if bdir not in sys.path:
        sys.path.insert(0, bdir)


# ------------------------------------------------------------- measurement

def _engine_numbers(repeat: int = 3) -> dict:
    """Events/s per engine micro-workload, for the tier loaded in *this*
    process (see bench_engine_micro).  Callers wanting a specific tier
    must set ``REPRO_ENGINE`` before the first ``repro.sim`` import —
    which is why :func:`measure_engine` shells out per tier."""
    _import_benchmarks()
    from bench_engine_micro import WORKLOADS, _events_processed

    results = {}
    total_events = 0
    total_best = 0.0
    for name, fn in WORKLOADS:
        best = float("inf")
        events = 0
        for _ in range(repeat):
            t0 = time.perf_counter()
            sim, approx = fn()
            dt = time.perf_counter() - t0
            events = _events_processed(sim, approx)
            best = min(best, dt)
        total_events += events
        total_best += best
        results[name] = round(events / best)
    results["TOTAL"] = round(total_events / total_best)
    return results


def _measure_engine_tier(tier: str, repeat: int) -> dict:
    """Run :func:`_engine_numbers` in a subprocess pinned to one tier."""
    env = dict(os.environ)
    env["REPRO_ENGINE"] = tier
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get(
        "PYTHONPATH", "")
    code = ("import json\n"
            "from repro.harness.bench import _engine_numbers\n"
            f"print(json.dumps(_engine_numbers({int(repeat)})))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    if out.returncode != 0:
        raise RuntimeError(f"engine bench subprocess (tier {tier}) failed:\n"
                           f"{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def measure_engine(repeat: int = 3) -> dict:
    """Events/s per engine micro-workload, one section per engine tier.

    Returns ``{"python": {...}, "compiled": {...}}``; the compiled
    section is present only when the compiled core builds on this
    machine, so baselines written on CI hardware stay checkable (with a
    skip line) on compiler-less machines.
    """
    from ..sim._build import compiler_available

    tiers = ["python"] + (["compiled"] if compiler_available() else [])
    return {tier: _measure_engine_tier(tier, repeat) for tier in tiers}


def measure_fabric(repeat: int = 3) -> dict:
    """Messages/s per fabric path."""
    _import_benchmarks()
    from bench_fabric_micro import run_suite

    _text, data = run_suite(repeat=repeat)
    return {name: {"msgs_per_s": round(entry["msgs_per_s"])}
            for name, entry in data.items()}


def measure_orca(repeat: int = 3) -> dict:
    """Orca control-plane throughput: broadcasts/RPCs per second."""
    _import_benchmarks()
    from bench_orca_micro import run_suite

    _text, data = run_suite(repeat=repeat)
    return {f"micro/{name}": {"ops_per_s": round(entry["ops_per_s"])}
            for name, entry in data.items()}


def measure_collectives(repeat: int = 3) -> dict:
    """Collectives/s per tuner primitive: the shaped/striped WAN paths
    next to the flat default, plus the tuner's own probe loop."""
    _import_benchmarks()
    from bench_collectives_micro import run_suite

    _text, data = run_suite(repeat=repeat)
    return {name: {"ops_per_s": round(entry["ops_per_s"], 2)}
            for name, entry in data.items()}


def measure_pdes(repeat: int = 3) -> dict:
    """Partitioned-engine whole-run throughput vs the single-process
    oracle (one forked worker per cluster), plus ``host_cores``."""
    _import_benchmarks()
    from bench_pdes_micro import run_suite

    _text, data = run_suite(repeat=repeat)
    return data


def _flat_pdes(results: dict) -> Dict[str, float]:
    """Per-epoch protocol overhead only (µs/epoch, lower-is-better).

    Raw throughput, the speedup ratio and the core count depend on the
    measuring host's geometry, so they ride along unchecked; overhead
    per epoch is the one number that isolates the synchronization
    protocol from the work the oracle does anyway."""
    flat = {}
    for name, entry in results.items():
        if not isinstance(entry, dict):
            continue  # host_cores and other scalars: informational
        flat[f"{name}/overhead_us_per_epoch"] = entry["overhead_us_per_epoch"]
    return flat


def _flat_engine(results: dict) -> Dict[str, float]:
    if any(not isinstance(v, dict) for v in results.values()):
        return dict(results)  # pre-tier flat layout (old baselines)
    return {f"{tier}/{name}": v
            for tier, section in results.items()
            for name, v in section.items()}


def _flat_fabric(results: dict) -> Dict[str, float]:
    return {k: v["msgs_per_s"] for k, v in results.items()}


def _flat_orca(results: dict) -> Dict[str, float]:
    return {k: v["ops_per_s"] for k, v in results.items()}


#: suite name -> (baseline path, measure fn, flatten-to-numbers fn).
SUITES: Dict[str, Tuple[pathlib.Path, Callable[[int], dict],
                        Callable[[dict], Dict[str, float]]]] = {
    "engine": (ENGINE_JSON, measure_engine, _flat_engine),
    "fabric": (FABRIC_JSON, measure_fabric, _flat_fabric),
    "orca": (ORCA_JSON, measure_orca, _flat_orca),
    "collectives": (COLLECTIVES_JSON, measure_collectives, _flat_orca),
    "pdes": (PDES_JSON, measure_pdes, _flat_pdes),
}

#: suites whose baseline JSON has one section per tier (``suite:tier``
#: requests are only meaningful for these).
TIERED_SUITES = ("engine",)

#: metric-name suffixes that measure a *cost* rather than a throughput:
#: for these the check enforces a ceiling (``base * (1 + threshold)``)
#: instead of a floor, and a drop is an improvement.
LOWER_IS_BETTER_SUFFIXES = ("overhead_us_per_epoch",)


def _lower_is_better(name: str) -> bool:
    return name.endswith(LOWER_IS_BETTER_SUFFIXES)


def parse_suite_request(request: str) -> Tuple[List[str], Optional[str]]:
    """Parse the ``--suite`` value into ``(suites, explicit_tier)``.

    ``all`` expands to every registered suite; ``name`` selects one
    suite; ``name:tier`` (tiered suites only) additionally pins one
    baseline tier, which ``--check`` then must find both committed and
    measurable.  Raises ``ValueError`` on unknown names.
    """
    if request == "all":
        return sorted(SUITES), None
    suite, sep, tier = request.partition(":")
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r} "
                         f"(choose from all, {', '.join(sorted(SUITES))})")
    if not sep:
        return [suite], None
    if suite not in TIERED_SUITES:
        raise ValueError(f"suite {suite!r} has no tiers; "
                         f"tier syntax applies to: "
                         f"{', '.join(TIERED_SUITES)}")
    if not tier:
        raise ValueError(f"empty tier in {request!r} (want e.g. "
                         f"{suite}:python)")
    return [suite], tier


# ---------------------------------------------------------- write / check

def _payload(kind: str, results: dict) -> dict:
    """A baseline file: the numbers plus the host geometry and the
    engine tier ``auto`` resolved to where they were taken (the engine
    suite measures every tier; its sections are named after them)."""
    from ..sim.engine import ENGINE_TIER

    return {
        "bench": kind,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "host_cores": os.cpu_count(),
        "engine_tier": ENGINE_TIER,
        "results": results,
    }


def write_baselines(repeat: int, suites: Sequence[str]) -> int:
    for suite in suites:
        path, measure, flatten = SUITES[suite]
        results = measure(repeat)
        path.write_text(json.dumps(_payload(suite, results), indent=2) + "\n")
        print(f"wrote {path.name}: {flatten(results)}")
    return 0


def check_baselines(repeat: int, threshold: float, suites: Sequence[str],
                    tier: Optional[str] = None) -> int:
    """Re-measure ``suites`` and fail on regressions vs the committed
    baselines.

    ``tier`` (from an explicit ``suite:tier`` request) pins one baseline
    tier of a tiered suite: it must then exist in the committed file AND
    be measurable on this host, or the check fails — the skip-loudly
    escape hatch is only for tiers the user did not ask for by name.
    """
    failures: List[str] = []
    rows: List[Tuple[str, str, float, Optional[float], str]] = []

    for suite in suites:
        path, measure, flatten = SUITES[suite]
        if not path.exists():
            failures.append(f"{path.name} not found — run --write first")
            continue
        committed_raw = json.loads(path.read_text())["results"]
        current_raw = measure(repeat)
        if suite in TIERED_SUITES:
            if tier is not None:
                # Explicit suite:tier request — no silent narrowing.
                if tier not in committed_raw:
                    failures.append(
                        f"{suite}:{tier}: no committed baseline section "
                        f"in {path.name} — run --write on a machine with "
                        f"that tier")
                    continue
                if tier not in current_raw:
                    failures.append(
                        f"{suite}:{tier}: tier unavailable on this "
                        f"machine (no C compiler?) — explicitly requested "
                        f"tiers fail instead of skipping")
                    continue
                committed_raw = {tier: committed_raw[tier]}
                current_raw = {tier: current_raw[tier]}
            else:
                # A baseline written where the compiled core builds is
                # still checkable on a compiler-less machine: skip
                # (loudly) the auto-discovered tiers this machine cannot
                # measure instead of failing.
                for t in [t for t, sec in committed_raw.items()
                          if isinstance(sec, dict) and t not in current_raw]:
                    print(f"{suite}: {t} tier unavailable on this machine "
                          f"(no C compiler?); skipping its baselines")
                    committed_raw = {u: sec for u, sec in
                                     committed_raw.items() if u != t}
        committed = flatten(committed_raw)
        current = flatten(current_raw)
        for name, base in committed.items():
            cur = current.get(name)
            if cur is None:
                failures.append(f"{suite}/{name}: missing from current run")
                rows.append((suite, name, base, None, "MISSING"))
                continue
            if _lower_is_better(name):
                ceiling = base * (1.0 + threshold)
                status = "ok" if cur <= ceiling else "REGRESSION"
                rows.append((suite, name, base, cur, status))
                if cur > ceiling:
                    failures.append(
                        f"{suite}/{name}: {cur} is {cur / base - 1:.0%} "
                        f"above baseline {base} (lower is better, "
                        f"threshold {threshold:.0%})")
                continue
            floor = base * (1.0 - threshold)
            status = "ok" if cur >= floor else "REGRESSION"
            rows.append((suite, name, base, cur, status))
            if cur < floor:
                failures.append(
                    f"{suite}/{name}: {cur}/s is {1 - cur / base:.0%} below "
                    f"baseline {base}/s (threshold {threshold:.0%})")

    width = max((len(f"{s}/{n}") for s, n, *_ in rows), default=20)
    print(f"{'metric':<{width}} {'baseline':>12} {'current':>12} "
          f"{'delta':>7}  status")
    for suite, name, base, cur, status in rows:
        metric = f"{suite}/{name}"
        if cur is None:
            print(f"{metric:<{width}} {base:>12} {'-':>12} {'-':>7}  {status}")
        else:
            print(f"{metric:<{width}} {base:>12} {round(cur, 2):>12} "
                  f"{cur / base - 1.0:>+6.0%}  {status}")

    if failures:
        print("\nperf-smoke FAILED:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("\nperf-smoke OK: all workloads within threshold")
    return 0
