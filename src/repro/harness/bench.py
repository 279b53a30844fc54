"""Host-throughput suites against the committed perf baselines.

The five suites are the ``WORKLOADS`` tables of
``benchmarks/bench_<suite>_micro.py``; this module owns everything
else: the one measuring loop (``count / best-of-repeat seconds``), the
one subprocess per engine tier, and the one ledger shape.  Each suite
has a ``BENCH_<suite>.json`` at the repo root::

    {"bench": suite, "python": ..., "machine": ..., "host_cores": ...,
     "engine_tier": ..., "results": {metric: number}, "info": {...}}

``results`` is flat and holds only *checked* numbers; ``info`` holds
what rides along unchecked; the stamp says where they were taken.

* ``engine``      — ``<tier>/<workload>`` events/s plus ``<tier>/TOTAL``,
  for every engine tier the host can build (``python`` always,
  ``compiled`` when the C core builds)
* ``fabric``      — ``<workload>`` messages/s per fabric path (clean,
  impaired and striped WAN routes included)
* ``orca``        — ``<workload>`` broadcasts/RPCs per second
  (whole-app host time is ``benchmarks/e2e``'s, at paper scale)
* ``collectives`` — ``<workload>`` collectives/s per tuner primitive
  plus the tuner probe loop
* ``pdes``        — ``<workload>/overhead_us_per_epoch`` of the
  partitioned engine over the single-process oracle: a *cost*, so the
  check enforces a ceiling; epochs, round trips, runs/s, speedup and
  worker count are its ``info``

The ``repro bench`` verb (parsed in :mod:`repro.__main__`) has three
modes.  Bare, it measures and prints the table next to the committed
numbers, writes nothing and exits 0.  ``--write`` refreshes the files
from a local run (do this on the machine that defines the baseline,
after a deliberate perf change).  ``--check`` re-measures and fails if
any metric is more than ``--threshold`` (default 30%) worse than its
committed number — the CI perf-smoke job, so event-path regressions
surface in review rather than in a 10x slower figure sweep three PRs
later.  The non-engine suites are baselined on the slower ``python``
tier (the stamped ``engine_tier``): only regressions fail, so the same
floor is checked under both ``REPRO_ENGINE`` tiers.

``--suite`` accepts a suite name or ``suite:tier`` (``engine:compiled``),
a prefix filter on the flat keys.  Under ``--check`` an *explicitly*
requested tier that has no committed numbers, or that this host cannot
measure, is a hard failure; only auto-discovered tiers (``--suite all``
/ bare ``engine``) skip loudly when the host cannot build them.

Run from the repo root::

    PYTHONPATH=src python -m repro bench --suite orca
    PYTHONPATH=src python -m repro bench --write
    PYTHONPATH=src python -m repro bench --check --suite engine:python
"""

from __future__ import annotations

import importlib
import json
import os
import pathlib
import platform
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["SUITES", "baseline_path", "measure", "show", "write_baselines",
           "check_baselines", "parse_suite_request"]

ROOT = pathlib.Path(__file__).resolve().parents[3]

Numbers = Dict[str, float]


def baseline_path(suite: str) -> pathlib.Path:
    return ROOT / f"BENCH_{suite}.json"


def _module(suite: str):
    """``benchmarks/bench_<suite>_micro.py``, imported from the repo."""
    bdir = str(ROOT / "benchmarks")
    if bdir not in sys.path:
        sys.path.insert(0, bdir)
    return importlib.import_module(f"bench_{suite}_micro")


# ------------------------------------------------------------- measurement

def _time(workloads, repeat: int) -> List[Tuple[str, int, float]]:
    """The measuring loop: ``(name, count, best-of-repeat seconds)`` per
    ``(name, fn)`` workload, ``fn()`` returning the count it performed."""
    timed = []
    for name, fn in workloads:
        best = float("inf")
        for _ in range(repeat):
            t0 = time.perf_counter()
            count = fn()
            best = min(best, time.perf_counter() - t0)
        timed.append((name, count, best))
    return timed


def _rates(suite: str, repeat: int) -> Tuple[Numbers, dict]:
    timed = _time(_module(suite).WORKLOADS, repeat)
    return {name: round(count / best) for name, count, best in timed}, {}


def _time_in_tier(suite: str, tier: str,
                  repeat: int) -> List[Tuple[str, int, float]]:
    """:func:`_time` over ``suite`` in a subprocess pinned to one engine
    tier (``REPRO_ENGINE`` is read at the first ``repro.sim`` import)."""
    env = dict(os.environ)
    env["REPRO_ENGINE"] = tier
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get(
        "PYTHONPATH", "")
    code = ("import json\n"
            "from repro.harness import bench\n"
            "print(json.dumps(bench._time("
            f"bench._module({suite!r}).WORKLOADS, {int(repeat)})))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    if out.returncode != 0:
        raise RuntimeError(f"{suite} bench subprocess (tier {tier}) failed:\n"
                           f"{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def _rates_per_tier(suite: str, repeat: int) -> Tuple[Numbers, dict]:
    """``<tier>/<workload>`` for every tier this machine can build, so
    baselines written where the compiled core builds stay checkable
    (with a skip line) on compiler-less machines."""
    from ..sim._build import compiler_available

    results = {}
    for tier in ["python"] + (["compiled"] if compiler_available() else []):
        timed = _time_in_tier(suite, tier, repeat)
        timed.append(("TOTAL", sum(count for _n, count, _b in timed),
                      sum(best for _n, _c, best in timed)))
        results.update({f"{tier}/{name}": round(count / best)
                        for name, count, best in timed})
    return results, {}


def _overheads(suite: str, repeat: int) -> Tuple[Numbers, dict]:
    """Per-epoch protocol overhead only.  Raw throughput and the speedup
    ratio depend on the measuring host's geometry, so they are ``info``;
    overhead per epoch is the one number that isolates the
    synchronization protocol from the work the oracle does anyway."""
    module = _module(suite)
    results, info = {}, {}
    for name, *geometry in module.WORKLOADS:
        overhead, extra = module.serial_vs_pdes(*geometry, repeat)
        results[f"{name}/overhead_us_per_epoch"] = overhead
        info.update({f"{name}/{key}": v for key, v in extra.items()})
    return results, info


#: suite -> how ``benchmarks/bench_<suite>_micro.py`` is measured:
#: ``fn(suite, repeat) -> (results, info)``.
SUITES: Dict[str, Callable[[str, int], Tuple[Numbers, dict]]] = {
    "collectives": _rates,
    "engine": _rates_per_tier,
    "fabric": _rates,
    "orca": _rates,
    "pdes": _overheads,
}

#: suites whose metrics are ``<tier>/<workload>`` (``suite:tier``
#: requests are only meaningful for these).
TIERED_SUITES = ("engine",)

#: metric-name suffixes that measure a *cost* rather than a throughput:
#: for these the check enforces a ceiling (``base * (1 + threshold)``)
#: instead of a floor, and a drop is an improvement.
LOWER_IS_BETTER_SUFFIXES = ("overhead_us_per_epoch",)


def measure(suite: str, repeat: int) -> Tuple[Numbers, dict]:
    """``(results, info)`` of one suite, measured now on this host."""
    return SUITES[suite](suite, repeat)


def _tier_of(metric: str) -> str:
    return metric.partition("/")[0]


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


# --------------------------------------------------- show / write / check

Row = Tuple[str, Optional[float], Optional[float], str]


def _print_table(rows: Sequence[Row]) -> None:
    width = max((len(metric) for metric, *_ in rows), default=20)
    print(f"{'metric':<{width}} {'baseline':>12} {'current':>12} "
          f"{'delta':>7}  status")
    for metric, base, cur, status in rows:
        delta = "-" if None in (base, cur) else f"{cur / base - 1.0:+.0%}"
        print(f"{metric:<{width}} {'-' if base is None else base:>12} "
              f"{'-' if cur is None else round(cur, 2):>12} "
              f"{delta:>7}  {status}".rstrip())


def show(repeat: int, suites: Sequence[str], tier: Optional[str]) -> int:
    """Measure ``suites`` and print them next to whatever baseline is
    committed.  Writes nothing, fails nothing."""
    rows: List[Row] = []
    for suite in suites:
        path = baseline_path(suite)
        committed = (json.loads(path.read_text())["results"]
                     if path.exists() else {})
        results, _info = measure(suite, repeat)
        rows += [(f"{suite}/{name}", committed.get(name), cur, "")
                 for name, cur in results.items()
                 if tier is None or _tier_of(name) == tier]
    _print_table(rows)
    return 0


def write_baselines(repeat: int, suites: Sequence[str]) -> int:
    from ..sim.engine import ENGINE_TIER

    for suite in suites:
        results, info = measure(suite, repeat)
        # The stamp: host geometry and the engine tier ``auto`` resolved
        # to in this process (the engine suite measures every tier; its
        # metrics are prefixed with them).
        doc = {
            "bench": suite,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "host_cores": os.cpu_count(),
            "engine_tier": ENGINE_TIER,
            "results": results,
            "info": info,
        }
        path = baseline_path(suite)
        path.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {path.name}: {results}")
    return 0


def check_baselines(repeat: int, threshold: float, suites: Sequence[str],
                    tier: Optional[str] = None) -> int:
    """Re-measure ``suites`` and fail on regressions vs the committed
    baselines.

    ``tier`` (from an explicit ``suite:tier`` request) pins one tier of
    a tiered suite: it must then exist in the committed file AND be
    measurable on this host, or the check fails — the skip-loudly
    escape hatch is only for tiers the user did not ask for by name.
    """
    failures: List[str] = []
    rows: List[Row] = []

    for suite in suites:
        path = baseline_path(suite)
        if not path.exists():
            failures.append(f"{path.name} not found — run --write first")
            continue
        committed = json.loads(path.read_text())["results"]
        current, _info = measure(suite, repeat)
        if suite in TIERED_SUITES:
            measurable = {_tier_of(name) for name in current}
            baselined = {_tier_of(name) for name in committed}
            if tier is None:
                # A baseline written where the compiled core builds is
                # still checkable on a compiler-less machine: skip
                # (loudly) the auto-discovered tiers this machine cannot
                # measure instead of failing.
                for t in sorted(baselined - measurable):
                    print(f"{suite}: {t} tier unavailable on this machine "
                          f"(no C compiler?); skipping its baselines")
                wanted = measurable
            elif tier not in baselined:
                failures.append(
                    f"{suite}:{tier}: no committed baseline for that tier "
                    f"in {path.name} — run --write on a machine with it")
                continue
            elif tier not in measurable:
                failures.append(
                    f"{suite}:{tier}: tier unavailable on this machine "
                    f"(no C compiler?) — explicitly requested tiers fail "
                    f"instead of skipping")
                continue
            else:
                wanted = {tier}  # explicit request — no silent narrowing
            committed = {name: base for name, base in committed.items()
                         if _tier_of(name) in wanted}
        for name, base in committed.items():
            metric = f"{suite}/{name}"
            cur = current.get(name)
            if cur is None:
                failures.append(f"{metric}: missing from current run")
                rows.append((metric, base, None, "MISSING"))
                continue
            lower = name.endswith(LOWER_IS_BETTER_SUFFIXES)
            worse = (cur / base - 1.0) * (1.0 if lower else -1.0)
            rows.append((metric, base, cur,
                         "ok" if worse <= threshold else "REGRESSION"))
            if worse > threshold:
                failures.append(
                    f"{metric}: {cur} is {worse:.0%} "
                    f"{'above' if lower else 'below'} baseline {base} "
                    f"({'lower' if lower else 'higher'} is better, "
                    f"threshold {threshold:.0%})")

    _print_table(rows)
    if failures:
        print("\nperf-smoke FAILED:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("\nperf-smoke OK: all workloads within threshold")
    return 0
