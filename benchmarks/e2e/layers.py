"""Per-layer attribution, measured from outside the program.

The layers are the packages of ``src/repro``.  Three instruments, none
of which edits ``src/``:

* exact counts read from public results (``AppResult.sim_stats``,
  ``.traffic``, ``ParallelRunner.point_records``);
* a ``cProfile`` pass folded by ``repro/<package>/`` path into self-time
  shares and call counts;
* in-memory spans around the benchmark's own calls into the program,
  written as JSONL when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import time
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = ["LAYERS", "Spans", "spanned_harness", "tree_cpu_s",
           "fold_profile", "pass_counts"]

#: ``sim.pdes`` is its own layer; ``other`` is stdlib, numpy, builtins
#: and the benchmark's own frames.
LAYERS = ("sim", "pdes", "network", "orca", "core", "apps", "scenario",
          "tuner", "harness", "obs", "metrics", "other")


class Spans:
    """Span recorder: name, start, end, parent; one ``op`` id per operation.

    Disabled (the untraced runs) it records nothing, so the end-to-end
    metrics are taken with tracing off.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.rows: List[Dict[str, Any]] = []
        self._stack: List[Dict[str, Any]] = []

    @contextlib.contextmanager
    def span(self, name: str, op: Optional[str] = None) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        row = {"id": len(self.rows), "name": name,
               "parent": parent["id"] if parent else None,
               "op": op if op is not None else
               (parent["op"] if parent else None),
               "start": time.perf_counter(), "end": None}
        self.rows.append(row)
        self._stack.append(row)
        try:
            yield
        finally:
            self._stack.pop()
            row["end"] = time.perf_counter()

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for row in self.rows:
                fh.write(json.dumps(row) + "\n")


def spanned_harness(spans: Spans, runner_cls, cache_cls) -> Tuple[type, type]:
    """``ParallelRunner``/``ResultCache`` subclasses whose ``run`` and
    ``get``/``put`` record spans — the harness-layer boundaries the
    sweep workload crosses, wrapped from the benchmark's side."""

    class SpanCache(cache_cls):
        def get(self, key):
            with spans.span("cache.get"):
                return super().get(key)

        def put(self, key, result):
            with spans.span("cache.put"):
                return super().put(key, result)

    class SpanRunner(runner_cls):
        def run(self, specs):
            with spans.span("runner.run"):
                return super().run(specs)

    return SpanRunner, SpanCache


# ------------------------------------------------------ process-tree CPU

def _proc_table() -> Dict[int, Tuple[int, float]]:
    """pid -> (ppid, user+sys CPU seconds) for every live process."""
    tick = os.sysconf("SC_CLK_TCK")
    table = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", "rb") as fh:
                # "pid (comm) state ppid ... utime stime": comm may hold
                # spaces and parentheses, so split after the last ')'.
                rest = fh.read().rpartition(b")")[2].split()
        except OSError:
            continue  # exited between listdir and open
        table[int(name)] = (int(rest[1]),
                            (int(rest[11]) + int(rest[12])) / tick)
    return table


def tree_cpu_s() -> float:
    """User+sys CPU of this process, its reaped children, and its live
    descendants (pooled PDES workers stay alive between passes, so the
    reaped-children figure alone would miss them)."""
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    total = time.process_time() + reaped.ru_utime + reaped.ru_stime
    try:
        table = _proc_table()
    except OSError:  # no /proc: reaped children only
        return total
    kids: Dict[int, List[int]] = {}
    for pid, (ppid, _cpu) in table.items():
        kids.setdefault(ppid, []).append(pid)
    todo = list(kids.get(os.getpid(), ()))
    while todo:
        pid = todo.pop()
        total += table[pid][1]
        todo.extend(kids.get(pid, ()))
    return total


# --------------------------------------------------------- profile fold

def _layer_of(filename: str, funcname: str, pkg_dir: str) -> str:
    if filename == "~":  # builtin: the compiled event core belongs to sim
        return "sim" if "_ccore" in funcname else "other"
    if not filename.startswith(pkg_dir):
        return "other"
    rest = filename[len(pkg_dir):].split(os.sep)
    if rest[:2] == ["sim", "pdes"]:
        return "pdes"
    return rest[0] if rest[0] in LAYERS else "other"


def fold_profile(profile) -> Dict[str, Tuple[float, int]]:
    """``cProfile.Profile`` -> layer -> (self seconds, calls)."""
    import pstats

    import repro

    pkg_dir = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
    fold = {layer: [0.0, 0] for layer in LAYERS}
    for (filename, _line, funcname), (_cc, ncalls, tottime, _ct, _callers) \
            in pstats.Stats(profile).stats.items():
        cell = fold[_layer_of(filename, funcname, pkg_dir)]
        cell[0] += tottime
        cell[1] += ncalls
    return {layer: (cell[0], cell[1]) for layer, cell in fold.items()}


# ------------------------------------------------------- counts of a pass

_SIM_KEYS = {"sim.events": "events_processed", "sim.spawns": "spawns",
             "sim.fast_completions": "fast_completions",
             "sim.fallbacks": "fallbacks",
             "pdes.epochs": "pdes_epochs",
             "pdes.round_trips": "pdes_round_trips",
             "pdes.coalesced_round_trips": "pdes_coalesced_round_trips",
             "pdes.cross_messages": "pdes_cross_messages",
             "pdes.channel_bytes": "pdes_channel_bytes",
             "pdes.channel_overflows": "pdes_channel_overflows",
             "pdes.epoch_breaks": "pdes_epoch_breaks"}


def pass_counts(results: Iterable[Any],
                extra: Dict[str, float]) -> Dict[str, int]:
    """Exact per-layer counts of one pass, summed over its ``AppResult``s
    (``extra`` carries the harness/tuner counts the pass itself saw)."""
    counts: Dict[str, int] = {name: 0 for name in _SIM_KEYS}
    counts.update({"network.msgs_lan": 0, "network.msgs_wan": 0,
                   "network.bytes_wan": 0, "orca.rpcs": 0, "orca.bcasts": 0})
    for res in results:
        stats = res.sim_stats or {}
        for name, key in _SIM_KEYS.items():
            counts[name] += stats.get(key, 0)
        for bucket, row in res.traffic.items():
            if bucket == "wan":
                counts["network.msgs_wan"] += row["count"]
                counts["network.bytes_wan"] += row["bytes"]
                continue
            if bucket.startswith("intra."):
                counts["network.msgs_lan"] += row["count"]
            if bucket.endswith(".rpc"):
                counts["orca.rpcs"] += row["count"]
            elif bucket.endswith(".bcast"):
                counts["orca.bcasts"] += row["count"]
    for name in ("harness.points", "harness.points_deduped",
                 "harness.cache_hits", "tuner.probes"):
        counts[name] = extra.get(name, 0)
    return counts
