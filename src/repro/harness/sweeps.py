"""Parallel experiment sweeps: fan independent runs over a process pool.

Every paper artifact is a grid of *fully independent* :func:`run_app`
simulations, so the sweep layer parallelizes them the obvious way: a
:class:`RunSpec` is a small picklable description of one grid point, a
:class:`ParallelRunner` maps a list of specs over a forked process pool
(each worker inherits the problem instances the parent built, rebuilds
the simulator stack from the spec and returns the slim
:class:`AppResult`), and a :class:`ResultCache` keyed by
a content hash of the spec — problem parameters and network parameters
included — lets a re-run of a figure skip every already-computed point.

Properties the rest of the harness relies on:

* **Determinism** — results come back in spec order, and each simulation
  is bit-identical whether it ran in-process, in a worker, or out of the
  cache (the simulator itself is deterministic; the pool only changes
  *where* a run executes, never what it computes).
* **Serial fallback** — ``jobs=1`` (the default) never touches
  ``multiprocessing``; the ``REPRO_JOBS`` environment variable supplies
  the default worker count for CLI and library callers alike.
* **Deduplication** — identical specs in one batch are computed once
  (figure harnesses share 1x1 baselines between variants and figures).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import os
import pickle
import signal
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..apps import ALL_APPS, make_app
from ..apps.base import AppResult
from ..apps.instance import INSTANCE_MEMO
from ..network import DAS_PARAMS, NetworkParams
from ..scenario import Scenario
from ..sim.trace import TraceRecord, TraceSpec

__all__ = [
    "RunSpec",
    "ResultCache",
    "ParallelRunner",
    "default_jobs",
    "default_cache_dir",
    "format_stragglers",
    "write_trace",
]

#: Environment variable supplying the default worker count.
JOBS_ENV = "REPRO_JOBS"
#: Environment variable overriding the cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
#: Salt mixed into every cache key.  Bump when a simulator change is
#: *meant* to alter results, so stale entries cannot shadow new numbers
#: (pure host-time optimizations do not need a bump — virtual-time
#: results are bit-identical by design).
#: "2": RunSpec grew the ``scenario`` field (WAN impairments, faults,
#: heterogeneity — see docs/SCENARIOS.md).
#: "3": RunSpec grew the ``decision`` field (tuned protocol selection —
#: see docs/TUNING.md), and integer-typed scenario parameters are now
#: stored as ints (``max_retries=8``, not ``8.0``).
#: "4": entries end in a SHA-256 trailer; older ones would read as misses.
#: "5": ``sim_stats`` has four keys; older entries carry a fifth, a
#: duplicate of ``spawns``.
CACHE_SCHEMA = "5"


def default_jobs() -> int:
    """Sweep worker count from ``REPRO_JOBS`` (default 1 — fully serial).

    An unset/empty variable is silent, and a parsable one clamps to at
    least 1; an unparsable one also runs serially, but *loudly* — a
    typo silently changing the parallelism a user asked for is a
    debugging trap.
    """
    raw = os.environ.get(JOBS_ENV, "").strip()
    if not raw:
        return 1
    try:
        return max(1, int(raw))
    except ValueError:
        print(f"repro: warning: ignoring unparsable {JOBS_ENV}={raw!r} "
              f"(want an integer); running serially with 1 job",
              file=sys.stderr)
        return 1


def default_cache_dir() -> str:
    """``REPRO_CACHE_DIR``, or ``~/.cache/repro/sweeps``."""
    override = os.environ.get(CACHE_DIR_ENV, "").strip()
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "repro", "sweeps")


@dataclass(frozen=True)
class RunSpec:
    """A picklable description of one ``run_app`` invocation.

    ``app`` is the registry name (the worker rebuilds the application
    object with :func:`make_app`); ``params`` is the app's frozen
    parameter dataclass; everything else mirrors ``run_app``'s signature.
    """

    app: str
    variant: str
    n_clusters: int
    nodes_per_cluster: int
    params: Any
    network: NetworkParams = DAS_PARAMS
    sequencer: Optional[str] = None
    dedicated_sequencer_node: bool = False
    #: When set, the run is traced with a tracer built from this spec
    #: (frozen and picklable, so it ships to pool workers) and the
    #: records come back on ``AppResult.trace_records``.  Tracing never
    #: changes the simulation — results stay bit-identical.
    trace: Optional[TraceSpec] = None
    #: Optional :class:`~repro.scenario.Scenario` (WAN impairments,
    #: faults, heterogeneity — see docs/SCENARIOS.md).  Frozen and
    #: picklable like everything else here; its ``repr`` spells out
    #: every model parameter and the seed, so it participates in the
    #: cache key and scenario runs cache like clean ones.
    scenario: Optional[Scenario] = None
    #: Optional :class:`~repro.tuner.DecisionModel` (calibrated protocol
    #: selection — see docs/TUNING.md).  Frozen/picklable; its ``repr``
    #: spells out every fitted coefficient, so tuned and fixed runs have
    #: distinct cache identities.
    decision: Optional[Any] = None

    def __post_init__(self):
        if self.app not in ALL_APPS:
            raise ValueError(f"unknown application {self.app!r}; "
                             f"choose from {sorted(ALL_APPS)}")

    def key(self) -> str:
        """Content hash of the spec (problem + network params included).

        The hash is over the ``repr`` of the frozen dataclasses, which
        spells out every field by name — any parameter change, including
        a nested network/link parameter, invalidates the cache entry.
        The trace spec is deliberately excluded: tracing cannot change
        results, so a traced and an untraced run share one identity
        (the runner skips the cache for traced specs instead — a cached
        result carries no records).
        """
        text = repr((CACHE_SCHEMA, self.app, self.variant, self.n_clusters,
                     self.nodes_per_cluster, self.params, self.network,
                     self.sequencer, self.dedicated_sequencer_node,
                     self.scenario, self.decision))
        return hashlib.sha256(text.encode()).hexdigest()

    def execute(self) -> AppResult:
        """Rebuild the stack and run this grid point (in this process)."""
        from .experiment import run_app

        tracer = self.trace.build() if self.trace is not None else None
        result = run_app(make_app(self.app), self.variant, self.n_clusters,
                         self.nodes_per_cluster, self.params,
                         network=self.network, sequencer=self.sequencer,
                         dedicated_sequencer_node=self.dedicated_sequencer_node,
                         tracer=tracer,
                         scenario=self.scenario, decision=self.decision)
        if tracer is not None:
            result.trace_records = list(tracer.records)
        return result


def write_trace(trace_dir: str, spec: RunSpec,
                records: Sequence[TraceRecord]) -> str:
    """Export one traced run of ``spec`` as a Perfetto file
    ``{app}-{variant}-{C}x{N}-{key8}.trace.json`` in ``trace_dir``
    (created if missing); returns its path."""
    from ..obs.export import write_chrome

    os.makedirs(trace_dir, exist_ok=True)
    name = (f"{spec.app}-{spec.variant}-{spec.n_clusters}x"
            f"{spec.nodes_per_cluster}-{spec.key()[:8]}.trace.json")
    path = os.path.join(trace_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        write_chrome(records, fh)
    return path


def _execute_timed(spec: RunSpec) -> Tuple[AppResult, float]:
    """Module-level worker entry point (picklable for the pool): the
    result plus the host wall-clock seconds it took."""
    t0 = time.perf_counter()
    result = spec.execute()
    return result, time.perf_counter() - t0


def _build_instances(work: List[RunSpec]) -> None:
    """Build, in this process, every instance table ``work`` reads.

    Called by the parent just before it forks a sweep pool: the workers
    inherit the filled tables copy-on-write, so an instance is derived
    once per sweep instead of once per worker.  An app whose batch names
    more distinct params than ``INSTANCE_MEMO`` is skipped — its tables
    could not all stay in the memo, and the parent would evict what it
    had just built.
    """
    instances: Dict[str, set] = {}
    for spec in work:
        instances.setdefault(spec.app, set()).add(spec.params)
    for name, params in instances.items():
        if len(params) <= INSTANCE_MEMO:
            app = make_app(name)
            for p in params:
                app.build_instance(p)


#: Length of the SHA-256 trailer of a cache entry.
_DIGEST_BYTES = hashlib.sha256().digest_size


class ResultCache:
    """On-disk result cache: one pickle per content-hash key, followed
    by the SHA-256 of the pickle.

    Writes are atomic (tempfile + rename), so a crashed or parallel
    writer can never leave a truncated entry.  An entry is trusted only
    if its trailer matches and it unpickles to an :class:`AppResult`:
    whatever else is on disk (truncated, bit-flipped, foreign, written
    by other code) is a miss and gets overwritten — never a traceback,
    never a different number.
    """

    def __init__(self, root: Optional[str] = None):
        self.root = root if root is not None else default_cache_dir()

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".pkl")

    def get(self, key: str) -> Optional[AppResult]:
        try:
            with open(self._path(key), "rb") as fh:
                blob = fh.read()
            body, trailer = blob[:-_DIGEST_BYTES], blob[-_DIGEST_BYTES:]
            if hashlib.sha256(body).digest() != trailer:
                return None
            result = pickle.loads(body)
        except Exception:  # unreadable, however: a miss
            return None
        return result if isinstance(result, AppResult) else None

    def put(self, key: str, result: AppResult) -> None:
        body = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                # A trailer, not a header: ``pickle.load`` from offset 0
                # still reads the entry (it stops at the pickle's end).
                fh.write(body + hashlib.sha256(body).digest())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def clear(self) -> int:
        """Remove every cached entry (and any ``*.tmp`` a killed writer
        left behind); returns the number of entries removed."""
        removed = 0
        if not os.path.isdir(self.root):
            return 0
        for dirpath, _dirs, files in os.walk(self.root):
            for name in files:
                if name.endswith((".pkl", ".tmp")):
                    try:
                        os.unlink(os.path.join(dirpath, name))
                        removed += name.endswith(".pkl")
                    except OSError:
                        pass
        return removed


class ParallelRunner:
    """Runs batches of :class:`RunSpec` over a process pool.

    ``jobs`` defaults to ``REPRO_JOBS`` (or 1).  ``jobs=1`` runs serially
    in-process — no pool, no pickling.  Results always come back in spec
    order, and duplicate specs within a batch are computed only once.

    Pool dispatch is chunked: one grid point per dispatch until the
    grid is much larger than the pool (points are coarse and unevenly
    sized, so fine-grained dispatch load-balances best), then several —
    sized so each worker still gets ~4 dispatches — because large sweeps
    of small points (fig15/fig16: hundreds of sub-second simulations)
    otherwise spend real time on per-point pickle/IPC round-trips.
    Chunking never changes a result, and every point is still timed
    individually for ``sweep.point``/straggler reports.

    Before it forks the pool, the runner builds each pooled app's
    problem instance in this process (:func:`_build_instances`), so the
    workers inherit the instance tables instead of each deriving them
    again.  The tables are pure, so this moves host time, never a
    result; the serial path builds nothing ahead.

    ``trace`` applies a :class:`~repro.sim.trace.TraceSpec` to every
    spec in a batch that does not already carry one, so whole figures
    can run traced (typically bounded — a ring buffer and/or sampling —
    so parallel sweeps stay cheap).  Traced specs bypass the result
    cache in both directions: a cached result has no records to give,
    and a traced result is not written back (the cache stores slim
    results only).  With ``trace_dir``, each traced grid point's records
    are exported by :func:`write_trace` (and then dropped from the
    in-memory result, so a big sweep never holds every trace at once);
    the paths accumulate on ``trace_files``.
    """

    def __init__(self, jobs: Optional[int] = None,
                 cache: Optional[ResultCache] = None,
                 trace: Optional[TraceSpec] = None,
                 trace_dir: Optional[str] = None):
        self.jobs = default_jobs() if jobs is None else max(1, int(jobs))
        self.cache = cache
        self.trace = trace
        self.trace_dir = trace_dir
        self.trace_files: List[str] = []
        self.hits = 0      # cache hits over this runner's lifetime
        self.computed = 0  # specs actually simulated
        #: One ``sweep.point`` record per grid point this runner served
        #: (see docs/TRACING.md): host-side timing, ``time`` is host
        #: seconds since the runner was created.  This is what lets
        #: ``repro figure --jobs N`` name its stragglers.
        self.point_records: List[TraceRecord] = []
        self._t0 = time.perf_counter()

    def run_one(self, spec: RunSpec) -> AppResult:
        return self.run([spec])[0]

    def run(self, specs: Sequence[RunSpec]) -> List[AppResult]:
        if self.trace is not None:
            specs = [dataclasses.replace(spec, trace=self.trace)
                     if spec.trace is None else spec for spec in specs]
        results: List[Optional[AppResult]] = [None] * len(specs)
        # Group uncached work by content key so duplicates run once.
        # The trace spec rides along in the dedup key: a traced and an
        # untraced spec share a cache identity but not an execution.
        todo: Dict[Any, List[int]] = {}
        keyed: Dict[Any, RunSpec] = {}
        for i, spec in enumerate(specs):
            key = spec.key()
            if self.cache is not None and spec.trace is None:
                t0 = time.perf_counter()
                hit = self.cache.get(key)
                if hit is not None:
                    results[i] = hit
                    self.hits += 1
                    self._record_point(spec, time.perf_counter() - t0,
                                       cached=True)
                    continue
            dkey = (key, spec.trace)
            todo.setdefault(dkey, []).append(i)
            keyed[dkey] = spec
        dkeys = list(todo)
        # Each result is recorded and cached as it arrives, so a sweep
        # that is interrupted (or loses a worker) keeps every point
        # finished before it.
        with self._executed([keyed[k] for k in dkeys]) as executed:
            for dkey, (result, host_s) in zip(dkeys, executed):
                spec = keyed[dkey]
                self.computed += 1
                self._record_point(spec, host_s, cached=False)
                if self.cache is not None and spec.trace is None:
                    self.cache.put(dkey[0], result)
                if (spec.trace is not None and self.trace_dir
                        and getattr(result, "trace_records", None) is not None):
                    self.trace_files.append(write_trace(
                        self.trace_dir, spec, result.trace_records))
                    result.trace_records = None  # exported; free the batch
                for i in todo[dkey]:
                    results[i] = result
        return results  # type: ignore[return-value]

    def _record_point(self, spec: RunSpec, host_s: float,
                      cached: bool) -> None:
        self.point_records.append(TraceRecord(
            time=time.perf_counter() - self._t0, kind="sweep.point",
            detail={"app": spec.app, "variant": spec.variant,
                    "clusters": spec.n_clusters,
                    "nodes": spec.nodes_per_cluster,
                    "host_s": host_s, "cached": cached}))

    @contextlib.contextmanager
    def _executed(self, work: List[RunSpec]
                  ) -> Iterator[Iterator[Tuple[AppResult, float]]]:
        """``(result, host seconds)`` of each spec of ``work``, in order,
        as each arrives: in this process for one job or one point, else
        over a process pool forked after this process built the pooled
        instances (:func:`_build_instances`).

        A pool worker that dies ends the sweep in ``BrokenProcessPool``
        (``multiprocessing.Pool`` would wait for its lost task forever),
        and leaving the block — normally, on that error or on Ctrl-C —
        cancels the points not yet started and reaps every worker.
        Workers take SIGINT's default action, so a Ctrl-C at the
        terminal ends them at once, without a traceback each.
        """
        if self.jobs == 1 or len(work) <= 1:
            yield map(_execute_timed, work)
            return
        import multiprocessing as mp
        from concurrent.futures import ProcessPoolExecutor

        # fork shares the already-imported package with the workers;
        # spawn (macOS/Windows default) re-imports it from sys.path.
        try:
            ctx = mp.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX
            ctx = mp.get_context("spawn")
        n = min(self.jobs, len(work))
        _build_instances(work)
        pool = ProcessPoolExecutor(max_workers=n, mp_context=ctx,
                                   initializer=signal.signal,
                                   initargs=(signal.SIGINT, signal.SIG_DFL))
        try:
            # At least four dispatches per worker: chunking never costs
            # more than ~25% tail latency to a straggler chunk while
            # cutting IPC round-trips by the chunk size on large grids
            # (``len(work) <= 4 * n`` stays one point per dispatch).
            yield pool.map(_execute_timed, work,
                           chunksize=max(1, len(work) // (4 * n)))
        finally:
            pool.shutdown(wait=True, cancel_futures=True)


def format_stragglers(records: Sequence[TraceRecord],
                      limit: int = 5) -> str:
    """Summarize a sweep's ``sweep.point`` records: who held the batch up.

    With ``--jobs N`` the batch finishes when its slowest point does, so
    the interesting number is each point's share of the *computed* time:
    one grid point at 40% of the total is the straggler that bounds how
    far extra workers can help.
    """
    points = [r for r in records if r.kind == "sweep.point"]
    computed = [r for r in points if not r.detail["cached"]]
    total = sum(r.detail["host_s"] for r in computed)
    lines = [f"sweep: {len(points)} points, {len(computed)} simulated, "
             f"{len(points) - len(computed)} cached, "
             f"{total:.2f}s host time simulated"]
    slowest = sorted(computed, key=lambda r: r.detail["host_s"],
                     reverse=True)[:limit]
    for r in slowest:
        d = r.detail
        share = d["host_s"] / total if total > 0 else 0.0
        lines.append(f"  {d['host_s']:>7.2f}s ({share:>4.0%})  "
                     f"{d['app']}/{d['variant']} "
                     f"{d['clusters']}x{d['nodes']}")
    return "\n".join(lines)
