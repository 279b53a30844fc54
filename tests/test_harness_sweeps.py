"""Tests for the parallel sweep subsystem (runner, cache, determinism,
host faults)."""

import os
import pickle
import re
import signal
import subprocess
import sys
import time
from collections import Counter

import pytest

from repro.apps import small_params
from repro.apps.instance import INSTANCE_MEMO
from repro.harness import (
    ParallelRunner,
    ResultCache,
    RunSpec,
    default_jobs,
    figure15_bars_many,
    figure_curves,
    speedup_curve,
)
from repro.harness.sweeps import default_cache_dir
from repro.network import INTERNET_PARAMS

from .test_app_instance_tables import BUILDERS, DRAWS, SCALED


def _grid_specs():
    """A small mixed grid: water + tsp on {1, 2} clusters."""
    return [
        RunSpec(app, variant, c, 2, small_params(app))
        for app in ("water", "tsp")
        for variant in ("original", "optimized")
        for c in (1, 2)
    ]


def _same_results(a, b):
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert ra.elapsed == rb.elapsed          # bit-identical, not approx
        assert ra.traffic == rb.traffic
        assert pickle.dumps(ra.answer) == pickle.dumps(rb.answer)


# ------------------------------------------------------------ spec/key


def test_spec_key_is_stable_and_content_sensitive():
    spec = RunSpec("water", "original", 1, 2, small_params("water"))
    same = RunSpec("water", "original", 1, 2, small_params("water"))
    assert spec.key() == same.key()
    assert spec.key() != RunSpec("water", "optimized", 1, 2,
                                 small_params("water")).key()
    assert spec.key() != RunSpec("water", "original", 2, 2,
                                 small_params("water")).key()
    # Problem parameters and network parameters are part of the key.
    bigger = small_params("water").with_(n_molecules=128)
    assert spec.key() != RunSpec("water", "original", 1, 2, bigger).key()
    assert spec.key() != RunSpec("water", "original", 1, 2,
                                 small_params("water"),
                                 network=INTERNET_PARAMS).key()


def test_spec_rejects_unknown_app():
    with pytest.raises(ValueError, match="unknown application"):
        RunSpec("nope", "original", 1, 1, None)


def test_spec_execute_matches_run_app():
    from repro.apps import make_app
    from repro.harness import run_app

    spec = RunSpec("tsp", "original", 2, 2, small_params("tsp"))
    direct = run_app(make_app("tsp"), "original", 2, 2, small_params("tsp"))
    via_spec = spec.execute()
    _same_results([direct], [via_spec])


# ------------------------------------------- determinism under parallelism


def test_parallel_matches_serial_bit_identical():
    specs = _grid_specs()
    serial = ParallelRunner(jobs=1).run(specs)
    parallel = ParallelRunner(jobs=4).run(specs)
    _same_results(serial, parallel)


def test_warm_cache_returns_identical_results(tmp_path):
    specs = _grid_specs()
    cache = ResultCache(str(tmp_path / "c"))
    cold_runner = ParallelRunner(jobs=1, cache=cache)
    cold = cold_runner.run(specs)
    assert cold_runner.hits == 0
    assert cold_runner.computed == len(specs)

    warm_runner = ParallelRunner(jobs=4, cache=cache)
    warm = warm_runner.run(specs)
    assert warm_runner.hits == len(specs)
    assert warm_runner.computed == 0
    _same_results(cold, warm)


def test_duplicate_specs_computed_once():
    spec = RunSpec("tsp", "original", 1, 2, small_params("tsp"))
    runner = ParallelRunner(jobs=1)
    results = runner.run([spec, spec, spec])
    assert runner.computed == 1
    _same_results(results[:1], results[1:2])
    _same_results(results[:1], results[2:])


def _chunked_grid():
    """17 distinct tiny points: on two workers the runner dispatches
    them two per round-trip (``17 // (4 * 2)``), with an odd one out."""
    specs = [RunSpec(app, variant, c, n, small_params(app))
             for app in ("water", "tsp", "atpg")
             for variant in ("original", "optimized")
             for c in (1, 2) for n in (1, 2)][:17]
    assert len({spec.key() for spec in specs}) == 17
    return specs


def test_batched_pool_matches_serial_bit_identical(monkeypatch):
    """Several points per dispatch changes IPC, never results."""
    from concurrent.futures import ProcessPoolExecutor

    chunks = []
    real_map = ProcessPoolExecutor.map

    def spy(self, fn, *iterables, timeout=None, chunksize=1):
        chunks.append(chunksize)
        return real_map(self, fn, *iterables, timeout=timeout,
                        chunksize=chunksize)

    monkeypatch.setattr(ProcessPoolExecutor, "map", spy)
    specs = _chunked_grid()
    serial = ParallelRunner(jobs=1).run(specs)
    chunked = ParallelRunner(jobs=2).run(specs)
    assert chunks == [2]          # the serial runner never built a pool
    _same_results(serial, chunked)
    for spec, res in zip(specs, chunked):
        assert (res.app, res.variant, res.n_clusters) == \
            (spec.app, spec.variant, spec.n_clusters)
    # Small grids (<= 4 dispatches per worker) stay one point each.
    ParallelRunner(jobs=2).run(specs[:8])
    assert chunks == [2, 1]


def test_batched_sweep_points_still_per_point():
    specs = _chunked_grid()
    runner = ParallelRunner(jobs=2)
    runner.run(specs)
    assert len(runner.point_records) == len(specs)
    assert all(r.kind == "sweep.point" and r.detail["host_s"] > 0
               for r in runner.point_records)


def test_results_come_back_in_spec_order():
    specs = _grid_specs()
    results = ParallelRunner(jobs=2).run(specs)
    for spec, res in zip(specs, results):
        assert (res.app, res.variant, res.n_clusters) == \
            (spec.app, spec.variant, spec.n_clusters)


# -------------------------------------------------------------- cache


def test_cache_corrupt_entry_is_a_miss(tmp_path):
    cache = ResultCache(str(tmp_path))
    spec = RunSpec("tsp", "original", 1, 2, small_params("tsp"))
    key = spec.key()
    assert cache.get(key) is None
    path = cache._path(key)
    import os
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(b"not a pickle")
    assert cache.get(key) is None
    # A put repairs the entry.
    result = spec.execute()
    cache.put(key, result)
    _same_results([cache.get(key)], [result])


@pytest.fixture(scope="module")
def cached_entry(tmp_path_factory):
    """(cache, key, result, entry bytes) of one small real entry."""
    cache = ResultCache(str(tmp_path_factory.mktemp("entry")))
    spec = RunSpec("tsp", "original", 2, 2, small_params("tsp"))
    result = spec.execute()
    cache.put(spec.key(), result)
    with open(cache._path(spec.key()), "rb") as fh:
        return cache, spec.key(), result, fh.read()


def _damaged_reads(cached_entry, damaged):
    """``get`` after each of ``damaged``'s byte strings replaced the
    entry: it may only miss or return the original — it never raises
    (the test would error) and never returns anything else."""
    cache, key, result, blob = cached_entry
    path = cache._path(key)
    try:
        for bad in damaged:
            with open(path, "wb") as fh:
                fh.write(bad)
            got = cache.get(key)
            if got is not None:
                _same_results([got], [result])
                assert got.stats == result.stats
            yield got
    finally:
        with open(path, "wb") as fh:
            fh.write(blob)


@pytest.mark.parametrize("bit", range(8))
def test_cache_entry_with_any_single_bit_flipped_is_a_miss(cached_entry, bit):
    blob = cached_entry[3]
    flipped = (blob[:i] + bytes([blob[i] ^ (1 << bit)]) + blob[i + 1:]
               for i in range(len(blob)))
    assert all(got is None for got in _damaged_reads(cached_entry, flipped))


def test_cache_entry_truncated_at_any_length_is_a_miss(cached_entry):
    blob = cached_entry[3]
    cut = (blob[:n] for n in range(len(blob)))
    assert all(got is None for got in _damaged_reads(cached_entry, cut))


def test_cache_entry_that_is_not_a_result_is_a_miss(cached_entry):
    """A well-formed entry (valid trailer) holding some other object, and
    a bare pickle without a trailer (what schema "3" wrote)."""
    import hashlib

    cache, key, result, _blob = cached_entry
    foreign = pickle.dumps({"elapsed": 1.0})
    bare = pickle.dumps(result)
    damaged = [foreign + hashlib.sha256(foreign).digest(), bare, b""]
    assert list(_damaged_reads(cached_entry, damaged)) == [None] * 3
    # The next put restores the entry, and code that reads it with a
    # plain pickle.load from offset 0 (benchmarks/e2e does) still can.
    cache.put(key, result)
    _same_results([cache.get(key)], [result])
    with open(cache._path(key), "rb") as fh:
        _same_results([pickle.load(fh)], [result])


def test_cache_clear(tmp_path):
    cache = ResultCache(str(tmp_path))
    spec = RunSpec("tsp", "original", 1, 2, small_params("tsp"))
    cache.put(spec.key(), spec.execute())
    # What a writer killed between mkstemp and rename leaves behind.
    orphan = tmp_path / spec.key()[:2] / "tmpkilled.tmp"
    orphan.write_bytes(b"half an entry")
    assert cache.clear() == 1
    assert not orphan.exists()
    assert cache.get(spec.key()) is None
    assert cache.clear() == 0


def test_default_jobs_env(monkeypatch, capsys):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert default_jobs() == 1
    assert capsys.readouterr().err == ""
    monkeypatch.setenv("REPRO_JOBS", "6")
    assert default_jobs() == 6
    assert ParallelRunner().jobs == 6
    assert capsys.readouterr().err == ""
    monkeypatch.setenv("REPRO_JOBS", "junk")
    assert default_jobs() == 1
    err = capsys.readouterr().err
    assert "unparsable" in err and "junk" in err and "REPRO_JOBS" in err


def test_default_jobs_clamps_nonpositive(monkeypatch, capsys):
    # Parsable but nonsensical values clamp silently to serial.
    for raw in ("0", "-3"):
        monkeypatch.setenv("REPRO_JOBS", raw)
        assert default_jobs() == 1
    assert capsys.readouterr().err == ""


def test_default_cache_dir_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "x"))
    assert default_cache_dir() == str(tmp_path / "x")
    assert ResultCache().root == str(tmp_path / "x")


# ------------------------------------------------------- traced sweeps


def test_trace_spec_is_excluded_from_the_cache_key():
    from repro.sim import TraceSpec

    plain = RunSpec("tsp", "original", 1, 2, small_params("tsp"))
    traced = RunSpec("tsp", "original", 1, 2, small_params("tsp"),
                     trace=TraceSpec(ring=100))
    assert plain.key() == traced.key()


def test_traced_sweep_is_bit_identical_and_carries_records():
    from repro.sim import TraceSpec

    specs = [RunSpec("tsp", "original", c, 2, small_params("tsp"))
             for c in (1, 2)]
    plain = ParallelRunner(jobs=1).run(specs)
    traced = ParallelRunner(jobs=2, trace=TraceSpec(ring=5000)).run(specs)
    _same_results(plain, traced)
    for res in plain:
        assert res.trace_records is None
    for res in traced:
        assert res.trace_records and len(res.trace_records) <= 5000


def test_traced_specs_bypass_the_cache_both_ways(tmp_path):
    from repro.sim import TraceSpec

    cache = ResultCache(str(tmp_path / "c"))
    specs = [RunSpec("tsp", "original", 1, 2, small_params("tsp"))]
    ParallelRunner(jobs=1, cache=cache).run(specs)  # warm the cache

    traced = ParallelRunner(jobs=1, cache=cache,
                            trace=TraceSpec(sample=(("msg.send", 4),)))
    results = traced.run(specs)
    assert traced.hits == 0          # a cached result has no records
    assert traced.computed == 1
    assert results[0].trace_records

    # ... and the traced result was not written back: the cached entry
    # stays slim.
    cached = cache.get(specs[0].key())
    assert getattr(cached, "trace_records", None) is None


def test_trace_dir_exports_perfetto_and_strips_records(tmp_path):
    import json

    from repro.sim import TraceSpec

    out = tmp_path / "traces"
    runner = ParallelRunner(jobs=2, trace=TraceSpec(ring=2000),
                            trace_dir=str(out))
    specs = [RunSpec("tsp", "original", c, 2, small_params("tsp"))
             for c in (1, 2)]
    results = runner.run(specs)
    assert len(runner.trace_files) == 2
    for path, spec in zip(runner.trace_files, specs):
        assert f"{spec.app}-{spec.variant}-{spec.n_clusters}x" in path
        with open(path, encoding="utf-8") as fh:
            trace = json.load(fh)
        assert trace["traceEvents"]
    # Records were dropped after export: big sweeps never hold them all.
    assert all(res.trace_records is None for res in results)


# ------------------------------------------------- harness integration


def test_speedup_curve_through_runner_matches_direct(tmp_path):
    from repro.apps import make_app

    app = make_app("tsp")
    params = small_params("tsp")
    cache = ResultCache(str(tmp_path / "c"))
    direct = speedup_curve(app, "original", params,
                           cluster_counts=(1, 2), cpu_counts=(2, 4))
    runner = ParallelRunner(jobs=3, cache=cache)
    cached = speedup_curve(app, "original", params,
                           cluster_counts=(1, 2), cpu_counts=(2, 4),
                           runner=runner)
    for c in (1, 2):
        assert [p.n_cpus for p in direct[c]] == [p.n_cpus for p in cached[c]]
        for pd, pc in zip(direct[c], cached[c]):
            assert pd.elapsed == pc.elapsed
            assert pd.speedup == pc.speedup


def test_speedup_curve_baseline_cached_across_calls(tmp_path):
    """The 1x1 baseline is computed once and then served from the cache
    when callers loop variants/figures over the same app."""
    from repro.apps import make_app

    app = make_app("tsp")
    params = small_params("tsp")
    cache = ResultCache(str(tmp_path / "c"))
    r1 = ParallelRunner(jobs=1, cache=cache)
    speedup_curve(app, "original", params, cluster_counts=(1,),
                  cpu_counts=(2,), runner=r1)
    n_first = r1.computed  # grid point + baseline
    assert n_first == 2
    r2 = ParallelRunner(jobs=1, cache=cache)
    speedup_curve(app, "original", params, cluster_counts=(2,),
                  cpu_counts=(2,), runner=r2)
    # The baseline came from the cache; only the new grid point ran.
    assert r2.computed == 1
    assert r2.hits == 1


def test_speedup_curve_unregistered_app_falls_back_serial():
    """Custom Application subclasses outside the registry still work."""
    from repro.apps import make_app

    app = make_app("tsp")
    app.name = "my-custom-tsp"  # not in the registry
    curves = speedup_curve(app, "original", small_params("tsp"),
                           cluster_counts=(1,), cpu_counts=(2,))
    assert curves[1][0].elapsed > 0


def test_figure15_bars_single_matches_batched(tmp_path, monkeypatch):
    """One app's bars cut out of a several-app flat batch are the bars
    of that app run alone."""
    import repro.harness.figures as figures

    # Shrink the bar grid's problem size: the real bench_params sizes
    # take minutes at 60 nodes, and the equality under test is about
    # batching, not the problem size.
    monkeypatch.setattr(figures, "bench_params",
                        lambda name: small_params(name))
    cache = ResultCache(str(tmp_path / "c"))
    many = figure15_bars_many(["atpg", "tsp"],
                              runner=ParallelRunner(jobs=2, cache=cache))
    single = figure15_bars_many(["tsp"], runner=ParallelRunner(jobs=1))
    assert many["tsp"] == single["tsp"]


def test_figure_curves_accepts_runner_and_cache(tmp_path):
    cache = ResultCache(str(tmp_path / "c"))
    runner = ParallelRunner(jobs=2, cache=cache)
    curves = figure_curves("fig7", cpu_counts=(4,), cluster_counts=(1,),
                           runner=runner)
    again = figure_curves("fig7", cpu_counts=(4,), cluster_counts=(1,),
                          runner=ParallelRunner(jobs=1, cache=cache))
    assert curves[1][0].elapsed == again[1][0].elapsed
    assert curves[1][0].speedup == again[1][0].speedup


# ------------------------------------------------------------------ CLI


def test_cli_jobs_and_cache_flags(tmp_path, monkeypatch, capsys):
    from repro.__main__ import main

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "clicache"))
    assert main(["figure", "fig7", "--cpus", "4", "--jobs", "2"]) == 0
    cold = capsys.readouterr().out
    assert "fig7" in cold
    assert main(["figure", "fig7", "--cpus", "4", "--jobs", "2"]) == 0
    warm = capsys.readouterr().out
    assert warm == cold  # warm-cache output identical

    assert main(["cache"]) == 0
    info = capsys.readouterr().out
    assert "clicache" in info
    assert main(["cache", "clear"]) == 0
    cleared = capsys.readouterr().out
    assert "removed" in cleared


def test_cli_no_cache_flag(tmp_path, monkeypatch, capsys):
    from repro.__main__ import main

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "clicache"))
    assert main(["figure", "fig7", "--cpus", "4", "--no-cache"]) == 0
    capsys.readouterr()
    assert main(["cache"]) == 0
    assert "(0 results)" in capsys.readouterr().out


def test_cli_trace_flags_require_trace_dir(capsys):
    from repro.__main__ import main

    assert main(["figure", "fig7", "--cpus", "4", "--no-cache",
                 "--trace-ring", "100"]) == 2
    assert "--trace-dir" in capsys.readouterr().err
    assert main(["figure", "fig7", "--cpus", "4", "--no-cache",
                 "--trace-sample", "msg.send=4"]) == 2
    assert "--trace-dir" in capsys.readouterr().err
    # Unknown kinds and bad counts are rejected before any run starts.
    assert main(["figure", "fig7", "--cpus", "4", "--no-cache",
                 "--trace-dir", "x", "--trace-sample", "bogus.kind=4"]) == 2
    assert "bogus.kind" in capsys.readouterr().err
    assert main(["figure", "fig7", "--cpus", "4", "--no-cache",
                 "--trace-dir", "x", "--trace-sample", "msg.send=0"]) == 2
    assert "must be >= 1" in capsys.readouterr().err


def test_cli_figure_with_trace_dir(tmp_path, capsys):
    import json

    from repro.__main__ import main

    out = tmp_path / "traces"
    assert main(["figure", "fig7", "--cpus", "4", "--no-cache",
                 "--trace-dir", str(out), "--trace-ring", "5000",
                 "--trace-sample", "msg.send=8"]) == 0
    err = capsys.readouterr().err
    assert "Perfetto" in err
    files = sorted(out.glob("*.trace.json"))
    assert files
    with open(files[0], encoding="utf-8") as fh:
        assert json.load(fh)["traceEvents"]


# ------------------------------------------------------- sweep.point

def test_sweep_point_records_and_stragglers(tmp_path):
    from repro.harness import format_stragglers
    from repro.obs.schema import validate_records

    cache = ResultCache(str(tmp_path / "points-cache"))
    specs = _grid_specs()
    runner = ParallelRunner(jobs=1, cache=cache)
    runner.run(specs)
    points = runner.point_records
    assert len(points) == len(specs)
    assert not validate_records(points)  # the host-side kind is in-schema
    assert all(r.kind == "sweep.point" and not r.detail["cached"]
               for r in points)
    text = format_stragglers(points)
    assert f"{len(specs)} points" in text and "0 cached" in text
    assert "x2" in text  # at least one "{app}/{variant} CxN" line

    warm = ParallelRunner(jobs=1, cache=cache)
    warm.run(specs)
    assert all(r.detail["cached"] for r in warm.point_records)
    assert f"{len(specs)} cached" in format_stragglers(warm.point_records)


def test_sweep_points_recorded_under_pool():
    specs = [RunSpec("tsp", "original", c, 2, small_params("tsp"))
             for c in (1, 2)]
    runner = ParallelRunner(jobs=2)
    runner.run(specs)
    assert len(runner.point_records) == len(specs)
    assert all(r.detail["host_s"] > 0 for r in runner.point_records)


# ---------------------------------------- instances built before the fork


@pytest.fixture
def job_draws(tmp_path, monkeypatch):
    """Cold instance memos, and the per-job ``substream`` of the three
    synthetic domains wrapped so that every call — in this process or a
    forked pool worker — logs ``(pid, label)``; returns the log reader."""
    from repro.apps.atpg import circuit
    from repro.apps.ida import puzzle
    from repro.apps.tsp import problem
    from repro.sim.rng import substream

    log = tmp_path / "draws.log"
    log.touch()

    def logged(seed, label):
        if label.startswith(("tsp.job.", "atpg.gate.", "ida.job.")):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {label}\n")
        return substream(seed, label)

    def read():
        lines = log.read_text().splitlines()
        return [(int(pid), label)
                for pid, label in (line.split(" ", 1) for line in lines)]

    for mod in (problem, circuit, puzzle):
        monkeypatch.setattr(mod, "substream", logged)
    for builder, _ in BUILDERS.values():
        builder.cache_clear()
    yield read
    for builder, _ in BUILDERS.values():
        builder.cache_clear()


def test_pool_workers_inherit_the_instances_the_parent_built(job_draws):
    specs = [RunSpec(app, variant, 2, 3, SCALED[app])
             for app in sorted(SCALED) for variant in ("original", "optimized")]
    pooled = ParallelRunner(jobs=2).run(specs)
    draws = job_draws()
    # Every per-job draw happened in the parent, once per job of each
    # instance; the workers drew nothing.
    assert {pid for pid, _ in draws} == {os.getpid()}
    assert len({label for _, label in draws}) == len(draws)
    assert Counter(label.split(".")[0] for _, label in draws) == DRAWS
    for builder, _ in BUILDERS.values():
        builder.cache_clear()
    serial = ParallelRunner(jobs=1).run(specs)
    assert [pickle.dumps(r) for r in pooled] == \
        [pickle.dumps(r) for r in serial]


def test_pool_past_the_memo_bound_builds_no_instance_ahead(job_draws):
    specs = [RunSpec("tsp", "original", 2, 3, SCALED["tsp"].with_(seed=s))
             for s in range(INSTANCE_MEMO + 1)]
    ParallelRunner(jobs=2).run(specs)
    pids = {pid for pid, _ in job_draws()}
    assert pids and os.getpid() not in pids


# ------------------------------------------------------- host faults
#
# Each fault runs a sweep in a child process of its own process group,
# so a hang fails the test after a timeout instead of hanging it, and
# any process the sweep leaves behind is found (and killed) as a member
# of that group.

_SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


def _start(args, cache_dir, sigint=signal.SIG_DFL):
    """Python with ``args`` in a process group of its own, SIGINT's
    disposition ``sigint`` however this process was started (a
    background job inherits SIGINT ignored)."""
    env = dict(os.environ, REPRO_CACHE_DIR=str(cache_dir))
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen([sys.executable, *args], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True,
                            preexec_fn=lambda: signal.signal(signal.SIGINT,
                                                             sigint))


def _finish(proc, timeout=10.0):
    """``proc``'s (exit code, stdout, stderr) within ``timeout`` seconds;
    fails if it takes longer or leaves a process of its group alive."""
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"still running {timeout} s after the fault")
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return proc.returncode, out, err
    pytest.fail("a process of the sweep outlived it")


def _wait_for(found, proc, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not found():
        if proc.poll() is not None or time.monotonic() > deadline:
            os.killpg(proc.pid, signal.SIGKILL)
            pytest.fail(f"never got there: {proc.communicate()}")
        time.sleep(0.01)
    return found()


def _children(pid):
    """The pids whose parent is ``pid``."""
    kids = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{entry}/stat") as fh:
                # "pid (comm) state ppid ...": comm may hold spaces.
                ppid = fh.read().rpartition(")")[2].split()[1]
        except OSError:  # exited meanwhile
            continue
        if int(ppid) == pid:
            kids.append(int(entry))
    return kids


def _intact_entries(root):
    """How many entries ``root`` holds; every one must read back, and no
    write may be left half done."""
    assert not list(root.rglob("*.tmp"))
    entries = list(root.rglob("*.pkl"))
    cache = ResultCache(str(root))
    assert all(cache.get(path.stem) is not None for path in entries)
    return len(entries)


_KILLED_WORKER_SWEEP = """
from concurrent.futures.process import BrokenProcessPool
from repro.harness import ParallelRunner, ResultCache, RunSpec, bench_params

specs = [RunSpec("ra", variant, c, n, bench_params("ra"))
         for variant in ("original", "optimized")
         for c in (1, 2) for n in (2, 4)]
try:
    ParallelRunner(jobs=2, cache=ResultCache()).run(specs)
except BrokenProcessPool:
    print("BrokenProcessPool")
"""


@pytest.mark.skipif(not os.path.isdir("/proc"),
                    reason="finds the pool workers through /proc")
def test_killed_pool_worker_is_a_typed_error_not_a_hang(tmp_path):
    proc = _start(["-c", _KILLED_WORKER_SWEEP], tmp_path)
    workers = _wait_for(lambda: _children(proc.pid), proc)
    time.sleep(0.3)  # each worker is now inside its first ~0.6 s point
    os.kill(workers[0], signal.SIGKILL)
    code, out, err = _finish(proc)
    assert (code, out) == (0, "BrokenProcessPool\n"), err
    _intact_entries(tmp_path)


def test_ctrl_c_mid_sweep_exits_130_and_keeps_finished_points(tmp_path):
    argv = ["-m", "repro", "figure", "fig9", "--cpus", "4", "--jobs", "2"]
    cache = tmp_path / "cache"
    proc = _start(argv, cache)
    _wait_for(lambda: list(cache.rglob("*.pkl")), proc)
    os.killpg(proc.pid, signal.SIGINT)
    code, out, err = _finish(proc)
    assert (code, out, err) == (130, "", "repro: interrupted\n")
    kept = _intact_entries(cache)

    code, rerun, err = _finish(_start(argv, cache), timeout=60.0)
    assert code == 0, err
    hits = re.search(r"\((\d+) cached, \d+ simulated\)", err)
    assert hits and int(hits[1]) >= kept, err
    code, cold, err = _finish(_start(argv + ["--no-cache"], cache),
                              timeout=60.0)
    assert code == 0, err
    assert rerun == cold


def test_sweep_that_ignores_sigint_keeps_its_workers_through_one(tmp_path):
    """A sweep started with SIGINT ignored, as a background job is,
    gives its pool workers the same immunity: a SIGINT to its whole
    process group ends nothing, and the sweep prints what a cold run
    prints."""
    argv = ["-m", "repro", "figure", "fig9", "--cpus", "4", "--jobs", "2"]
    cache = tmp_path / "cache"
    proc = _start(argv, cache, sigint=signal.SIG_IGN)
    _wait_for(lambda: list(cache.rglob("*.pkl")), proc)
    os.killpg(proc.pid, signal.SIGINT)
    code, out, err = _finish(proc, timeout=60.0)
    assert code == 0, err
    code, cold, err = _finish(_start(argv + ["--no-cache"], cache),
                              timeout=60.0)
    assert code == 0, err
    assert out == cold
