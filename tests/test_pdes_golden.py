"""PDES golden parity: partitioned runs vs the single-process oracle.

The partitioned engine (:mod:`repro.sim.pdes`) must be *invisible* in
the results: same elapsed virtual time, same answers, same app stats,
same traffic totals, and the same trace records (merged across
partitions and order-normalized — partitions interleave concurrently,
so only the sorted record multiset is comparable, exactly like the
``order-normalized`` contract in the broadcast golden suites).

Every paper app runs through ``pdes="on"``: PDES-capable apps (SOR,
RA — pure message-passing) actually partition; the rest exercise the
transparent single-process fallback, which must be bit-identical by
construction.  One known, bounded caveat is pinned by its own test:
under impairments, two messages from *different* partitions can land
on the same float instant at one gateway, and the serial engine breaks
that FIFO tie by global heap insertion order — unreconstructible from
inside any partition.  Aggregates stay bit-identical; only the
per-message queueing attribution inside the tied instant may swap.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.apps import PAPER_ORDER, make_app, small_params
from repro.apps.ra import RAParams
from repro.apps.sor import SORParams
from repro.harness.experiment import run_app
from repro.scenario import Fault, Impairment, Scenario
from repro.sim import SimulationError, Tracer
from repro.sim.pdes import APP_ADAPTERS

TOPOLOGIES = [(1, 4), (2, 3), (4, 2)]

#: The partitioned-capable subset (pure message-passing/RPC apps).
PDES_APPS = [name for name in PAPER_ORDER if name in APP_ADAPTERS]

#: Process-lifecycle records differ by construction: each partition
#: spawns only its own nodes' processes.
PROCESS_KINDS = ("proc.",)


def _eq(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_eq(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_eq(x, y) for x, y in zip(a, b))
    return a == b


def _norm(records):
    """Order-normalized trace multiset (partitions interleave freely)."""
    return sorted(
        (r.time, r.kind, tuple(sorted((k, repr(v))
                               for k, v in r.detail.items())))
        for r in records if not r.kind.startswith(PROCESS_KINDS))


def _pair(app_name, variant, n_clusters, per, *, scenario=None,
          workers=None, params=None, kinds=None):
    """Run serial and partitioned; return both results and norm traces."""
    params = params if params is not None else small_params(app_name)
    ts, tp = Tracer(kinds=kinds), Tracer(kinds=kinds)
    serial = run_app(make_app(app_name), variant, n_clusters, per, params,
                     tracer=ts, scenario=scenario, pdes="off")
    pdes = run_app(make_app(app_name), variant, n_clusters, per, params,
                   tracer=tp, scenario=scenario, pdes="on",
                   pdes_workers=workers or min(n_clusters, 4))
    return serial, pdes, _norm(ts.records), _norm(tp.records)


def _assert_parity(serial, pdes, ns, npd, label, traces=True):
    assert serial.elapsed == pdes.elapsed, label
    assert _eq(serial.answer, pdes.answer), label
    assert serial.stats == pdes.stats, label
    assert serial.traffic == pdes.traffic, label
    if traces:
        assert ns == npd, label


@pytest.mark.parametrize("app_name", PAPER_ORDER)
def test_pdes_parity_all_apps(app_name, capsys):
    """Every app x topology: identical results (partitioned or fallback)."""
    app = make_app(app_name)
    variant = app.variants[0]
    for n_clusters, per in TOPOLOGIES:
        serial, pdes, ns, npd = _pair(app_name, variant, n_clusters, per)
        _assert_parity(serial, pdes, ns, npd,
                       f"{app_name}/{variant} {n_clusters}x{per}")
        partitioned = pdes.sim_stats.get("pdes_partitions", 0) > 0
        if app.name in APP_ADAPTERS and n_clusters >= 2:
            assert partitioned, f"{app_name} {n_clusters}x{per} fell back"
        else:
            assert not partitioned
            # Forced-on fallback is loud, never silent.
            assert "cannot be partitioned" in capsys.readouterr().err


@pytest.mark.parametrize("app_name", PDES_APPS)
def test_pdes_parity_all_variants(app_name):
    """Capable apps, every variant (the serial side of each of these
    cells is pinned by the golden manifest)."""
    for variant in make_app(app_name).variants:
        serial, pdes, ns, npd = _pair(app_name, variant, 2, 3)
        _assert_parity(serial, pdes, ns, npd,
                       f"{app_name}/{variant} 2x3")
        assert pdes.sim_stats.get("pdes_partitions", 0) == 2


_RA_400 = RAParams.small(n_positions=400)
_RA_600 = RAParams.small()
_RA_6000 = RAParams.paper().with_(n_positions=6000)
_SOR_40 = SORParams.small()
_SOR_24 = SORParams.small(n_rows=24, n_cols=16).with_(n_iterations=20)
_SOR_64 = SORParams.small(n_rows=64, n_cols=24).with_(n_iterations=30)
_SOR_64P = SORParams.small(n_rows=64, n_cols=24,
                           precision=5e-4).with_(n_iterations=800)
_SOR_240 = SORParams.paper().with_(n_rows=240, n_cols=120, n_iterations=30)

#: Every partitioned run the app suites (``test_app_sor``,
#: ``test_app_ra``, ``test_integration_stack``, ``test_harness``) make
#: when forced through ``pdes="on"``, with the suites' own params,
#: unless a matrix above already makes it.  Those suites pin the serial
#: side, so parity here carries their expectations to the partitioned
#: engine.
SUITE_CELLS = [
    ("ra", "original", 2, 2, _RA_400),
    ("ra", "original", 2, 2, _RA_600),
    ("ra", "original", 2, 3, _RA_6000),
    ("ra", "original", 4, 1, _RA_600),
    ("ra", "original", 4, 2, _RA_400),
    ("ra", "original", 4, 2, _RA_6000),
    ("ra", "optimized", 2, 2, _RA_400),
    ("ra", "optimized", 2, 3, _RA_6000),
    ("ra", "optimized", 4, 2, _RA_400),
    ("ra", "optimized", 4, 2, _RA_6000),
    ("sor", "original", 2, 2, _SOR_40),
    ("sor", "original", 2, 3, _SOR_24),
    ("sor", "original", 4, 1, _SOR_40),
    ("sor", "original", 4, 2, _SOR_24),
    ("sor", "original", 4, 4, _SOR_64),
    ("sor", "original", 4, 4, _SOR_64P),
    ("sor", "original", 4, 4, _SOR_240),
    ("sor", "optimized", 4, 4, _SOR_64),
    ("sor", "optimized", 4, 4, _SOR_64P),
    ("sor", "optimized", 4, 4, _SOR_240),
    ("sor", "splitphase", 2, 3, _SOR_24),
    ("sor", "splitphase", 4, 2, _SOR_24),
    ("sor", "splitphase", 4, 4, _SOR_240),
]

#: Cells where two WAN messages from different partitions reach one
#: gateway at the same float instant without any impairment: the
#: serial FIFO tie order there is the caveat of
#: ``test_pdes_impaired_degenerate_tie_aggregates``, so only the
#: attribution (``msg_id``/``src``) of the tied records may swap.
TIED_CELLS = {("sor", "original", 4, 1), ("sor", "splitphase", 4, 2),
              ("sor", "splitphase", 4, 4)}


def _unattributed(norm):
    """``norm`` with the fields that name which message a record is
    about dropped: what a same-instant tie may not change."""
    return sorted((t, kind, tuple(kv for kv in detail
                                  if kv[0] not in ("msg_id", "src")))
                  for t, kind, detail in norm)


@pytest.mark.parametrize(
    "app_name,variant,n_clusters,per,params", SUITE_CELLS,
    ids=[f"{a}-{v}-{c}x{n}-{p.n_positions if a == 'ra' else p.n_rows}"
         + ("p" if getattr(p, "precision", None) else "")
         for a, v, c, n, p in SUITE_CELLS])
def test_pdes_parity_app_suite_cells(app_name, variant, n_clusters, per,
                                     params):
    serial, pdes, ns, npd = _pair(app_name, variant, n_clusters, per,
                                  params=params)
    tied = (app_name, variant, n_clusters, per) in TIED_CELLS
    _assert_parity(serial, pdes, ns, npd,
                   f"{app_name}/{variant} {n_clusters}x{per} {params}",
                   traces=not tied)
    if tied:
        assert ns != npd  # a cell that stops tying leaves this set
        assert _unattributed(ns) == _unattributed(npd)
    assert pdes.sim_stats["pdes_partitions"] == min(n_clusters, 4)


def test_pdes_parity_scenario_impaired():
    """An impaired cell (loss retries + timing shifts) stays bit-exact."""
    scen = Scenario(seed=3, impairments=(Impairment.of("loss", p=0.05),))
    serial, pdes, ns, npd = _pair("sor", "original", 2, 3, scenario=scen)
    _assert_parity(serial, pdes, ns, npd, "sor loss 2x3")
    assert pdes.sim_stats.get("pdes_partitions", 0) == 2


def test_pdes_parity_scenario_jitter_zero_lookahead():
    """Jitter can shrink WAN latency below nominal: lookahead drops to 0
    and the protocol degrades to near-lockstep — still bit-exact."""
    scen = Scenario(seed=5, impairments=(Impairment.of("jitter", sigma=0.2),))
    serial, pdes, ns, npd = _pair("sor", "splitphase", 2, 3, scenario=scen)
    _assert_parity(serial, pdes, ns, npd, "sor jitter 2x3")


def test_pdes_impaired_degenerate_tie_aggregates():
    """The documented caveat, pinned: impairments can collapse two
    cross-partition arrivals onto one float instant at a gateway, where
    the serial FIFO tie order is an artifact of global heap insertion.
    Aggregates must still be bit-identical; the trace multiset may only
    differ by attribution *within* tied instants (same record times)."""
    scen = Scenario(seed=3, impairments=(Impairment.of("loss", p=0.05),))
    serial, pdes, ns, npd = _pair("sor", "original", 4, 2, scenario=scen,
                                  workers=4)
    _assert_parity(serial, pdes, ns, npd, "sor loss 4x2", traces=False)
    assert [r[0] for r in ns] == [r[0] for r in npd]  # same time profile
    assert [r[1] for r in ns] == [r[1] for r in npd]  # same kind profile


def test_pdes_stats_aggregation():
    """Merged sim_stats cover all partitions plus the pdes counters."""
    serial, pdes, _ns, _npd = _pair("sor", "original", 4, 2)
    for key in ("events_processed", "spawns"):
        assert pdes.sim_stats[key] > serial.sim_stats[key] // 2
    ss = pdes.sim_stats
    assert ss["pdes_partitions"] == 4
    assert ss["pdes_epochs"] > 0
    assert ss["pdes_cross_messages"] > 0
    assert ss["pdes_acks"] > 0
    assert ss["pdes_blocked_s"] >= 0.0
    # Fast-lane accounting: every epoch costs at most one round-trip
    # per partition; quiescence coalescing elides the rest; the pickled
    # blocks all flow through the counted pipes.
    assert 0 < ss["pdes_round_trips"] <= ss["pdes_epochs"] * 4
    assert ss["pdes_coalesced_round_trips"] \
        == ss["pdes_epochs"] * 4 - ss["pdes_round_trips"]
    assert ss["pdes_channel_bytes"] > 0
    assert ss["pdes_epoch_breaks"] >= 0


def test_pdes_summary_line():
    """The counters condense to the one-line ``repro app`` summary; the
    blocked host time is a line of its own, off that one."""
    from repro.sim.pdes import format_pdes_summary
    _serial, pdes, _ns, _npd = _pair("sor", "original", 2, 3)
    line, host_time = format_pdes_summary(pdes.sim_stats)
    assert line.startswith("pdes: 2 partitions,")
    assert "round-trips" in line and "coalesced" in line
    assert "blocked" not in line and "blocked" in host_time
    assert format_pdes_summary({"events_processed": 5}) is None


def test_pdes_pool_reuse_same_topology():
    """Consecutive runs of one topology reuse the forked worker pool
    (same PIDs, run counter advances); a different width re-forks."""
    from repro.sim.pdes import coordinator, shutdown_pool
    shutdown_pool()
    try:
        run_app(make_app("sor"), "original", 2, 3, small_params("sor"),
                pdes="on", pdes_workers=2)
        pool = coordinator._POOL
        assert pool is not None and pool.width == 2
        pids = [p.pid for p in pool.procs]
        runs = pool.runs
        run_app(make_app("sor"), "optimized", 2, 3, small_params("sor"),
                pdes="on", pdes_workers=2)
        assert coordinator._POOL is pool
        assert [p.pid for p in pool.procs] == pids
        assert pool.runs == runs + 1
        run_app(make_app("sor"), "original", 4, 2, small_params("sor"),
                pdes="on", pdes_workers=4)
        assert coordinator._POOL is not pool
        assert coordinator._POOL.width == 4
    finally:
        shutdown_pool()


def test_pdes_killed_worker_is_a_typed_error():
    """A pooled worker SIGKILLed mid-run ends that run in a typed error
    naming its partition, promptly; the pool is retired, and the next
    run forks a fresh one and still equals serial."""
    from repro.sim.pdes import coordinator, shutdown_pool
    sor, params = make_app("sor"), small_params("sor")
    shutdown_pool()
    try:
        run_app(sor, "original", 4, 4, params, pdes="on", pdes_workers=2)
        pool = coordinator._POOL
        victim = pool.procs[1]
        killed_at = []

        def kill():
            killed_at.append(time.perf_counter())
            os.kill(victim.pid, signal.SIGKILL)

        timer = threading.Timer(0.3, kill)
        timer.start()
        try:
            # ~3.5 s on 2 cores uninterrupted: the kill lands mid-epochs.
            with pytest.raises(SimulationError, match="partition 1 "):
                run_app(sor, "original", 4, 4,
                        params.with_(n_iterations=600), pdes="on",
                        pdes_workers=2)
            surfaced = time.perf_counter() - killed_at[0]
        finally:
            timer.cancel()
        assert surfaced < 2.0, surfaced
        assert coordinator._POOL is None

        serial = run_app(sor, "original", 4, 4, params, pdes="off")
        again = run_app(sor, "original", 4, 4, params, pdes="on",
                        pdes_workers=2)
        assert coordinator._POOL is not None \
            and coordinator._POOL is not pool
        assert again.elapsed == serial.elapsed
        assert _eq(again.answer, serial.answer)
        assert again.stats == serial.stats
    finally:
        shutdown_pool()


# ------------------------------------------------------------- fallback


def test_pdes_single_cluster_falls_back(capsys):
    res = run_app(make_app("sor"), "original", 1, 4, small_params("sor"),
                  pdes="on")
    assert "pdes_partitions" not in res.sim_stats
    assert "cannot be partitioned" in capsys.readouterr().err


def test_pdes_faults_ineligible(capsys):
    scen = Scenario(seed=1, faults=(
        Fault.of("slow_node", at=0.01, duration=0.01, target="n0"),))
    res = run_app(make_app("sor"), "original", 2, 3, small_params("sor"),
                  scenario=scen, pdes="on")
    assert "pdes_partitions" not in res.sim_stats
    assert "cannot be partitioned" in capsys.readouterr().err


#: Bounded tracers: both count emissions in one global order, which
#: same-instant records of different partitions do not have.
BOUNDED = {"ring": dict(ring=500),
           "sample": dict(sample={"msg.send": 4, "msg.deliver": 4})}


@pytest.mark.parametrize("bound", sorted(BOUNDED))
@pytest.mark.parametrize("app_name", ["ra", "sor"])
def test_pdes_bounded_tracer_falls_back_exactly(app_name, bound, capsys):
    """A ring- or sample-bounded tracer keeps a run single-process, with
    a warning, and records exactly what the serial run records."""
    def run(pdes):
        tracer = Tracer(**BOUNDED[bound])
        res = run_app(make_app(app_name), "optimized", 4, 2,
                      small_params(app_name), tracer=tracer, pdes=pdes,
                      pdes_workers=2)
        return res, list(tracer.records), tracer.dropped

    serial, s_records, s_dropped = run("off")
    assert not capsys.readouterr().err
    asked, p_records, p_dropped = run("on")
    err = capsys.readouterr().err
    assert "cannot be partitioned" in err and "bounded tracing" in err
    assert "pdes_partitions" not in asked.sim_stats
    assert serial.elapsed == asked.elapsed
    assert p_records == s_records
    assert p_dropped == s_dropped > 0


@pytest.mark.parametrize("app_name", ["ra", "sor"])
def test_pdes_kinds_only_tracer_still_partitions(app_name, capsys):
    """An unbounded tracer filtered by ``kinds`` still partitions, with
    record parity."""
    serial, pdes, ns, npd = _pair(
        app_name, "optimized", 4, 2, workers=2,
        kinds=frozenset({"msg.send", "msg.deliver", "wan.xfer"}))
    assert not capsys.readouterr().err
    assert pdes.sim_stats["pdes_partitions"] == 2
    _assert_parity(serial, pdes, ns, npd, f"{app_name} kinds-only")
    assert npd and {kind for _t, kind, _d in npd} <= {
        "msg.send", "msg.deliver", "wan.xfer"}


def test_pdes_worker_errors_keep_their_type():
    """An app error inside a partition worker surfaces as the same
    exception type the serial engine raises (not a wrapped pdes error)."""
    from repro.apps.sor.app import SORApp, SORParams
    params = SORParams.small(n_rows=4, n_cols=8)  # < one row per proc
    with pytest.raises(ValueError, match="one row per processor"):
        run_app(SORApp(), "original", 2, 3, params, pdes="on",
                pdes_workers=2)


def test_pdes_unknown_mode_raises():
    with pytest.raises(SimulationError, match="unknown pdes value"):
        run_app(make_app("sor"), "original", 2, 3, small_params("sor"),
                pdes="sideways")


# ------------------------------------------------------ engine tiers

_TIER_SNIPPET = """
import json, sys
from repro.apps import make_app, small_params
from repro.harness.experiment import run_app
from repro.sim import Tracer

tracer = Tracer()
res = run_app(make_app("sor"), "original", 2, 3, small_params("sor"),
              tracer=tracer, pdes={pdes!r}, pdes_workers=2)
norm = sorted((r.time, r.kind, tuple(sorted((k, repr(v))
              for k, v in r.detail.items())))
              for r in tracer.records if not r.kind.startswith("proc."))
print(json.dumps({{"elapsed": res.elapsed, "n": len(norm),
                   "digest": hash(tuple(map(str, norm))) & 0xffffffff}}))
"""


def _tier_run(engine, pdes):
    env = dict(os.environ, REPRO_ENGINE=engine,
               PYTHONHASHSEED="0")
    out = subprocess.run(
        [sys.executable, "-c", _TIER_SNIPPET.format(pdes=pdes)],
        capture_output=True, text=True, env=env, check=True)
    return json.loads(out.stdout)


@pytest.mark.parametrize("engine", ["python", "compiled"])
def test_pdes_parity_engine_tiers(engine):
    if engine == "compiled":
        from repro.sim._build import compiler_available
        if not compiler_available():
            pytest.skip("no C compiler: compiled tier unavailable")
    serial = _tier_run(engine, "off")
    pdes = _tier_run(engine, "on")
    assert serial == pdes
