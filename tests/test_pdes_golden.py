"""PDES against the golden manifest: the partitioned engine's own tests.

The partitioned engine (:mod:`repro.sim.pdes`) must be *invisible* in
the results.  Its oracle is the committed golden manifest, not a serial
rerun: ``tools/golden.py`` runs every cell the engine can partition
(SOR and RA on two clusters or more, impaired cells and the app suites'
own runs included) a second time with ``pdes="on"``, one cluster per
partition up to four, and holds it to the cell's fingerprint — elapsed
time, answer, app stats, traffic and the sorted trace-record multiset
— and ``tests/test_golden_manifest.py`` runs that check once per cell.
The cells where two partitions tie at one gateway instant, and the one
field such a tie may change, are named there too.

The ``test_pdes_parity_*`` tests below run four-cluster cells over two
or three partitions, so that several clusters share one partition and
their messages merge inside it, and hold each run to its cell by that
same check.  The rest of this file holds what is not a cell run one
cluster per partition: the fallback to the single-process engine of
every other app, of one cluster and of a bounded tracer (warned, and
matching its cell exactly), the merged counters, the run's own workers and
pipes, the epoch protocol's shape, the summary line, worker errors and
deaths, filtered tracers, and one cell checked under each engine tier
in a subprocess.  No test here reruns a serial twin.
"""

import multiprocessing as mp
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.apps import PAPER_ORDER, make_app, small_params
from repro.harness.experiment import run_app
from repro.network import DAS_PARAMS
from repro.scenario import Fault, Scenario
from repro.sim import SimulationError, Tracer
from repro.sim.pdes import APP_ADAPTERS, plan

from .test_golden_manifest import MANIFEST, REPO, golden

#: The apps no per-cluster cut can run (broadcast and sequencer traffic).
FALLBACK_APPS = [name for name in PAPER_ORDER if name not in APP_ADAPTERS]

#: The partitioned-capable subset (pure message-passing/RPC apps).
PDES_APPS = [name for name in PAPER_ORDER if name in APP_ADAPTERS]


def _check_partitioned(name, width=None):
    """One run of manifest cell ``name`` over ``width`` partitions (the
    manifest check's ``min(C, 4)`` by default), held to the cell."""
    run = golden._partitioned_run(name, width)
    assert golden._partitioned_problems(name, MANIFEST, *run,
                                        width=width) == []
    return run


def _check_fallback(name, capsys, **kwargs):
    """Cell ``name`` forced through ``pdes="on"``: a warned fallback that
    matches the cell exactly, trace order and ``sim_stats`` included.
    Returns the warning."""
    cell = golden.CELLS[name]
    got, stats = cell.fn(*cell.args, **cell.kwargs, pdes="on", **kwargs)
    err = capsys.readouterr().err
    assert "cannot be partitioned" in err
    assert golden._problems(name, got, stats, MANIFEST) == []
    return err


@pytest.mark.parametrize("app_name", FALLBACK_APPS)
def test_pdes_fallback_matches_its_manifest_cell(app_name, capsys):
    """Every app no cut can run falls back loudly, never silently, and
    the fallback is the single-process run the manifest pins."""
    variant = make_app(app_name).variants[0]
    _check_fallback(f"app/{app_name}/{variant}/2x3", capsys)


# ------------------------------------------ several clusters a partition


@pytest.mark.parametrize("app_name", PDES_APPS)
def test_pdes_parity_all_apps(app_name):
    """A capable app's first variant on four clusters over two
    partitions of two clusters each matches its manifest cell."""
    variant = make_app(app_name).variants[0]
    _check_partitioned(f"app/{app_name}/{variant}/4x2", 2)


@pytest.mark.parametrize("app_name", PDES_APPS)
def test_pdes_parity_all_variants(app_name):
    """A capable app, every variant, on four clusters over three
    partitions — two clusters in one, one in each other — against its
    manifest cell."""
    for variant in make_app(app_name).variants:
        _check_partitioned(f"app/{app_name}/{variant}/4x2", 3)


def test_pdes_parity_scenario_impaired():
    """Every impairment model at once (loss retries and timing shifts)
    on four clusters over two partitions matches the cell on every
    field but record order."""
    _check_partitioned("scenario/sor/original/4x2", 2)


def test_pdes_parity_scenario_jitter_zero_lookahead():
    """Jitter can shrink WAN latency below nominal: lookahead drops to 0
    and the protocol degrades to near-lockstep, over three uneven
    partitions, still matching the cell."""
    assert plan.wan_lookahead(DAS_PARAMS, golden.IMPAIRED) == 0.0
    _check_partitioned("scenario/ra/original/4x2", 3)


def test_pdes_impaired_degenerate_tie_aggregates():
    """The documented caveat, pinned: after loss retries two
    cross-partition arrivals meet at one gateway instant, where the
    serial FIFO order is global heap insertion order.  The cell is in
    ``golden._TIED``, and the manifest check holds its four-way run to
    the serial run's records with ``msg_id``/``src`` dropped.  Over two
    partitions, the tied clusters 2 and 3 sharing one, the tie stays,
    and the run matches every aggregate of the cell and the four-way
    run's records with ``msg_id``/``src`` dropped; with no run to compare
    with, the check says so rather than passing."""
    name = "scenario-loss/sor/original/4x2"
    assert name in golden._TIED
    _, four = golden._partitioned_run(name)
    two = golden._partitioned_run(name, 2)
    assert golden._partitioned_problems(name, MANIFEST, *two, width=2,
                                        reference=four) == []
    assert golden._partitioned_problems(name, MANIFEST, *two, width=2) \
        == [f"{name} (partitioned, 2 ways): tied, so its records need a "
            f"reference run to compare with"]


def test_pdes_stats_aggregation():
    """Merged sim_stats cover all partitions plus the pdes counters: the
    partitions' events and spawns together exceed half of what the
    serial run of the cell dispatched, as the manifest pins it."""
    pinned = MANIFEST["sim_stats"]["app/sor/original/4x2"]
    pdes, _ = _check_partitioned("app/sor/original/4x2")
    ss = pdes.sim_stats
    for key in ("events_processed", "spawns"):
        assert ss[key] > pinned[key] // 2
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


def test_pdes_channel_bytes_are_the_pipe_bytes(monkeypatch):
    """``pdes_channel_bytes`` is exactly what the epoch messages took
    on the forked workers' pipes — grants, reports and the end of the
    run — as the send/receive pair counted them; partition 0 is handed
    its grants as tuples, crossing no pipe and counting nothing."""
    from repro.sim.pdes import coordinator
    real_send, real_receive = coordinator._send, coordinator._receive
    real_epoch = coordinator._Partition.epoch
    piped, grants0 = [], []

    def send(conn, part_id, msg):
        nbytes = real_send(conn, part_id, msg)
        if not (isinstance(msg, tuple) and msg[0] == "run"):
            piped.append(nbytes)
        return nbytes

    def receive(conn, part_id, want):
        body, nbytes = real_receive(conn, part_id, want)
        if want == "report":
            piped.append(nbytes)
        return body, nbytes

    def epoch(self, grant):
        # Only the coordinator's calls land here: a worker forked after
        # the patch appends to its own copy of the list.
        grants0.append(grant)
        return real_epoch(self, grant)

    monkeypatch.setattr(coordinator, "_send", send)
    monkeypatch.setattr(coordinator, "_receive", receive)
    monkeypatch.setattr(coordinator._Partition, "epoch", epoch)
    res = run_app(make_app("sor"), "original", 4, 4, small_params("sor"),
                  pdes="on", pdes_workers=2)
    ss = res.sim_stats
    assert ss["pdes_partitions"] == 2
    assert piped and ss["pdes_channel_bytes"] == sum(piped)
    assert grants0
    assert all(type(g) is tuple for g in grants0)


def test_pdes_dense_partitions_share_epochs():
    """Two dense partitions run their windows together: at least three
    epochs in four grant both, so round trips exceed epochs by 75 % of
    the epochs, and the run matches its cell.  A lone-owner cap of the
    runner-up's frontier plus the lookahead makes them take turns
    instead (81 epochs, 92 round trips)."""
    pdes, _ = _check_partitioned("app/ra/optimized/4x2", 2)
    ss = pdes.sim_stats
    epochs = ss["pdes_epochs"]
    assert ss["pdes_round_trips"] - epochs >= 0.75 * epochs, ss


def test_pdes_summary_line():
    """The counters condense to the one-line ``repro app`` summary; the
    blocked host time is a line of its own, off that one."""
    from repro.sim.pdes import format_pdes_summary
    pdes = run_app(make_app("sor"), "original", 2, 3, small_params("sor"),
                   tracer=Tracer(), pdes="on", pdes_workers=2)
    line, host_time = format_pdes_summary(pdes.sim_stats)
    assert line.startswith("pdes: 2 partitions,")
    assert "round-trips" in line and "coalesced" in line
    assert "blocked" not in line and "blocked" in host_time
    assert format_pdes_summary({"events_processed": 5}) is None


def test_pdes_run_reaps_its_workers():
    """A partitioned run forks its workers (``width - 1``: the
    coordinator runs partition 0) and reaps them before it returns, so
    no process outlives it, at either width."""
    sor, params = make_app("sor"), small_params("sor")
    for c, n, width in ((2, 3, 2), (4, 2, 4)):
        res = run_app(sor, "original", c, n, params, pdes="on",
                      pdes_workers=width)
        assert res.sim_stats["pdes_partitions"] == width
        assert mp.active_children() == []


def test_pdes_killed_worker_is_a_typed_error():
    """A worker SIGKILLed mid-run ends that run in a typed error naming
    its partition, promptly, with no worker left alive; the next run
    still matches its manifest cell."""
    sor, params = make_app("sor"), small_params("sor")
    killed_at = []

    def kill():
        # Two partitions: the run's one forked worker is partition 1's.
        (victim,) = mp.active_children()
        killed_at.append(time.perf_counter())
        os.kill(victim.pid, signal.SIGKILL)

    timer = threading.Timer(0.3, kill)
    timer.start()
    try:
        # ~3.5 s on 2 cores uninterrupted: the kill lands mid-epochs.
        with pytest.raises(SimulationError, match="partition 1 "):
            run_app(sor, "original", 4, 4, params.with_(n_iterations=600),
                    pdes="on", pdes_workers=2)
        surfaced = time.perf_counter() - killed_at[0]
    finally:
        timer.cancel()
    assert surfaced < 2.0, surfaced
    assert mp.active_children() == []

    _check_partitioned("suite/sor/original/4x4/64", 2)


def test_pdes_coordinator_epoch_error_reaps_the_workers(monkeypatch):
    """Partition 0 runs in the coordinator's process: an error in its
    epoch step partway through a run ends the run in that error with no
    forked worker left alive, and the next run still matches its
    manifest cell."""
    from repro.sim.pdes import coordinator
    sor, params = make_app("sor"), small_params("sor")
    parent = os.getpid()
    steps = []
    real_epoch = coordinator._Partition.epoch

    class Boom(RuntimeError):
        pass

    def failing_epoch(self, block):
        # The workers fork after the patch and inherit it: the pid
        # check keeps the failure on the coordinator's side.
        if os.getpid() == parent:
            steps.append(self.part_id)
            if len(steps) == 5:
                raise Boom("partition 0 epoch failed")
        return real_epoch(self, block)

    monkeypatch.setattr(coordinator._Partition, "epoch", failing_epoch)
    with pytest.raises(Boom, match="partition 0 epoch failed"):
        run_app(sor, "original", 4, 4, params, pdes="on", pdes_workers=2)
    monkeypatch.undo()
    assert steps == [0] * 5
    assert mp.active_children() == []

    _check_partitioned("suite/sor/original/4x2/24", 2)


# ------------------------------------------------------------- fallback


def test_pdes_single_cluster_falls_back(capsys):
    """One cluster has no WAN cut: the partitioning apps fall back too."""
    for app_name in PDES_APPS:
        variant = make_app(app_name).variants[0]
        _check_fallback(f"app/{app_name}/{variant}/1x4", capsys)


def test_pdes_faults_ineligible(capsys):
    scen = Scenario(seed=1, faults=(
        Fault.of("slow_node", at=0.01, duration=0.01, target="n0"),))
    res = run_app(make_app("sor"), "original", 2, 3, small_params("sor"),
                  scenario=scen, pdes="on")
    assert "pdes_partitions" not in res.sim_stats
    assert "cannot be partitioned" in capsys.readouterr().err


@pytest.mark.parametrize("bound", sorted(golden._BOUNDS))
@pytest.mark.parametrize("app_name", ["ra", "sor"])
def test_pdes_bounded_tracer_falls_back_exactly(app_name, bound, capsys):
    """A ring- or sample-bounded tracer counts emissions in one global
    order, which same-instant records of different partitions do not
    have: it keeps a run single-process, with a warning, and the run
    matches its manifest cell, the records the bound kept and the count
    it dropped included."""
    name = f"bounded/{bound}/{app_name}/optimized/4x2"
    assert "bounded tracing" in _check_fallback(name, capsys,
                                                pdes_workers=2)
    assert MANIFEST["cells"][name]["dropped"] > 0


#: The kinds an unbounded, filtered tracer keeps.
KINDS = frozenset({"msg.send", "msg.deliver", "wan.xfer"})


@pytest.mark.parametrize("app_name", ["ra", "sor"])
def test_pdes_kinds_only_tracer_still_partitions(app_name, capsys):
    """An unbounded tracer filtered by ``kinds`` still partitions, two
    clusters to a partition, and records exactly the records of those
    kinds that the unfiltered partitioned run of the cell records
    (itself held to the manifest)."""
    _, full = _check_partitioned(f"app/{app_name}/optimized/4x2", 2)
    tracer = Tracer(kinds=KINDS)
    pdes = run_app(make_app(app_name), "optimized", 4, 2,
                   small_params(app_name), tracer=tracer, pdes="on",
                   pdes_workers=2)
    assert not capsys.readouterr().err
    assert pdes.sim_stats["pdes_partitions"] == 2

    def rows(records):
        return sorted(repr((r.time, r.kind, sorted(r.detail.items())))
                      for r in records if r.kind in KINDS)

    assert tracer.records and rows(tracer.records) == rows(full.records)
    assert {r.kind for r in tracer.records} <= KINDS


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
import sys
sys.path.insert(0, "tools")
import golden
name = "app/sor/original/2x3"
print(golden._partitioned_problems(name, golden.load_manifest(),
                                   *golden._partitioned_run(name)))
"""


@pytest.mark.parametrize("engine", ["python", "compiled"])
def test_pdes_parity_engine_tiers(engine):
    """One partitioned cell matches the manifest under each engine tier,
    pinned in a fresh process (the tier is chosen once, at import)."""
    if engine == "compiled":
        from repro.sim._build import compiler_available
        if not compiler_available():
            pytest.skip("no C compiler: compiled tier unavailable")
    env = dict(os.environ, REPRO_ENGINE=engine)
    out = subprocess.run([sys.executable, "-c", _TIER_SNIPPET], cwd=REPO,
                         capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "[]"
