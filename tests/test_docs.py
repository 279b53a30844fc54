"""The docs consistency checker (tools/check_docs.py) and its guarantees."""

import importlib.util
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
CHECKER = REPO / "tools" / "check_docs.py"


@pytest.fixture(scope="module")
def check_docs():
    spec = importlib.util.spec_from_file_location("check_docs", CHECKER)
    mod = importlib.util.module_from_spec(spec)
    sys.modules["check_docs"] = mod
    spec.loader.exec_module(mod)
    return mod


def test_repo_docs_are_consistent(check_docs, capsys):
    assert check_docs.main() == 0
    assert "docs ok" in capsys.readouterr().out


def test_tracing_doc_mentions_every_kind(check_docs):
    from repro.obs.schema import KINDS

    text = (REPO / "docs" / "TRACING.md").read_text()
    mentioned = set(check_docs._KIND.findall(text))
    assert mentioned == set(KINDS)


def test_checker_flags_broken_link(check_docs, tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text("see [missing](no/such/file.md) and "
                   "[ok](https://example.com)")
    problems = check_docs.check_links(doc, doc.read_text())
    assert problems == [f"{doc}: broken link -> no/such/file.md"]
    assert not check_docs.check_links(
        doc, "[external](https://example.com) [anchor](#sec)")


def test_checker_flags_unregistered_kind(check_docs):
    problems = check_docs.check_kinds(
        {"docs/TRACING.md": " ".join(f"`{k}`" for k in
                                     check_docs.KINDS),
         "README.md": "mentions `msg.bogus_kind` here"})
    assert problems == ["README.md: mentions unregistered trace kind "
                        "'msg.bogus_kind' (not in repro.obs.schema.KINDS)"]


def test_checker_flags_undocumented_kind(check_docs):
    text = " ".join(f"`{k}`" for k in check_docs.KINDS
                    if k != "wan.xfer")
    problems = check_docs.check_kinds({"docs/TRACING.md": text})
    assert problems == ["docs/TRACING.md: registered trace kind "
                        "'wan.xfer' is undocumented"]


def test_no_tier_selector_reappears():
    """There is one message path: no ``fast_paths`` selector and no
    ``legacy path`` tier under the network, Orca or harness packages."""
    for pkg in ("network", "orca", "harness"):
        for path in sorted((REPO / "src" / "repro" / pkg).rglob("*.py")):
            text = path.read_text()
            assert "fast_paths" not in text, path
            assert "legacy path" not in text, path


#: Options and entry points deleted once a census found no caller (or
#: only ever one value) for them.  Ids live on the run, PDES is asked
#: for one way (``pdes="on"`` on ``run_app``: no environment variable,
#: no mode resolver, no ``auto``, no sweep-spec field or nesting policy),
#: dispatch is ``chunksize``; the engine is what the
#: simulated machine calls (no first-of waits, no duplicate stats key)
#: and so are the layers above it; the engine's oracle is the manifest's
#: ``engine/*`` cells, not a third engine; an app process, an Orca wait
#: and a compute charge each run without a forwarding generator frame;
#: a broadcast applies in order as one chain per replica application,
#: with no drain pass, batch snapshot or apply log beside it; the fabric
#: and the applications carry no partition boundary hook; the PDES fast
#: lane has one transport, each worker's pipe, with no shared-memory
#: ring, ring capacity or overflow fallback beside it, and no block codec
#: wrapping its pickles; and a helper that nothing calls is deleted, not
#: kept for its test.
DELETED_SURFACE = (
    "_legacy",
    "reset_ids", "reset_req_ids", "alloc_msg_id", "_alloc_req_id",
    "_site_seq", "ACTIVE_JOBS", "PDES_WORKERS_ENV", "REPRO_PDES_WORKERS",
    "pdes_auto_allowed", "active_sweep_jobs", "_mark_pool_worker",
    "_execute_timed_batch", "_execute_spec", "_batch_size", "--batch",
    "gateway_multicast", "include_self", "baseline_elapsed",
    "harness.jobs", "harness import jobs",
    "REPRO_BENCH_SCALE", "bench_cpu_counts", "FULL_CPUS", "figure15_bars(",
    "figure16_bars(", "bench_orca_macro", "--benchmark-only",
    "any_of", "AnyOf", "processes_spawned", "try_get", "try_receive",
    "located_at", "broadcasts_sent", "n_edges",
    "def _later(", "def _depth(", "def _inline(", "_Later", "Fabric._later",
    "Fabric._depth", "later(n, step)",
    "def timed(", "def _charge(",
    "def _drain(", "def _apply_run(", "def _applied(", "applied_sequence",
    "def start_in(", "_multicast_recv",
    "def _pvc_stage(", "def _gw_forward(", "def _wan_tail(",
    "def _striped_stage(", "def _access_up(", "def _access_down(",
    "def _p2p_streams(", "_NO_THEN",
    "class CPU(", "execute_ev", "def after_call(", "_occupy_ev", "drop_arg",
    "REPRO_PDES", "pdes_mode", "forced_on_by",
    "def replica(",
    "_next_msg_id", "def _bucket(", "._bucket(",
    "send_chain", "_cluster_writers",
    "pdes_arrive", "pdes_capable", "pdes_shared_payload", "pdes_merge_shared",
    "_wait=",
    "def _nested(", "RunSpec(pdes", "spec.pdes", "_write_trace(",
    "def token_at(", "def wire_time(", "def local_rank(", "def drop_fraction(",
    "def collect_by_key(",
    "_GRANT_HDR", "_REPORT_HDR", "_PEND", "_SEC_HDR", "_encode_section",
    "_parse_section", "_NO_ITEMS", "_Message",
    "ShmRing", "channel_capacity", "pdes_channel_overflows", "_VIA_PIPE",
    "_ERROR_MARK", "w_post_error", "RawArray",
    "tracer.enabled", "obs.enabled", "Tracer(enabled",
    "encode_grant", "decode_grant", "encode_report", "decode_report",
    "encode_finish", "decode_section_items", "acks_out", "acks_in",
    "_acquire_pool", "_release_pool", "_worker_loop",
)

#: Engine members neither live tier has: preemption, first-of waits, the
#: bare-event factory, what only the other tier or nobody read, and the
#: second spellings of a delay (``leg((delay,))``) and of a call slot
#: (``call_at``).
DELETED_ENGINE_MEMBERS = ("interrupt", "is_alive", "processed", "event",
                          "any_of", "_post", "after", "after_call")


def test_no_deleted_surface_reappears():
    """None of the deleted names comes back under ``src/``, the tools,
    the benchmark scripts, the docs or CI; the engine tiers export no
    ``chain`` and no ``step``."""
    paths = [p for p in (REPO / "src" / "repro").rglob("*")
             if p.suffix in (".py", ".c")]
    paths += (REPO / "tools").glob("*.py")
    paths += (REPO / "benchmarks").glob("bench_*.py")
    paths += (REPO / "docs").glob("*.md")
    paths += (REPO / ".github" / "workflows").glob("*.yml")
    paths += [REPO / "README.md", REPO / "DESIGN.md"]
    for path in sorted(paths):
        text = path.read_text()
        for name in DELETED_SURFACE:
            assert name not in text, (path, name)
    assert not (REPO / "src" / "repro" / "harness" / "jobs.py").exists()
    assert not (REPO / "src" / "repro" / "sim" / "pdes" / "channel.py").exists()

    import repro.sim
    from repro.sim import _pyengine, engine
    for mod in (repro.sim, engine, _pyengine):
        assert "chain" not in mod.__all__ and not hasattr(mod, "chain"), mod
    assert not hasattr(engine.Simulator, "step")
    assert not hasattr(_pyengine.Simulator, "step")
    ccore = (REPO / "src" / "repro" / "sim" / "_ccore.c").read_text()
    assert '{"chain"' not in ccore and '{"step"' not in ccore

    for name in DELETED_ENGINE_MEMBERS:
        assert '{"%s"' % name not in ccore, name
    tiers = [_pyengine]
    from repro.sim._build import compiler_available
    if compiler_available():
        from repro.sim import _cengine
        tiers.append(_cengine)
    for mod in (repro.sim, engine, *tiers):
        for name in ("Interrupt", "AnyOf", "Timeout"):
            assert name not in mod.__all__ and not hasattr(mod, name), (
                mod, name)
    for tier in tiers:
        sim = tier.Simulator()
        for obj in (tier.Simulator, tier.Process, tier.Event, sim,
                    tier.Event(sim)):
            for name in DELETED_ENGINE_MEMBERS:
                assert not hasattr(obj, name), (tier, obj, name)
        # One-valued: timeouts fire with None, so nothing takes a value.
        with pytest.raises(TypeError):
            sim.timeout(1.0, "v")
        with pytest.raises(TypeError):
            sim.call_at(1.0, lambda: None, "v")
        assert "processes_spawned" not in sim.stats()


#: Where a line outside ``sim/pdes/`` may name PDES: ``run_app``'s one
#: branch, the CLI's flags, direct call and summary line, and the bench
#: suite.
PDES_LINE_FILES = {"__main__.py", "harness/experiment.py", "harness/bench.py"}
#: How many such lines there are; a change may lower this, never raise it.
PDES_LINE_BUDGET = 18


def test_fabric_and_apps_forget_partitions():
    """The partition boundary lives in ``repro.sim.pdes`` alone: no line
    of ``fabric.py`` or ``harness/sweeps.py`` names PDES, neither a
    fabric, an application, a ``RunSpec`` field nor a ``ParallelRunner``
    attribute does, no send or route takes a wait flag, and the lines
    elsewhere that name it stay in three files, within budget."""
    import dataclasses
    import inspect

    from repro.apps import ALL_APPS, Application, make_app
    from repro.harness import ParallelRunner, RunSpec
    from repro.network import DAS_PARAMS, ClusterSpec, Fabric, Topology
    from repro.sim import Simulator

    src = REPO / "src" / "repro"
    for path in (src / "network" / "fabric.py", src / "harness" / "sweeps.py"):
        assert "pdes" not in path.read_text().lower(), path
    assert not [f.name for f in dataclasses.fields(RunSpec)
                if "pdes" in f.name.lower()]
    topo = Topology([ClusterSpec("c0", 2), ClusterSpec("c1", 2)])
    objs = [Fabric, Fabric(Simulator(), topo, DAS_PARAMS), Application,
            ParallelRunner, ParallelRunner(jobs=1)]
    objs += [entry[0] for entry in ALL_APPS.values()]
    objs += [make_app(name) for name in ALL_APPS]
    for obj in objs:
        assert not [n for n in dir(obj) if "pdes" in n.lower()], obj
    lines = [(path.relative_to(src).as_posix(), line)
             for path in sorted(src.rglob("*"))
             if path.suffix in (".py", ".c")
             and not path.relative_to(src).as_posix().startswith("sim/pdes/")
             for line in path.read_text().splitlines()
             if "pdes" in line.lower()]
    assert {name for name, _ in lines} <= PDES_LINE_FILES, lines
    assert len(lines) <= PDES_LINE_BUDGET, lines
    for name in ("send", "_route_self", "_route_lan", "_route_wan"):
        params = inspect.signature(getattr(Fabric, name)).parameters
        assert not {"wait", "_wait"} & params.keys(), name


def test_the_machine_defers_at_zero_delay_only_to_retry_parked_rpcs():
    """Outside the engine, a chain continues in the dispatch that
    completes its previous step; the one zero-delay deferral left in the
    simulated machine is the parked-RPC retry in ``OrcaRuntime._kick``.
    The busy-instant counters are the engine's own: no module but the
    two engine tiers touches them."""
    src = REPO / "src" / "repro"
    spellings = ("after(0.0", "after_call(0.0", "leg((0.0,", "timeout(0.0")
    deferrals = []
    for pkg in ("network", "orca", "core", "apps"):
        for path in sorted((src / pkg).rglob("*.py")):
            lines = path.read_text().splitlines() + [""]
            deferrals += [
                (path.relative_to(src).as_posix(),
                 f"{line.strip()} {lines[i + 1].strip()}")
                for i, line in enumerate(lines)
                if any(spelling in line for spelling in spellings)]
    assert deferrals == [(
        "orca/runtime.py", "sim.leg((0.0,)).callbacks.append( "
        "lambda _ev: self._retry_rpcs(owner, retries, 0))")]
    for path in src.rglob("*.py"):
        if path.name != "_pyengine.py":
            text = path.read_text()
            assert "_n_fast" not in text and "_n_fallback" not in text, path


def test_checker_flags_env_table_drift(check_docs):
    """The ``REPRO_*`` table and the literals in the code — the package,
    the tools and the benchmark scripts — are held in lockstep both
    ways: a variable the code names needs a row, and a row needs a
    variable the code still names."""
    scanned = {str(p.relative_to(REPO)) for p in check_docs.env_sources()}
    assert {"src/repro/harness/sweeps.py", "src/repro/sim/_ccore.c",
            "tools/golden.py", "benchmarks/bench_paper.py"} <= scanned
    assert not any(p.startswith("benchmarks/e2e") for p in scanned)
    doc = check_docs.ARCHITECTURE_DOC
    text = (REPO / doc).read_text()
    assert check_docs.check_env_vars({doc: text}) == []
    row = "| `REPRO_JOBS` |"
    assert row in text
    missing = check_docs.check_env_vars({doc: text.replace(row, "| gone |")})
    assert missing == [f"{doc}: REPRO_JOBS is named in the code but has no "
                       f"row in the Environment variables table"]
    stale = check_docs.check_env_vars(
        {doc: text + "\n| `REPRO_NO_SUCH_KNOB` | x | y | z |\n"})
    assert stale == [f"{doc}: the Environment variables table documents "
                     f"REPRO_NO_SUCH_KNOB, which nothing under src/, tools/ "
                     f"or benchmarks/ names"]


def test_checker_flags_scenario_param_drift(check_docs):
    """Each scenario model's parameter table and the registry agree on
    the parameters, their defaults and their ranges."""
    doc = check_docs.SCENARIOS_DOC
    text = (REPO / doc).read_text()
    assert check_docs.check_scenario_params({doc: text}) == []
    row = "| `depth` | 0.5 | [0, 1) |"
    assert row in text
    widened = text.replace(row, "| `depth` | 0.5 | [0, 1] |")
    assert check_docs.check_scenario_params({doc: widened}) == [
        f"{doc}: `bw_dip.depth` documented as 0.5 in [0, 1]; registered "
        f"0.5 in [0, 1)"]
    dropped = text.replace(row, "| `deep` | 0.5 | [0, 1) |")
    assert check_docs.check_scenario_params({doc: dropped}) == [
        f"{doc}: `bw_dip` has no row for its parameter 'depth'",
        f"{doc}: `bw_dip` documents parameter 'deep', which it does not "
        f"take"]


def test_checker_flags_undeclared_process_cache(check_docs, tmp_path):
    """State that outlives a run is declared in ARCHITECTURE's
    *Process-level state* table or does not exist: a planted memo (any
    decorator spelling, or a module-level ``*_CACHE``) is flagged, and
    so is a row whose builder is gone."""
    doc = check_docs.ARCHITECTURE_DOC
    text = (REPO / doc).read_text()
    assert check_docs.check_process_caches({doc: text}) == []
    pkg = tmp_path / "repro"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "sub" / "planted.py").write_text(
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "_PLANTED_CACHE: dict = {}\n"
        "CACHE_SCHEMA = '3'\n"
        "@lru_cache(maxsize=2)\n"
        "def a(x): return x\n"
        "@functools.lru_cache\n"
        "def b(x): return x\n"
        "class K:\n"
        "    @cache\n"
        "    def c(self): return 1\n")
    flagged = [p for p in check_docs.check_process_caches({doc: text}, pkg)
               if "has no row" in p]
    assert flagged == [
        f"{doc}: repro.sub.planted.{name} keeps values across runs but has "
        f"no row in the Process-level state table"
        for name in ("_PLANTED_CACHE", "a", "b", "c")]
    row = "| `repro.apps.ra.game.build_game` |"
    assert row in text
    stale = check_docs.check_process_caches(
        {doc: text.replace(row, "| `repro.apps.ra.game.no_such_memo` |")})
    assert stale == [
        f"{doc}: repro.apps.ra.game.build_game keeps values across runs but "
        f"has no row in the Process-level state table",
        f"{doc}: the Process-level state table documents "
        f"repro.apps.ra.game.no_such_memo, which is not a memoised builder "
        f"under src/repro"]


def test_checker_flags_edited_measured_block(check_docs):
    """A tagged block of EXPERIMENTS.md is its ``benchmarks/out`` file
    verbatim, and every such file is included: an edited digit, a block
    naming no file and a dropped block are each flagged."""
    doc = check_docs.EXPERIMENTS_DOC
    out = check_docs.OUT_DIR
    text = (REPO / doc).read_text()
    assert check_docs.check_out_blocks({doc: text}, out) == []
    assert "     42.0us     2.68ms" in text
    edited = text.replace("     42.0us     2.68ms", "     42.0us     2.69ms")
    assert check_docs.check_out_blocks({doc: edited}, out) == [
        f"{doc}: block out:table1 differs from benchmarks/out/table1.txt"]
    renamed = text.replace("out:table1 -->", "out:table9 -->")
    assert check_docs.check_out_blocks({doc: renamed}, out) == [
        f"{doc}: block out:table9 names no file under benchmarks/out",
        f"{doc}: benchmarks/out/table1.txt is not included as an "
        f"out:table1 block"]


#: How long EXPERIMENTS.md is: the results, one ledger block per
#: ``BENCH_*.json`` and one PR-table row per perf PR, with no per-PR log;
#: a change may lower this, never raise it.
EXPERIMENTS_LINE_BUDGET = 1147


def test_checker_flags_edited_ledger_block(check_docs):
    """A ``bench:`` block of EXPERIMENTS.md is the rendering of its
    ``BENCH_*.json``, and every ledger has one: an edited digit, a block
    naming no ledger and a dropped block are each flagged by suite.  The
    doc stays within its line budget, and ``--render`` prints a block
    exactly as the doc holds it."""
    import subprocess

    doc = check_docs.EXPERIMENTS_DOC
    text = (REPO / doc).read_text()
    assert check_docs.check_bench_blocks({doc: text}) == []
    assert len(text.splitlines()) <= EXPERIMENTS_LINE_BUDGET
    rendered = subprocess.run(
        [sys.executable, str(CHECKER), "--render", "orca"],
        capture_output=True, text=True, check=True).stdout
    assert rendered.startswith("<!-- bench:orca -->\n") and rendered in text
    row = "\nbcast_bb         6888\n"
    assert text.count(row) == 1
    edited = text.replace(row, "\nbcast_bb         6889\n")
    assert check_docs.check_bench_blocks({doc: edited}) == [
        f"{doc}: block bench:orca differs from the rendering of "
        f"BENCH_orca.json"]
    renamed = text.replace("bench:orca -->", "bench:nosuch -->")
    assert check_docs.check_bench_blocks({doc: renamed}) == [
        f"{doc}: block bench:nosuch names no BENCH_nosuch.json",
        f"{doc}: BENCH_orca.json has no bench:orca block"]
    start = text.index("<!-- bench:pdes -->\n")
    end = text.index("<!-- /bench:pdes -->\n") + len("<!-- /bench:pdes -->\n")
    dropped = text[:start] + text[end:]
    assert check_docs.check_bench_blocks({doc: dropped}) == [
        f"{doc}: BENCH_pdes.json has no bench:pdes block"]
