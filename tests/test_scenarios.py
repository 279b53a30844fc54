"""Tests for the scenario engine: spec values, parsing, determinism,
the no-op guarantee, faults, heterogeneity, and analyzer support.

The heavyweight guarantees (docs/SCENARIOS.md):

- a default ``Scenario()`` is trace-record-identical to a plain run on
  both engine tiers;
- a given scenario (seed included) is bit-identical across repeats and
  across serial vs. pooled sweeps;
- impairments and faults act through the resource model, so they can
  only slow a run down, never corrupt its answer.
"""

import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import make_app, small_params
from repro.harness import run_app
from repro.harness.sweeps import ParallelRunner, ResultCache, RunSpec
from repro.obs import FaultWindow, fault_windows, impairment_summary
from repro.scenario import (
    FAULTS,
    IMPAIRMENTS,
    ClusterTweak,
    Fault,
    Impairment,
    Scenario,
    parse_cluster_tweak,
    parse_fault,
    scenario_topology,
)
from repro.network import DAS_PARAMS, Fabric, uniform_clusters
from repro.scenario.apply import BLOCK, WanImpairments, _draws, install
from repro.sim import Simulator, Tracer
from repro.sim.rng import substream
from repro.tuner import ContextModel, DecisionModel, FittedLine


def _run(app="ra", variant="original", clusters=2, nodes=2, scenario=None,
         trace=False, tracer=None, decision=None):
    return run_app(make_app(app), variant, clusters, nodes,
                   small_params(app), scenario=scenario, trace=trace,
                   tracer=tracer, decision=decision)


# ------------------------------------------------------------ spec values


def test_impairment_of_fills_defaults_and_validates():
    imp = Impairment.of("loss", p=0.02)
    assert imp.param("p") == 0.02
    assert imp.param("rto") == IMPAIRMENTS["loss"].defaults()["rto"]
    assert imp == Impairment.of("loss", p=0.02)  # defaults filled -> equal
    with pytest.raises(ValueError, match="unknown scenario model"):
        Impairment.of("gremlins")
    with pytest.raises(ValueError, match="no parameter"):
        Impairment.of("jitter", sigmaa=0.3)
    with pytest.raises(ValueError, match="fault model, not"):
        Impairment.of("gw_outage")
    # Each parameter's documented range is enforced at parse time: these
    # used to be accepted and then crash mid-run, or run silently.
    for model, params, message in [
            ("bw_dip", dict(depth=1), r"depth must be in \[0, 1\)"),
            ("bw_dip", dict(depth=2), r"depth must be in \[0, 1\)"),
            ("bw_dip", dict(period=0), r"period must be in \(0, inf\)"),
            ("bw_dip", dict(duty=3), r"duty must be in \[0, 1\]"),
            ("loss", dict(p=1.5), r"p must be in \[0, 1\]"),
            ("loss", dict(rto=-0.1), r"rto must be in \[0, inf\)"),
            ("jitter", dict(sigma=float("inf")), "sigma must be in")]:
        with pytest.raises(ValueError, match=message):
            Impairment.of(model, **params)
    with pytest.raises(ValueError, match=r"factor must be in \(0, 1\]"):
        Fault.of("slow_node", at=0.0, duration=1.0, factor=0)
    # The closed ends are accepted.
    assert Impairment.of("loss", p=1).param("p") == 1.0
    assert Impairment.of("bw_dip", depth=0, duty=1).param("duty") == 1.0
    assert Fault.of("slow_node", at=0.0, duration=1.0,
                    factor=1).param("factor") == 1.0


@pytest.mark.parametrize("build, message", [
    (lambda: Impairment("loss", (("p", 1.5),)), r"p must be in \[0, 1\]"),
    (lambda: Impairment("bw_dip", (("depth", 1.0),)),
     r"depth must be in \[0, 1\)"),
    (lambda: Impairment("bw_dip", (("period", 0.0),)),
     r"period must be in \(0, inf\)"),
    (lambda: Impairment("jitter", (("sigmaa", 0.3),)), "no parameter"),
    (lambda: Impairment("jitter", (("sigma", float("nan")),)),
     "must be a number"),
    (lambda: Impairment("loss", (("p", "0.5"),)), "must be a number"),
    (lambda: Impairment("loss", (("max_retries", 2.5),)),
     "max_retries must be an integer"),
    (lambda: Fault("slow_node", 0.0, 1.0, "n1", (("factor", 0.0),)),
     r"factor must be in \(0, 1\]"),
    (lambda: Fault("gw_outage", 0.0, 1.0, "", (("factor", 0.5),)),
     "no parameter")], ids=[
    "loss-p", "bw_dip-depth", "bw_dip-period", "jitter-key", "jitter-nan",
    "loss-str", "loss-fraction", "slow_node-factor", "gw_outage-key"])
def test_directly_built_values_are_checked(build, message):
    """A value built without :meth:`of` is checked like one built with
    it: a ``bw_dip`` of depth 1.0 used to be accepted and then divide by
    zero mid-run."""
    with pytest.raises(ValueError, match=message):
        build()


def test_directly_built_values_in_range_are_accepted():
    assert Impairment("loss", (("p", 1.0),)).param("p") == 1.0
    assert Impairment("loss", (("max_retries", 3),)).param("max_retries") == 3
    assert Fault("slow_node", 0.0, 1.0, "n1",
                 (("factor", 1.0),)).param("factor") == 1.0
    assert Impairment.of("loss", max_retries=4.0).params == (
        ("max_retries", 4), ("p", 0.01), ("rto", 0.05))


def test_fault_of_validates_times_and_model():
    flt = Fault.of("slow_node", at=1.0, duration=0.5, target="n3",
                   factor=0.1)
    assert flt.param("factor") == 0.1
    with pytest.raises(ValueError, match="impairment model, not"):
        Fault.of("jitter", at=0.0, duration=1.0)
    with pytest.raises(ValueError, match="onset"):
        Fault.of("gw_outage", at=-1.0, duration=1.0)
    with pytest.raises(ValueError, match="duration"):
        Fault.of("gw_outage", at=0.0, duration=0.0)


def test_scenario_rejects_duplicate_impairment_models():
    with pytest.raises(ValueError, match="duplicate"):
        Scenario(impairments=(Impairment.of("jitter", sigma=0.1),
                              Impairment.of("jitter", sigma=0.2)))


def test_scenario_is_noop_and_describe():
    assert Scenario().is_noop()
    assert Scenario(seed=7).is_noop()  # seed alone changes nothing
    assert Scenario(clusters=(ClusterTweak(0),)).is_noop()
    assert not Scenario(impairments=(Impairment.of("jitter"),)).is_noop()
    assert not Scenario(clusters=(ClusterTweak(0, cpu_speed=2.0),)).is_noop()
    text = Scenario(
        impairments=(Impairment.of("jitter", sigma=0.3),),
        faults=(Fault.of("gw_outage", at=2.0, duration=0.5, target="c1"),),
        clusters=(ClusterTweak(1, cpu_speed=0.5),)).describe()
    assert "jitter" in text and "gw_outage@2s+0.5s:c1" in text
    assert "c1[cpu=0.5]" in text
    assert Scenario().describe().endswith("no-op")


def test_scenario_is_hashable_and_picklable():
    import pickle
    scn = Scenario(seed=3, impairments=(Impairment.of("loss", p=0.05),),
                   faults=(Fault.of("link_flap", at=1.0, duration=0.2),))
    assert hash(scn) == hash(pickle.loads(pickle.dumps(scn)))
    assert pickle.loads(pickle.dumps(scn)) == scn


def test_registries_cover_expected_models():
    assert set(IMPAIRMENTS) == {"jitter", "loss", "bw_dip", "cross_traffic"}
    assert set(FAULTS) == {"gw_outage", "link_flap", "slow_node"}


# ---------------------------------------------------------------- parsing


def test_parse_fault_full_and_minimal():
    flt = parse_fault("slow_node@0.5s+1s:n3,factor=0.1")
    assert (flt.model, flt.at, flt.duration, flt.target) == \
        ("slow_node", 0.5, 1.0, "n3")
    assert flt.param("factor") == 0.1
    assert parse_fault("gw_outage@2.0s+0.5s").target == ""


@pytest.mark.parametrize("bad", [
    "gw_outage",                # no @
    "gremlin@1s+1s",            # unknown model
    "gw_outage@1s",             # no +DUR
    "gw_outage@xs+1s",          # bad number
    "slow_node@1s+1s:n0,factor",   # param without =
    "slow_node@1s+1s:n0,factor=x", # bad param value
])
def test_parse_fault_rejects(bad):
    with pytest.raises(ValueError):
        parse_fault(bad)


def test_parse_cluster_tweak():
    tw = parse_cluster_tweak("1:cpu=0.5,nodes=8,link=fast-ethernet")
    assert (tw.cluster, tw.cpu_speed, tw.n_nodes, tw.link) == \
        (1, 0.5, 8, "fast-ethernet")
    with pytest.raises(ValueError):
        parse_cluster_tweak("x:cpu=2")
    with pytest.raises(ValueError):
        parse_cluster_tweak("1:")
    with pytest.raises(ValueError):
        parse_cluster_tweak("1:speed=2")
    with pytest.raises(ValueError, match="unknown link class"):
        ClusterTweak(0, link="token-ring")


def test_scenario_topology_applies_tweaks():
    from repro.network import uniform_clusters
    base = uniform_clusters(2, 4)
    scn = Scenario(clusters=(ClusterTweak(1, cpu_speed=2.0, n_nodes=2),))
    topo = scenario_topology(scn, base)
    assert [c.n_nodes for c in topo.clusters] == [4, 2]
    assert topo.clusters[1].cpu_speed == 2.0
    with pytest.raises(ValueError):
        scenario_topology(Scenario(clusters=(ClusterTweak(5),)), base)
    # No tweaks: the very same topology object comes back.
    assert scenario_topology(Scenario(), base) is base


# ------------------------------------------------- no-op trace identity


def _records(scenario):
    tracer = Tracer()
    res = _run("tsp", clusters=2, nodes=2, scenario=scenario, trace=True,
               tracer=tracer)
    return res, list(tracer.records)


def test_noop_scenario_is_trace_identical_to_plain_run():
    plain, plain_recs = _records(None)
    noop, noop_recs = _records(Scenario(seed=42))
    assert noop.elapsed == plain.elapsed
    assert noop.answer == plain.answer
    assert noop.traffic == plain.traffic
    assert noop_recs == plain_recs


# ------------------------------------------------------ seed determinism


def _impaired_scenario(seed=0):
    return Scenario(
        seed=seed,
        impairments=(Impairment.of("jitter", sigma=0.3),
                     Impairment.of("loss", p=0.05, rto=0.01),
                     Impairment.of("cross_traffic", load=0.5)),
        faults=(Fault.of("gw_outage", at=0.05, duration=0.05),))


def test_impaired_run_is_deterministic_per_seed():
    a = _run(scenario=_impaired_scenario())
    b = _run(scenario=_impaired_scenario())
    assert a.elapsed == b.elapsed
    assert a.answer == b.answer
    assert a.traffic == b.traffic
    c = _run(scenario=_impaired_scenario(seed=1))
    assert c.elapsed != a.elapsed  # a different seed really re-draws
    assert c.answer == a.answer   # ... but never changes the answer


def test_impaired_sweep_serial_matches_pool():
    specs = [RunSpec("ra", "original", 2, 2, small_params("ra"),
                     scenario=_impaired_scenario(seed=s))
             for s in range(3)]
    serial = ParallelRunner(jobs=1, cache=None).run(specs)
    pooled = ParallelRunner(jobs=2, cache=None).run(specs)
    for a, b in zip(serial, pooled):
        assert (a.elapsed, a.answer, a.traffic) == \
            (b.elapsed, b.answer, b.traffic)


def test_impairments_slow_the_run_down_not_the_answer():
    clean = _run()
    impaired = _run(scenario=_impaired_scenario())
    assert impaired.elapsed > clean.elapsed
    assert impaired.answer == clean.answer


# ----------------------------------------------------------------- faults


def test_gw_outage_delays_elapsed_and_traces_its_window():
    clean = _run("tsp", clusters=2, nodes=2)
    # The small TSP run lasts ~13 ms of virtual time; park the outage
    # window over most of it.
    scn = Scenario(faults=(
        Fault.of("gw_outage", at=0.001, duration=0.05, target="c0"),))
    tracer = Tracer(kinds={"scn.fault"})
    res = _run("tsp", clusters=2, nodes=2, scenario=scn, trace=True,
               tracer=tracer)
    assert res.elapsed > clean.elapsed
    assert res.answer == clean.answer
    windows = fault_windows(tracer.records)
    assert len(windows) == 1
    win = windows[0]
    assert isinstance(win, FaultWindow)
    assert (win.model, win.target) == ("gw_outage", "c0")
    # In-service forwards drain first, so the window starts at or after
    # the requested onset and lasts exactly the requested duration.
    assert win.t0 >= 0.001
    assert win.duration == pytest.approx(0.05)
    assert win.covers(win.t0 + 0.01) and not win.covers(win.t1 + 1.0)


def test_link_flap_and_slow_node_run_and_trace():
    scn = Scenario(faults=(
        Fault.of("link_flap", at=0.05, duration=0.1, target="c0-c1"),
        Fault.of("slow_node", at=0.0, duration=0.2, target="n1",
                 factor=0.5)))
    tracer = Tracer(kinds={"scn.fault"})
    res = _run(scenario=scn, trace=True, tracer=tracer)
    clean = _run()
    assert res.answer == clean.answer
    assert res.elapsed >= clean.elapsed
    assert [(w.model, w.target) for w in fault_windows(tracer.records)] == \
        [("slow_node", "n1"), ("link_flap", "c0-c1")]  # sorted by onset


def test_fault_target_validation():
    from repro.network import uniform_clusters
    from repro.scenario import install
    from repro.sim import Simulator
    from repro.network import DAS_PARAMS, Fabric
    sim = Simulator()
    fabric = Fabric(sim, uniform_clusters(2, 2), DAS_PARAMS)
    bad = Scenario(faults=(
        Fault.of("gw_outage", at=0.0, duration=1.0, target="c9"),))
    with pytest.raises(ValueError, match="c9"):
        install(sim, fabric, bad)
    with pytest.raises(ValueError):
        install(sim, fabric, Scenario(faults=(
            Fault.of("link_flap", at=0.0, duration=1.0, target="c0-c0"),)))
    with pytest.raises(ValueError):
        install(sim, fabric, Scenario(faults=(
            Fault.of("slow_node", at=0.0, duration=1.0, target="n99"),)))


# ---------------------------------------------------------- heterogeneity


def test_cluster_cpu_speed_changes_elapsed_not_answer():
    import numpy as np
    base = _run("sor", clusters=2, nodes=2)
    fast = _run("sor", clusters=2, nodes=2, scenario=Scenario(
        clusters=(ClusterTweak(0, cpu_speed=4.0),
                  ClusterTweak(1, cpu_speed=4.0))))
    slow = _run("sor", clusters=2, nodes=2, scenario=Scenario(
        clusters=(ClusterTweak(1, cpu_speed=0.25),)))
    assert fast.elapsed < base.elapsed < slow.elapsed
    assert np.array_equal(fast.answer["grid"], base.answer["grid"])
    assert np.array_equal(slow.answer["grid"], base.answer["grid"])


def test_cluster_link_class_changes_elapsed():
    import numpy as np
    base = _run("water", clusters=2, nodes=2)
    slow_lan = _run("water", clusters=2, nodes=2, scenario=Scenario(
        clusters=(ClusterTweak(0, link="internet-sunday"),)))
    assert slow_lan.elapsed > base.elapsed
    assert np.array_equal(np.asarray(slow_lan.answer),
                          np.asarray(base.answer))


def test_cluster_node_count_tweak_resizes_the_run():
    res = _run("tsp", clusters=2, nodes=2, scenario=Scenario(
        clusters=(ClusterTweak(1, n_nodes=4),)))
    base = _run("tsp", clusters=2, nodes=2)
    assert res.answer == base.answer
    assert res.elapsed != base.elapsed


# ---------------------------------------------------- analyzers and traces


def test_impairment_summary_totals_scn_impair_records():
    scn = Scenario(impairments=(Impairment.of("loss", p=0.2, rto=0.01),
                                Impairment.of("cross_traffic", load=1.0)))
    tracer = Tracer(kinds={"scn.impair"})
    _run(scenario=scn, trace=True, tracer=tracer)
    summary = impairment_summary(tracer.records)
    assert summary["cross_traffic"]["events"] > 0
    assert summary["cross_traffic"]["extra_s"] > 0
    assert summary["loss"]["retries"] > 0
    for rec in tracer.records:
        assert rec.kind == "scn.impair"
        assert rec.detail["model"] in IMPAIRMENTS
        assert rec.detail["extra"] > 0


def test_fault_windows_unit():
    assert fault_windows([]) == []
    win = FaultWindow("gw_outage", "c0", 1.0, 3.0)
    assert win.duration == 2.0
    assert win.covers(1.0) and win.covers(2.5) and not win.covers(3.5)


def _striping_model():
    """A decision model under which every point-to-point WAN transfer
    of a small run is striped over four streams."""
    line = FittedLine(0.0, 1e-6)
    ctx = ContextModel(n_clusters=2, pb=line, bb=line, bb_threshold=0.0,
                       streams=((1, line), (4, FittedLine(0.0, 1e-7))))
    return DecisionModel(contexts=((2, ctx),), source="test")


def test_traced_impaired_run_matches_untraced():
    """Tracing adds records, never work: the impaired WAN path run with
    its trace hooks and call steps and without them ends at the same
    instant with the same traffic, app stats and engine counters — one
    stream, striped, and ASP's broadcasts across four clusters."""
    scn = _impaired_scenario()
    cases = (dict(), dict(decision=_striping_model()),
             dict(app="asp", clusters=4, nodes=2))
    for kwargs in cases:
        untraced = _run(scenario=scn, **kwargs)
        traced = _run(scenario=scn, trace=True, tracer=Tracer(), **kwargs)
        for field in ("elapsed", "traffic", "stats", "sim_stats"):
            assert getattr(traced, field) == getattr(untraced, field), (
                kwargs, field)
        assert set(untraced.sim_stats) >= {
            "events_processed", "spawns", "fast_completions", "fallbacks"}
    assert _striping_model().wan_streams(64, 2) == 4


@pytest.mark.parametrize("shape", ["chain", "binomial"])
def test_traced_wan_fanout_matches_untraced(shape):
    """A WAN fan-out relayed over a ``chain`` or ``binomial`` tree on
    an impaired bare fabric — forwards, PVC copies and relays at tied
    instants — delivers at the same instants with the same traffic and
    engine counters traced and untraced."""
    def run(traced):
        sim = Simulator()
        fabric = Fabric(sim, uniform_clusters(4, 3), DAS_PARAMS,
                        tracer=Tracer())
        fabric.tracer.enabled = traced
        install(sim, fabric, _impaired_scenario())
        times = []

        def source(src):
            for _ in range(3):
                done = yield from fabric.wan_fanout_multicast(
                    src, 4096, shape=shape, streams=2)
                times.append((src, sim.now, (yield done)))

        for src in (0, 1, 3):
            sim.spawn(source(src))
        sim.run()
        return (times, fabric.meter.snapshot(), sim.stats(),
                len(fabric.tracer.records))

    *untraced, no_records = run(False)
    *traced, records = run(True)
    assert traced == untraced
    assert no_records == 0 < records


# ------------------------------------------------- pinned impairment plans


class _Clock:
    """The one simulator attribute :class:`WanImpairments` reads."""

    now = 0.0


#: All four impairment models at once, with a dip cycle short enough
#: that the fixed transfer sequence below lands inside and outside it.
ALL_IMPAIRMENTS = Scenario(seed=5, impairments=(
    Impairment.of("jitter", sigma=0.4),
    Impairment.of("loss", p=0.3, rto=0.02, max_retries=3),
    Impairment.of("bw_dip", depth=0.6, period=0.05, duty=0.4),
    Impairment.of("cross_traffic", load=0.5)))


def _plan_sequence(traced, scenario=ALL_IMPAIRMENTS, n=1200):
    """Plans of a fixed sequence of transfers over all 12 directed pairs
    of four clusters (sizes include 0 and 1 byte, the clock advances
    between transfers) and the ``scn.impair`` records they emitted."""
    clock = _Clock()
    tracer = Tracer()
    tracer.enabled = traced
    impair = WanImpairments(clock, scenario, tracer=tracer)
    pairs = [(a, b) for a in range(4) for b in range(4) if a != b]
    sizes = (0, 1, 64, 1500, 65536, 1 << 20, 333)
    plans = []
    for i in range(n):
        a, b = pairs[(5 * i) % len(pairs)]
        size = sizes[i % len(sizes)]
        clock.now = i * 0.0037
        plan = impair.plan(a, b, size, size / 2.5e5, 0.002 + 1e-4 * (i % 3),
                           i)
        plans.append((plan.tx, plan.latency, plan.retries, plan.rto))
    records = [(r.time, r.kind, tuple(sorted(r.detail.items())))
               for r in tracer.records]
    return plans, records


def _digest(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()


def test_impairment_plans_are_pinned():
    """Every plan and ``scn.impair`` record of a fixed transfer sequence
    under all four impairments, pinned as literal digests: a change to
    how draws are taken (order, batching, arithmetic) that moves one
    value by one ulp fails here.  Each pair sees 100 transfers, so
    any batch of draws under that size is crossed.  Tracing changes no
    plan."""
    plans, records = _plan_sequence(traced=True)
    assert sum(p[2] for p in plans) > 0 and len(records) > len(plans)
    assert {r[1] for r in records} == {"scn.impair"}
    assert {dict(r[2])["model"] for r in records} == {
        "jitter", "loss", "bw_dip", "cross_traffic"}
    assert _digest(plans) == PINNED_PLANS
    assert _digest(records) == PINNED_RECORDS
    assert _plan_sequence(traced=False) == (plans, [])


PINNED_PLANS = (
    "bd5f7f8c81d52bc9cb713ddb834203a973214c6d4d53bd7a3d3e79ad9d6ee89c")
PINNED_RECORDS = (
    "583494288de3c892e9e2b1633872b60676bbf5278ebacd219027fd513f1832ba")


def test_block_draws_equal_scalar_draws():
    """A block-filled stream read one value at a time gives, bit for
    bit, what one scalar numpy draw per use gives — in the arithmetic
    ``plan`` uses: ``scale * e`` for ``exponential(scale)``,
    ``math.exp(0.0 + sigma * z)`` for ``lognormal(0, sigma)``, and
    ``random()`` as is.  A numpy release that breaks this fails here."""
    n = 3 * BLOCK + 7
    for seed in (0, 1, 2 ** 40 + 3):
        label = f"equivalence:{seed}"
        for scale in (0.0, 1.0, 0.2 * 1500, 0.5 * 65536, 7.25e-3):
            draws = _draws(substream(seed, label).standard_exponential)
            scalar = substream(seed, label)
            assert [scale * next(draws) for _ in range(n)] == [
                float(scalar.exponential(scale)) for _ in range(n)]
        for sigma in (1e-9, 0.3, 1.0, 2.5):
            draws = _draws(substream(seed, label).standard_normal)
            scalar = substream(seed, label)
            assert [math.exp(0.0 + sigma * next(draws))
                    for _ in range(n)] == [
                float(scalar.lognormal(0.0, sigma)) for _ in range(n)]
        draws = _draws(substream(seed, label).random)
        scalar = substream(seed, label)
        assert [next(draws) for _ in range(n)] == [
            float(scalar.random()) for _ in range(n)]


def _scalar_plans(scenario, transfers):
    """Reference plans: one numpy scalar draw per use from lazily made
    (model, pair) streams, in the order and arithmetic of the model
    definitions in docs/SCENARIOS.md."""
    imps = {imp.model: imp for imp in scenario.impairments}
    streams, phases, plans = {}, {}, []

    def stream(model, pair):
        if (model, pair) not in streams:
            streams[model, pair] = substream(
                scenario.seed, f"{model}:{pair[0]}->{pair[1]}")
        return streams[model, pair]

    for now, pair, size, tx, latency in transfers:
        bandwidth = size / tx if tx > 0 else 0.0
        if "cross_traffic" in imps and bandwidth > 0:
            load = imps["cross_traffic"].param("load")
            extra = float(stream("cross_traffic", pair).exponential(
                load * size))
            if extra > 0:
                tx += extra / bandwidth
        if "bw_dip" in imps and tx > 0:
            dip = imps["bw_dip"]
            depth, period = dip.param("depth"), dip.param("period")
            if pair not in phases:
                phases[pair] = float(stream("bw_dip", pair).uniform(
                    0.0, period))
            if (now + phases[pair]) % period < dip.param("duty") * period \
                    and depth > 0:
                tx += tx * depth / (1.0 - depth)
        if "jitter" in imps and imps["jitter"].param("sigma") > 0:
            factor = float(stream("jitter", pair).lognormal(
                0.0, imps["jitter"].param("sigma")))
            latency += latency * (factor - 1.0)
        retries, rto = 0, 0.0
        if "loss" in imps:
            loss = imps["loss"]
            p, rto = loss.param("p"), loss.param("rto")
            while retries < loss.param("max_retries") and \
                    float(stream("loss", pair).random()) < p:
                retries += 1
        plans.append((tx, latency, retries, rto))
    return plans


_PAIRS = [(a, b) for a in range(4) for b in range(4) if a != b]
_UNIT = st.floats(0.0, 1.0, allow_nan=False)


@st.composite
def _impaired_scenarios(draw):
    models = {
        "jitter": lambda: Impairment.of("jitter", sigma=draw(_UNIT)),
        "loss": lambda: Impairment.of(
            "loss", p=draw(st.floats(0.0, 0.9)), rto=draw(_UNIT),
            max_retries=draw(st.integers(0, 6))),
        "bw_dip": lambda: Impairment.of(
            "bw_dip", depth=draw(st.floats(0.0, 0.95)),
            period=draw(st.floats(1e-3, 0.5)), duty=draw(_UNIT)),
        "cross_traffic": lambda: Impairment.of(
            "cross_traffic", load=draw(st.floats(0.0, 3.0))),
    }
    chosen = draw(st.lists(st.sampled_from(sorted(models)), unique=True))
    return Scenario(seed=draw(st.integers(0, 2 ** 32)),
                    impairments=tuple(models[m]() for m in chosen))


@settings(max_examples=60, deadline=None)
@given(scenario=_impaired_scenarios(),
       steps=st.lists(st.tuples(
           st.sampled_from(_PAIRS[:3]) | st.sampled_from(_PAIRS),
           st.sampled_from((0, 1, 2, 64, 1500, 65536, 1 << 20)) |
           st.integers(0, 1 << 22),
           st.floats(0.0, 0.05)), max_size=150))
def test_block_drawn_plans_equal_the_scalar_reference(scenario, steps):
    """Mixed pairs, sizes and clock steps through ``bw_dip`` windows:
    every plan equals the scalar-draw reference's."""
    clock = _Clock()
    impair = WanImpairments(clock, scenario)
    transfers, plans = [], []
    for pair, size, dt in steps:
        clock.now += dt
        tx, latency = size / 2.5e5, 0.0027
        transfers.append((clock.now, pair, size, tx, latency))
        plan = impair.plan(*pair, size, tx, latency, -1)
        plans.append((plan.tx, plan.latency, plan.retries, plan.rto))
    assert plans == _scalar_plans(scenario, transfers)


# ------------------------------------------------------- sweeps and cache


def test_runspec_scenario_distinguishes_cache_keys():
    params = small_params("ra")
    clean = RunSpec("ra", "original", 2, 2, params)
    scn_a = RunSpec("ra", "original", 2, 2, params,
                    scenario=_impaired_scenario(seed=0))
    scn_b = RunSpec("ra", "original", 2, 2, params,
                    scenario=_impaired_scenario(seed=1))
    keys = {clean.key(), scn_a.key(), scn_b.key()}
    assert len(keys) == 3
    same = RunSpec("ra", "original", 2, 2, params,
                   scenario=_impaired_scenario(seed=0))
    assert same.key() == scn_a.key()


def test_scenario_sweep_warm_cache_hits(tmp_path):
    cache = ResultCache(str(tmp_path / "c"))
    specs = [RunSpec("ra", "original", 2, 2, small_params("ra"),
                     scenario=_impaired_scenario())]
    cold = ParallelRunner(jobs=1, cache=cache)
    first = cold.run(specs)
    assert (cold.hits, cold.computed) == (0, 1)
    warm = ParallelRunner(jobs=1, cache=cache)
    second = warm.run(specs)
    assert (warm.hits, warm.computed) == (1, 0)
    assert first[0].elapsed == second[0].elapsed
    assert first[0].traffic == second[0].traffic


# ------------------------------------------------------------------- CLI


def test_cli_scenario_runs_and_caches(tmp_path, monkeypatch, capsys):
    from repro.__main__ import main
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    argv = ["scenario", "ra", "--clusters", "2", "--nodes", "2",
            "--wan-jitter", "lognormal:0.3",
            "--fault", "gw_outage@0.02s+0.05s"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "ra" in out and "clean" in out and "slowdown" in out
    assert main(argv) == 0  # second invocation: both points cached
    err = capsys.readouterr().err
    assert "(2 cached, 0 simulated)" in err


def test_cli_scenario_rejects_bad_specs(capsys):
    from repro.__main__ import main
    assert main(["scenario", "ra", "--wan-jitter", "uniform:0.3"]) == 2
    assert main(["scenario", "ra", "--fault", "gw_outage"]) == 2
    assert main(["scenario", "ra", "--cluster", "x:cpu=2"]) == 2
    assert main(["scenario", "ra", "--wan-dip", "1"]) == 2
    assert main(["scenario", "ra", "--wan-dip", "0.5:0"]) == 2
    assert main(["scenario", "ra", "--wan-dip", "0.5:1:3"]) == 2
    assert main(["scenario", "ra", "--wan-loss", "1.5"]) == 2
    assert main(["scenario", "ra", "--fault",
                 "slow_node@0s+1s:n0,factor=0"]) == 2
    err = capsys.readouterr().err
    assert "bw_dip.depth must be in [0, 1), got 1.0" in err
    assert "loss.p must be in [0, 1], got 1.5" in err
    assert "slow_node.factor must be in (0, 1], got 0.0" in err
