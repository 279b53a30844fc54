"""The auto-tuner: cost fits, the frozen DecisionModel, and its runtime
effect.

Covers the pure model layer (least-squares fit, crossover semantics,
JSON round-trip, validation), the golden contract that an installed
model with no deviation from the defaults — and especially *no* model —
is bit-identical to the fixed strategy, the physics the tuner is meant
to discover (striping overlaps loss-retransmit timeouts), and the
harness plumbing: probes traced as ``tune.probe``, ``RunSpec`` cache
keys that distinguish decisions, per-seed reproducibility, and serial
vs ``--jobs N`` equality.
"""

import math

import pytest

from repro.apps import make_app, small_params
from repro.harness.experiment import run_app
from repro.harness.sweeps import ParallelRunner, RunSpec
from repro.network import DAS_PARAMS, Fabric, uniform_clusters
from repro.orca.broadcast import BB_THRESHOLD
from repro.scenario import Impairment, Scenario, install
from repro.sim import Simulator, Tracer
from repro.tuner import (PRIMITIVES, ContextModel, DecisionModel, FittedLine,
                         Strategy, crossover, fit, fit_line, sweep, tune)

LOSSY = Scenario(seed=5, impairments=(Impairment.of("loss", p=0.3,
                                                    rto=0.05),))


# ------------------------------------------------------------ model layer

def test_fit_line_exact_recovery():
    line = fit_line([(0, 1.0), (100, 3.0), (200, 5.0)])
    assert line.a == pytest.approx(1.0)
    assert line.b == pytest.approx(0.02)
    assert line.cost(50) == pytest.approx(2.0)


def test_fit_line_degenerate_points():
    assert fit_line([(64, 2.0)]) == FittedLine(2.0, 0.0)
    same_x = fit_line([(64, 1.0), (64, 3.0)])
    assert same_x == FittedLine(2.0, 0.0)
    with pytest.raises(ValueError):
        fit_line([])


def test_crossover_semantics():
    pb, bb = FittedLine(0.0, 4e-6), FittedLine(0.1, 2e-6)
    assert crossover(pb, bb) == pytest.approx(50_000)
    # Parallel lines: whoever is lower wins everywhere.
    assert crossover(FittedLine(1.0, 1e-6), FittedLine(2.0, 1e-6)) \
        == float("inf")
    assert crossover(FittedLine(2.0, 1e-6), FittedLine(1.0, 1e-6)) == 0.0
    # Identical lines fall back to the caller's default.
    assert crossover(pb, pb) == float(BB_THRESHOLD)
    assert crossover(pb, pb, default=42.0) == 42.0
    # BB cheaper only *below* the intersection -> never/always semantics.
    assert crossover(FittedLine(0.0, 2e-6), FittedLine(0.1, 4e-6)) \
        == float("inf")


def test_strategy_validation():
    with pytest.raises(ValueError, match="shape"):
        Strategy(bb=True, shape="ring")
    with pytest.raises(ValueError, match="streams"):
        Strategy(bb=True, streams=0)


def _model(thr=1024.0, shapes=(), streams=()):
    ctx = ContextModel(n_clusters=2, pb=FittedLine(0.0, 4e-6),
                       bb=FittedLine(thr * 2e-6, 2e-6), bb_threshold=thr,
                       shapes=tuple(shapes), streams=tuple(streams))
    return DecisionModel(contexts=((2, ctx),), source="test")


def test_decision_model_lookup_and_validation():
    flat, chain = FittedLine(0.1, 1e-6), FittedLine(0.05, 2e-6)
    model = DecisionModel(contexts=(
        (2, ContextModel(2, FittedLine(0, 1e-6), FittedLine(0, 5e-7), 0.0,
                         shapes=(("chain", chain), ("flat", flat)),
                         streams=((1, flat), (4, chain)))),
        (8, ContextModel(8, FittedLine(0, 1e-6), FittedLine(1, 1e-6),
                         float("inf")))))
    # Nearest probed context answers; ties break toward fewer clusters.
    assert model.context_for(2).n_clusters == 2
    assert model.context_for(4).n_clusters == 2
    assert model.context_for(5).n_clusters == 2
    assert model.context_for(100).n_clusters == 8
    # Shape/stream argmin flips with size (lines cross at 50 kB).
    assert model.strategy(1024, 2).shape == "chain"
    assert model.strategy(200_000, 2).shape == "flat"
    assert model.wan_streams(1024, 2) == 4
    assert model.wan_streams(200_000, 2) == 1
    # Single-cluster runs never shape or stripe a WAN that isn't there.
    strat = model.strategy(200_000, 1)
    assert strat.shape == "flat" and strat.streams == 1
    assert model.wan_streams(1024, 1) == 1
    with pytest.raises(ValueError, match="duplicate"):
        DecisionModel(contexts=((2, model.context_for(2)),
                                (2, model.context_for(2))))
    with pytest.raises(ValueError, match="contexts"):
        DecisionModel(contexts=()).context_for(2)


def test_json_round_trip():
    flat, chain = FittedLine(0.1, 1e-6), FittedLine(0.05, 2e-6)
    model = _model(shapes=(("chain", chain), ("flat", flat)),
                   streams=((1, flat), (2, chain)))
    again = DecisionModel.from_json(model.to_json())
    assert again == model
    assert hash(again) == hash(model)
    with pytest.raises(ValueError, match="not a repro.tuner"):
        DecisionModel.from_json('{"model": "something-else"}')
    with pytest.raises(ValueError, match="version"):
        DecisionModel.from_json(
            '{"model": "repro.tuner.DecisionModel", "version": 99}')


# ------------------------------------------- golden: the default tier

def test_no_model_is_bit_identical_to_pre_tuner_fixed_strategy():
    """A model pinned to the fixed defaults (threshold at BB_THRESHOLD,
    no shape/stream lines) must reproduce a no-model app run exactly —
    trace records included."""
    pinned = DecisionModel(contexts=((2, ContextModel(
        2, FittedLine(0.0, 2.0 ** -18),
        FittedLine(BB_THRESHOLD * 2.0 ** -19, 2.0 ** -19),
        float(BB_THRESHOLD))),))

    def traced(decision):
        tracer = Tracer()
        res = run_app(make_app("asp"), "original", 2, 2,
                      small_params("asp"), scenario=LOSSY, tracer=tracer,
                      decision=decision)
        return res, [(r.time, r.kind, tuple(sorted(r.detail.items())))
                     for r in tracer.records]

    none_res, none_recs = traced(None)
    pinned_res, pinned_recs = traced(pinned)
    assert none_res.elapsed == pinned_res.elapsed
    assert none_res.traffic == pinned_res.traffic
    assert none_recs == pinned_recs


# ------------------------------------------------- per-run decision tables

def test_per_run_tables_hold_the_models_answers():
    """The broadcast layer and the fabric resolve the model once per
    size per run: after broadcasts and point-to-point sends at sizes on
    both sides of the model's crossovers, each table holds exactly the
    probed sizes, each with the answer the model itself gives."""
    from repro.orca import OrcaRuntime
    from repro.tuner.driver import _PROBE_OBJ, _probe_object

    flat, chain = FittedLine(0.1, 1e-6), FittedLine(0.05, 2e-6)
    model = _model(thr=4096.0, shapes=(("chain", chain), ("flat", flat)),
                   streams=((1, flat), (4, chain)))
    sim = Simulator()
    fabric = Fabric(sim, uniform_clusters(2, 2), DAS_PARAMS)
    fabric.decision = model
    rts = OrcaRuntime(sim, fabric, sequencer="centralized")
    rts.register(_probe_object())
    sizes = (16, 1024, 4096, 50_000, 200_000, 1024, 16)

    def driver():
        for size in sizes:
            yield from rts.invoke(2, _PROBE_OBJ, "put", (size,))
            yield from fabric.send_and_wait(0, 3, size)

    sim.spawn(driver())
    sim.run()
    probed = set(sizes)
    assert {model.strategy(s, 2).shape for s in probed} == {"flat", "chain"}
    assert {model.wan_streams(s, 2) for s in probed} == {1, 4}
    assert rts.tob._strategies == {
        s: (model.strategy(s, 2).bb, model.strategy(s, 2).shape,
            model.strategy(s, 2).streams) for s in probed}
    assert fabric._stripes == {s: model.wan_streams(s, 2) for s in probed}


# ------------------------------------------------- the physics to find

def _timed_send(streams, scenario, size=65536):
    sim = Simulator()
    fabric = Fabric(sim, uniform_clusters(2, 2), DAS_PARAMS)
    install(sim, fabric, scenario)
    if streams > 1:
        fabric.decision = _model(streams=((1, FittedLine(1.0, 0.0)),
                                          (streams, FittedLine(0.0, 0.0))))

    def proc():
        yield from fabric.send_and_wait(0, 2, size)

    sim.run_process(proc())
    return sim.now


def test_striping_overlaps_loss_retransmits():
    """Under loss, 4-stream striping overlaps the rto waits and pays
    4x-cheaper retransmit serializations — the *mean* win the tuner is
    built to discover (MPWide).  Per-seed either side can get lucky, so
    this averages a fixed seed set (fully deterministic)."""
    import dataclasses

    def mean(streams):
        return sum(_timed_send(streams, dataclasses.replace(LOSSY, seed=s))
                   for s in range(20)) / 20

    assert mean(4) < mean(1)


def test_sweep_probes_traced_and_fit_covers_primitives():
    tracer = Tracer()
    probes = sweep(sizes=(512, 8192), cluster_counts=(1, 2),
                   nodes_per_cluster=2, scenarios=(None,), reps=1,
                   tracer=tracer)
    labels = {p.primitive for p in probes}
    # WAN-only primitives are skipped on the single-cluster topology...
    assert {"bcast_pb", "bcast_bb"} <= labels
    assert {p.primitive for p in probes if p.n_clusters == 1} \
        == {"bcast_pb", "bcast_bb"}
    # ...and expanded (stripe -> stripe_k) on the multi-cluster one.
    wan = {p.primitive for p in probes if p.n_clusters == 2}
    for name, spec in PRIMITIVES.items():
        if name == "stripe":
            assert {"stripe_1", "stripe_2", "stripe_4"} <= wan
        elif name.startswith("fanout_"):
            assert name in wan
    # Every probe left an attributable trace record.
    probe_recs = [r for r in tracer.records if r.kind == "tune.probe"]
    assert len(probe_recs) == len(probes)
    assert all(set(r.detail) >= {"primitive", "size", "clusters", "rep"}
               for r in probe_recs)
    model = fit(probes, source="test sweep")
    assert [n for n, _ctx in model.contexts] == [1, 2]
    assert model.context_for(2).shapes and model.context_for(2).streams
    assert not model.context_for(1).shapes


def test_fit_requires_ordering_probes():
    with pytest.raises(ValueError, match="probes"):
        fit([])


@pytest.mark.parametrize("kwargs,match", [
    (dict(reps=0), "repetitions must be >= 1: 0"),
    (dict(sizes=(64, 0)), "sizes must be >= 1: 0"),
])
def test_tune_rejects_non_positive_counts_at_the_call(kwargs, match):
    """Zero repetitions would divide by zero in the first probe; the
    call refuses before any probe runs."""
    with pytest.raises(ValueError, match=match):
        tune(cluster_counts=(1,), **kwargs)


# ----------------------------------------------------- harness plumbing

def test_runspec_cache_key_distinguishes_decisions():
    params = small_params("asp")
    base = RunSpec("asp", "original", 2, 2, params)
    tuned = RunSpec("asp", "original", 2, 2, params, decision=_model())
    other = RunSpec("asp", "original", 2, 2, params,
                    decision=_model(thr=2048.0))
    same = RunSpec("asp", "original", 2, 2, params, decision=_model())
    assert base.key() != tuned.key()
    assert tuned.key() != other.key()
    assert tuned.key() == same.key()


def test_tuned_run_per_seed_reproducible_and_parallel_equal():
    model = tune(sizes=(256, 8192), cluster_counts=(2,),
                 nodes_per_cluster=2, scenarios=(LOSSY,), seeds=(0,),
                 reps=1)
    params = small_params("ra")
    spec = RunSpec("ra", "original", 2, 2, params, scenario=LOSSY,
                   decision=model)
    serial = ParallelRunner(jobs=1, cache=None)
    once = serial.run([spec, spec])
    assert once[0].elapsed == once[1].elapsed  # same seed -> same run
    assert once[0].traffic == once[1].traffic
    parallel = ParallelRunner(jobs=2, cache=None)
    twice = parallel.run([spec, spec])
    assert [r.elapsed for r in twice] == [r.elapsed for r in once]
    assert [r.traffic for r in twice] == [r.traffic for r in once]
    # A different scenario seed is a different (still deterministic) run.
    import dataclasses
    other_seed = dataclasses.replace(LOSSY, seed=6)
    other = serial.run_one(RunSpec("ra", "original", 2, 2, params,
                                   scenario=other_seed, decision=model))
    assert other.elapsed != once[0].elapsed
