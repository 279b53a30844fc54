"""Instance tables (``repro.apps.instance``): per-job grain, RA's game
graph and ACP's constraint network are pure functions of the frozen
params, built once per process — on demand by a run, or ahead of one by
``Application.build_instance``.

The references below are the per-call draws the tables replaced, kept
here — label format, draw order and clamp — as the spec the lookups
must equal for every seed and key.
"""

import hashlib
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import make_app
from repro.apps.acp import ACPParams
from repro.apps.acp import csp
from repro.apps.atpg import ATPGParams
from repro.apps.atpg import circuit
from repro.apps.base import Application
from repro.apps.ida import IDAParams
from repro.apps.ida import puzzle
from repro.apps.instance import INSTANCE_MEMO, InstanceTable
from repro.apps.ra import RAParams
from repro.apps.ra import game
from repro.apps.tsp import TSPParams
from repro.apps.tsp import problem
from repro.harness import run_app
from repro.sim.rng import substream

#: every memoised builder of ``repro.apps`` (ARCHITECTURE, *Process-level
#: state*) with a maker of distinct memo keys.
BUILDERS = {
    "tsp": (problem._job_nodes, lambda i: (i, 2000.0, 0.6)),
    "atpg": (circuit._gate_effort, lambda i: (i, 24)),
    "ida": (puzzle._job_nodes, lambda i: (i, 400.0, 0.6, 5.0)),
    "ra": (game.build_game, lambda i: (RAParams.small(40).with_(seed=i),)),
    "acp": (csp._network, lambda i: (i, 30, 16, 60, 0.45)),
}


@pytest.fixture(autouse=True)
def _empty_memos():
    for builder, _ in BUILDERS.values():
        builder.cache_clear()
    yield
    for builder, _ in BUILDERS.values():
        builder.cache_clear()


# ------------------------------------------ (a) lookups equal the draws

seeds = st.integers(min_value=0, max_value=2 ** 63 - 1)


def _ref_tsp(p: TSPParams, prefix) -> int:
    rng = substream(p.seed, f"tsp.job.{prefix}")
    mu = np.log(p.synth_mean_nodes) - p.synth_sigma ** 2 / 2
    return max(1, int(rng.lognormal(mu, p.synth_sigma)))


def _ref_atpg(p: ATPGParams, gate: int):
    rng = substream(p.seed, f"atpg.gate.{gate}")
    patterns = covered = tries = 0
    for _stuck in (0, 1):
        p_detect = float(rng.beta(1.2, 2.0))
        t = int(rng.geometric(max(p_detect, 1e-3)))
        if t <= p.max_tries:
            tries += t
            patterns += 1
            covered += 1
        else:
            tries += p.max_tries
    return patterns, covered, tries


def _ref_ida(p: IDAParams, job: int, iteration: int) -> int:
    rng = substream(p.seed, f"ida.job.{job}.{iteration}")
    mu = np.log(p.synth_base_nodes) - p.synth_sigma ** 2 / 2
    base = rng.lognormal(mu, p.synth_sigma)
    return max(1, int(base * p.synth_growth ** iteration))


@settings(max_examples=60, deadline=None)
@given(seed=seeds,
       prefix=st.lists(st.integers(0, 16), min_size=1, max_size=5).map(tuple))
def test_tsp_lookup_equals_the_draw(seed, prefix):
    p = TSPParams.paper().with_(seed=seed)
    # One field the draw reads, one it does not, next to the original.
    for q in (p, p.with_(synth_sigma=1.1), p.with_(node_cost=1e-3), p):
        assert problem.synthetic_job_nodes(q, prefix) == _ref_tsp(q, prefix)


@settings(max_examples=60, deadline=None)
@given(seed=seeds, gate=st.integers(0, 4095))
def test_atpg_lookup_equals_the_draw(seed, gate):
    p = ATPGParams.paper().with_(seed=seed)
    for q in (p, p.with_(max_tries=2), p.with_(eval_cost=1.0), p):
        assert circuit.synthetic_gate_effort(q, gate) == _ref_atpg(q, gate)


@settings(max_examples=60, deadline=None)
@given(seed=seeds, job=st.integers(0, 1023), iteration=st.integers(0, 5))
def test_ida_lookup_equals_the_draw(seed, job, iteration):
    p = IDAParams.paper().with_(seed=seed)
    for q in (p, p.with_(synth_growth=3.0), p.with_(synth_sigma=0.2),
              p.with_(max_steal_attempts=2), p):
        assert puzzle.synthetic_job_nodes(q, job, iteration) \
            == _ref_ida(q, job, iteration)


def test_fields_the_draw_does_not_read_share_a_table():
    """The memo key is exactly what the draw reads: a cost or geometry
    sweep builds one table, a distribution change builds another."""
    for lookup, builder, params, unread, read in (
            (lambda q: problem.synthetic_job_nodes(q, (0, 1)),
             problem._job_nodes, TSPParams.paper(),
             dict(node_cost=1.0, job_depth=2, n_cities=9),
             dict(synth_mean_nodes=10.0)),
            (lambda q: circuit.synthetic_gate_effort(q, 3),
             circuit._gate_effort, ATPGParams.paper(),
             dict(eval_cost=1.0, n_gates=8), dict(max_tries=1)),
            (lambda q: puzzle.synthetic_job_nodes(q, 1, 1),
             puzzle._job_nodes, IDAParams.paper(),
             dict(node_cost=1.0, synth_jobs=4, max_steal_attempts=1),
             dict(synth_base_nodes=7.0)),
            (csp.build_network, csp._network, ACPParams.small(),
             dict(check_cost=1.0, kernel="synthetic"),
             dict(tightness=0.5))):
        lookup(params)
        lookup(params.with_(**unread))
        assert builder.cache_info().currsize == 1
        lookup(params.with_(**read))
        assert builder.cache_info().currsize == 2


# --------------------------------------------------- (b) cold vs warm

#: the synthetic kernels, scaled down to a fraction of a second at 2x3.
SCALED = {
    "tsp": TSPParams.paper().with_(n_cities=7, job_depth=2),
    "atpg": ATPGParams.paper().with_(n_gates=48),
    "ida": IDAParams.paper().with_(synth_jobs=18, synth_iterations=3),
}
#: per-job draws one cold run of each instance makes.
DRAWS = {"tsp": 6 * 5, "atpg": 48, "ida": 18 * 3}


def _count_job_streams(monkeypatch):
    """Count every per-job ``Generator`` the three domains construct."""
    made = []

    def counting(seed, label):
        if label.startswith(("tsp.job.", "atpg.gate.", "ida.job.")):
            made.append(label)
        return substream(seed, label)

    for mod in (problem, circuit, puzzle):
        monkeypatch.setattr(mod, "substream", counting)
    return made


@pytest.mark.parametrize("app", sorted(SCALED))
def test_warm_run_equals_cold_run_and_draws_nothing(app, monkeypatch):
    made = _count_job_streams(monkeypatch)

    def both_variants():
        return [pickle.dumps(run_app(make_app(app), variant, 2, 3,
                                     SCALED[app]))
                for variant in ("original", "optimized")]

    cold = both_variants()
    # One draw per job for the whole process: ``optimized`` already
    # reuses the table ``original`` filled.
    assert len(made) == len(set(made)) == DRAWS[app]
    warm = both_variants()
    assert len(made) == DRAWS[app]
    # elapsed, answer, stats, traffic, sim_stats: byte for byte.
    assert warm == cold


#: an instance of every app with a table, each run in a fraction of a
#: second at 2x3.
BUILT = {**SCALED, "ra": RAParams.small(), "acp": ACPParams.small()}


@pytest.mark.parametrize("app", sorted(BUILT))
def test_build_instance_covers_every_table_a_run_reads(app, monkeypatch):
    """After ``build_instance`` a cold run of either variant constructs
    no per-job Generator and misses in no builder: the hook builds what
    a sweep parent must hand its forked workers."""
    made = _count_job_streams(monkeypatch)
    make_app(app).build_instance(BUILT[app])
    made.clear()
    misses = {name: builder.cache_info().misses
              for name, (builder, _) in BUILDERS.items()}
    for variant in ("original", "optimized"):
        run_app(make_app(app), variant, 2, 3, BUILT[app])
    assert made == []
    assert {name: builder.cache_info().misses
            for name, (builder, _) in BUILDERS.items()} == misses


@pytest.mark.parametrize("app", ["asp", "sor", "water"])
def test_apps_without_a_table_keep_the_no_op_hook(app):
    assert type(make_app(app)).build_instance is Application.build_instance


# ------------------------------------------------------- (c) bounded


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_memo_is_bounded_and_evicts_the_oldest(name):
    builder, key = BUILDERS[name]
    assert builder.cache_info().maxsize == INSTANCE_MEMO
    held = [builder(*key(i)) for i in range(INSTANCE_MEMO + 1)]
    assert builder.cache_info().currsize == INSTANCE_MEMO
    # Instances 1..bound are still the objects built above...
    for i in range(1, INSTANCE_MEMO + 1):
        assert builder(*key(i)) is held[i]
    # ...and only the oldest was dropped (rebuilt equal, not identical).
    assert builder(*key(0)) is not held[0]


# ------------------------------------------------- (d) RA's game graph


def test_build_game_memoises_and_evicts_least_recently_used():
    params = [RAParams.small(40).with_(seed=i)
              for i in range(INSTANCE_MEMO + 1)]
    graphs = [game.build_game(p) for p in params[:INSTANCE_MEMO]]
    assert game.build_game(RAParams.small(40).with_(seed=0)) is graphs[0]
    # Full.  One more instance evicts the least recently used (seed 1;
    # seed 0 was just touched) and nothing else.
    game.build_game(params[INSTANCE_MEMO])
    assert game.build_game.cache_info().currsize == INSTANCE_MEMO
    for i in (0, *range(2, INSTANCE_MEMO)):
        assert game.build_game(params[i]) is graphs[i]
    assert game.build_game(params[1]) is not graphs[1]


# ------------------------------------------ (e) ACP's constraint network


def _network_digest(net: csp.Network) -> str:
    """sha256 over every arc, support mask and initial domain, container
    types erased (the parent's builder made lists, this one tuples)."""
    h = hashlib.sha256()
    h.update(repr((net.n_vars, net.domain_size)).encode())
    for x in sorted(net.arcs):
        h.update(repr((x, [(y, list(s)) for y, s in net.arcs[x]])).encode())
    h.update(repr(list(net.initial_domains)).encode())
    return h.hexdigest()


#: recorded with the function above from the per-bit builder (36.9 M
#: ``allowed[a, b]`` tests at paper scale) before it was replaced.
PARENT_NETWORKS = {
    "small-0": (ACPParams.small().with_(seed=0),
                "584a3aa023b8277fa84f9c3f35d0c68cd4bb5a77"
                "3ba3cb49297d7900e3e6c081"),
    "small-23": (ACPParams.small(),
                 "82246b219ffd156ace857bbc8622e7471231ed64"
                 "73d7dc0e33e1c3682d6a7e95"),
    # Wider than a machine word: the masks are Python ints, not uint64.
    "small-977-d70": (ACPParams.small().with_(seed=977, domain_size=70),
                      "eafb6e0baed0ddfac748759a18dc783c113a2ad9"
                      "37337de407bad7475af7ddb3"),
    "paper": (ACPParams.paper(),
              "1eb4f749a5e9228d94a9d9f384f4591a150f330a"
              "23ee546080f9b254c1f06bbf"),
}


@pytest.mark.parametrize("name", sorted(PARENT_NETWORKS))
def test_network_equals_the_per_bit_builders(name):
    params, digest = PARENT_NETWORKS[name]
    assert _network_digest(csp.build_network(params)) == digest


def test_build_network_memoises_and_evicts_least_recently_used():
    params = [ACPParams.small(30, 60).with_(seed=i)
              for i in range(INSTANCE_MEMO + 1)]
    nets = [csp.build_network(p) for p in params[:INSTANCE_MEMO]]
    assert csp.build_network(ACPParams.small(30, 60).with_(seed=0)) is nets[0]
    csp.build_network(params[INSTANCE_MEMO])
    assert csp._network.cache_info().currsize == INSTANCE_MEMO
    for i in (0, *range(2, INSTANCE_MEMO)):
        assert csp.build_network(params[i]) is nets[i]
    assert csp.build_network(params[1]) is not nets[1]


def test_network_hands_out_nothing_mutable():
    """Every run of the instance in this process reads the same object."""
    net = csp.build_network(ACPParams.small())
    with pytest.raises(AttributeError):
        net.initial_domains = ()
    with pytest.raises(TypeError):
        net.arcs[0] = ()
    assert type(net.initial_domains) is tuple and net.arcs_of(-1) == ()
    for x, arcs in net.arcs.items():
        assert type(arcs) is tuple and arcs is net.arcs_of(x)
        assert all(type(arc) is tuple and type(arc[1]) is tuple
                   for arc in arcs)
    # A run leaves it as it found it, and a second run sees the same.
    before = _network_digest(net)
    first = run_app(make_app("acp"), "original", 2, 2, ACPParams.small())
    assert _network_digest(net) == before
    again = run_app(make_app("acp"), "original", 2, 2, ACPParams.small())
    assert pickle.dumps(again) == pickle.dumps(first)
    assert csp.sequential_reference(ACPParams.small()) == first.answer


# ------------------------------------- (f) reference and run, either order


def test_atpg_reference_and_run_agree_whoever_fills_the_table():
    params = SCALED["atpg"]
    ran = run_app(make_app("atpg"), "original", 2, 3, params).answer
    assert circuit.sequential_reference(params) == ran
    circuit._gate_effort.cache_clear()
    ref = circuit.sequential_reference(params)
    assert run_app(make_app("atpg"), "optimized", 2, 3, params).answer == ref
    assert ref == ran == tuple(
        sum(_ref_atpg(params, g)[k] for g in range(params.n_gates))
        for k in (0, 1))


def test_instance_table_fills_on_miss_only():
    calls = []
    table = InstanceTable(lambda key: calls.append(key) or key * 2)
    assert (table[3], table[3], table[4]) == (6, 6, 8)
    assert calls == [3, 4] and dict(table) == {3: 6, 4: 8}
