"""Tests for the Water application: correctness and wide-area behavior."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.water import WaterApp, WaterParams
from repro.apps.water import model
from repro.harness import run_app
from repro.network import DAS_PARAMS, ClusterSpec, Fabric, Topology
from repro.orca import OrcaRuntime
from repro.sim import Simulator


# ----------------------------------------------------------------- model


def test_window_covers_every_pair_exactly_once():
    for p in (1, 2, 3, 4, 5, 8, 15, 16):
        seen = set()
        for k in range(p):
            for b in model.window(p, k):
                pair = frozenset((k, b))
                assert pair not in seen, f"pair {pair} counted twice (p={p})"
                seen.add(pair)
        assert len(seen) == p * (p - 1) // 2


@given(st.integers(1, 64))
def test_window_property_all_pairs_once(p):
    count = sum(len(model.window(p, k)) for k in range(p))
    assert count == p * (p - 1) // 2


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 16), min_size=1, max_size=8).filter(
    lambda sizes: sum(sizes) <= 64))
def test_cluster_writer_table_counts_each_window(sizes):
    """``register`` builds, once per run and for both variants, the
    writers of each block (equal to ``writers_of``, the reference) and
    how many processors of each cluster write forces to each block: the
    count the optimized variant waits for, equal to a brute-force scan
    of every window."""
    topo = Topology([ClusterSpec(f"c{i}", n) for i, n in enumerate(sizes)])
    p = topo.n_nodes
    for variant in WaterApp.variants:
        sim = Simulator()
        rts = OrcaRuntime(sim, Fabric(sim, topo, DAS_PARAMS))
        shared = WaterApp().register(rts, WaterParams(), variant)
        assert shared["writers"] == [model.writers_of(p, b)
                                     for b in range(p)]
        assert shared["cluster_writers"] == [
            [sum(1 for a in topo.nodes_in(c) if b in model.window(p, a))
             for b in range(p)]
            for c in range(topo.n_clusters)]


def test_writers_of_is_inverse_of_window():
    p = 8
    for k in range(p):
        for b in model.window(p, k):
            assert k in model.writers_of(p, b)


def test_block_slices_partition():
    sl = model.block_slices(10, 3)
    assert sl == [(0, 4), (4, 7), (7, 10)]
    sl = model.block_slices(60, 60)
    assert all(b - a == 1 for a, b in sl)


def test_pair_forces_newtons_third_law():
    rng = np.random.default_rng(0)
    a, b = rng.random((5, 3)), rng.random((7, 3))
    fa, fb = model.pair_forces(a, b, softening=0.5)
    np.testing.assert_allclose(fa.sum(axis=0), -fb.sum(axis=0), atol=1e-12)


def test_self_forces_sum_to_zero():
    rng = np.random.default_rng(1)
    pos = rng.random((9, 3))
    f = model.self_forces(pos, softening=0.5)
    np.testing.assert_allclose(f.sum(axis=0), 0.0, atol=1e-12)


def test_self_forces_single_molecule():
    f = model.self_forces(np.zeros((1, 3)), softening=0.5)
    np.testing.assert_array_equal(f, 0.0)


# ---------------------------------------------------------- application


@pytest.mark.parametrize("variant", ["original", "optimized"])
@pytest.mark.parametrize("shape", [(1, 1), (1, 4), (2, 3), (4, 2)])
def test_water_matches_sequential_reference(variant, shape):
    params = WaterParams.small(n_molecules=40, n_steps=2)
    ref = model.sequential_reference(params)
    res = run_app(WaterApp(), variant, shape[0], shape[1], params)
    np.testing.assert_allclose(res.answer, ref, rtol=1e-9, atol=1e-9)


def test_water_pair_counts_match_sequential_total():
    params = WaterParams.small(n_molecules=36, n_steps=1)
    res = run_app(WaterApp(), "original", 2, 3, params)
    assert res.stats["pairs"] == 36 * 35 // 2


def test_water_original_uses_rpc():
    params = WaterParams.small(n_molecules=40, n_steps=1)
    res = run_app(WaterApp(), "original", 2, 2, params)
    rpc_inter = res.traffic.get("inter.rpc", {"count": 0})
    assert rpc_inter["count"] > 0


def test_water_optimized_reduces_intercluster_rpc_bytes():
    params = WaterParams.paper().with_(n_molecules=240, n_steps=2)
    orig = run_app(WaterApp(), "original", 4, 4, params)
    opt = run_app(WaterApp(), "optimized", 4, 4, params)
    ob = orig.traffic["inter.rpc"]["bytes"]
    nb = opt.traffic["inter.rpc"]["bytes"]
    assert nb < 0.5 * ob  # paper: 56,826 KB -> 5,179 KB


def test_water_optimized_faster_on_four_clusters():
    params = WaterParams.paper().with_(n_molecules=480)
    orig = run_app(WaterApp(), "original", 4, 4, params)
    opt = run_app(WaterApp(), "optimized", 4, 4, params)
    assert opt.elapsed < orig.elapsed


def test_water_multicluster_hurts_original():
    params = WaterParams.paper().with_(n_molecules=480)
    one = run_app(WaterApp(), "original", 1, 16, params)
    four = run_app(WaterApp(), "original", 4, 4, params)
    assert four.elapsed > one.elapsed


def test_water_synthetic_and_real_have_same_traffic():
    base = WaterParams.small(n_molecules=48, n_steps=2)
    real = run_app(WaterApp(), "original", 2, 3, base)
    synth = run_app(WaterApp(), "original", 2, 3, base.with_(kernel="synthetic"))
    assert real.traffic["inter.rpc"]["count"] == synth.traffic["inter.rpc"]["count"]
    assert real.elapsed == pytest.approx(synth.elapsed, rel=1e-6)
