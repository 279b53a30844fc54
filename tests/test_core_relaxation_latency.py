"""Unit tests for relaxation policies and split-phase exchange."""

import pytest
from hypothesis import given, strategies as st

from repro.core import ChaoticExchange, FullExchange, SplitPhaseExchange
from repro.network import DAS_PARAMS, Fabric, uniform_clusters
from repro.orca import OrcaRuntime
from repro.sim import Simulator


# ------------------------------------------------------------- relaxation


def test_full_exchange_always_exchanges():
    pol = FullExchange()
    assert all(pol.should_exchange(i, inter) for i in range(10)
               for inter in (True, False))


def test_chaotic_drops_two_of_three_intercluster():
    pol = ChaoticExchange(keep_one_in=3)
    kept = [i for i in range(12) if pol.should_exchange(i, intercluster=True)]
    assert kept == [0, 3, 6, 9]


def test_chaotic_never_drops_intracluster():
    pol = ChaoticExchange(keep_one_in=3)
    assert all(pol.should_exchange(i, intercluster=False) for i in range(30))


def test_chaotic_keep_one_in_one_is_full():
    pol = ChaoticExchange(keep_one_in=1)
    assert all(pol.should_exchange(i, True) for i in range(10))


def test_chaotic_invalid():
    with pytest.raises(ValueError):
        ChaoticExchange(keep_one_in=0)


@given(st.integers(1, 10), st.integers(0, 1000))
def test_chaotic_keep_rate_property(k, i):
    pol = ChaoticExchange(keep_one_in=k)
    kept = sum(pol.should_exchange(j, True) for j in range(i, i + k))
    assert kept == 1  # exactly one exchange per window of k iterations


# ------------------------------------------------------------ split-phase


def test_split_phase_overlaps_compute_with_wan():
    """Blocking send+recv pays WAN latency on the critical path; the
    split-phase version hides it behind compute."""

    def run(split):
        sim = Simulator()
        fabric = Fabric(sim, uniform_clusters(2, 2), DAS_PARAMS)
        rts = OrcaRuntime(sim, fabric)
        compute = 2e-3  # comparable to one WAN crossing

        def peer(me, other):
            ctx = rts.context(me)
            xch = SplitPhaseExchange(ctx, tag="t")
            if split:
                yield from xch.post_send(other, 100, payload=me)
                yield from ctx.compute(compute)
                yield from xch.collect(expected=1)
            else:
                yield from xch.post_send(other, 100, payload=me)
                yield from xch.collect(expected=1)
                yield from ctx.compute(compute)
            return sim.now

        a = sim.spawn(peer(0, 2))
        b = sim.spawn(peer(2, 0))
        sim.run()
        return max(a.value, b.value)

    t_blocking = run(split=False)
    t_split = run(split=True)
    assert t_split < t_blocking
    # Near-perfect overlap: total ~ max(compute, wan), not sum.
    assert t_split < 0.75 * t_blocking


def test_split_phase_counts_posted():
    sim = Simulator()
    fabric = Fabric(sim, uniform_clusters(1, 2), DAS_PARAMS)
    rts = OrcaRuntime(sim, fabric)

    def proc():
        ctx = rts.context(0)
        xch = SplitPhaseExchange(ctx, tag="n")
        yield from xch.post_send(1, 5)
        yield from xch.post_send(1, 5)
        return xch.posted

    assert sim.run_process(proc()) == 2
