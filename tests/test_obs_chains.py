"""Causal message chains: synthetic hop math and real multi-hop paths."""

import pytest

from repro.apps import PAPER_ORDER, make_app, small_params
from repro.harness import run_app
from repro.obs.chains import (
    CHAIN_KINDS,
    build_chains,
    chain_stats,
    format_chain,
    format_chains,
    hop_attribution,
)
from repro.obs.schema import KINDS, validate_records
from repro.sim import Tracer
from repro.sim.trace import TraceRecord


def span(kind, t0, dur, **detail):
    detail.update(t0=t0, dur=dur)
    return TraceRecord(t0 + dur, kind, detail)


def _wan_story(msg_id=7):
    """A full hand-built intercluster journey node0 (c0) -> node3 (c1)."""
    send = TraceRecord(0.0, "msg.send", dict(
        msg_id=msg_id, src=0, dst=3, size=64, msg_kind="rpc", port="p",
        scope="wan"))
    path = [
        span("link.busy", 0.0, 0.10, link="gwaccess0", cls="access",
             size=64, wait=0.0, msg_id=msg_id),
        span("gw.forward", 0.10, 0.15, cluster=0, size=64, qdepth=1,
             msg_id=msg_id),
        span("link.busy", 0.25, 0.05, link="wan(0, 1)", cls="wan",
             size=64, wait=0.0, msg_id=msg_id),
        span("wan.xfer", 0.25, 0.15, src_cluster=0, dst_cluster=1,
             size=64, tx=0.05, msg_id=msg_id),
        span("gw.forward", 0.40, 0.05, cluster=1, size=64, qdepth=1,
             msg_id=msg_id),
        span("link.busy", 0.45, 0.01, link="gwaccess1", cls="access",
             size=64, wait=0.0, msg_id=msg_id),
    ]
    deliver = TraceRecord(0.5, "msg.deliver", dict(
        msg_id=msg_id, src=0, dst=3, size=64, msg_kind="rpc", port="p",
        latency=0.5))
    return [send] + path + [deliver]


# ------------------------------------------------------- synthetic math

def test_chain_hops_telescope_to_the_exact_latency():
    records = _wan_story()
    assert validate_records(records) == []
    chains, counts = build_chains(records)
    assert counts == {"chains": 1, "unmatched_send": 0,
                      "unmatched_deliver": 0, "shared_spans": 0,
                      "orphan_spans": 0}
    (chain,) = chains
    assert chain.intercluster and chain.scope == "wan"
    assert chain.latency == pytest.approx(0.5, abs=1e-12)
    assert chain.attributed == pytest.approx(chain.latency, abs=1e-9)
    assert [h.cls for h in chain.hops] == [
        "access", "gateway", "wan", "wan_latency", "gateway", "access",
        "delivery"]
    assert [h.elapsed for h in chain.hops] == pytest.approx(
        [0.10, 0.15, 0.05, 0.10, 0.05, 0.01, 0.04])
    # Each hop starts where the previous one ended.
    for prev, nxt in zip(chain.hops, chain.hops[1:]):
        assert nxt.start == prev.end
    assert chain.hops[0].start == chain.send_time
    assert chain.hops[-1].end == chain.deliver_time
    assert "wan_latency:c0->c1" in format_chain(chain)


def test_spanless_chain_gets_a_single_local_hop():
    records = [
        TraceRecord(1.0, "msg.send", dict(
            msg_id=1, src=2, dst=2, size=8, msg_kind="msg", port="p",
            scope="self")),
        TraceRecord(1.25, "msg.deliver", dict(
            msg_id=1, src=2, dst=2, size=8, msg_kind="msg", port="p",
            latency=0.25)),
    ]
    chains, _counts = build_chains(records)
    (chain,) = chains
    assert [h.cls for h in chain.hops] == ["local"]
    assert chain.attributed == pytest.approx(0.25)


def test_unmatched_shared_and_orphan_spans_are_counted():
    story = _wan_story()
    send_only = TraceRecord(2.0, "msg.send", dict(
        msg_id=50, src=0, dst=1, size=8, msg_kind="msg", port="p",
        scope="lan"))
    deliver_only = TraceRecord(3.0, "msg.deliver", dict(
        msg_id=60, src=0, dst=1, size=8, msg_kind="bcast", port="p",
        latency=0.5))
    shared = span("link.busy", 2.0, 0.1, link="lanout0", cls="lan_out",
                  size=8, wait=0.0, msg_id=-1)
    orphan = span("link.busy", 2.0, 0.1, link="lanout0", cls="lan_out",
                  size=8, wait=0.0, msg_id=50)  # send 50 never delivers
    records = story + [send_only, deliver_only, shared, orphan]
    chains, counts = build_chains(records)
    assert len(chains) == 1
    assert counts["unmatched_send"] == 1
    assert counts["unmatched_deliver"] == 1
    assert counts["shared_spans"] == 1
    assert counts["orphan_spans"] == 1


def test_hop_attribution_partitions_wan_latency():
    records = _wan_story(7) + _wan_story(8)
    chains, _counts = build_chains(records)
    attrib = hop_attribution(chains, scope="wan")
    total_latency = sum(c.latency for c in chains)
    assert sum(attrib.values()) == pytest.approx(total_latency, abs=1e-9)
    stats = chain_stats(chains)
    assert stats["wan"]["count"] == 2
    assert stats["wan"]["mean_latency"] == pytest.approx(0.5)


def test_chain_kinds_is_a_valid_emit_filter():
    assert CHAIN_KINDS <= set(KINDS)


# ------------------------------------------------------------ real runs

@pytest.mark.parametrize("app_name", PAPER_ORDER)
def test_every_app_yields_attributed_intercluster_chains(app_name):
    # The per-app acceptance bar: at least one reconstructed intercluster
    # message path whose per-hop attribution sums to the send->deliver
    # latency.  Broadcast-only apps (asp, acp) ship their sequencer
    # requests point-to-point only when stamping is remote, so the run
    # uses the centralized sequencer protocol.
    tracer = Tracer(kinds=CHAIN_KINDS)
    run_app(make_app(app_name), "original", 2, 2, small_params(app_name),
            sequencer="centralized", tracer=tracer)
    chains, counts = build_chains(tracer.records)
    assert counts["chains"] == len(chains) > 0
    wan = [c for c in chains if c.intercluster]
    assert wan, f"{app_name}: no intercluster chain reconstructed"
    for chain in chains:
        assert chain.attributed == pytest.approx(chain.latency, abs=1e-9)
    # Intercluster chains cross the full path: access links on both
    # sides, both gateways, the PVC, and its propagation remainder.
    for chain in wan:
        classes = [h.cls for h in chain.hops]
        for expected in ("access", "gateway", "wan", "wan_latency"):
            assert expected in classes, (app_name, classes)
    assert format_chains(chains, counts)  # renders


def test_chains_join_on_run_local_ids_across_repeat_runs():
    def chains_of():
        tracer = Tracer(kinds=CHAIN_KINDS)
        run_app(make_app("tsp"), "original", 2, 2, small_params("tsp"),
                tracer=tracer)
        return build_chains(tracer.records)

    first, counts1 = chains_of()
    second, counts2 = chains_of()
    assert counts1 == counts2
    assert [(c.msg_id, c.send_time, c.deliver_time) for c in first] == \
        [(c.msg_id, c.send_time, c.deliver_time) for c in second]
    # Ids restart each run: per-site sequences begin at 0 again, so
    # every id decodes to (src, small sequence number).
    from repro.network.message import MSG_ID_STRIDE
    budget = len(first) + counts1["unmatched_send"] + \
        counts1["unmatched_deliver"] + 10
    for c in first:
        assert c.msg_id // MSG_ID_STRIDE == c.src
        assert c.msg_id % MSG_ID_STRIDE < budget


# -------------------------------------------------------------- the CLI

def test_cli_chains(capsys, monkeypatch):
    from repro.__main__ import main

    monkeypatch.setattr("repro.__main__.bench_params", small_params)
    assert main(["chains", "water", "--clusters", "2", "--nodes", "2",
                 "--limit", "2"]) == 0
    out = capsys.readouterr().out
    assert "message chains reconstructed" in out
    assert "intercluster latency by hop" in out
    assert "wan_latency:" in out


def test_cli_chains_centralized_sequencer_for_broadcast_app(capsys,
                                                            monkeypatch):
    from repro.__main__ import main

    monkeypatch.setattr("repro.__main__.bench_params", small_params)
    assert main(["chains", "asp", "--clusters", "2", "--nodes", "2",
                 "--sequencer", "centralized"]) == 0
    out = capsys.readouterr().out
    assert "wan" in out and "slowest" in out
