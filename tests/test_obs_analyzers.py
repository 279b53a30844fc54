"""Analyzer math, pinned on hand-computable synthetic record streams."""

import pytest

from repro.obs.analyzers import (
    BREAKDOWN_NARRATIVE,
    gateway_queue_series,
    intercluster_breakdown,
    link_timelines,
    wan_wait_by_node,
)
from repro.obs.schema import validate_records
from repro.sim.trace import TraceRecord


def span(kind, t0, dur, **detail):
    detail.update(t0=t0, dur=dur)
    return TraceRecord(t0 + dur, kind, detail)


def busy(link, cls, t0, dur, size=64, wait=0.0, msg_id=-1):
    return span("link.busy", t0, dur, link=link, cls=cls, size=size,
                wait=wait, msg_id=msg_id)


# ------------------------------------------------------------ timelines

def test_link_timeline_bucket_math():
    # elapsed 1.0 over 10 buckets of 0.1s each:
    #   wan(0, 1): busy [0.0, 0.1)          -> bucket 0 fully busy
    #              busy [0.25, 0.35)        -> buckets 2 and 3 half busy
    #   gwaccess0: busy the whole run       -> every bucket fully busy
    records = [
        busy("wan(0, 1)", "wan", 0.0, 0.1),
        busy("wan(0, 1)", "wan", 0.25, 0.1),
        busy("gwaccess0", "access", 0.0, 1.0),
    ]
    assert validate_records(records) == []
    tl = link_timelines(records, elapsed=1.0, n_buckets=10)
    assert tl.bucket == pytest.approx(0.1)
    wan = tl.links["wan(0, 1)"]
    assert wan[0] == pytest.approx(1.0)
    assert wan[1] == pytest.approx(0.0)
    assert wan[2] == pytest.approx(0.5)
    assert wan[3] == pytest.approx(0.5)
    assert all(v == pytest.approx(0.0) for v in wan[4:])
    assert tl.links["gwaccess0"] == pytest.approx([1.0] * 10)
    assert tl.cls_of == {"wan(0, 1)": "wan", "gwaccess0": "access"}


def test_link_timeline_by_class_and_busiest():
    records = [
        busy("wan(0, 1)", "wan", 0.0, 0.1),
        busy("wan(1, 0)", "wan", 0.0, 0.3),
        busy("gwaccess0", "access", 0.0, 1.0),
    ]
    tl = link_timelines(records, elapsed=1.0, n_buckets=10)
    by_cls = tl.by_class()
    # Mean across the two WAN PVCs: bucket 0 is (1.0 + 1.0) / 2.
    assert by_cls["wan"][0] == pytest.approx(1.0)
    assert by_cls["wan"][1] == pytest.approx(0.5)
    name, util = tl.busiest("wan")
    assert name == "wan(1, 0)"
    assert util == pytest.approx(0.3 / 1.0)
    assert tl.busiest("access") == ("gwaccess0", pytest.approx(1.0))


def test_busiest_tie_breaks_lexicographically_and_absent_is_none():
    # Both PVCs at the same utilization; insertion order puts the
    # lexicographically-later one last, which the old `>=` scan used to
    # return.  The winner must be the sorted-first name.
    records = [
        busy("wan(0, 1)", "wan", 0.0, 0.2),
        busy("wan(1, 0)", "wan", 0.3, 0.2),
    ]
    tl = link_timelines(records, elapsed=1.0, n_buckets=10)
    assert tl.busiest("wan") == ("wan(0, 1)", pytest.approx(0.2))
    # No access link saw traffic: None, not a fake ("", 0.0) idle link.
    assert tl.busiest("access") is None


def test_link_timeline_clamps_and_edge_spans():
    # A span ending exactly at `elapsed` must not fall off the grid, and
    # overlapping spans on one link clamp at fully-busy.
    records = [
        busy("lanout0", "lan_out", 0.9, 0.1),
        busy("lanout0", "lan_out", 0.9, 0.1),
    ]
    tl = link_timelines(records, elapsed=1.0, n_buckets=10)
    assert tl.links["lanout0"][9] == pytest.approx(1.0)


def test_link_timeline_rejects_empty_grid():
    with pytest.raises(ValueError):
        link_timelines([], elapsed=1.0, n_buckets=0)


# -------------------------------------------------------- gateway queues

def test_gateway_queue_series_sorted_per_cluster():
    records = [
        span("gw.forward", 2.0, 0.1, cluster=0, size=64, qdepth=3, msg_id=-1),
        span("gw.forward", 1.0, 0.1, cluster=0, size=64, qdepth=1, msg_id=-1),
        span("gw.forward", 0.5, 0.1, cluster=1, size=64, qdepth=2, msg_id=-1),
    ]
    assert validate_records(records) == []
    series = gateway_queue_series(records)
    assert series == {0: [(1.0, 1), (2.0, 3)], 1: [(0.5, 2)]}


def test_gateway_littles_law_synthetic():
    # A deterministic D/D/1-ish gateway: forwards arrive every 0.1s,
    # each with sojourn 0.2s, over a 1.0s window -> lambda = 10/1.0,
    # W = 0.2, predicted depth = 2.0.  Each arrival sees the previous
    # message still in system, so qdepth (which counts the arriver) is
    # 2 after warmup and mean_depth - 1 ~ 1; the synthetic numbers just
    # need to flow through the formula exactly.
    records = [
        span("gw.forward", 0.1 * i, 0.2, cluster=0, size=64,
             qdepth=2, msg_id=-1)
        for i in range(10)
    ]
    from repro.obs.analyzers import gateway_littles_law
    out = gateway_littles_law(records)
    law = out[0]
    # window = last end (0.9 + 0.2) - first t0 (0.0) = 1.1
    assert law["samples"] == 10
    assert law["window"] == pytest.approx(1.1)
    assert law["mean_depth"] == pytest.approx(2.0)
    assert law["arrival_rate"] == pytest.approx(10 / 1.1)
    assert law["mean_sojourn"] == pytest.approx(0.2)
    assert law["predicted_depth"] == pytest.approx(2.0 / 1.1)
    assert law["ratio"] == pytest.approx((2.0 - 1.0) / (2.0 / 1.1))


def test_gateway_littles_law_holds_on_congested_ra_run():
    # The real property: on an RA-style all-to-all run the gateways
    # congest (sustained queue depths in the tens), and the sampled
    # depth series must agree with Little's law applied to the same
    # spans' sojourn times.  The arrivals are not Poisson, so allow a
    # generous band around 1 (empirically the ratio lands within a few
    # percent).
    from repro.apps import make_app, small_params
    from repro.harness import run_app
    from repro.obs.analyzers import gateway_littles_law
    from repro.sim import Tracer

    tracer = Tracer(kinds=frozenset({"gw.forward"}))
    run_app(make_app("ra"), "original", 2, 4, small_params("ra"),
            tracer=tracer)
    out = gateway_littles_law(tracer.records)
    assert set(out) == {0, 1}  # both gateways forwarded traffic
    for law in out.values():
        assert law["samples"] > 100          # a congested run, not a trickle
        assert law["mean_depth"] > 2.0       # sustained queueing
        assert 0.8 <= law["ratio"] <= 1.25


def test_gateway_littles_law_skips_degenerate_windows():
    from repro.obs.analyzers import gateway_littles_law
    assert gateway_littles_law([]) == {}
    one = [span("gw.forward", 1.0, 0.0, cluster=3, size=64, qdepth=1,
                msg_id=-1)]
    assert gateway_littles_law(one) == {}


# ------------------------------------------------------- per-node waits

def _orca_records():
    return [
        span("rpc.complete", 0.0, 2.0, req_id=1, caller=5, owner=0,
             obj="q", op="get", bytes=128, inter=True),
        span("rpc.complete", 0.0, 9.0, req_id=2, caller=5, owner=4,
             obj="q", op="get", bytes=128, inter=False),  # intracluster
        span("bcast.complete", 1.0, 1.5, sender=5, seq=0, obj="m",
             op="put", size=64),
        span("seq.request", 0.0, 0.25, sender=2, stamp_node=0, size=16,
             bb=True, inter=True),
        span("seq.grant", 0.25, 0.25, sender=2, stamp_node=0, inter=True),
    ]


def test_wan_wait_by_node():
    records = _orca_records()
    assert validate_records(records) == []
    waits = wan_wait_by_node(records)
    assert waits[5]["rpc"] == pytest.approx(2.0)   # inter only
    assert waits[5]["bcast"] == pytest.approx(1.5)
    assert waits[5]["seq"] == pytest.approx(0.0)
    assert waits[2]["seq"] == pytest.approx(0.5)


# ------------------------------------------------ mechanism attribution

def test_intercluster_breakdown():
    records = _orca_records() + [
        span("seq.acquire", 0.0, 0.7, cluster=1, seq=3,
             protocol="migrating"),
        span("gw.forward", 0.0, 0.3, cluster=0, size=64, qdepth=1, msg_id=-1),
        span("wan.xfer", 0.0, 0.4, src_cluster=0, dst_cluster=1, size=64,
             tx=0.1, msg_id=-1),
        busy("gwaccess0", "access", 0.0, 0.6),
        busy("lanout0", "lan_out", 0.0, 5.0),  # LAN time is not wide-area
    ]
    assert validate_records(records) == []
    out = intercluster_breakdown(records)
    assert set(out) == set(BREAKDOWN_NARRATIVE)
    assert out["sequencer"] == pytest.approx(0.7 + 0.25 + 0.25)
    assert out["rpc-stall"] == pytest.approx(2.0)   # intercluster RPC only
    assert out["gateway"] == pytest.approx(0.3)
    assert out["wan"] == pytest.approx(0.4)
    assert out["access"] == pytest.approx(0.6)
