"""Tests for traffic metering and the tracer."""

from hypothesis import given, strategies as st

from repro.metrics import TrafficMeter, TrafficRow
from repro.sim import Tracer


def test_row_accumulates():
    row = TrafficRow()
    row.add(100)
    row.add(50)
    assert row.count == 2 and row.bytes == 150
    assert row.kbytes == 150 / 1024


def test_row_merge():
    a, b = TrafficRow(2, 10), TrafficRow(3, 20)
    m = a.merged(b)
    assert (m.count, m.bytes) == (5, 30)
    assert (a.count, b.count) == (2, 3)  # inputs untouched


def test_meter_buckets_by_kind_and_locality():
    m = TrafficMeter()
    m.record("rpc", 100, intercluster=False)
    m.record("rpc", 200, intercluster=True)
    m.record("bcast", 50, intercluster=True)
    assert m.row("rpc", False).bytes == 100
    assert m.row("rpc", True).bytes == 200
    assert m.total("rpc").count == 2
    assert m.row("bcast", False).count == 0


def test_meter_wan_accounting_and_reset():
    m = TrafficMeter()
    m.record_wan(1000)
    m.record_wan(500)
    assert m.wan_messages == 2 and m.wan_bytes == 1500
    m.reset()
    assert m.wan_messages == 0
    assert m.snapshot() == {"wan": {"count": 0, "bytes": 0}}


def test_meter_snapshot_shape():
    m = TrafficMeter()
    m.record("msg", 10, intercluster=True)
    snap = m.snapshot()
    assert snap["inter.msg"] == {"count": 1, "bytes": 10}
    assert "wan" in snap


@given(st.lists(st.tuples(st.sampled_from(["rpc", "bcast", "msg"]),
                          st.integers(0, 10_000),
                          st.booleans()), max_size=200))
def test_meter_totals_property(events):
    m = TrafficMeter()
    for kind, size, inter in events:
        m.record(kind, size, intercluster=inter)
    for kind in ("rpc", "bcast", "msg"):
        expected = [s for k, s, _ in events if k == kind]
        assert m.total(kind).count == len(expected)
        assert m.total(kind).bytes == sum(expected)
        split = m.row(kind, True).count + m.row(kind, False).count
        assert split == len(expected)


def test_tracer_disabled_by_default():
    t = Tracer()
    t.emit(1.0, "deliver", src=0)
    assert len(t) == 0


def test_tracer_kind_filter():
    t = Tracer(enabled=True, kinds=frozenset({"send"}))
    t.emit(1.0, "deliver", x=1)
    t.emit(2.0, "send", x=2)
    assert len(t) == 1
    t.clear()
    assert len(t) == 0
