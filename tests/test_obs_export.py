"""Exporters: JSONL round-trip, Chrome trace_event validity, flows, folded."""

import io
import json
import re

import pytest

from repro.apps import PAPER_ORDER, make_app, small_params
from repro.harness import run_app
from repro.obs.export import (
    JSONL_HEADER,
    _Lanes,
    chrome_trace,
    folded_stacks,
    read_jsonl,
    write_chrome,
    write_folded,
    write_jsonl,
)
from repro.obs.schema import KINDS, SCHEMA_VERSION, SPAN_KINDS
from repro.sim import Tracer
from repro.sim.trace import TraceRecord


@pytest.fixture(scope="module")
def traced_records():
    tracer = Tracer()
    run_app(make_app("asp"), "original", 2, 2, small_params("asp"),
            tracer=tracer)
    return list(tracer.records)


# ---------------------------------------------------------------- JSONL

def test_jsonl_round_trip(traced_records):
    buf = io.StringIO()
    n = write_jsonl(traced_records, buf)
    assert n == len(traced_records)
    buf.seek(0)
    assert read_jsonl(buf) == traced_records


def test_jsonl_header_is_versioned():
    buf = io.StringIO()
    write_jsonl([], buf)
    header = json.loads(buf.getvalue().splitlines()[0])
    assert header == {"schema": "repro.trace", "version": SCHEMA_VERSION}
    assert header == JSONL_HEADER


def test_jsonl_rejects_foreign_and_stale_files():
    with pytest.raises(ValueError, match="not a repro trace"):
        read_jsonl(io.StringIO('{"something": "else"}\n'))
    stale = json.dumps({"schema": "repro.trace",
                        "version": SCHEMA_VERSION + 1})
    with pytest.raises(ValueError, match="version"):
        read_jsonl(io.StringIO(stale + "\n"))


def test_jsonl_rejects_detail_keys_colliding_with_envelope():
    # A detail field named "t" or "kind" would silently overwrite the
    # record's time/kind in the flattened JSON object.
    for key in ("t", "kind"):
        rec = TraceRecord(0.0, "proc.spawn", {"pid": 1, "name": "w",
                                              key: "boom"})
        with pytest.raises(ValueError, match="collides"):
            write_jsonl([rec], io.StringIO())


def test_jsonl_round_trips_tuple_valued_details():
    # JSON turns tuples into arrays; the reader must bring them back as
    # tuples (the emitters only ever attach tuples), including nested.
    rec = TraceRecord(1.0, "custom.kind", {
        "path": (0, 1, 2),
        "nested": ((1, 2), (3, 4)),
        "mixed": {"inner": (5, 6)},
        "plain": 7,
    })
    buf = io.StringIO()
    write_jsonl([rec], buf)
    buf.seek(0)
    (back,) = read_jsonl(buf)
    assert back == rec
    assert isinstance(back.detail["path"], tuple)
    assert isinstance(back.detail["nested"][0], tuple)
    assert isinstance(back.detail["mixed"]["inner"], tuple)


def test_jsonl_round_trip_lossless_for_every_kind_in_schema():
    # Synthetic coverage: one record per registered kind, every field
    # populated with a representative typed value.  Real traces cannot
    # guarantee rare kinds (seq.migrate) appear, so this pins the whole
    # registry.
    dummies = {"int": 3, "float": 0.25, "str": "x", "bool": True}
    records = []
    for name, spec in KINDS.items():
        detail = {f: dummies[t] for f, (t, _unit) in spec.fields.items()}
        if spec.span:
            detail["t0"], detail["dur"] = 1.0, 0.25
            records.append(TraceRecord(1.25, name, detail))
        else:
            records.append(TraceRecord(2.0, name, detail))
    from repro.obs.schema import validate_records
    assert validate_records(records) == []
    buf = io.StringIO()
    write_jsonl(records, buf)
    buf.seek(0)
    assert read_jsonl(buf) == records


@pytest.mark.parametrize("app_name", PAPER_ORDER)
def test_jsonl_round_trip_lossless_on_real_traces(app_name):
    tracer = Tracer()
    run_app(make_app(app_name), "original", 2, 2, small_params(app_name),
            tracer=tracer)
    records = list(tracer.records)
    assert records
    buf = io.StringIO()
    write_jsonl(records, buf)
    buf.seek(0)
    back = read_jsonl(buf)
    assert back == records
    for orig, rt in zip(records, back):
        for field, value in orig.detail.items():
            assert type(rt.detail[field]) is type(value), (orig.kind, field)


# --------------------------------------------------------- Chrome trace

def test_chrome_trace_is_structurally_valid(traced_records):
    trace = chrome_trace(traced_records)
    # JSON-serializable and shaped as Perfetto expects.
    json.dumps(trace)
    assert trace["otherData"]["version"] == SCHEMA_VERSION
    events = trace["traceEvents"]
    assert isinstance(events, list) and events
    phases = set()
    for ev in events:
        phases.add(ev["ph"])
        assert ev["ph"] in ("M", "X", "i", "s", "t", "f")
        assert isinstance(ev["pid"], int) and isinstance(ev["tid"], int)
        if ev["ph"] == "M":
            assert ev["name"] in ("process_name", "thread_name")
            assert ev["args"]["name"]
        elif ev["ph"] in ("s", "t", "f"):
            assert ev["cat"] == "flow" and isinstance(ev["id"], int)
        else:
            assert isinstance(ev["ts"], float) and ev["ts"] >= 0
            assert ev["name"] and ev["cat"] in KINDS
        if ev["ph"] == "X":
            assert isinstance(ev["dur"], float) and ev["dur"] >= 0
        if ev["ph"] == "i":
            assert ev["s"] == "t"
    assert {"M", "X", "i", "s", "f"} <= phases <= {"M", "X", "i", "s", "t", "f"}


def test_chrome_trace_span_instant_mapping(traced_records):
    trace = chrome_trace(traced_records)
    data = [ev for ev in trace["traceEvents"]
            if ev["ph"] not in ("M", "s", "t", "f")]
    assert len(data) == len(traced_records)
    for ev, rec in zip(data, traced_records):
        assert ev["cat"] == rec.kind
        if rec.kind in SPAN_KINDS:
            assert ev["ph"] == "X"
            assert ev["ts"] == pytest.approx(rec.detail["t0"] * 1e6)
            assert ev["dur"] == pytest.approx(rec.detail["dur"] * 1e6)
            # t0/dur live in ts/dur, not duplicated into args
            assert "t0" not in ev["args"] and "dur" not in ev["args"]
        else:
            assert ev["ph"] == "i"
            assert ev["ts"] == pytest.approx(rec.time * 1e6)


def test_write_chrome_counts_data_events(traced_records):
    buf = io.StringIO()
    n = write_chrome(traced_records, buf)
    assert n == len(traced_records)
    obj = json.loads(buf.getvalue())
    assert obj["displayTimeUnit"] == "ms"


# ---------------------------------------------------------- flow events

def test_flow_events_form_valid_chains(traced_records):
    trace = chrome_trace(traced_records)
    events = trace["traceEvents"]
    flows = [ev for ev in events if ev["ph"] in ("s", "t", "f")]
    assert flows
    starts = [ev for ev in flows if ev["ph"] == "s"]
    finishes = [ev for ev in flows if ev["ph"] == "f"]
    # Every flow id opens exactly once and closes exactly once.
    assert len(starts) == len(finishes)
    assert {ev["id"] for ev in starts} == {ev["id"] for ev in finishes}
    assert len({ev["id"] for ev in starts}) == len(starts)
    by_id = {}
    for ev in flows:
        by_id.setdefault(ev["id"], []).append(ev)
    slices = [ev for ev in events if ev["ph"] == "X"]
    for msg_id, chain in by_id.items():
        assert chain[0]["ph"] == "s" and chain[-1]["ph"] == "f"
        assert all(ev["ph"] == "t" for ev in chain[1:-1])
        assert chain[-1]["bp"] == "e"
        assert all(ev["name"] == "message path" and ev["cat"] == "flow"
                   for ev in chain)
        # Each flow event binds inside an X slice on its pid/tid lane.
        for ev in chain:
            assert any(s["pid"] == ev["pid"] and s["tid"] == ev["tid"]
                       and s["ts"] <= ev["ts"] <= s["ts"] + s["dur"]
                       for s in slices), ev


def test_flow_events_can_be_disabled(traced_records):
    trace = chrome_trace(traced_records, flows=False)
    assert all(ev["ph"] in ("M", "X", "i") for ev in trace["traceEvents"])


def test_flow_events_follow_the_message_hops():
    # One hand-built two-hop message: the flow must start on the first
    # span's lane and finish on the second's, in span order.
    def busy(link, cls, t0, dur, msg_id):
        return TraceRecord(t0 + dur, "link.busy", dict(
            link=link, cls=cls, size=8, wait=0.0, msg_id=msg_id,
            t0=t0, dur=dur))

    records = [busy("lanout0", "lan_out", 0.0, 0.1, 5),
               busy("lanin1", "lan_in", 0.1, 0.1, 5),
               busy("lanout2", "lan_out", 0.0, 0.1, -1)]  # shared: no flow
    trace = chrome_trace(records)
    flows = [ev for ev in trace["traceEvents"] if ev["ph"] in ("s", "t", "f")]
    assert [ev["ph"] for ev in flows] == ["s", "f"]
    assert all(ev["id"] == 5 for ev in flows)
    assert flows[0]["ts"] < flows[1]["ts"]


# ------------------------------------------------------- lane stability

def test_lane_numbering_is_stable_and_per_pid():
    lanes = _Lanes()
    assert lanes.lane("net", "a") == (1, 1)
    assert lanes.lane("net", "b") == (1, 2)
    assert lanes.lane("orca", "x") == (2, 1)   # tids restart per pid
    assert lanes.lane("net", "c") == (1, 3)
    assert lanes.lane("orca", "x") == (2, 1)   # lookups never re-assign
    assert lanes.lane("net", "b") == (1, 2)
    # One metadata event per process + one per thread, no duplicates.
    names = [(ev["name"], ev["pid"], ev["tid"]) for ev in lanes.metadata]
    assert len(names) == len(set(names)) == 6


def test_lane_numbering_matches_many_thread_order():
    # Regression for the O(threads^2) scan this replaced: the counter
    # must hand out 1..n in first-seen order within each pid.
    lanes = _Lanes()
    for i in range(50):
        assert lanes.lane("p", f"thread{i}") == (1, i + 1)
    for i in range(50):
        assert lanes.lane("q", f"thread{i}") == (2, i + 1)


# -------------------------------------------------------- folded stacks

def _op_span(kind, t0, dur, **detail):
    detail.update(t0=t0, dur=dur)
    return TraceRecord(t0 + dur, kind, detail)


def test_folded_stacks_nest_by_containment():
    records = [
        _op_span("bcast.complete", 0.0, 1.0, sender=3, seq=0, obj="m",
                 op="put", size=64),
        _op_span("seq.request", 0.1, 0.3, sender=3, stamp_node=0, size=16,
                 bb=False, inter=True),
        _op_span("rpc.complete", 2.0, 0.5, req_id=1, caller=3, owner=0,
                 obj="q", op="get", bytes=32, inter=False),
    ]
    folded = folded_stacks(records)
    assert folded == pytest.approx({
        "node3;bcast m.put": 0.7,                       # 1.0 - nested 0.3
        "node3;bcast m.put;seq request [inter]": 0.3,
        "node3;rpc q.get": 0.5,
    })


def test_folded_stacks_separate_lanes_per_node():
    records = [
        _op_span("rpc.complete", 0.0, 1.0, req_id=1, caller=1, owner=0,
                 obj="q", op="get", bytes=32, inter=True),
        _op_span("rpc.complete", 0.0, 1.0, req_id=2, caller=2, owner=0,
                 obj="q", op="get", bytes=32, inter=True),
        _op_span("seq.acquire", 0.0, 0.4, cluster=0, seq=1,
                 protocol="migrating"),
    ]
    folded = folded_stacks(records)
    assert set(folded) == {"node1;rpc q.get [inter]",
                           "node2;rpc q.get [inter]",
                           "sequencer c0;seq acquire [migrating]"}


def test_write_folded_emits_parsable_lines(traced_records):
    buf = io.StringIO()
    n = write_folded(traced_records, buf)
    lines = buf.getvalue().splitlines()
    assert n == len(lines) > 0
    # flamegraph.pl's accepted shape: "frame;frame;... <number>".
    for line in lines:
        assert re.fullmatch(r"\S.* \d+(\.\d+)?", line), line
    assert lines == sorted(lines)  # reproducible output order
    # Self-times are non-negative and the total is positive.
    assert sum(float(line.rsplit(" ", 1)[1]) for line in lines) > 0
