"""The PDES fast lane in isolation: block round-trips and the pipe.

The golden suite (``test_pdes_golden.py``) pins the *end-to-end*
contract — partitioned runs bit-identical to the oracle over the one
transport.  This file pins the transport pieces directly, where
hypothesis can reach states real workloads rarely visit: every record
kind and payload shape through the pickled blocks, a block larger than
the OS pipe buffer through a real forked worker, and a worker's death
or shipped error as the typed errors the parent raises.
"""

import multiprocessing as mp
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.message import Message
from repro.sim import SimulationError
from repro.sim.pdes.channel import (FINISH, GRANT, decode_grant,
                                    decode_report, decode_section_items,
                                    encode_finish, encode_grant,
                                    encode_report, encode_sections, expect,
                                    receive, send)

finite_t = st.floats(min_value=0.0, max_value=1e6,
                     allow_nan=False, allow_infinity=False)
names = st.text(st.characters(min_codepoint=33, max_codepoint=126),
                min_size=1, max_size=12)
payloads = st.one_of(
    st.none(),
    st.integers(min_value=-2**40, max_value=2**40),
    st.text(max_size=20),
    st.tuples(st.integers(min_value=0, max_value=999), st.text(max_size=6)),
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=3),
)


@st.composite
def routed_items(draw, min_size=0):
    """A mixed outbox: ("msg", ...) and ("ack", ...) item tuples."""
    width = draw(st.integers(min_value=2, max_value=4))
    items = []
    n = draw(st.integers(min_value=min_size, max_value=10))
    for _ in range(n):
        dst = draw(st.integers(min_value=0, max_value=width - 1))
        if draw(st.booleans()):
            msg = Message(
                src=draw(st.integers(min_value=0, max_value=10_000)),
                dst=draw(st.integers(min_value=0, max_value=10_000)),
                size=draw(st.integers(min_value=0, max_value=2**40)),
                payload=draw(payloads),
                port=draw(names), kind=draw(names),
                msg_id=draw(st.integers(min_value=0, max_value=2**50)),
                send_time=draw(finite_t), recv_time=draw(finite_t))
            items.append(("msg", dst, msg, draw(finite_t)))
        else:
            items.append(("ack", dst,
                          draw(st.integers(min_value=0, max_value=2**50)),
                          draw(finite_t)))
    return items


def _by_dst(items):
    """Group items by destination in wire order: messages then acks,
    each kind keeping its original order.  Relative msg/ack interleaving
    is not part of the contract — both carry their own timestamps and
    the boundary schedules them by time, never by block position."""
    groups = {}
    for item in items:
        groups.setdefault(item[1], []).append(item)
    return {dst: [it for it in group if it[0] == "msg"]
            + [it for it in group if it[0] == "ack"]
            for dst, group in groups.items()}


@settings(max_examples=150, deadline=None)
@given(routed_items(min_size=1))
def test_codec_sections_round_trip(items):
    """Every record kind and payload shape survives a section."""
    sections = encode_sections(items)
    decoded = [decode_section_items(sec.raw) for sec in sections]
    expected = _by_dst(items)
    assert len(decoded) == len(expected)
    for group in decoded:
        dst = group[0][1]
        assert group == expected[dst]


@settings(max_examples=100, deadline=None)
@given(routed_items(),
       st.one_of(st.none(), finite_t), finite_t)
def test_codec_grant_round_trip(items, cap, gmin):
    """cap (None when unbounded), gmin, and all routed items come back."""
    sections = encode_sections(items)
    kind, cap2, gmin2, decoded = decode_grant(
        encode_grant(cap, gmin, [sec.raw for sec in sections]))
    assert kind == GRANT
    assert cap2 == cap
    assert gmin2 == gmin
    expected = _by_dst(items)
    assert len(decoded) == sum(len(g) for g in expected.values())
    # Grants flatten sections; per-destination order is preserved.
    for dst, group in expected.items():
        assert [it for it in decoded if it[1] == dst] == group


@settings(max_examples=100, deadline=None)
@given(routed_items(), finite_t,
       st.one_of(st.none(), finite_t),
       st.lists(st.tuples(st.integers(min_value=0, max_value=7), finite_t),
                max_size=4))
def test_codec_report_round_trip(items, clock, frontier, pendings):
    """clock, the dry frontier's None, floors and section headers (the
    only part the coordinator reads) all round-trip."""
    sections = encode_sections(items)
    clock2, frontier2, pend2, secs2 = decode_report(
        encode_report(clock, frontier, pendings, sections))
    assert clock2 == clock
    assert frontier2 == frontier
    assert list(pend2) == pendings
    expected = _by_dst(items)
    assert len(secs2) == len(expected)
    for sec in secs2:
        group = expected[sec.dst]
        assert sec.n_msgs == sum(1 for it in group if it[0] == "msg")
        assert sec.n_acks == sum(1 for it in group if it[0] == "ack")
        assert sec.min_time == min(it[3] for it in group)
        # The raw bytes the coordinator routes decode at the far end.
        assert decode_section_items(sec.raw) == group


def test_codec_finish_block():
    kind, cap, gmin, items = decode_grant(encode_finish())
    assert kind == FINISH
    assert items == ()


def test_decode_report_rejects_foreign_block():
    sections = encode_sections([("ack", 0, 1, 1.0)])
    with pytest.raises(SimulationError, match="bad report block"):
        decode_report(encode_grant(None, 0.0, [sec.raw for sec in sections]))


def test_codec_section_holds_more_acks_than_a_u16():
    """A section's counts have no 16-bit ceiling: 70 000 acks to one
    destination (a geometry wider than any committed one) round-trip
    through a report and a grant."""
    items = [("ack", 1, k, float(k)) for k in range(70_000)]
    (sec,) = encode_sections(items)
    _clock, _frontier, _pend, (sec2,) = decode_report(
        encode_report(0.0, None, [], [sec]))
    assert (sec2.dst, sec2.n_msgs, sec2.n_acks, sec2.min_time) == \
        (1, 0, 70_000, 0.0)
    kind, _cap, _gmin, decoded = decode_grant(
        encode_grant(None, 0.0, [sec2.raw]))
    assert kind == GRANT
    assert decoded == items


# ------------------------------------------------------------------ pipe


def _echo_worker(conn):
    """A forked stand-in for a partition worker: each grant comes back
    as a report whose one section holds the grant's items."""
    while True:
        kind, _cap, _gmin, items = decode_grant(conn.recv_bytes())
        if kind == FINISH:
            return
        conn.send_bytes(encode_report(1.0, None, [],
                                      encode_sections(list(items))))


def test_pipe_carries_a_block_larger_than_its_buffer():
    """A 70 000-ack grant (over a megabyte, far past the OS pipe
    buffer) crosses a real forked worker and comes back intact."""
    items = [("ack", 1, k, float(k)) for k in range(70_000)]
    (sec,) = encode_sections(items)
    grant = encode_grant(None, 0.0, [sec.raw])
    ctx = mp.get_context("fork")
    conn, wconn = ctx.Pipe()
    proc = ctx.Process(target=_echo_worker, args=(wconn,), daemon=True)
    proc.start()
    wconn.close()
    try:
        assert len(grant) > 1 << 20
        send(conn, 0, grant)
        _clock, _frontier, _pend, (back,) = decode_report(receive(conn, 0))
        assert (back.n_acks, back.raw) == (70_000, sec.raw)
        assert decode_section_items(back.raw) == items
        send(conn, 0, encode_finish())
        proc.join(timeout=10)
        assert proc.exitcode == 0
    finally:
        conn.close()
        if proc.is_alive():
            proc.terminate()


def test_dead_worker_is_a_typed_error_at_once():
    """The worker end closing (its process gone) turns the next read
    or write into the typed error naming the partition."""
    conn, wconn = mp.get_context("fork").Pipe()
    wconn.close()
    with pytest.raises(SimulationError,
                       match="partition 3 worker died without reporting"):
        receive(conn, 3)
    with pytest.raises(SimulationError,
                       match="partition 3 worker died without reporting"):
        send(conn, 3, encode_finish())
    conn.close()


def test_shipped_error_is_reraised_in_place_of_any_message():
    """An error the worker shipped in place of a report or a handshake
    is re-raised: its own exception when it pickled, else a typed error
    carrying the worker's traceback."""
    shipped = pickle.dumps(("error", 1, "tb", ValueError("bad rows")))
    with pytest.raises(ValueError, match="bad rows"):
        decode_report(shipped)
    with pytest.raises(ValueError, match="bad rows"):
        expect(shipped, "ready")
    with pytest.raises(SimulationError, match="partition 1 worker failed"):
        expect(pickle.dumps(("error", 1, "tb", None)), "final")
    with pytest.raises(SimulationError, match="bad ready block kind"):
        expect(pickle.dumps(("final", {})), "ready")
    assert expect(pickle.dumps(("ready", 2.5)), "ready") == ("ready", 2.5)
