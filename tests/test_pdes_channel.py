"""The PDES fast lane in isolation: block round-trips and the ring.

The golden suite (``test_pdes_golden.py``) pins the *end-to-end*
contract — partitioned runs bit-identical to the oracle over the one
transport.  This file pins the transport pieces directly, where
hypothesis can reach states real workloads rarely visit: every record
kind and payload shape through the pickled blocks, ring wraparound at
awkward capacities, and the full-buffer overflow path that falls back
to the pipe (loudly, counted) instead of corrupting or blocking.
"""

import multiprocessing as mp

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.message import Message
from repro.sim import SimulationError
from repro.sim.pdes.channel import (_ERROR_MARK, _VIA_PIPE, FINISH, GRANT,
                                    ShmChannel, ShmRing, decode_grant,
                                    decode_report, decode_section_items,
                                    encode_finish, encode_grant,
                                    encode_report, encode_sections)

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


def test_quiet_blocks_cannot_pass_for_a_pipe_marker():
    """The ring's one-byte ``_VIA_PIPE``/``_ERROR_MARK`` records are
    told apart from blocks by content: the shortest blocks the protocol
    sends — finish, a quiet grant, a quiet report — are each longer."""
    for block in (encode_finish(), encode_grant(None, 0.0, ()),
                  encode_report(0.0, None, [], ())):
        assert len(block) > 1
        assert block not in (_VIA_PIPE, _ERROR_MARK)


# ------------------------------------------------------------------- ring


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=64, max_value=257),
       st.lists(st.binary(max_size=48), min_size=1, max_size=64))
def test_ring_round_trip_with_wraparound(capacity, blobs):
    """Alternating write/read at arbitrary capacities: every record
    comes back intact across the wrap seam (split copies both ways)."""
    ring = ShmRing(capacity)
    for blob in blobs:
        if len(blob) + 4 > capacity:
            assert not ring.try_write(blob)
            continue
        assert ring.try_write(blob)
        assert ring.read() == blob
    assert ring.head == ring.tail


def test_ring_queues_multiple_records():
    ring = ShmRing(64)
    assert ring.try_write(b"abc")
    assert ring.try_write(b"")
    assert ring.try_write(b"d" * 20)
    assert ring.read() == b"abc"
    assert ring.read() == b""
    assert ring.read() == b"d" * 20


def test_ring_full_refuses_without_corruption():
    """A record that cannot fit leaves the ring (and cursors) untouched;
    space freed by the consumer becomes writable again."""
    ring = ShmRing(64)
    assert ring.try_write(b"x" * 40)
    head, tail = ring.head, ring.tail
    assert not ring.try_write(b"y" * 40)        # 44 > 64-44 free
    assert (ring.head, ring.tail) == (head, tail)
    assert ring.read() == b"x" * 40
    assert ring.try_write(b"y" * 40)            # freed space reusable
    assert ring.read() == b"y" * 40


# ----------------------------------------------------- overflow fallback


def _loopback_channel(capacity=64):
    """An ShmChannel with both ends live in this process (no fork), so
    parent-side and worker-side calls can be driven directly."""
    return ShmChannel(mp.get_context("fork"), capacity)


def test_shm_overflow_falls_back_to_pipe_and_counts():
    """A block bigger than the ring rides the setup pipe behind the
    1-byte marker — delivered intact, counted on the parent side."""
    chan = _loopback_channel(64)
    big = bytes(range(256)) * 4                 # 1 KiB >> 64 B ring
    try:
        chan.send(big)
        assert chan.overflows == 1
        assert chan.w_recv() == big

        chan.w_send(big)                        # worker -> parent leg
        assert chan.recv(None, 0) == big
        assert chan.overflows == 2
        assert chan.bytes_in == len(big)
    finally:
        chan.close()


def test_shm_small_blocks_never_touch_the_pipe():
    chan = _loopback_channel(256)
    try:
        chan.send(b"grant")
        assert chan.w_recv() == b"grant"
        chan.w_send(b"report")
        assert chan.recv(None, 0) == b"report"
        assert chan.overflows == 0
        assert not chan.conn.poll(0)            # pipe stayed idle
    finally:
        chan.close()
