"""The PDES fast lane in isolation: sections and the worker pipe.

The golden manifest (``tools/golden.py``, which also runs every cell
the engine can partition with ``pdes="on"``) pins the *end-to-end*
contract — partitioned runs bit-identical to the committed cells.  This file
pins the pieces directly, where hypothesis can reach states real
workloads rarely visit: every record kind and payload shape through a
section, a message larger than the OS pipe buffer through a real forked
worker, and a worker's death or shipped error as the typed errors the
parent raises.
"""

import multiprocessing as mp
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.message import Message
from repro.sim import SimulationError
from repro.sim.pdes.boundary import pack_sections
from repro.sim.pdes.coordinator import _receive, _send

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
def routed_items(draw):
    """A mixed outbox: ("msg", ...) and ("ack", ...) item tuples."""
    width = draw(st.integers(min_value=2, max_value=4))
    items = []
    n = draw(st.integers(min_value=1, max_value=10))
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
@given(routed_items())
def test_codec_sections_round_trip(items):
    """Every record kind and payload shape survives a section, and the
    header fields (all the coordinator reads) describe its items."""
    sections = pack_sections(items)
    expected = _by_dst(items)
    assert sorted(sec.dst for sec in sections) == sorted(expected)
    for sec in sections:
        group = expected[sec.dst]
        assert sec.n_msgs == sum(1 for it in group if it[0] == "msg")
        assert sec.n_acks == sum(1 for it in group if it[0] == "ack")
        assert sec.min_time == min(it[3] for it in group)
        # The raw bytes the coordinator routes unopened load at the
        # destination.
        assert pickle.loads(sec.raw) == group


def test_codec_section_holds_more_acks_than_a_u16():
    """A section's counts have no 16-bit ceiling: 70 000 acks to one
    destination (a geometry wider than any committed one) fit one
    section."""
    items = [("ack", 1, k, float(k)) for k in range(70_000)]
    (sec,) = pack_sections(items)
    assert (sec.dst, sec.n_msgs, sec.n_acks, sec.min_time) == \
        (1, 0, 70_000, 0.0)
    assert pickle.loads(sec.raw) == items


# ------------------------------------------------------------------ pipe


def _echo_worker(conn):
    """A forked stand-in for a partition worker: each grant comes back
    as a report whose sections hold the grant's items."""
    while True:
        grant = conn.recv()
        if grant is None:
            return
        _cap, _gmin, raws = grant
        items = [it for raw in raws for it in pickle.loads(raw)]
        conn.send(("report", (1.0, None, [], pack_sections(items))))


def test_pipe_carries_a_block_larger_than_its_buffer():
    """A 70 000-ack grant (over a megabyte, far past the OS pipe
    buffer) crosses a real forked worker and comes back intact, and
    each end of the pair counts the bytes that crossed."""
    items = [("ack", 1, k, float(k)) for k in range(70_000)]
    (sec,) = pack_sections(items)
    ctx = mp.get_context("fork")
    conn, wconn = ctx.Pipe()
    proc = ctx.Process(target=_echo_worker, args=(wconn,), daemon=True)
    proc.start()
    wconn.close()
    try:
        sent = _send(conn, 0, (None, 0.0, [sec.raw]))
        assert sent > 1 << 20
        report, got = _receive(conn, 0, "report")
        _clock, _frontier, _pend, (back,) = report
        assert got > 1 << 20
        assert (back.n_acks, back.raw) == (70_000, sec.raw)
        assert pickle.loads(back.raw) == items
        _send(conn, 0, None)
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
        _receive(conn, 3, "report")
    with pytest.raises(SimulationError,
                       match="partition 3 worker died without reporting"):
        _send(conn, 3, None)
    conn.close()


def test_shipped_error_is_reraised_in_place_of_any_message():
    """An error the worker shipped in place of a report or a handshake
    is re-raised: its own exception when it pickled, else a typed error
    carrying the worker's traceback; a message with the wrong tag is a
    protocol error."""
    def deliver(msg, want):
        conn, wconn = mp.get_context("fork").Pipe()
        try:
            wconn.send(msg)
            return _receive(conn, 1, want)
        finally:
            conn.close()
            wconn.close()

    shipped = ("error", ("tb", ValueError("bad rows")))
    with pytest.raises(ValueError, match="bad rows"):
        deliver(shipped, "report")
    with pytest.raises(ValueError, match="bad rows"):
        deliver(shipped, "ready")
    with pytest.raises(SimulationError,
                       match="partition 1 worker failed:\ntb"):
        deliver(("error", ("tb", None)), "final")
    with pytest.raises(SimulationError,
                       match="partition 1 sent 'final' where 'ready'"):
        deliver(("final", {}), "ready")
    body, nbytes = deliver(("ready", 2.5), "ready")
    assert body == 2.5
    assert nbytes == len(pickle.dumps(("ready", 2.5)))
