"""The PDES sync fast lane: packed epoch blocks over shared memory.

PR 9's epoch protocol pickled four Python tuples through a
``multiprocessing.Pipe`` per partition per epoch — ~0.1 ms of
syscall + pickle round-trip, times thousands of epochs, times every
partition.  This module replaces the transport with the same treatment
the paper applies to wide-area links: pack the records flat, coalesce
the round-trips, keep the expensive channel for the rare paths.

Three pieces live here:

* **The packing codec** — one struct-packed wire format shared by
  worker and coordinator.  A *section* is one epoch's routed items for
  one destination partition, laid out struct-of-arrays (arrival and
  send/recv-time doubles, node ids, sizes, message ids, then a small
  string table for port/kind names and *one* length-prefixed
  pickle blob for the whole payload tuple — only the payload objects
  still meet pickle, and they amortize its fixed cost across the
  section).
  The coordinator never decodes a section: it routes the raw bytes
  into the destination's next grant and reads only the section header
  (destination, counts, minimum time — all ``compute_caps`` needs).

* **:class:`ShmRing`** — a single-producer single-consumer byte ring
  over a fork-inherited ``multiprocessing.RawArray``, length-prefixed
  records, wraparound via split copies.  The epoch protocol is
  strictly alternating (at most one block in flight per direction), so
  a paired ``Semaphore`` both announces a block and provides the
  memory barrier; a block larger than the ring falls back — loudly,
  counted — to the setup pipe behind a 1-byte marker record so
  ordering is preserved.

* **:class:`ShmChannel`** — the one transport: a ring and a semaphore
  per direction, plus a duplex pipe for setup/final/error traffic (and
  for the block that outgrows its ring).  Worker death and worker
  errors surface as the same exceptions the PR-9 protocol raised.

The codec changes no virtual-time behavior: it is a byte-level
representation of exactly the items ``PartitionBoundary`` exported,
and the golden parity suite pins it record-for-record against the
single-process oracle.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import struct
from typing import Any, List, NamedTuple, Optional, Sequence, Tuple

from ..engine import SimulationError

__all__ = [
    "GRANT",
    "REPORT",
    "FINISH",
    "Section",
    "ShmRing",
    "ShmChannel",
    "encode_sections",
    "decode_section_items",
    "encode_grant",
    "encode_finish",
    "decode_grant",
    "encode_report",
    "decode_report",
]

INF = float("inf")
NAN = float("nan")

# Block kinds (first byte of every block).
GRANT = 1
REPORT = 2
FINISH = 3

# Single-byte ring records pointing at the pipe (rare paths).
_VIA_PIPE = b"\xff"                 # block outgrew the ring: pipe carries it
_ERROR_MARK = b"\xfe"               # worker failed: pipe carries the error

_GRANT_HDR = struct.Struct("<BddH")     # kind, cap, gmin, n_sections
_REPORT_HDR = struct.Struct("<BddHH")   # kind, clock, frontier, n_pend, n_sec
_PEND = struct.Struct("<id")            # owing partition, arrival floor
_SEC_HDR = struct.Struct("<HHHHdI")     # dst, n_msgs, n_acks, n_strs,
                                        #   min_time, body length
_U32 = struct.Struct("<I")

_Message = None                     # lazy class ref, bound on first decode


# ------------------------------------------------------------------ codec

class Section(NamedTuple):
    """One source epoch's routed items for one destination partition.

    The coordinator routes ``raw`` verbatim (header included) into the
    destination's next grant; only the header fields are read on the
    way through — ``min_time`` is the minimum over message arrivals and
    ack deposit times, which is exactly the term ``reals`` needs.
    """

    dst: int
    n_msgs: int
    n_acks: int
    min_time: float
    raw: bytes


def _encode_section(dst: int, items: Sequence[tuple]) -> bytes:
    """Pack one destination's items (struct-of-arrays + string table)."""
    msgs = [it for it in items if it[0] == "msg"]
    acks = [it for it in items if it[0] == "ack"]
    na = len(acks)
    if not msgs:
        # Ack-only fast path (the synchronous-send protocol makes these
        # as common as the messages themselves): no string table, no
        # payload blob, two flat arrays.
        ack_ts = [it[3] for it in acks]
        body = struct.pack(f"<{na}q", *[it[2] for it in acks]) \
            + struct.pack(f"<{na}d", *ack_ts)
        return _SEC_HDR.pack(dst, 0, na, 0, min(ack_ts), len(body)) + body
    strs: List[bytes] = []
    index = {}

    def sid(s: str) -> int:
        slot = index.get(s)
        if slot is None:
            slot = index[s] = len(strs)
            strs.append(s.encode())
        return slot

    min_time = INF
    arrivals, send_times, recv_times = [], [], []
    srcs, dsts, sizes, ids = [], [], [], []
    port_idx, kind_idx = [], []
    payloads = []
    for _tag, _dst, msg, arrival in msgs:
        min_time = min(min_time, arrival)
        arrivals.append(arrival)
        send_times.append(msg.send_time)
        recv_times.append(msg.recv_time)
        srcs.append(msg.src)
        dsts.append(msg.dst)
        sizes.append(msg.size)
        ids.append(msg.msg_id)
        port_idx.append(sid(msg.port))
        kind_idx.append(sid(msg.kind))
        payloads.append(msg.payload)

    ack_ids, ack_ts = [], []
    for _tag, _dst, msg_id, t_deposit in acks:
        min_time = min(min_time, t_deposit)
        ack_ids.append(msg_id)
        ack_ts.append(t_deposit)

    nm, na = len(msgs), len(acks)
    parts = [b"".join(struct.pack("<H", len(s)) + s for s in strs)]
    if nm:
        # One pickle for the whole payload tuple (all-None rides as an
        # empty blob): the per-call cost of pickle dwarfs the bytes for
        # the tiny payloads fine-grain apps ship.
        blob = b"" if all(p is None for p in payloads) \
            else pickle.dumps(tuple(payloads), -1)
        parts += [
            struct.pack(f"<{nm}d", *arrivals),
            struct.pack(f"<{nm}d", *send_times),
            struct.pack(f"<{nm}d", *recv_times),
            struct.pack(f"<{nm}i", *srcs),
            struct.pack(f"<{nm}i", *dsts),
            struct.pack(f"<{nm}q", *sizes),
            struct.pack(f"<{nm}q", *ids),
            struct.pack(f"<{nm}H", *port_idx),
            struct.pack(f"<{nm}H", *kind_idx),
            _U32.pack(len(blob)), blob,
        ]
    if na:
        parts += [struct.pack(f"<{na}q", *ack_ids),
                  struct.pack(f"<{na}d", *ack_ts)]
    body = b"".join(parts)
    return _SEC_HDR.pack(dst, nm, na, len(strs), min_time, len(body)) + body


def encode_sections(items: Sequence[tuple]) -> List[bytes]:
    """Group one epoch's outbox by destination, preserving item order."""
    groups = {}
    for item in items:
        groups.setdefault(item[1], []).append(item)
    return [_encode_section(dst, group) for dst, group in groups.items()]


def _parse_section(block: bytes, off: int) -> Tuple[Section, int]:
    dst, nm, na, _ns, min_time, blen = _SEC_HDR.unpack_from(block, off)
    end = off + _SEC_HDR.size + blen
    return Section(dst, nm, na, min_time, block[off:end]), end


def decode_section_items(raw: bytes) -> List[tuple]:
    """Rebuild the routed item tuples ``PartitionBoundary.receive``
    expects from one packed section."""
    dst, nm, na, ns, _min_time, _blen = _SEC_HDR.unpack_from(raw, 0)
    off = _SEC_HDR.size
    strs = []
    for _ in range(ns):
        (ln,) = struct.unpack_from("<H", raw, off)
        off += 2
        strs.append(raw[off:off + ln].decode())
        off += ln
    items: List[tuple] = []
    if nm:
        arrivals = struct.unpack_from(f"<{nm}d", raw, off); off += 8 * nm
        send_times = struct.unpack_from(f"<{nm}d", raw, off); off += 8 * nm
        recv_times = struct.unpack_from(f"<{nm}d", raw, off); off += 8 * nm
        srcs = struct.unpack_from(f"<{nm}i", raw, off); off += 4 * nm
        dsts = struct.unpack_from(f"<{nm}i", raw, off); off += 4 * nm
        sizes = struct.unpack_from(f"<{nm}q", raw, off); off += 8 * nm
        ids = struct.unpack_from(f"<{nm}q", raw, off); off += 8 * nm
        ports = struct.unpack_from(f"<{nm}H", raw, off); off += 2 * nm
        kinds = struct.unpack_from(f"<{nm}H", raw, off); off += 2 * nm
        (ln,) = _U32.unpack_from(raw, off)
        off += 4
        payloads = pickle.loads(raw[off:off + ln]) if ln else (None,) * nm
        off += ln
        global _Message
        if _Message is None:        # deferred: message -> sim cycles
            from ...network.message import Message as _Message
        Message = _Message
        for k in range(nm):
            msg = Message(src=srcs[k], dst=dsts[k], size=sizes[k],
                          payload=payloads[k], port=strs[ports[k]],
                          kind=strs[kinds[k]], msg_id=ids[k],
                          send_time=send_times[k], recv_time=recv_times[k])
            items.append(("msg", dst, msg, arrivals[k]))
    if na:
        ack_ids = struct.unpack_from(f"<{na}q", raw, off); off += 8 * na
        ack_ts = struct.unpack_from(f"<{na}d", raw, off); off += 8 * na
        for k in range(na):
            items.append(("ack", dst, ack_ids[k], ack_ts[k]))
    return items


def encode_grant(cap: Optional[float], gmin: float,
                 sections: Sequence[bytes]) -> bytes:
    """One epoch grant: cap (``None`` rides as inf), gmin, routed items."""
    cap_w = INF if cap is None else cap
    if not sections:
        return _GRANT_HDR.pack(GRANT, cap_w, gmin, 0)
    return b"".join([_GRANT_HDR.pack(GRANT, cap_w, gmin, len(sections)),
                     *sections])


def encode_finish() -> bytes:
    return _GRANT_HDR.pack(FINISH, 0.0, 0.0, 0)


def decode_grant(block: bytes):
    """``(kind, cap_or_None, gmin, items)`` from a grant/finish block."""
    kind, cap, gmin, n_sec = _GRANT_HDR.unpack_from(block, 0)
    if kind == FINISH:
        return FINISH, None, 0.0, ()
    if not n_sec:
        return GRANT, (None if cap == INF else cap), gmin, _NO_ITEMS
    items: List[tuple] = []
    off = _GRANT_HDR.size
    for _ in range(n_sec):
        blen = _SEC_HDR.unpack_from(block, off)[5]
        end = off + _SEC_HDR.size + blen
        items.extend(decode_section_items(block[off:end]))
        off = end
    return GRANT, (None if cap == INF else cap), gmin, items


def encode_report(clock: float, frontier: Optional[float],
                  pendings: Sequence[Tuple[int, float]],
                  sections: Sequence[bytes]) -> bytes:
    """One epoch report: clock, frontier (``None`` rides as NaN), the
    un-acked floor list, and the packed outbox sections."""
    hdr = _REPORT_HDR.pack(REPORT, clock,
                           NAN if frontier is None else frontier,
                           len(pendings), len(sections))
    if not pendings and not sections:
        return hdr
    parts = [hdr]
    parts += [_PEND.pack(owing, floor) for owing, floor in pendings]
    parts += list(sections)
    return b"".join(parts)


_NO_ITEMS: tuple = ()


def decode_report(block: bytes):
    """``(clock, frontier, pendings, [Section])`` — sections unparsed."""
    kind, clock, frontier, n_pend, n_sec = _REPORT_HDR.unpack_from(block, 0)
    if kind != REPORT:
        raise SimulationError(f"pdes: bad report block kind {kind}")
    if frontier != frontier:            # NaN: the worker is dry
        frontier = None
    if not n_pend and not n_sec:        # quiet epoch: the common case
        return clock, frontier, _NO_ITEMS, _NO_ITEMS
    off = _REPORT_HDR.size
    pendings = []
    for _ in range(n_pend):
        owing, floor = _PEND.unpack_from(block, off)
        off += _PEND.size
        pendings.append((owing, floor))
    sections = []
    for _ in range(n_sec):
        sec, off = _parse_section(block, off)
        sections.append(sec)
    return clock, frontier, pendings, sections


# ------------------------------------------------------------------- ring

class ShmRing:
    """SPSC byte ring over a fork-inherited ``RawArray``.

    ``head``/``tail`` are process-local cursors (the producer and
    consumer each own exactly one); only the consumer's published
    position crosses the fork, so a stale read can only *under*-state
    free space — the safe direction.  Records are ``u32`` length +
    payload, wrapping via split copies; synchronization (both the
    wake-up and the memory barrier) is the caller's semaphore.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._raw = mp.RawArray("B", capacity)
        self._done = mp.RawArray("Q", 1)    # consumer's published position
        self.head = 0                       # producer-local write cursor
        self.tail = 0                       # consumer-local read cursor
        self._mv = None                     # per-process views, built
        self._dv = None                     # lazily (after any fork)

    @property
    def mv(self) -> memoryview:
        if self._mv is None:
            self._mv = memoryview(self._raw).cast("B")
        return self._mv

    @property
    def dv(self) -> memoryview:
        """The published-position cell as a memoryview — element access
        on the ctypes array itself costs microseconds per op, and the
        producer reads it on every write."""
        if self._dv is None:
            self._dv = memoryview(self._done).cast("B").cast("Q")
        return self._dv

    def try_write(self, data: bytes) -> bool:
        """Append one record; ``False`` (untouched) if it cannot fit."""
        rec = _U32.pack(len(data)) + data
        if len(rec) > self.capacity - (self.head - self.dv[0]):
            return False
        self._put(rec)
        return True

    def read(self) -> bytes:
        """Pop one record (caller holds the announcing semaphore)."""
        cap = self.capacity
        pos = self.tail % cap
        if pos + 4 <= cap:              # contiguous: no intermediate copy
            (ln,) = _U32.unpack_from(self.mv, pos)
            self.tail += 4
        else:
            (ln,) = _U32.unpack(self._get(4))
        data = self._get(ln)
        self.dv[0] = self.tail
        return data

    def _put(self, data: bytes) -> None:
        mv, cap = self.mv, self.capacity
        pos, n = self.head % cap, len(data)
        if pos + n <= cap:              # contiguous: single slice store
            mv[pos:pos + n] = data
        else:
            first = cap - pos
            mv[pos:] = data[:first]
            mv[:n - first] = data[first:]
        self.head += n

    def _get(self, n: int) -> bytes:
        mv, cap = self.mv, self.capacity
        pos = self.tail % cap
        first = min(n, cap - pos)
        data = bytes(mv[pos:pos + first])
        if first < n:
            data += bytes(mv[:n - first])
        self.tail += n
        return data


# --------------------------------------------------------------- channels

def _raise_worker_error(msg, part_id: int):
    """Re-raise a worker's shipped error exactly as the PR-9 pool did."""
    if isinstance(msg, tuple) and msg and msg[0] == "error":
        exc = msg[2] if len(msg) > 2 else None
        if exc is not None:
            raise exc              # the app's own error, same type as serial
        raise SimulationError(
            f"pdes: partition {part_id} worker failed:\n{msg[1]}")
    raise SimulationError(
        f"pdes: partition {part_id} protocol error: "
        f"unexpected pipe message {msg!r}")


class ShmChannel:
    """The fast lane: one ring + one semaphore per direction.

    The protocol alternates strictly (a grant is answered by a report
    before the next grant), so each ring holds at most one block — an
    overflow can only mean the block outgrew the ring, in which case a
    1-byte marker keeps ring ordering and the pipe carries the bytes.

    Parent-side calls: :meth:`send` / :meth:`recv` (plus ``conn`` for
    the ready/final handshakes).  Worker-side calls are the ``w_``
    twins.  Counters (``bytes_out``/``bytes_in``/``overflows``) are
    kept parent-side only, where the coordinator reads them.
    """

    def __init__(self, ctx, capacity: int):
        self.conn, self.wconn = ctx.Pipe()
        self.bytes_out = 0
        self.bytes_in = 0
        self.overflows = 0
        self._g_ring = ShmRing(capacity)    # parent -> worker (grants)
        self._r_ring = ShmRing(capacity)    # worker -> parent (reports)
        self._g_sem = ctx.Semaphore(0)
        self._r_sem = ctx.Semaphore(0)

    def p_setup(self) -> None:
        """Parent, just after fork: drop the child's pipe end."""
        self.wconn.close()

    def w_setup(self) -> None:
        """Child, first thing: drop the parent's pipe end."""
        self.conn.close()

    def close(self) -> None:
        for conn in (self.conn, self.wconn):
            try:
                conn.close()
            except OSError:
                pass

    def _died(self, proc, part_id: int):
        """The worker is gone: surface any shipped error, else EOF."""
        if proc is not None:
            proc.join(timeout=5)
        try:
            if self.conn.poll(0):
                _raise_worker_error(self.conn.recv(), part_id)
        except (EOFError, OSError):
            pass
        raise SimulationError(
            f"pdes: partition {part_id} worker died without reporting")

    # -- parent side ----------------------------------------------------

    def send(self, block: bytes) -> None:
        self.bytes_out += len(block)
        if not self._g_ring.try_write(block):
            self.overflows += 1
            if not self._g_ring.try_write(_VIA_PIPE):
                raise SimulationError(
                    "pdes: channel ring too small for the overflow marker")
            self.conn.send_bytes(block)
        self._g_sem.release()

    def recv(self, proc, part_id: int) -> bytes:
        # Uncontended fast path first: on a loaded host the report is
        # usually already posted by the time the coordinator collects
        # it, and sem_trywait skips the timed wait's deadline setup.
        if not self._r_sem.acquire(False):
            while not self._r_sem.acquire(True, 0.5):
                if proc is not None and not proc.is_alive():
                    self._died(proc, part_id)
        block = self._r_ring.read()
        if block == _VIA_PIPE:
            self.overflows += 1
            block = self.conn.recv_bytes()
        elif block == _ERROR_MARK:
            _raise_worker_error(self.conn.recv(), part_id)
        self.bytes_in += len(block)
        return block

    # -- worker side ----------------------------------------------------

    def w_recv(self) -> bytes:
        self._g_sem.acquire()
        block = self._g_ring.read()
        if block == _VIA_PIPE:
            block = self.wconn.recv_bytes()
        return block

    def w_send(self, block: bytes) -> None:
        if not self._r_ring.try_write(block):
            if not self._r_ring.try_write(_VIA_PIPE):
                raise SimulationError(
                    "pdes: channel ring too small for the overflow marker")
            self.wconn.send_bytes(block)
        self._r_sem.release()

    def w_post_error(self) -> None:
        """After shipping an error tuple on the pipe: wake the parent.

        Posting the semaphore without a ring record would desynchronize
        the ring, so the marker is mandatory; if even one byte cannot
        be written the parent's liveness loop finds the error via
        ``is_alive``/pipe polling instead.
        """
        try:
            if self._r_ring.try_write(_ERROR_MARK):
                self._r_sem.release()
        except Exception:
            pass
