"""The PDES sync fast lane: pickled epoch blocks over shared memory.

Each epoch a partition worker receives one *grant* and answers with one
*report*; at thousands of epochs per run the transport, not the
payload, is the cost, so the blocks ride shared-memory rings and the
setup pipe keeps only the rare paths.

Three pieces live here:

* **The block format** — every block is one ``pickle.dumps``.  A
  *section* is one epoch's routed items for one destination partition:
  :class:`Section` carries the destination, the message and ack counts
  and the minimum item time beside ``raw``, one pickle of the items
  (messages first, then acks, each kind in outbox order).  A report
  ships the worker's sections whole; the coordinator reads only their
  header fields (all ``compute_caps`` needs) and routes ``raw``
  unopened into the destination's next grant, where the worker
  unpickles it.

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
  errors surface as typed exceptions on the parent side.

The blocks change no virtual-time behavior: a section holds exactly the
items ``PartitionBoundary`` exported, and the golden parity suite pins
partitioned runs record-for-record against the single-process oracle.
The trust domain is the pool's own: the forked workers already
unpickle everything the setup pipe carries.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import struct
from typing import List, NamedTuple, Optional, Sequence, Tuple

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

# Block kinds (first field of every block).
GRANT = 1
REPORT = 2
FINISH = 3

# Single-byte ring records pointing at the pipe (rare paths).  Every
# pickled block is longer than one byte, so neither can be mistaken
# for one.
_VIA_PIPE = b"\xff"                 # block outgrew the ring: pipe carries it
_ERROR_MARK = b"\xfe"               # worker failed: pipe carries the error

_U32 = struct.Struct("<I")          # ring record length prefix


# ----------------------------------------------------------------- blocks

class Section(NamedTuple):
    """One source epoch's routed items for one destination partition.

    The coordinator routes ``raw`` verbatim into the destination's next
    grant; only the other fields are read on the way through —
    ``min_time`` is the minimum over message arrivals and ack deposit
    times, which is exactly the term ``reals`` needs.
    """

    dst: int
    n_msgs: int
    n_acks: int
    min_time: float
    raw: bytes


def encode_sections(items: Sequence[tuple]) -> List[Section]:
    """Group one epoch's outbox by destination: one :class:`Section`
    each, messages before acks, each kind in outbox order."""
    groups = {}
    for item in items:
        groups.setdefault(item[1], []).append(item)
    sections = []
    for dst, group in groups.items():
        msgs = [it for it in group if it[0] == "msg"]
        acks = [it for it in group if it[0] == "ack"]
        sections.append(Section(dst, len(msgs), len(acks),
                                min(it[3] for it in group),
                                pickle.dumps(msgs + acks, -1)))
    return sections


def decode_section_items(raw: bytes) -> List[tuple]:
    """The routed item tuples ``PartitionBoundary.receive`` expects."""
    return pickle.loads(raw)


def encode_grant(cap: Optional[float], gmin: float,
                 raws: Sequence[bytes]) -> bytes:
    """One epoch grant: cap (``None`` when unbounded), gmin, and the
    routed sections' ``raw`` bytes."""
    return pickle.dumps((GRANT, cap, gmin, raws), -1)


def encode_finish() -> bytes:
    return pickle.dumps((FINISH, None, 0.0, ()), -1)


def decode_grant(block: bytes):
    """``(kind, cap_or_None, gmin, items)`` from a grant/finish block."""
    kind, cap, gmin, raws = pickle.loads(block)
    if not raws:
        return kind, cap, gmin, ()
    items: List[tuple] = []
    for raw in raws:
        items += pickle.loads(raw)
    return kind, cap, gmin, items


def encode_report(clock: float, frontier: Optional[float],
                  pendings: Sequence[Tuple[int, float]],
                  sections: Sequence[Section]) -> bytes:
    """One epoch report: clock, frontier (``None`` when the worker is
    dry), the un-acked floor list, and the outbox sections."""
    return pickle.dumps((REPORT, clock, frontier, pendings, sections), -1)


def decode_report(block: bytes):
    """``(clock, frontier, pendings, [Section])`` — section items stay
    pickled in each ``raw``."""
    report = pickle.loads(block)
    if report[0] != REPORT:
        raise SimulationError(f"pdes: bad report block kind {report[0]}")
    return report[1:]


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
    """Re-raise a worker's shipped error on the parent side."""
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
