"""The PDES sync fast lane: pickled epoch blocks over one pipe per worker.

Each epoch a partition worker receives one *grant* and answers with one
*report*.  The exchanges are few and coarse (one ``pdes_4x15`` pass
makes 730 round trips of about 1.2 KB), so a plain duplex pipe per
pooled worker carries them, in protocol order, beside the rest of the
worker's traffic: the run dispatch, the ready and final handshakes,
and a shipped error.  Partition 0 runs in the coordinator's own
process and takes the same grant and report blocks by call, with no
pipe.

Two pieces live here:

* **The block format** — every block is one ``pickle.dumps``.  A
  *section* is one epoch's routed items for one destination partition:
  :class:`Section` carries the destination, the message and ack counts
  and the minimum item time beside ``raw``, one pickle of the items
  (messages first, then acks, each kind in outbox order).  A report
  ships the worker's sections whole; the coordinator reads only their
  header fields (all ``compute_caps`` needs) and routes ``raw``
  unopened into the destination's next grant, where the worker
  unpickles it.

* **The parent's end of a pipe** — :func:`send` and :func:`receive`
  move one message each and turn a dead worker into a typed error
  naming its partition; :func:`expect` (and :func:`decode_report`,
  through it) re-raises an error the worker shipped in place of the
  message the protocol expected.

The blocks change no virtual-time behavior: a section holds exactly the
items ``PartitionBoundary`` exported, and the golden parity suite pins
partitioned runs record-for-record against the single-process oracle.
The trust domain is the pool's own: the forked workers already
unpickle everything the pipe carries.
"""

from __future__ import annotations

import pickle
from typing import List, NamedTuple, Optional, Sequence, Tuple

from ..engine import SimulationError

__all__ = [
    "GRANT",
    "REPORT",
    "FINISH",
    "Section",
    "encode_sections",
    "decode_section_items",
    "encode_grant",
    "encode_finish",
    "decode_grant",
    "encode_report",
    "decode_report",
    "expect",
    "receive",
    "send",
]

# Block kinds (first field of every block).
GRANT = 1
REPORT = 2
FINISH = 3


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
    pickled in each ``raw``; a shipped error is re-raised."""
    return expect(block, REPORT)[1:]


# ------------------------------------------------------------------ pipes

def _died(part_id: int) -> SimulationError:
    return SimulationError(
        f"pdes: partition {part_id} worker died without reporting")


def send(conn, part_id: int, block: bytes) -> None:
    """Write one message to partition ``part_id``'s worker; a worker
    gone from the far end is the typed error :func:`receive` raises."""
    try:
        conn.send_bytes(block)
    except OSError:
        raise _died(part_id) from None


def receive(conn, part_id: int) -> bytes:
    """The next message from partition ``part_id``'s worker, as sent.

    The parent's one read of a worker pipe, for the handshakes and the
    epochs alike.  Each pipe is made just before its worker forks and
    the parent closes the worker's end, so only the worker holds it: a
    worker that dies closes it, and the read ends at EOF at once.
    """
    try:
        return conn.recv_bytes()
    except (EOFError, OSError):
        raise _died(part_id) from None


def expect(block: bytes, want) -> tuple:
    """The worker message in ``block``, whose kind (first field) the
    protocol says is ``want``.

    A worker that failed sends ``("error", part_id, traceback, exc)``
    in its place: ``exc`` is re-raised when it pickled, so the app's
    own error keeps the type the serial engine gives it.  Any other
    kind is a protocol error.
    """
    msg = pickle.loads(block)
    if msg[0] == want:
        return msg
    if msg[0] == "error":
        _kind, part_id, tb, exc = msg
        if exc is not None:
            raise exc
        raise SimulationError(
            f"pdes: partition {part_id} worker failed:\n{tb}")
    name = "report" if want == REPORT else want
    raise SimulationError(f"pdes: bad {name} block kind {msg[0]!r}")
