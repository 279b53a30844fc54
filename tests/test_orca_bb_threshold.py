"""The PB -> BB protocol switch, fixed and tuned, exactly at its boundary.

Orca/FM ships small write payloads to the sequencer, which broadcasts
them (PB); at the threshold it instead requests just a sequence number
with a small control message and the *sender* broadcasts the payload
(BB).  With no :class:`~repro.tuner.DecisionModel` installed the
boundary is the hard-wired ``BB_THRESHOLD``; with a model installed it
is that model's *fitted crossover* of the PB and BB cost lines.  This
suite pins the boundary — one byte below vs exactly at the threshold —
and the distinct traffic shapes of the two modes, parametrized over
both decision sources.  (The full record streams on both sides of every
boundary are pinned by the ``bb/*`` cells of the golden manifest.)
"""

import pytest

from repro.network import DAS_PARAMS, Fabric, uniform_clusters
from repro.orca import ObjectSpec, Operation, OrcaRuntime
from repro.orca.broadcast import BB_THRESHOLD, SEQ_REQUEST_BYTES
from repro.sim import Simulator, Tracer
from repro.tuner import ContextModel, DecisionModel, FittedLine, crossover

#: 2 clusters x 2 nodes; centralized sequencer stamps on node 0 (cluster
#: 0), the writer runs on node 2 (cluster 1) — so PB mode genuinely
#: ships the payload across the WAN to the stamping site.
SENDER = 2
STAMP_NODE = 0


def _tuned(pb: FittedLine, bb: FittedLine) -> DecisionModel:
    """A handmade model whose threshold is the fitted crossover of the
    given lines (no shape/stripe lines: dissemination stays flat/1)."""
    thr = crossover(pb, bb)
    ctx = ContextModel(n_clusters=2, pb=pb, bb=bb, bb_threshold=thr)
    return DecisionModel(contexts=((2, ctx),), source="handmade")


#: (decision model or None, the PB->BB boundary it implies).  The fixed
#: default is pinned exactly at ``BB_THRESHOLD``; tuned models exactly
#: at their fitted crossover — one below, one above the fixed value.
DECISION_CASES = [
    pytest.param(None, BB_THRESHOLD, id="fixed-default"),
    pytest.param(_tuned(FittedLine(0.0, 2.0 ** -18),
                        FittedLine(1024 * 2.0 ** -19, 2.0 ** -19)),
                 1024, id="tuned-crossover-1024"),
    pytest.param(_tuned(FittedLine(0.0, 4e-6), FittedLine(0.065536, 2e-6)),
                 32768, id="tuned-crossover-32768"),
]


def _run_write(size, decision=None):
    sim = Simulator()
    tracer = Tracer()
    tracer.enabled = True
    fabric = Fabric(sim, uniform_clusters(2, 2), DAS_PARAMS, tracer=tracer)
    fabric.decision = decision
    rts = OrcaRuntime(sim, fabric, sequencer="centralized")
    rts.register(ObjectSpec(
        name="blob", state_factory=list,
        operations={"put": Operation(fn=lambda st, n: st.append(n) or len(st),
                                     writes=True,
                                     arg_bytes=lambda n: n,
                                     result_bytes=8)},
        replicated=True))

    def writer():
        result = yield from rts.invoke(SENDER, "blob", "put", (size,))
        return result

    proc = sim.spawn(writer())
    sim.run()
    assert proc.value == 1
    records = [(r.time, r.kind, tuple(sorted(r.detail.items())))
               for r in tracer.records
               if r.kind not in ("proc.spawn", "proc.finish")]
    by_kind = {}
    for r in tracer.records:
        by_kind.setdefault(r.kind, []).append(r.detail)
    return records, by_kind


@pytest.mark.parametrize("decision,threshold", DECISION_CASES)
def test_pb_one_byte_below_threshold(decision, threshold):
    size = threshold - 1
    _records, by = _run_write(size, decision)
    # The seq request carries the whole operation to the stamping site.
    (req,) = by["seq.request"]
    assert req["bb"] is False
    assert req["size"] == size
    assert req["stamp_node"] == STAMP_NODE and req["inter"] is True
    # No grant trip back: the sequencer itself disseminates.
    assert "seq.grant" not in by
    # Every node got the stamped payload, from the stamping node.
    delivers = [d for d in by["msg.deliver"] if d["msg_kind"] == "bcast"]
    assert sorted(d["dst"] for d in delivers) == [0, 1, 2, 3]
    assert all(d["src"] == STAMP_NODE for d in delivers)


@pytest.mark.parametrize("decision,threshold", DECISION_CASES)
def test_bb_exactly_at_threshold(decision, threshold):
    size = threshold
    _records, by = _run_write(size, decision)
    # Only a small control message travels to the sequencer...
    (req,) = by["seq.request"]
    assert req["bb"] is True
    assert req["size"] == SEQ_REQUEST_BYTES
    # ...and the sequence number travels back.
    (grant,) = by["seq.grant"]
    assert grant["stamp_node"] == STAMP_NODE and grant["inter"] is True
    # The *sender* disseminates the payload.
    delivers = [d for d in by["msg.deliver"] if d["msg_kind"] == "bcast"]
    assert sorted(d["dst"] for d in delivers) == [0, 1, 2, 3]
    assert all(d["src"] == SENDER for d in delivers)


def test_fixed_default_matches_no_model():
    """``decision=None`` and the boundary it implies are the same
    contract: a tuned model whose crossover equals ``BB_THRESHOLD``
    reproduces the fixed runs record-for-record."""
    pinned = _tuned(FittedLine(0.0, 4e-6),
                    FittedLine(BB_THRESHOLD * 2e-6, 2e-6))
    assert pinned.context_for(2).bb_threshold == float(BB_THRESHOLD)
    for size in (BB_THRESHOLD - 1, BB_THRESHOLD):
        none_records, _ = _run_write(size, None)
        pinned_records, _ = _run_write(size, pinned)
        assert none_records == pinned_records, size


def test_bb_moves_fewer_payload_bytes_to_the_sequencer():
    """At the boundary the two modes differ by design: PB pays the
    payload on the sender->sequencer leg, BB only the 16-byte control
    pair.  Measured on the non-bcast control traffic crossing the WAN."""
    def control_wan_bytes(by):
        return sum(d["size"] for d in by["msg.send"]
                   if d["msg_kind"] != "bcast" and d["scope"] == "wan")

    _, pb = _run_write(BB_THRESHOLD - 1)
    _, bb = _run_write(BB_THRESHOLD)
    assert control_wan_bytes(pb) == BB_THRESHOLD - 1
    assert control_wan_bytes(bb) == 2 * SEQ_REQUEST_BYTES
