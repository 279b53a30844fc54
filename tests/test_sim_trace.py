"""The tracer as the one switch; bounded tracing: ring buffers,
deterministic sampling, TraceSpec."""

import pickle

import pytest

from repro.apps import make_app, small_params
from repro.harness import run_app
from repro.harness.experiment import _build_stack
from repro.network import DAS_PARAMS, Fabric, uniform_clusters
from repro.sim import SimulationError, Simulator, Tracer, TraceSpec
from repro.sim.trace import TraceRecord


def emit_n(tracer, kind, n):
    for i in range(n):
        tracer.emit(float(i), kind, pid=i, name="w")


# ------------------------------------------------------- the one switch

def test_untraced_stack_holds_no_tracer():
    sim, fabric, _rts = _build_stack(uniform_clusters(2, 2), DAS_PARAMS,
                                     "distributed")
    assert fabric.tracer is None
    assert sim.obs is None


def test_bare_tracer_handed_to_fabric_records_sends():
    sim = Simulator()
    tracer = Tracer()
    fabric = Fabric(sim, uniform_clusters(2, 2), DAS_PARAMS, tracer=tracer)

    def sender():
        yield from fabric.send_and_wait(0, 3, 100, port="p")

    sim.run_process(sender())
    sends = [r for r in tracer.records if r.kind == "msg.send"]
    assert [(r.detail["src"], r.detail["dst"], r.detail["scope"])
            for r in sends] == [(0, 3, "wan")]


@pytest.mark.parametrize("trace, tracer", [(True, None), (False, Tracer())],
                         ids=["trace-without-tracer", "tracer-untraced"])
def test_run_app_trace_must_agree_with_tracer(trace, tracer):
    with pytest.raises(SimulationError, match="traced exactly when"):
        run_app(make_app("tsp"), "original", 2, 2, small_params("tsp"),
                trace=trace, tracer=tracer)


def test_run_app_trace_true_with_tracer_records_the_same():
    """The older ``trace=True, tracer=...`` form still runs, and records
    exactly what ``tracer=`` alone does."""
    def records(**kwargs):
        tracer = Tracer()
        run_app(make_app("tsp"), "original", 2, 2, small_params("tsp"),
                tracer=tracer, **kwargs)
        return list(tracer.records)

    assert records(trace=True) == records() != []


# ----------------------------------------------------------------- ring

def test_ring_keeps_the_last_n_records():
    tracer = Tracer(ring=3)
    emit_n(tracer, "proc.spawn", 10)
    assert len(tracer.records) == 3
    assert [r.time for r in tracer.records] == [7.0, 8.0, 9.0]
    assert tracer.dropped == 7


def test_ring_rejects_nonpositive_capacity():
    with pytest.raises(ValueError, match="ring"):
        Tracer(ring=0)
    with pytest.raises(ValueError, match="ring"):
        Tracer(ring=-5)


def test_ring_clear_resets_buffer_and_counter():
    tracer = Tracer(ring=2)
    emit_n(tracer, "proc.spawn", 5)
    tracer.clear()
    assert list(tracer.records) == []
    assert tracer.dropped == 0
    emit_n(tracer, "proc.spawn", 1)
    assert len(tracer.records) == 1


# ------------------------------------------------------------- sampling

def test_sampling_keeps_first_of_every_k():
    tracer = Tracer(sample={"proc.spawn": 4})
    emit_n(tracer, "proc.spawn", 10)
    assert [r.time for r in tracer.records] == [0.0, 4.0, 8.0]
    assert tracer.dropped == 7


def test_sampling_is_per_kind():
    tracer = Tracer(sample={"proc.spawn": 2})
    tracer.emit(0.0, "proc.spawn", pid=0, name="w")
    tracer.emit(1.0, "proc.finish", pid=0, name="w")  # unsampled kind
    tracer.emit(2.0, "proc.spawn", pid=1, name="w")   # 2nd of 2: dropped
    tracer.emit(3.0, "proc.finish", pid=1, name="w")
    tracer.emit(4.0, "proc.spawn", pid=2, name="w")   # kept again
    assert [r.time for r in tracer.records] == [0.0, 1.0, 3.0, 4.0]
    assert tracer.dropped == 1


def test_sampling_is_deterministic_across_runs():
    def traced():
        tracer = Tracer(kinds=frozenset({"msg.send", "msg.deliver"}),
                        sample={"msg.send": 8, "msg.deliver": 8})
        run_app(make_app("tsp"), "original", 2, 2, small_params("tsp"),
                tracer=tracer)
        return list(tracer.records), tracer.dropped

    first, dropped1 = traced()
    second, dropped2 = traced()
    assert first == second              # same spec -> same kept records
    assert dropped1 == dropped2 > 0


def test_sampling_clear_resets_counters():
    # After clear(), the 1-in-k cadence restarts: a second identical run
    # through the same tracer keeps identical records.
    tracer = Tracer(sample={"proc.spawn": 3})
    emit_n(tracer, "proc.spawn", 7)
    kept_first = [r.time for r in tracer.records]
    tracer.clear()
    assert tracer.dropped == 0
    emit_n(tracer, "proc.spawn", 7)
    assert [r.time for r in tracer.records] == kept_first


def test_ring_and_sampling_compose():
    tracer = Tracer(ring=2, sample={"proc.spawn": 2})
    emit_n(tracer, "proc.spawn", 10)  # samples 0,2,4,6,8; ring keeps 6,8
    assert [r.time for r in tracer.records] == [6.0, 8.0]
    # 5 lost to sampling + 3 evicted from the ring
    assert tracer.dropped == 8


# ------------------------------------------------------------ TraceSpec

def test_trace_spec_builds_equivalent_tracer():
    spec = TraceSpec(kinds=("msg.send",), ring=100,
                     sample=(("msg.send", 4),))
    tracer = spec.build()
    assert tracer.kinds == frozenset({"msg.send"})
    assert tracer.ring == 100
    assert tracer.sample == {"msg.send": 4}


def test_trace_spec_is_frozen_hashable_and_picklable():
    spec = TraceSpec(ring=10, sample=(("msg.send", 2),))
    assert spec == pickle.loads(pickle.dumps(spec))
    assert hash(spec) == hash(TraceSpec(ring=10, sample=(("msg.send", 2),)))
    with pytest.raises(Exception):
        spec.ring = 20


def test_bounded_records_are_a_suffix_or_subset_of_unbounded():
    def run_with(tracer):
        run_app(make_app("asp"), "original", 2, 2, small_params("asp"),
                tracer=tracer)
        return list(tracer.records)

    full = run_with(Tracer())
    ring = run_with(Tracer(ring=50))
    assert ring == full[-50:]           # the tail, exactly
    sampled = run_with(Tracer(sample={"msg.send": 4}))
    assert set(map(repr, sampled)) <= set(map(repr, full))


def test_bounded_tracing_does_not_change_results():
    app = make_app("ra")
    params = small_params("ra")
    plain = run_app(app, "original", 2, 2, params)
    bounded = run_app(app, "original", 2, 2, params,
                      tracer=Tracer(ring=100, sample={"msg.send": 8}))
    assert bounded.elapsed == plain.elapsed   # bit-identical, not approx
    assert bounded.answer == plain.answer
    assert bounded.traffic == plain.traffic


def test_record_equality_round_trips_through_detail_dict():
    rec = TraceRecord(1.0, "proc.spawn", {"pid": 1, "name": "w"})
    assert rec == TraceRecord(1.0, "proc.spawn", {"pid": 1, "name": "w"})
    assert rec != TraceRecord(2.0, "proc.spawn", {"pid": 1, "name": "w"})
