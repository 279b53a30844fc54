"""The trace schema: registry sanity, validation, and real traced runs."""

import pytest

from repro.apps import make_app, small_params
from repro.harness import run_app
from repro.obs.schema import (
    KINDS,
    SPAN_KINDS,
    classify_link,
    validate_record,
    validate_records,
)
from repro.sim import Tracer
from repro.sim.trace import TraceRecord


# ------------------------------------------------------------- registry

def test_every_kind_has_emitter_doc_and_fields():
    for name, spec in KINDS.items():
        assert spec.name == name
        assert spec.emitter.startswith("repro.")
        assert spec.doc
        assert spec.fields
        for field, (type_tag, unit) in spec.fields.items():
            assert type_tag in ("int", "float", "str", "bool"), (name, field)
            assert unit


def test_span_kinds_carry_t0_dur():
    assert SPAN_KINDS  # the schema has spans
    for name in SPAN_KINDS:
        fields = KINDS[name].fields
        assert "t0" in fields and "dur" in fields
    for name in set(KINDS) - SPAN_KINDS:
        fields = KINDS[name].fields
        assert "t0" not in fields and "dur" not in fields


# ----------------------------------------------------------- validation

def test_validate_rejects_unknown_kind():
    rec = TraceRecord(0.0, "no.such_kind", {})
    assert validate_record(rec) == ["unknown kind 'no.such_kind'"]


def test_validate_rejects_missing_and_undeclared_fields():
    rec = TraceRecord(1.0, "proc.spawn", {"pid": 3, "bogus": 1})
    problems = validate_record(rec)
    assert any("missing field 'name'" in p for p in problems)
    assert any("undeclared field 'bogus'" in p for p in problems)


def test_validate_rejects_wrong_types():
    # bool is not an int, str is not an int
    rec = TraceRecord(1.0, "proc.spawn", {"pid": True, "name": "w"})
    assert any("expected int" in p for p in validate_record(rec))
    rec = TraceRecord(1.0, "proc.spawn", {"pid": "3", "name": "w"})
    assert any("expected int" in p for p in validate_record(rec))


def test_validate_rejects_inconsistent_span():
    good = {"cluster": 0, "size": 64, "qdepth": 1, "msg_id": -1,
            "t0": 1.0, "dur": 0.5}
    assert validate_record(TraceRecord(1.5, "gw.forward", dict(good))) == []
    bad = dict(good, dur=-0.5)
    assert any("negative dur" in p
               for p in validate_record(TraceRecord(0.5, "gw.forward", bad)))
    assert any("!= t0+dur" in p
               for p in validate_record(TraceRecord(2.0, "gw.forward",
                                                    dict(good))))


def test_classify_link():
    assert classify_link("lanout3") == "lan_out"
    assert classify_link("lanin12") == "lan_in"
    assert classify_link("gwaccess0") == "access"
    assert classify_link("wan(0, 1)") == "wan"
    assert classify_link("cpu7") == "other"


# ------------------------------------------------- real traced runs

@pytest.mark.parametrize("app_name", ["tsp", "asp"])
def test_real_traces_validate(app_name):
    tracer = Tracer()
    run_app(make_app(app_name), "original", 2, 2, small_params(app_name),
            tracer=tracer)
    assert len(tracer.records) > 0
    assert validate_records(tracer.records) == []


def test_traced_run_emits_the_expected_kinds():
    tracer = Tracer()
    run_app(make_app("asp"), "original", 2, 2, small_params("asp"),
            tracer=tracer)
    kinds = {r.kind for r in tracer.records}
    # ASP is broadcast-bound: the whole ordered-broadcast story plus the
    # message/link substrate must appear.
    for expected in ("proc.spawn", "proc.finish", "msg.send", "msg.deliver",
                     "link.busy", "gw.forward", "wan.xfer", "bcast.issue",
                     "bcast.complete", "bcast.apply", "seq.acquire"):
        assert expected in kinds, expected
    assert kinds <= set(KINDS)


def test_emit_time_filter_drops_other_kinds():
    tracer = Tracer(kinds=frozenset({"msg.send"}))
    run_app(make_app("tsp"), "original", 2, 2, small_params("tsp"),
            tracer=tracer)
    assert tracer.records
    assert {r.kind for r in tracer.records} == {"msg.send"}
