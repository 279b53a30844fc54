"""Unit tests for the shared-object model."""

import numpy as np
import pytest

from repro.orca import Blocked, ObjectSpec, Operation, Replica, estimate_bytes


def test_estimate_bytes_scalars():
    assert estimate_bytes(None) == 0
    assert estimate_bytes(True) == 1
    assert estimate_bytes(7) == 8
    assert estimate_bytes(3.14) == 8
    assert estimate_bytes("hello") == 5
    assert estimate_bytes(b"abc") == 3


def test_estimate_bytes_containers():
    assert estimate_bytes([1, 2, 3]) == 8 + 24
    assert estimate_bytes({"a": 1}) == 8 + 1 + 8
    assert estimate_bytes((1, (2, 3))) == 8 + 8 + (8 + 16)


def test_estimate_bytes_numpy():
    arr = np.zeros(100, dtype=np.float64)
    assert estimate_bytes(arr) == 800


def test_operation_static_sizes():
    op = Operation(fn=lambda s: None, arg_bytes=100, result_bytes=50)
    assert op.args_size(()) == 100
    assert op.result_size(None) == 50


def test_operation_callable_sizes():
    op = Operation(fn=lambda s, x: x * 2,
                   arg_bytes=lambda x: x,
                   result_bytes=lambda r: r)
    assert op.args_size((10,)) == 10
    assert op.result_size(14) == 14


def test_operation_default_sizes_fall_back_to_estimate():
    op = Operation(fn=lambda s, x: None)
    assert op.args_size((7,)) == 8 + 8  # tuple overhead + one int


def test_operation_cost_callable():
    op = Operation(fn=lambda s, n: None, cpu_cost=lambda n: n * 1e-6)
    assert op.cost((5,)) == pytest.approx(5e-6)


@pytest.mark.parametrize("field, value", [
    ("cpu_cost", -1e-6), ("cpu_cost", float("nan")), ("cpu_cost", float("inf")),
    ("arg_bytes", -1), ("result_bytes", -1)])
def test_operation_rejects_bad_constants(field, value):
    """A constant that would fail mid-run, or hold a CPU forever, is
    refused where the operation is declared."""
    with pytest.raises(ValueError, match=field):
        Operation(fn=lambda s: None, **{field: value})


def test_operation_resolves_a_constant_cost_once():
    op = Operation(fn=lambda s: None, cpu_cost=3)
    assert type(op.cpu_cost) is float and op.cost(()) == 3.0


def test_operation_resolves_constant_sizes_once():
    op = Operation(fn=lambda s: None, arg_bytes=8.0, result_bytes=16.0)
    assert type(op.arg_bytes) is int and type(op.result_bytes) is int
    assert op.args_size(("ignored",)) == 8 and op.result_size(None) == 16


def test_objectspec_requires_operations():
    with pytest.raises(ValueError):
        ObjectSpec("empty", dict, {})


def test_objectspec_unknown_op():
    spec = ObjectSpec("o", dict, {"get": Operation(fn=lambda s: s)})
    with pytest.raises(KeyError, match="no operation"):
        spec.op("missing")


def test_replica_execute_and_blocked():
    def deq(state):
        if not state:
            raise Blocked
        return state.pop(0)

    spec = ObjectSpec("q", list, {"deq": Operation(fn=deq, writes=True)})
    rep = Replica(spec, [1, 2])
    assert spec.op("deq").fn(rep.state) == 1
    assert spec.op("deq").fn(rep.state) == 2
    with pytest.raises(Blocked):
        spec.op("deq").fn(rep.state)
