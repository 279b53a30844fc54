"""Tests for the shared partition helpers and deterministic RNG streams."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.apps.partition import block_slices, owner_of_index
from repro.sim import derive_seed, substream


# --------------------------------------------------------------- partition


@given(st.integers(0, 5000), st.integers(1, 64))
def test_block_slices_cover_exactly(n, p):
    sl = block_slices(n, p)
    assert len(sl) == p
    assert sl[0][0] == 0 and sl[-1][1] == n
    for (a0, a1), (b0, b1) in zip(sl, sl[1:]):
        assert a1 == b0
    sizes = [b - a for a, b in sl]
    assert max(sizes) - min(sizes) <= 1


def test_block_slices_invalid():
    with pytest.raises(ValueError):
        block_slices(10, 0)
    with pytest.raises(ValueError):
        block_slices(-1, 2)


def test_owner_of_index():
    sl = block_slices(10, 3)
    assert owner_of_index(sl, 0) == 0
    assert owner_of_index(sl, 3) == 0
    assert owner_of_index(sl, 4) == 1
    assert owner_of_index(sl, 9) == 2
    with pytest.raises(ValueError):
        owner_of_index(sl, 10)


def _owner_by_scan(slices, idx):
    """The linear scan ``owner_of_index`` replaced — the reference."""
    for b, (lo, hi) in enumerate(slices):
        if lo <= idx < hi:
            return b
    raise ValueError(idx)


def test_owner_of_index_equals_scan():
    """Bisection == scan for every n <= 200, p <= 64 and every index,
    one step outside the range included (n < p leaves empty trailing
    blocks)."""
    for p in range(1, 65):
        for n in range(201):
            sl = block_slices(n, p)
            for idx in range(n):
                assert owner_of_index(sl, idx) == _owner_by_scan(sl, idx)
            for idx in (-1, n):
                with pytest.raises(ValueError):
                    owner_of_index(sl, idx)


# --------------------------------------------------------------------- rng


def test_derive_seed_stable_and_distinct():
    assert derive_seed(42, "a") == derive_seed(42, "a")
    assert derive_seed(42, "a") != derive_seed(42, "b")
    assert derive_seed(42, "a") != derive_seed(43, "a")
    assert derive_seed(42, "a") >= 0


def test_substreams_are_independent():
    a = substream(7, "x").random(1000)
    b = substream(7, "y").random(1000)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.1


def test_substream_reproducible():
    np.testing.assert_array_equal(substream(1, "s").random(10),
                                  substream(1, "s").random(10))
