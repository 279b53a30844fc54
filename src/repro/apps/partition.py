"""Shared data-partitioning helpers for the row/block-parallel programs."""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Tuple

__all__ = ["block_slices", "owner_of_index"]

#: A probe ``(idx, _AFTER_ANY_STOP)`` sorts after every slice starting at
#: ``idx``, whatever its stop.
_AFTER_ANY_STOP = float("inf")


def block_slices(n: int, p: int) -> List[Tuple[int, int]]:
    """Contiguous (start, stop) split of ``n`` items over ``p`` blocks.

    The first ``n % p`` blocks get one extra item, matching the row-wise
    distribution the paper's data-parallel programs use.
    """
    if p < 1 or n < 0:
        raise ValueError(f"invalid partition: n={n}, p={p}")
    base, extra = divmod(n, p)
    out = []
    start = 0
    for i in range(p):
        m = base + (1 if i < extra else 0)
        out.append((start, start + m))
        start += m
    return out


def owner_of_index(slices: List[Tuple[int, int]], idx: int) -> int:
    """The block owning global index ``idx``.

    ``slices`` must be ascending and non-overlapping, as
    :func:`block_slices` returns them: the owner is then the last block
    starting at or before ``idx``, found by bisection.
    """
    b = bisect_right(slices, (idx, _AFTER_ANY_STOP)) - 1
    if b >= 0 and idx < slices[b][1]:
        return b
    raise ValueError(f"index {idx} outside all slices")
