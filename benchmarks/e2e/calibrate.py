"""Host-speed calibration: what makes the timings steady on a shared box.

The sandbox's speed is not constant: neighbours on the same physical
host slow everything by 10-80 % for seconds to minutes at a time (CPU
time slows with wall time, so it is not descheduling).  Raw pass times
taken minutes apart therefore differ by more than any bound worth
fixing.  So every timed operation is bracketed by two short slices of a
fixed kernel that belongs to the benchmark, not to the program, and the
operation's time is divided by how much slower than the reference those
slices ran:

    adjusted = raw * REF_S[kind] / mean(slice before, slice after)

Two kernels, because the slow-downs hit interpreter-bound and
numpy-bound code differently: ``py`` (calls, dict and heap traffic —
the simulator's own mix) and ``np`` (small-array stencils — ``sor``'s
kernel).  ``REF_S`` is each kernel's undisturbed time on the host the
bounds were set on; it only fixes the unit (seconds at reference
speed), so on an undisturbed reference host adjusted equals raw.

The program cannot move these numbers: nothing here imports ``repro``.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

__all__ = ["REF_S", "slice_s"]

#: Undisturbed seconds per slice on the reference host (2-core Xeon
#: 2.1 GHz sandbox, Python 3.11): the lower tail of a few hundred
#: back-to-back slices.
REF_S = {"py": 0.0245, "np": 0.0200}


def _py_kernel(n: int = 40000) -> int:
    heap: list = []
    seen: dict = {}
    acc = 0
    push, pop = heapq.heappush, heapq.heappop

    def mix(x: int, y: int) -> int:
        return (x * 31 + y) & 0xFFFF

    for i in range(n):
        key = mix(i, acc)
        seen[key] = i
        push(heap, (key, i))
        if i & 1:
            acc += pop(heap)[1]
    return acc


_BLOCK = np.zeros((58, 900), dtype=np.float32)
_EDGE = np.ones(900, dtype=np.float32)


def _np_kernel(reps: int = 40) -> float:
    block, worst = _BLOCK, 0.0
    for parity in range(reps):
        padded = np.vstack([_EDGE[None, :], block, _EDGE[None, :]])
        around = (padded[:-2, 1:-1] + padded[2:, 1:-1]
                  + padded[1:-1, :-2] + padded[1:-1, 2:])
        new = np.float32(0.5) * block[:, 1:-1] + np.float32(0.125) * around
        rows = np.arange(block.shape[0])[:, None]
        cols = np.arange(1, block.shape[1] - 1)[None, :]
        mask = ((rows + cols) % 2) == (parity & 1)
        worst = max(worst, float(np.abs(
            np.where(mask, new - block[:, 1:-1], np.float32(0.0))).max()))
        block[:, 1:-1] = np.where(mask, new, block[:, 1:-1])
    block[:] = 0.0  # every slice does identical arithmetic
    return worst


_KERNELS = {"py": _py_kernel, "np": _np_kernel}


def slice_s(kind: str) -> float:
    """Seconds one slice of kernel ``kind`` takes right now."""
    kernel = _KERNELS[kind]
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
