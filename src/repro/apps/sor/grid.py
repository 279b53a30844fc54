"""SOR domain: red/black successive overrelaxation on a 2-D grid.

The paper solves a discretized Laplace equation on a 3500 x 900 grid,
row-distributed, with a termination precision of 0.0002 (52 iterations).
Every iteration runs a red phase and a black phase; boundary rows are
exchanged with both neighbours before each phase, so the parallel
computation is *bit-identical* to the sequential one for the full
exchange policy (each cell always sees exactly the values the sequential
sweep would).

A row block lives in one *padded* ``(rows + 2) x n_cols`` buffer
(:func:`padded_block`): ``padded[1:-1]`` is the block and rows ``0`` and
``-1`` are its ghost rows - the neighbours' border rows, or the grid's
fixed boundary at the two ends.  :func:`sweep_phase` is the one kernel:
it updates the cells of one colour in place and only ever reads the
ghost rows.  It has one reference, :func:`sweep_phase_reference` (numpy,
stride-2 slices), and one compiled form in the engine extension that
rounds every float32 step the same way; ``sweep_phase`` is whichever the
loaded engine tier provides (``repro.sim.engine``), so SOR runs its real
kernel at every scale and needs no synthetic mode.

Grid values are float32, matching the 4-byte elements implied by the
paper's "5 ms" intercluster row-exchange cost.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from ...sim import engine

__all__ = ["SORParams", "padded_block", "sweep_phase",
           "sweep_phase_reference", "sequential_reference", "ELEM_BYTES"]

ELEM_BYTES = 4


@dataclass(frozen=True)
class SORParams:
    n_rows: int = 3500
    n_cols: int = 900
    omega: float = 1.5
    #: iteration cap (the paper's input converges in 52).
    n_iterations: int = 52
    #: optional termination precision; None runs exactly ``n_iterations``.
    precision: Optional[float] = None
    #: seconds per cell update (5-point stencil on the PPro).
    elem_cost: float = 60e-9
    #: chaotic relaxation: keep 1 in N intercluster exchanges (paper: 3).
    chaotic_keep_one_in: int = 3
    #: never read.  Decided (ROADMAP 2b): SOR has no synthetic mode
    #: because its real kernel is compiled and cheap at paper scale.  The
    #: field stays only because ``repr(params)`` is hashed into
    #: ``benchmarks/e2e/expected.json``.
    kernel: str = "real"

    @staticmethod
    def paper() -> "SORParams":
        return SORParams()

    @staticmethod
    def small(n_rows: int = 40, n_cols: int = 24,
              precision: Optional[float] = None) -> "SORParams":
        return SORParams(n_rows=n_rows, n_cols=n_cols, n_iterations=60,
                         precision=precision)

    def with_(self, **kw) -> "SORParams":
        return replace(self, **kw)

    @property
    def row_bytes(self) -> int:
        return self.n_cols * ELEM_BYTES


def padded_block(params: SORParams, lo: int, hi: int) -> np.ndarray:
    """The zeroed buffer of global rows ``lo..hi-1`` with its ghost rows.

    Interior cells start at zero.  The hot boundary is the virtual row
    above row 0 (all ones), so the block that owns row 0 starts with it
    as its top ghost row and the solution is a smooth top-to-bottom
    gradient; the virtual row below the grid stays zero.
    """
    padded = np.zeros((hi - lo + 2, params.n_cols), dtype=np.float32)
    if lo == 0:
        padded[0] = 1.0
    return padded


def sweep_phase_reference(padded: np.ndarray, parity: int, omega: float,
                          row0: int) -> float:
    """One red (parity 0) or black (parity 1) half-sweep, in place.

    ``padded[1:-1]`` is the row block, ``padded[0]``/``padded[-1]`` its
    ghost rows (read, never written); ``row0`` is the global index of the
    block's first row.  Only the cells with ``(global row + column) % 2
    == parity`` change, and they read only cells of the other colour, so
    each of the two row classes (block rows ``r``, ``r+2``, ... share a
    first column) is one stride-2 slice updated in place.  The first and
    last columns are fixed boundary.  Returns the max absolute change.
    """
    m, cols = padded.shape[0] - 2, padded.shape[1]
    scale = np.float32(omega) * np.float32(0.25)
    keep = np.float32(1.0) - np.float32(omega)
    maxdiff = 0.0
    for r in (0, 1):
        c = 1 + (row0 + r + 1 + parity) % 2   # first column of the colour
        rows, mid = slice(r + 1, m + 1, 2), slice(c, cols - 1, 2)
        x = padded[rows, mid]
        if x.size == 0:
            continue
        # Operation order is part of the result (float32 rounds each
        # step): ((up + down) + left) + right, then keep*x + scale*nb.
        nb = padded[r:m:2, mid] + padded[r + 2:m + 2:2, mid]
        nb += padded[rows, c - 1:cols - 2:2]
        nb += padded[rows, c + 1:cols:2]
        nb *= scale
        upd = keep * x
        upd += nb
        np.subtract(upd, x, out=nb)
        np.abs(nb, out=nb)
        maxdiff = max(maxdiff, float(nb.max()))
        x[...] = upd
    return maxdiff


#: the kernel every caller uses.  The compiled form takes only a
#: writable C-contiguous 2-D float32 buffer (``TypeError`` otherwise).
sweep_phase = engine.sweep_phase or sweep_phase_reference


def sequential_reference(params: SORParams) -> Tuple[np.ndarray, int]:
    """Full-grid sweeps; returns (grid, iterations executed)."""
    padded = padded_block(params, 0, params.n_rows)
    iterations = 0
    for it in range(params.n_iterations):
        maxdiff = 0.0
        for parity in (0, 1):
            maxdiff = max(maxdiff,
                          sweep_phase(padded, parity, params.omega, 0))
        iterations += 1
        if params.precision is not None and maxdiff < params.precision:
            break
    return padded[1:-1], iterations
