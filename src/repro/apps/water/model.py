"""Water domain model: an "n-squared" molecular-dynamics surrogate.

The paper's Water is the SPLASH n-squared water simulation: every
molecule interacts with every other, processors own contiguous blocks of
molecules, and each timestep exchanges molecule data with the next p/2
processors.  We keep exactly that computation/communication structure with
a simplified pair force (softened inverse-square), which preserves the
operation counts and message sizes — the quantities the experiments
measure — and stays verifiable against a sequential reference.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Tuple

import numpy as np

from ...sim.rng import substream

__all__ = ["WaterParams", "window", "writers_of", "block_slices",
           "initial_state", "pair_forces", "self_forces", "step_update",
           "sequential_reference"]

#: bytes per molecule on the wire (3 doubles position; forces likewise).
BYTES_PER_MOLECULE = 24


@dataclass(frozen=True)
class WaterParams:
    n_molecules: int = 4096
    n_steps: int = 2
    #: seconds of CPU per pairwise interaction.  Water's molecule-molecule
    #: interaction is expensive (multiple atom-pair terms); ~4.5 us on a
    #: 200 MHz Pentium Pro places the single-cluster efficiency and the
    #: WAN-degradation of Figure 1 where the paper has them.
    pair_cost: float = 4.5e-6
    dt: float = 1e-3
    softening: float = 0.5
    seed: int = 42
    kernel: str = "synthetic"

    @staticmethod
    def paper() -> "WaterParams":
        """The Section 4.1 input: 4096 molecules, two time steps."""
        return WaterParams()

    @staticmethod
    def small(n_molecules: int = 96, n_steps: int = 2) -> "WaterParams":
        return WaterParams(n_molecules=n_molecules, n_steps=n_steps,
                           kernel="real")

    def with_(self, **kw) -> "WaterParams":
        return replace(self, **kw)


def window(p: int, k: int) -> List[int]:
    """Blocks whose interactions with block ``k`` are computed *by* ``k``.

    The SPLASH half-window: the next (p-1)//2 blocks, plus — for even p —
    the diametrically opposite block for the lower half of processors, so
    every unordered block pair is computed exactly once.
    """
    if not 0 <= k < p:
        raise ValueError(f"k={k} out of range for p={p}")
    if p == 1:
        return []
    half = (p - 1) // 2
    w = [(k + d) % p for d in range(1, half + 1)]
    if p % 2 == 0 and k < p // 2:
        w.append((k + p // 2) % p)
    return w


def writers_of(p: int, k: int) -> List[int]:
    """Blocks that compute forces *for* block ``k`` (the inverse window)."""
    return [a for a in range(p) if k in window(p, a)]


# Re-exported so Water callers keep a single import site.
from ..partition import block_slices  # noqa: E402


def initial_state(params: WaterParams) -> Tuple[np.ndarray, np.ndarray]:
    """Deterministic initial positions and velocities in a unit box."""
    rng = substream(params.seed, "water.init")
    pos = rng.random((params.n_molecules, 3))
    vel = np.zeros_like(pos)
    return pos, vel


def pair_forces(pos_a: np.ndarray, pos_b: np.ndarray,
                softening: float) -> Tuple[np.ndarray, np.ndarray]:
    """Softened inverse-square forces between two disjoint blocks.

    Returns (force on a, force on b); Newton's third law holds exactly.
    """
    d = pos_a[:, None, :] - pos_b[None, :, :]
    r2 = (d * d).sum(axis=-1) + softening ** 2
    f = d / (r2 ** 1.5)[..., None]
    return f.sum(axis=1), -f.sum(axis=0)


def self_forces(pos: np.ndarray, softening: float) -> np.ndarray:
    """Forces within one block (diagonal excluded)."""
    n = pos.shape[0]
    if n < 2:
        return np.zeros_like(pos)
    d = pos[:, None, :] - pos[None, :, :]
    r2 = (d * d).sum(axis=-1) + softening ** 2
    np.fill_diagonal(r2, np.inf)
    f = d / (r2 ** 1.5)[..., None]
    return f.sum(axis=1)


def step_update(pos: np.ndarray, vel: np.ndarray, forces: np.ndarray,
                dt: float) -> Tuple[np.ndarray, np.ndarray]:
    """Leapfrog-style update (the integration detail is immaterial to the
    communication study; what matters is that both the parallel program and
    the sequential reference apply the identical rule)."""
    vel = vel + forces * dt
    pos = pos + vel * dt
    return pos, vel


def sequential_reference(params: WaterParams) -> np.ndarray:
    """Single-processor result used to validate the parallel runs."""
    pos, vel = initial_state(params)
    for _ in range(params.n_steps):
        forces = self_forces(pos, params.softening)
        pos, vel = step_update(pos, vel, forces, params.dt)
    return pos


def pair_count(m_a: int, m_b: int) -> int:
    return m_a * m_b


def self_pair_count(m: int) -> int:
    return m * (m - 1) // 2
