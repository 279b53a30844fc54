"""Relaxed-consistency exchange policies (the SOR optimization, Section 4.8).

Chazan & Miranker's *chaotic relaxation* result lets an iterative solver
skip some data exchanges and still converge (more slowly).  The paper
applies it at cluster boundaries: within a cluster every boundary-row
exchange happens as usual, but across clusters 2 out of 3 exchanges are
dropped, cutting intercluster traffic to a third at the cost of 5-10%
more iterations.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ExchangePolicy", "FullExchange", "ChaoticExchange"]


class ExchangePolicy:
    """Decides whether a boundary exchange happens at a given iteration."""

    def should_exchange(self, iteration: int, intercluster: bool) -> bool:
        raise NotImplementedError

    @property
    def name(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class FullExchange(ExchangePolicy):
    """The original red/black scheme: every exchange, every iteration."""

    def should_exchange(self, iteration: int, intercluster: bool) -> bool:
        return True


@dataclass(frozen=True)
class ChaoticExchange(ExchangePolicy):
    """Keep one intercluster exchange in every ``keep_one_in`` iterations.

    The paper's experiment drops 2 out of 3 intercluster row exchanges,
    i.e. ``keep_one_in = 3``.  Intracluster exchanges always proceed.
    """

    keep_one_in: int = 3

    def __post_init__(self):
        if self.keep_one_in < 1:
            raise ValueError("keep_one_in must be >= 1")

    def should_exchange(self, iteration: int, intercluster: bool) -> bool:
        if not intercluster:
            return True
        return iteration % self.keep_one_in == 0
