"""Adversary interface and scripted adversaries."""

from __future__ import annotations

import abc
from typing import Iterable, List, Optional, Sequence

from ..baselines.base import Healer
from ..core.errors import ReproError, SimulationOverError


class Adversary(abc.ABC):
    """Chooses which node to delete each round.

    The adversary is *omniscient* (Section 1): it sees the current healed
    graph — and, for the white-box strategies, the healer object itself —
    before every choice.  It looks through ``healer.view()``: the
    healer's own maintained adjacency, read in place and never mutated
    or kept across a round (:meth:`Healer.graph` is the O(n) copy for
    callers that need one of their own).
    """

    name: str = "abstract"

    @abc.abstractmethod
    def choose(self, healer: Healer) -> int:
        """Return the id of the next victim (must be alive)."""

    def reset(self) -> None:
        """Forget any per-campaign state (called between runs)."""


class FixedOrderAdversary(Adversary):
    """Deletes nodes in a predetermined order, skipping already-dead ones."""

    name = "fixed-order"

    def __init__(self, order: Sequence[int]):
        self._order: List[int] = list(order)
        self._pos = 0

    def choose(self, healer: Healer) -> int:
        alive = healer.alive
        while self._pos < len(self._order):
            candidate = self._order[self._pos]
            self._pos += 1
            if candidate in alive:
                return candidate
        raise SimulationOverError("scripted order exhausted")

    def reset(self) -> None:
        self._pos = 0


class ScriptedAdversary(Adversary):
    """Replays an exact script and *fails* if a victim is already dead.

    Used by the figure reproductions, where the deletion sequence is part
    of the specification.
    """

    name = "scripted"

    def __init__(self, script: Iterable[int]):
        self._script: List[int] = list(script)
        self._pos = 0

    def choose(self, healer: Healer) -> int:
        if self._pos >= len(self._script):
            raise SimulationOverError("script exhausted")
        victim = self._script[self._pos]
        self._pos += 1
        if victim not in healer.alive:
            raise ReproError(f"scripted victim {victim} is already deleted")
        return victim

    def reset(self) -> None:
        self._pos = 0

    @property
    def remaining(self) -> int:
        return len(self._script) - self._pos
