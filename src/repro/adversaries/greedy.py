"""Omniscient one-step-lookahead adversaries.

These realize the paper's adversary model most literally: the adversary
"knows the network topology and our algorithms".  Each round it *simulates*
deleting every candidate on a deep copy of the healer and keeps the victim
whose healed result maximizes the target metric.  O(n) candidate trials per
round make these O(n²·heal) per campaign — used by the benchmarks at modest
sizes, which is where the Θ(n) baseline blow-ups already show clearly.
"""

from __future__ import annotations

import copy
from typing import Callable, Iterable, Optional

from ..baselines.base import Healer
from ..core.errors import DisconnectedGraphError
from ..graphs.metrics import diameter_double_sweep
from ..graphs.view import sorted_nodes
from .base import Adversary


class _LookaheadAdversary(Adversary):
    """Shared simulate-every-candidate machinery."""

    #: cap on candidates tried per round (all if 0)
    max_candidates: int = 0

    def _score(self, healer: Healer) -> float:
        raise NotImplementedError

    def _candidates(self, healer: Healer) -> Iterable[int]:
        alive = sorted_nodes(healer.view())
        if self.max_candidates and len(alive) > self.max_candidates:
            # Deterministic thinning: evenly spaced candidates.
            step = len(alive) / self.max_candidates
            return [alive[int(i * step)] for i in range(self.max_candidates)]
        return alive

    def choose(self, healer: Healer) -> int:
        best_victim: Optional[int] = None
        best_score = float("-inf")
        for victim in self._candidates(healer):
            trial = copy.deepcopy(healer)
            try:
                trial.delete(victim)
            except Exception:
                continue
            score = self._score(trial) if trial.alive else float("-inf")
            if score > best_score:
                best_score = score
                best_victim = victim
        if best_victim is None:  # every simulation failed: fall back
            best_victim = min(healer.alive)
        return best_victim


class DiameterGreedyAdversary(_LookaheadAdversary):
    """Maximizes the post-heal diameter (double-sweep; exact on trees)."""

    name = "diameter-greedy"

    def __init__(self, max_candidates: int = 0):
        self.max_candidates = max_candidates

    def _score(self, healer: Healer) -> float:
        graph = healer.view()
        if len(graph) <= 1:
            return 0.0
        try:
            return float(diameter_double_sweep(graph))
        except DisconnectedGraphError:
            return float("inf")  # a disconnection is the ultimate stretch


class DegreeGreedyAdversary(_LookaheadAdversary):
    """Maximizes the post-heal maximum degree increase."""

    name = "degree-greedy"

    def __init__(self, max_candidates: int = 0):
        self.max_candidates = max_candidates

    def _score(self, healer: Healer) -> float:
        return float(healer.max_degree_increase())
