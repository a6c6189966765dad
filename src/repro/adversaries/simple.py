"""Topology-driven adversaries (no lookahead)."""

from __future__ import annotations

import random
from typing import Optional

from ..baselines.base import Healer
from ..graphs.metrics import center
from ..graphs.view import max_degree_nodes, min_degree_nodes, sorted_nodes
from .base import Adversary


class RandomAdversary(Adversary):
    """Deletes a uniformly random survivor (baseline noise)."""

    name = "random"

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._rng = random.Random(seed)

    def choose(self, healer: Healer) -> int:
        return self._rng.choice(sorted_nodes(healer.view()))

    def reset(self) -> None:
        self._rng = random.Random(self.seed)


class MaxDegreeAdversary(Adversary):
    """Always deletes the highest-degree survivor (hub attack).

    This is the attack that breaks power-law overlays in the cascading-
    failure literature the paper cites; ties break to the smallest id for
    determinism.
    """

    name = "max-degree"

    def choose(self, healer: Healer) -> int:
        # Smallest id among the nodes of maximum degree — the draw
        # ``max(sorted(graph), key=degree)`` makes, read off the view's
        # degree index instead of a sort and a scan.
        return min(max_degree_nodes(healer.view()))


class MinDegreeAdversary(Adversary):
    """Always deletes a lowest-degree survivor (leaf-first attack).

    Exercises the leaf-will machinery (Algorithm 3.7) heavily: every
    deletion is a ``FixLeafDeletion``.
    """

    name = "min-degree"

    def choose(self, healer: Healer) -> int:
        return min(min_degree_nodes(healer.view()))


class CenterAdversary(Adversary):
    """Deletes a center (minimum-eccentricity node) of the healed graph.

    Greedy diameter pressure without lookahead: removing central nodes
    forces detours through the reconstruction trees.
    """

    name = "center"

    def choose(self, healer: Healer) -> int:
        graph = healer.view()
        if len(graph) == 1:
            return next(iter(graph))
        return min(center(graph))


class RootAdversary(Adversary):
    """Deletes the smallest surviving id each round.

    On BFS trees rooted at the minimum id this repeatedly decapitates the
    root region, stressing heir promotion chains.
    """

    name = "root"

    def choose(self, healer: Healer) -> int:
        return min(healer.alive)
