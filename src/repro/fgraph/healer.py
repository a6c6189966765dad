"""The Forgiving Graph as a :class:`~repro.baselines.base.Healer`.

Registered beside the Forgiving Tree and the naive baselines, so every
adversary, :func:`~repro.harness.run_churn_campaign` and
:func:`~repro.harness.churn_duel` drive it unmodified.  Where the FT
healer extracts a BFS spanning tree and carries the surviving non-tree
edges along, the FG heals the general graph natively — non-tree edges
are first-class ideal edges with their own ports when an endpoint dies.
"""

from __future__ import annotations

from typing import Collection, Mapping, Set

from ..core.events import HealReport
from ..graphs.adjacency import Graph, require_connected
from ..baselines.base import Healer
from .engine import ForgivingGraph


class ForgivingGraphHealer(Healer):
    """Forgiving Graph self-healing over a general connected graph."""

    name = "forgiving-graph"

    def __init__(self, graph: Graph, strict: bool = False):
        super().__init__(graph)
        require_connected(graph)
        self.engine = ForgivingGraph(graph, strict=strict)

    def delete(self, nid: int) -> HealReport:
        self._pre_delete(nid)
        return self.engine.delete(nid)

    def insert(self, nid: int, attach_to: int) -> HealReport:
        nid = int(nid)
        self._pre_insert(nid, attach_to)
        report = self.engine.insert(nid, attach_to)
        self._original_degree[nid] = 1
        self._original_degree[attach_to] += 1
        return report

    def insert_batch(self, joiners) -> HealReport:
        """Batch wave via the engine (one round, merged report)."""
        wave = [(int(n), int(a)) for n, a in joiners]
        report = self.engine.insert_batch(wave)  # validates the wave itself
        for nid, attach_to in wave:
            self._original_degree[nid] = 1
            self._original_degree[attach_to] += 1
        self.rounds += 1
        return report

    def graph(self) -> Graph:
        return self.engine.graph()

    def view(self) -> Mapping[int, Collection[int]]:
        """The engine's own image (rows are ``{neighbour: multiplicity}``
        dicts — iterate, ``len`` and ``in`` as with neighbour sets)."""
        return self.engine.view()

    @property
    def alive(self) -> Set[int]:
        return self.engine.alive

    def max_degree_increase(self) -> int:
        # The engine maintains the image incrementally; answering from it
        # avoids materializing the whole graph every campaign round.  The
        # engine's ideal degrees equal the Healer's baseline bookkeeping
        # (both count initial edges plus demanded insertions).
        return self.engine.max_degree_increase()

    # FG-specific introspection --------------------------------------------
    def ideal_graph(self, include_dead: bool = False) -> Graph:
        """The churn baseline graph (see :meth:`ForgivingGraph.ideal_graph`)."""
        return self.engine.ideal_graph(include_dead=include_dead)
