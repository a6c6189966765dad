"""Naive self-healing strategies the paper's introduction rules out.

Section 1 ("Our Results"): *"A naive approach ... is simply to 'surrogate'
one neighbor of the deleted node to take on the role of the deleted node
... an intelligent adversary can always cause this approach to increase the
degree of some node by Θ(n).  On the other hand, we may try to keep the
degree increase low by connecting neighbors of the deleted node as a
straight line, or ... in a binary tree.  However, for both of these
techniques the diameter can increase by Θ(n) over multiple deletions."*

These strategies are implemented here so the benchmarks can reproduce the
claimed failure modes head-to-head with the Forgiving Tree:

* :class:`SurrogateHealer` — one neighbor absorbs all of the dead node's
  edges (degree blow-up under the surrogate-killer adversary).
* :class:`LineHealer` — the dead node's neighbors are chained in a line
  (diameter blow-up: roughly +deg per deletion along a path).
* :class:`BinaryTreeHealer` — the dead node's neighbors are reconnected as
  a balanced binary tree; better locally, but the adversary still drives
  the diameter to Θ(n) over repeated deletions because the trees are not
  coordinated (this is the strategy of the earlier work [3, 19] the paper
  builds on).
* :class:`NoRepairHealer` — the control: remove the node, add nothing
  (measures raw fragmentation, used by the Skype-outage example).
"""

from __future__ import annotations

from typing import AbstractSet, Iterable, List, Optional, Tuple

from ..core.events import EdgeAdded, HealReport, NodeInserted, edge_key
from ..graphs.adjacency import Graph, copy as copy_graph
from ..graphs.view import OverlayView
from .base import Healer


class _GraphHealer(Healer):
    """Shared plumbing: keeps the current graph, edited in place.

    A strategy is its :meth:`_repair`: the edges it wants among the
    victim's former neighbours.  The current graph is itself the
    maintained :meth:`view`, and a deletion's report is built from the
    neighbourhood it touched — nothing here copies or diffs the world.
    """

    def __init__(self, graph: Graph):
        super().__init__(graph)
        self._graph = OverlayView(copy_graph(graph))

    def graph(self) -> Graph:
        return copy_graph(self._graph)

    def view(self) -> OverlayView:
        return self._graph

    @property
    def alive(self) -> AbstractSet[int]:
        """Surviving node ids: a live, read-only view of the graph's keys."""
        return self._graph.keys()

    def delete(self, nid: int) -> HealReport:
        self._pre_delete(nid)
        neighbors = sorted(self._graph.drop_node(nid))
        added = [
            edge_key(a, b)
            for a, b in self._repair(nid, neighbors)
            if self._graph.link(a, b)  # False: the two were adjacent already
        ]
        return HealReport(
            deleted=nid,
            was_internal=len(neighbors) > 1,
            edges_added=frozenset(added),
            edges_removed=frozenset(edge_key(nid, m) for m in neighbors),
        )

    def insert(self, nid: int, attach_to: int) -> HealReport:
        nid = int(nid)
        self._pre_insert(nid, attach_to)
        self._graph.link(nid, attach_to)
        self._original_degree[nid] = 1
        self._original_degree[attach_to] += 1
        return HealReport(
            deleted=-1,
            edges_added=frozenset({edge_key(nid, attach_to)}),
            events=(
                NodeInserted(nid, attach_to),
                EdgeAdded(*edge_key(nid, attach_to)),
            ),
            inserted=nid,
            attached_to=attach_to,
        )

    def _repair(self, deleted: int, neighbors: List[int]) -> Iterable[Tuple[int, int]]:
        """The edges to add after ``deleted`` left (``neighbors`` sorted);
        decided before any of them is added."""
        raise NotImplementedError


class NoRepairHealer(_GraphHealer):
    """Control strategy: do nothing after a deletion (may disconnect)."""

    name = "no-repair"

    def _repair(self, deleted: int, neighbors: List[int]) -> Iterable[Tuple[int, int]]:
        return ()


class SurrogateHealer(_GraphHealer):
    """One surviving neighbor inherits every edge of the deleted node.

    The surrogate is chosen deterministically (the smallest-id neighbor),
    which is exactly what the omniscient adversary exploits: repeatedly
    deleting neighbors of the current surrogate piles all their edges onto
    it, driving its degree to Θ(n).
    """

    name = "surrogate"

    def __init__(self, graph: Graph, choose_max_degree: bool = False):
        super().__init__(graph)
        self._choose_max_degree = choose_max_degree
        self.last_surrogate: Optional[int] = None

    def _repair(self, deleted: int, neighbors: List[int]) -> Iterable[Tuple[int, int]]:
        if len(neighbors) <= 1:
            self.last_surrogate = neighbors[0] if neighbors else None
            return ()
        if self._choose_max_degree:
            surrogate = max(neighbors, key=lambda x: (len(self._graph[x]), -x))
        else:
            surrogate = neighbors[0]
        self.last_surrogate = surrogate
        return [(surrogate, other) for other in neighbors if other != surrogate]


class LineHealer(_GraphHealer):
    """Connect the deleted node's neighbors in a line (sorted by id).

    Degree increase is at most 2, but the diameter grows by Θ(deg) per
    deletion: an adversary walking down a path of stars stretches the
    network to Θ(n) (reproduced by EXP-BASE-DIAM).
    """

    name = "line"

    def _repair(self, deleted: int, neighbors: List[int]) -> Iterable[Tuple[int, int]]:
        return zip(neighbors, neighbors[1:])


class BinaryTreeHealer(_GraphHealer):
    """Reconnect the deleted node's neighbors as a balanced binary tree.

    The local replacement trees are uncoordinated across deletions, so an
    adversary can still chain them into Θ(n) diameter (the observation
    attributed to [3, 19] in the introduction); the Forgiving Tree's global
    will system is precisely what prevents this.
    """

    name = "binary-tree"

    def _repair(self, deleted: int, neighbors: List[int]) -> Iterable[Tuple[int, int]]:
        # neighbors sorted; neighbors[0] becomes the root of a balanced
        # binary tree, wired breadth-first: parent i -> children 2i+1, 2i+2,
        # i.e. every node but the root hangs under (i - 1) // 2.
        return [
            (neighbors[(i - 1) // 2], neighbors[i]) for i in range(1, len(neighbors))
        ]


class DegreeCappedSurrogateHealer(_GraphHealer):
    """Surrogate with a degree cap: overflow spills to the next neighbor.

    An intermediate strategy included for the ablation benches: it fixes
    the degree blow-up but inherits the line healer's diameter growth,
    illustrating that the tension between the two metrics (Theorem 2) is
    not an artifact of the two extreme baselines.
    """

    name = "capped-surrogate"

    def __init__(self, graph: Graph, cap: int = 3):
        super().__init__(graph)
        if cap < 2:
            raise ValueError("cap must allow at least 2 extra edges")
        self.cap = cap

    def _repair(self, deleted: int, neighbors: List[int]) -> Iterable[Tuple[int, int]]:
        # Chain surrogates: each absorbs up to `cap` neighbors, then hands
        # off to the next absorber.
        edges = []
        absorber_idx = 0
        absorbed = 0
        for i in range(1, len(neighbors)):
            edges.append((neighbors[absorber_idx], neighbors[i]))
            if absorbed >= self.cap:
                absorber_idx = i
                absorbed = 1
            else:
                absorbed += 1
        return edges


def healer_catalog():
    """Name -> factory for every baseline healer (used by the harness)."""
    from ..fgraph.healer import ForgivingGraphHealer
    from .forgiving import ForgivingTreeHealer

    return {
        ForgivingTreeHealer.name: ForgivingTreeHealer,
        ForgivingGraphHealer.name: ForgivingGraphHealer,
        SurrogateHealer.name: SurrogateHealer,
        LineHealer.name: LineHealer,
        BinaryTreeHealer.name: BinaryTreeHealer,
        NoRepairHealer.name: NoRepairHealer,
        DegreeCappedSurrogateHealer.name: DegreeCappedSurrogateHealer,
    }
