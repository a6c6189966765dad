"""A maintained adjacency: the graph the omniscient adversary looks at.

The paper's adversary sees the current healed graph ``G_t`` before every
move, and the healer answers in O(1) messages.  Handing out a fresh
``Dict[int, Set[int]]`` copy for every look would make the *looking*
O(n) per round; an :class:`OverlayView` is instead built once and then
carried forward edge by edge (:meth:`~OverlayView.link`,
:meth:`~OverlayView.unlink`, :meth:`~OverlayView.drop_node`), so a round
costs what the heal changed.  It *is* a ``dict`` of neighbour sets, so
every reader of a :data:`~repro.graphs.adjacency.Graph` — BFS, the
double sweep, ``region_ball`` — takes it unchanged and at the same speed.

The rule for readers: **read a view, never mutate it** (it is the
owner's live bookkeeping, valid until the owner's next event); call the
healer's ``graph()`` when you need a copy of your own.

"Who has the most / fewest neighbours" is asked through
:func:`max_degree_nodes` / :func:`min_degree_nodes`, which take any
adjacency mapping: a view answers from a degree index (``degree ->
nodes``) that is built on the first such question and only then kept up,
so a reader that never asks never pays for it; a plain mapping is
scanned.  "Who is there, in id order" — what a seeded uniform draw
indexes into — is :func:`sorted_nodes`, under the same rule: a view
answers from a roster sorted once by the first question and from then
on kept sorted through every join and departure; a plain mapping is
sorted.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Collection, Dict, List, Mapping, Optional, Sequence, Set

from .adjacency import Graph


class OverlayView(dict):
    """``node -> set of neighbours``, updated in place in O(|delta|).

    Readers go through the module's functions — :func:`max_degree_nodes`,
    :func:`min_degree_nodes`, :func:`sorted_nodes` — whose answers (a
    degree bucket, the roster) are the view's own bookkeeping: read
    them, never mutate them or hold them across an event.
    """

    def __init__(self, graph: Graph):
        """Adopt ``graph``'s neighbour sets (pass a copy to keep yours)."""
        super().__init__(graph)
        # Both built by the first reader to ask, None until then.
        self._by_degree: Optional[Dict[int, Set[int]]] = None
        self._roster: Optional[List[int]] = None

    # -- edits (the owner's side) -----------------------------------------
    def link(self, u: int, v: int) -> bool:
        """Add edge ``{u, v}``, creating endpoints; True if it was new."""
        if u == v or v in self.get(u, ()):
            return False
        for a, b in ((u, v), (v, u)):
            row = self.get(a)
            if row is None:
                row = self.put_row(a, set())
            self._moved(a, len(row), len(row) + 1)
            row.add(b)
        return True

    def unlink(self, u: int, v: int) -> bool:
        """Remove edge ``{u, v}`` (the endpoints stay); True if it existed."""
        if v not in self.get(u, ()):
            return False
        for a, b in ((u, v), (v, u)):
            row = self[a]
            self._moved(a, len(row), len(row) - 1)
            row.discard(b)
        return True

    def drop_node(self, nid: int) -> Collection[int]:
        """Remove ``nid`` and its edges; returns its former neighbours."""
        if nid not in self:
            return ()
        row = self.pop_row(nid)
        for m in row:
            other = self[m]
            self._moved(m, len(other), len(other) - 1)
            other.discard(nid)
        return row

    # Owners whose rows are not plain neighbour sets (the Forgiving
    # Graph's ``{neighbour: multiplicity}`` rows) edit rows in place and
    # keep the bookkeeping with these three.
    def put_row(self, nid: int, row):
        """Add node ``nid`` with its (new) neighbour row; returns the row."""
        self[nid] = row
        if self._roster is not None:
            insort(self._roster, nid)  # fresh ids grow: an append
        self._moved(nid, None, len(row))
        return row

    def pop_row(self, nid: int):
        """Remove node ``nid`` and return its row (neighbours' rows are
        the caller's)."""
        row = self.pop(nid)
        self._moved(nid, len(row), None)
        if self._roster is not None:
            del self._roster[bisect_left(self._roster, nid)]
        return row

    def resized(self, nid: int, old: int) -> None:
        """Re-file ``nid`` after its row changed size in place from ``old``."""
        self._moved(nid, old, len(self[nid]))

    def _moved(self, node: int, old: Optional[int], new: Optional[int]) -> None:
        index = self._by_degree
        if index is None or old == new:
            return
        bucket = index.get(old)
        if bucket is not None:
            bucket.discard(node)
            if not bucket:
                del index[old]
        if new is not None:
            index.setdefault(new, set()).add(node)

    def roster_is_stale(self) -> bool:
        """Whether a built roster has stopped being the sorted node ids
        (``strict`` healers ask after every event)."""
        return self._roster is not None and self._roster != sorted(self)

    def index_is_stale(self) -> bool:
        """Whether a built degree index has stopped matching a recount."""
        if self._by_degree is None:
            return False
        recount: Dict[int, Set[int]] = {}
        for node, row in self.items():
            recount.setdefault(len(row), set()).add(node)
        return recount != self._by_degree

    # -- the degree index (the reader's side) -------------------------------
    def _index(self) -> Dict[int, Set[int]]:
        if self._by_degree is None:
            index: Dict[int, Set[int]] = {}
            for node, row in self.items():
                index.setdefault(len(row), set()).add(node)
            self._by_degree = index
        return self._by_degree


def max_degree_nodes(graph: Mapping[int, Collection[int]]) -> Collection[int]:
    """Every node of maximum degree in any adjacency mapping
    (``ValueError`` on an empty one)."""
    if isinstance(graph, OverlayView):
        index = graph._index()
        return index[max(index)]
    top = max(map(len, graph.values()))
    return [n for n, row in graph.items() if len(row) == top]


def min_degree_nodes(graph: Mapping[int, Collection[int]]) -> Collection[int]:
    """Every node of minimum degree in any adjacency mapping
    (``ValueError`` on an empty one)."""
    if isinstance(graph, OverlayView):
        index = graph._index()
        return index[min(index)]
    low = min(map(len, graph.values()))
    return [n for n, row in graph.items() if len(row) == low]


def sorted_nodes(graph: Mapping[int, Collection[int]]) -> Sequence[int]:
    """Every node of any adjacency mapping, in ascending id order.

    A view hands out its own roster: read it, never mutate it, and do
    not hold it across an event."""
    if isinstance(graph, OverlayView):
        if graph._roster is None:
            graph._roster = sorted(graph)
        return graph._roster
    return sorted(graph)
