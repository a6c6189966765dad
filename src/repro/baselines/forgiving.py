"""The Forgiving Tree as a general-graph healer.

Wraps the core engine for arbitrary connected graphs, the setting of the
paper's Section 3: "we begin with a rooted spanning tree T, which without
loss of generality may as well be the entire network".  The healer maintains
the Forgiving Tree over a BFS spanning tree and keeps the surviving
*non-tree* edges of the original graph in the overlay (they can only help
the diameter and never hurt the degree bound, since they existed in G_0).

The healer runs on :class:`~repro.core.flat_tree.FlatForgivingTree`
(struct-of-arrays storage with O(1) hot queries; what churn campaigns at
n = 10k..1M run on).  :class:`~repro.core.forgiving_tree.ForgivingTree`
runs the same healing algorithm — the same function objects — over the
readable per-node object storage, so it produces bit-identical
:class:`~repro.core.events.HealReport` streams and stays as the storage
oracle (``tests/test_flatcore.py`` wraps it with :meth:`from_engine`).

What the healer hands out per round is :meth:`ForgivingTreeHealer.view`
(tree image + surviving extras) and :meth:`~ForgivingTreeHealer.tree_view`
(the image alone): two :class:`~repro.graphs.view.OverlayView` objects —
one, when the input was a tree — each built by its own first look and
from then on carried over every :class:`~repro.core.events.HealReport`'s
net edge deltas.  A campaign that never looks never builds them.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Dict, Iterable, Optional, Set, Tuple

from ..core import WILL_SPLICE
from ..core.errors import InvariantViolationError
from ..core.events import HealReport, edge_key
from ..core.flat_tree import FlatForgivingTree, TreeShape
from ..graphs.adjacency import Graph, copy as copy_graph, degrees, from_edges
from ..graphs.spanning import spanning_shape
from ..graphs.view import OverlayView
from .base import Healer


class ForgivingTreeHealer(Healer):
    """Forgiving Tree self-healing over a general connected graph.

    Parameters mirror :class:`~repro.core.forgiving_tree.ForgivingTree`;
    ``root`` selects the spanning-tree root (default: smallest id).

    The healer keeps no copy of its input: the spanning tree (a
    :class:`~repro.core.flat_tree.TreeShape`) and the non-tree edges
    rebuild :attr:`initial_graph` on request.
    """

    name = "forgiving-tree"

    def __init__(
        self,
        graph: Graph,
        root: Optional[int] = None,
        branching: int = 2,
        will_mode: str = WILL_SPLICE,
        strict: bool = False,
    ):
        self._original_degree = degrees(graph)
        self.rounds = 0
        self._tree, self._extras = spanning_shape(graph, root)
        self._initial: Optional[Graph] = None
        self.engine = FlatForgivingTree(
            self._tree, branching=branching, will_mode=will_mode, strict=strict
        )
        self._mount(self._extras)

    def _mount(self, extras: Iterable[Tuple[int, int]]) -> None:
        """State both constructors share, given ``self.engine``."""
        # The surviving non-tree edges of G_0, as an adjacency: indexed by
        # endpoint, so a victim's extras are dropped in O(deg).
        self._extra: Graph = from_edges(extras)
        # When the input was already a tree, the overlay *is* the engine's
        # image for the whole campaign — O(1) metric fast paths apply.
        self._pure_tree = not self._extra
        # Built by the first look (see view()), None until then.
        self._view: Optional[OverlayView] = None
        self._tree_view: Optional[OverlayView] = None
        # Non-tree inputs: each node's degree increase over the merged
        # view and how many nodes hold each value, built by the first
        # max_degree_increase() and refreshed per event where it moved.
        self._increase: Optional[Dict[int, int]] = None
        self._tally: Counter = Counter()

    @classmethod
    def from_engine(
        cls,
        engine,
        extras: Set[Tuple[int, int]] = frozenset(),
    ) -> "ForgivingTreeHealer":
        """Wrap an existing engine — fresh or checkpoint-restored.

        The soak service's resume path: a
        :meth:`~repro.core.flat_tree.FlatForgivingTree.restore`'d engine
        (or a bulk ``from_parents`` build) becomes a catalog healer
        without re-running the BFS spanning-tree construction.  The
        healer's baseline degrees and round counter come from the engine
        (they survive checkpoints there); ``initial_graph`` reflects the
        overlay at wrap time, which for a resumed campaign is the
        restore point, so stretch denominators must be carried by the
        caller (the soak manifest does).
        """
        self = cls.__new__(cls)
        self.engine = engine
        self._tree, self._extras = None, set(extras)
        self._mount(extras)
        self._initial = self._with_extras(engine.adjacency())
        self._original_degree = dict(engine.original_degree)
        self.rounds = engine.rounds
        return self

    def delete(self, nid: int) -> HealReport:
        self._pre_delete(nid)
        report = self.engine.delete(nid)
        dropped = self._extra.pop(nid, ())
        for m in dropped:
            row = self._extra[m]
            row.discard(nid)
            if not row:
                del self._extra[m]
        self._advance_views(report, gone=nid)
        if dropped:
            report.edges_removed = report.edges_removed.union(
                edge_key(nid, m) for m in dropped
            )
        return report

    def insert(self, nid: int, attach_to: int) -> HealReport:
        nid = int(nid)
        self._pre_insert(nid, attach_to)
        report = self.engine.insert(nid, attach_to)
        self._original_degree[nid] = 1
        self._original_degree[attach_to] += 1
        self._advance_views(report)
        return report

    def insert_batch(self, joiners) -> HealReport:
        """Batch wave via the engine: one will pass per attachment point."""
        wave = [(int(n), int(a)) for n, a in joiners]
        report = self.engine.insert_batch(wave)  # validates the wave itself
        for nid, attach_to in wave:
            self._original_degree[nid] = 1
            self._original_degree[attach_to] += 1
        self.rounds += 1
        self._advance_views(report)
        return report

    def graph(self) -> Graph:
        return self._with_extras(self.engine.adjacency())

    @property
    def initial_graph(self) -> Graph:
        if self._initial is not None:  # a wrapped engine's start
            return copy_graph(self._initial)
        return self._tree.graph(self._extras)

    def spanning_tree(self) -> TreeShape:
        """The spanning tree the engine started from, which the transport
        mirror builds its distributed runtime over.  A wrapped engine's
        is the BFS tree of its overlay at wrap time."""
        if self._tree is None:
            self._tree = spanning_shape(self._initial, self.engine.root_id)[0]
        return self._tree

    def _with_extras(self, adjacency: Graph) -> Graph:
        """Lay the surviving extras over a caller-owned image adjacency."""
        for u, row in self._extra.items():
            adjacency[u] |= row
        return adjacency

    # -- the maintained views ---------------------------------------------
    def view(self) -> OverlayView:
        """The healed overlay (tree image + surviving extras), maintained.

        Equal to :meth:`graph` after every event; built by the first
        call, O(|delta|) per event from then on.  On a pure-tree input
        it is the :meth:`tree_view` object itself."""
        if self._view is None:
            self._view = (
                self.tree_view()
                if self._pure_tree
                else OverlayView(self._with_extras(self.engine.adjacency()))
            )
        return self._view

    def tree_view(self) -> OverlayView:
        """The healed spanning-tree image alone, maintained — equal to
        :meth:`tree_overlay` after every event (what the transport
        mirror's per-event footprints read)."""
        if self._tree_view is None:
            self._tree_view = OverlayView(self.engine.adjacency())
        return self._tree_view

    def _advance_views(self, report: HealReport, gone: Optional[int] = None) -> None:
        """Carry whichever views exist over one engine report (image
        deltas only: call before the dropped extras join
        ``edges_removed``, after they left ``_extra``)."""
        tree, merged = self._tree_view, self._view
        if tree is None and merged is None:
            return
        added, removed = report.net_edge_deltas()
        # An image edge lying on top of a surviving extra leaves the
        # merged overlay only when the extra goes too.
        views = [(tree, {})]
        if merged is not tree:
            views.append((merged, self._extra))
        former = ()  # the victim's neighbours in the merged overlay
        for view, kept in views:
            if view is None:
                continue
            for u, v in removed:
                if v not in kept.get(u, ()):
                    view.unlink(u, v)
            for u, v in added:
                view.link(u, v)
            if gone is not None:
                row = view.drop_node(gone)
                if view is merged:
                    former = row
        if self._increase is not None:
            touched = [x for edges in (added, removed) for edge in edges for x in edge]
            touched.extend(former)
            if gone is not None:
                touched.append(gone)
            self._refresh_increase(touched)
        if self.engine.strict:
            self._check_views()

    def _refresh_increase(self, nodes: Iterable[int]) -> None:
        """Re-read the degree increase of ``nodes`` off the merged view
        (a node it no longer lists leaves the tally)."""
        increase, tally = self._increase, self._tally
        view, original = self._view, self._original_degree
        for nid in nodes:
            old = increase.pop(nid, None)  # type: ignore[union-attr]
            if old is not None:
                tally[old] -= 1
                if not tally[old]:
                    del tally[old]
            row = view.get(nid)  # type: ignore[union-attr]
            if row is not None:
                new = len(row) - original[nid]
                increase[nid] = new  # type: ignore[index]
                tally[new] += 1

    def _check_views(self) -> None:
        """``strict`` engines: a built view must equal a fresh
        materialisation after every event, its roster (if a reader
        asked for one) must list exactly its nodes, sorted, and the kept
        degree increases (if built) must equal a scan of the view."""
        for name, kept, fresh in (
            ("tree_view", self._tree_view, self.engine.adjacency),
            ("view", self._view, self.graph),
        ):
            if kept is None:
                continue
            fresh = fresh()
            if kept != fresh:
                stale = sorted(
                    n for n in kept.keys() | fresh.keys() if kept.get(n) != fresh.get(n)
                )
                raise InvariantViolationError(
                    "overlay-view",
                    f"round {self.rounds}: {name}() differs from the engine's "
                    f"materialised image at nodes {stale[:6]}",
                )
            if kept.roster_is_stale():
                raise InvariantViolationError(
                    "overlay-view",
                    f"round {self.rounds}: {name}()'s roster is not its "
                    "sorted node ids",
                )
        if self._increase is not None:
            original = self._original_degree
            scan = {nid: len(row) - original[nid] for nid, row in self._view.items()}
            if scan != self._increase or Counter(scan.values()) != self._tally:
                raise InvariantViolationError(
                    "degree-increase",
                    f"round {self.rounds}: the kept degree increases differ "
                    "from a scan of the merged view",
                )

    @property
    def alive(self) -> Set[int]:
        return self.engine.alive

    # Forgiving-tree specific introspection ------------------------------
    def tree_overlay(self) -> Graph:
        """The healed spanning-tree overlay only (no original extras)."""
        return self.engine.adjacency()

    def max_degree_increase(self) -> int:
        # On pure-tree inputs the merged overlay equals the engine image
        # and the healer's baseline degrees equal the engine's, so the
        # engine's maintained maximum (O(1) on the flat core) is the
        # answer.
        if self._pure_tree:
            return self.engine.max_degree_increase()
        # With original non-tree extras the merged graph differs: measure
        # on it, from the tally the events keep (one O(n) count first).
        if self._increase is None:
            view, original = self.view(), self._original_degree
            self._increase = {nid: len(row) - original[nid] for nid, row in view.items()}
            self._tally = Counter(self._increase.values())
        return max(self._tally, default=0)

    def fast_stats(self) -> Tuple[bool, int]:
        """O(1) ``(connected, alive_count)`` without materializing the graph.

        The engine maintains a spanning tree of the survivors at all
        times, so the healed overlay is connected whenever anyone is
        alive — extras only ever add edges.  The harness's
        ``metrics="none"`` path uses this instead of a per-round BFS.
        """
        return True, len(self.engine.alive)

    def sample_alive(self, rng: random.Random) -> int:
        """Uniform surviving node id, drawn by the engine's store.

        Capability hook for opt-in fast adversary sampling
        (``RandomChurnAdversary(fast_sample=True)``): O(1) on the flat
        core; an object engine wrapped with :meth:`from_engine` answers
        with a sorted draw — the same distribution, but a different
        stream than the flat core's or the adversary's classic path.
        """
        return self.engine.sample_alive(rng)
