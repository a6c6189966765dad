"""Incremental tree metrics: diameter maintenance under churn at the
cost of the change — O(changed ancestors), worst case O(depth).

Per-round diameter measurement is the expensive half of the paper's
success metrics (Model 2.1): :func:`~repro.graphs.metrics.diameter_exact`
is O(n·m) and even the double sweep pays two full BFS passes — O(m) —
every round, which makes per-round stretch tracking unaffordable on the
10k+ churn campaigns the benchmarks target.  But a healing round only
edits the overlay *locally*: the engines emit structured deltas (the
:class:`~repro.core.events.HealReport` edge sets), so the diameter can be
maintained incrementally instead of re-derived from scratch.

:class:`DynamicTreeMetrics` keeps a rooted orientation of the (tree)
overlay together with two per-subtree aggregates:

* ``height[v]`` — the number of edges from ``v`` down to its deepest
  descendant leaf, and
* ``diam[v]`` — the diameter of the subtree rooted at ``v``
  (``max`` of the child diameters and of the path through ``v`` joining
  its two tallest child branches).

Per node the tracker stores its adjacency row, its parent pointer and
the two aggregates — nothing else.  Child sets are not kept: ``c`` is a
child of ``v`` exactly when ``c`` is a neighbour of ``v`` with
``parent[c] == v`` (a chord is never a parent edge), so a child scan
costs the node's degree, which the Forgiving Tree bounds.  The
adjacency is the caller's own: ``DynamicTreeMetrics(graph)`` takes the
``graph`` dict over instead of copying it (the campaign loop hands over
the overlay snapshot it took), so a tracked campaign holds the overlay
once.

The global diameter is ``diam[root]``.  A leaf insertion touches the
attachment point and those of its ancestors whose aggregates actually
change; a heal round removes the victim, may detach whole subtrees
(whose *internal* aggregates stay valid), and re-hangs them along the
new edges — re-orienting only the path from each re-attachment point up
to its detached fragment root, then re-aggregating upward from every
change site for as long as values keep changing.  Fragment membership is
enumerated *downward* from the detached roots (bounded; see
``_fragment_members``), so an anchored endpoint is never walked to the
root.  An update therefore costs O(changed ancestors + small fragments),
worst case O(k·depth) for k changed edges, against the O(m)-per-round
BFS it replaces.

**Consistency invariant.**  After :meth:`apply_delete` /
:meth:`insert_leaf` returns, every node's stored ``(height, diam)`` equals
``_recompute`` of its children's stored pairs — exactly what
:meth:`check` verifies.  A node's pair is a function of its child set
and its children's pairs only, so it can go stale in two ways: (i) its
child set changes — every such site is either put in ``dirty`` (cut
parents, re-hang targets) or recomputed in place (``_rehang``'s flipped
path bottom-up, ``_reroot_adjacent``'s two nodes); or (ii) a child's
stored pair changes — which only happens inside a bubble, and the bubble
then continues to that parent.  Hence bubbling may stop at the first
ancestor whose pair (*both* values: ``diam`` can move under an unchanged
``height``) did not change: a node still stale above it is itself a
``dirty`` seed not yet taken, whose own bubble repairs it — so any seed
order is exact (lowest stored height first is merely the cheaper one: as
a rule a seed's descendant seeds then run before it).

The structure is deliberately *strict*: any delta that would leave a
non-tree (a cycle, a disconnection, an unknown edge) raises
:class:`~repro.core.errors.NotATreeError`, which is how the harness knows
to fall back to BFS measurement (see ``run_churn_campaign``'s ``metrics``
parameter).  Property-based tests cross-validate the maintained diameter
against ``diameter_exact`` after every event of randomized churn traces.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..core.errors import (
    DuplicateNodeError,
    EmptyStructureError,
    InvariantViolationError,
    NodeNotFoundError,
    NotATreeError,
)
from ..core.events import edge_key
from .adjacency import Graph


class DynamicTreeMetrics:
    """Maintains the exact diameter of a changing tree (see module doc).

    Parameters
    ----------
    graph:
        The initial overlay, a ``node -> set of node`` dict; must be a
        tree (or empty).  The structure takes it over: ``graph`` *becomes*
        the maintained adjacency, which every delta then edits in place
        (no copy is made).  A caller that still needs its graph passes a
        copy, ``{n: set(row) for n, row in graph.items()}``.
    root:
        Orientation root (default: smallest id).  Purely internal; the
        maintained metrics are orientation-independent.
    """

    def __init__(self, graph: Graph, root: Optional[int] = None):
        self._adj: Graph = graph
        self._parent: Dict[int, Optional[int]] = {}
        self._height: Dict[int, int] = {}
        self._diam: Dict[int, int] = {}
        self._chords: Set[Tuple[int, int]] = set()
        self._root: Optional[int] = None
        if not self._adj:
            return
        self._root = min(self._adj) if root is None else int(root)
        if self._root not in self._adj:
            raise NodeNotFoundError(self._root, "metrics root")
        self._orient_from_root()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_parents(
        cls,
        parents: Iterable[int],
        ids: Optional[Iterable[int]] = None,
        chords: Iterable[Tuple[int, int]] = (),
    ) -> "DynamicTreeMetrics":
        """O(n) construction from a parent array (position ``i``'s parent
        *position*, ``-1`` at the root).

        The orientation is taken directly from the array — no adjacency
        dict to build first and no BFS to orient it, roughly halving the
        startup cost of tracking a tree the caller already holds in
        parent-pointer form (the flat core's native shape; see
        :meth:`~repro.core.flat_tree.FlatForgivingTree.from_parents`).
        Equivalent to ``DynamicTreeMetrics(adjacency, root=<array root>)``
        in every maintained value.

        ``ids`` optionally maps positions to actual node ids (default
        ``0..n-1``), and ``chords`` re-adds non-tree cycle edges (id
        pairs) — together they invert :meth:`parent_state`, so a tracker
        checkpointed mid-campaign rebuilds exactly, arbitrary ids, heal
        cycles and all.  Aggregates come out identical to the unbroken
        incremental run because :meth:`check` proves the maintained
        values always equal this same bottom-up recomputation.
        """
        parents = list(parents)
        n = len(parents)
        labels = list(range(n)) if ids is None else [int(x) for x in ids]
        if len(labels) != n:
            raise NotATreeError("ids and parents lengths differ")
        if len(set(labels)) != n:
            raise DuplicateNodeError("duplicate id in parent-state ids")
        self = cls.__new__(cls)
        self._adj = {nid: set() for nid in labels}
        self._parent = {}
        self._height = {}
        self._diam = {}
        self._chords = set()
        self._root = None
        if n == 0:
            if list(chords):
                raise NotATreeError("chords on an empty tree")
            return self
        root = -1
        for i, p in enumerate(parents):
            if p == -1:
                if root != -1:
                    raise NotATreeError("two roots in parent array")
                root = i
            elif not 0 <= p < n:
                raise NodeNotFoundError(p, "parent array")
        if root == -1:
            raise NotATreeError("no root in parent array")
        self._root = labels[root]
        for i, p in enumerate(parents):
            nid = labels[i]
            self._parent[nid] = None if p == -1 else labels[p]
            if p != -1:
                self._adj[nid].add(labels[p])
                self._adj[labels[p]].add(nid)
        order = self._top_down()
        if len(order) != n:
            raise NotATreeError("parent array contains a cycle")
        for u, v in chords:
            key = edge_key(int(u), int(v))
            u, v = key
            if u not in self._adj or v not in self._adj:
                raise NodeNotFoundError(u if u not in self._adj else v, "chord")
            if v in self._adj[u]:
                raise NotATreeError(f"chord {key} duplicates a tree edge")
            self._adj[u].add(v)
            self._adj[v].add(u)
            self._chords.add(key)
        for nid in reversed(order):
            self._recompute(nid)
        return self

    def parent_state(self) -> Dict[str, list]:
        """Serialize the maintained orientation for checkpointing.

        Returns ``{"ids", "parents", "chords"}`` where ``ids`` lists the
        node ids ascending, ``parents`` gives each position's parent
        *position* (``-1`` at the orientation root) and ``chords`` lists
        the non-tree edges sorted.  ``from_parents(parents, ids=...,
        chords=...)`` rebuilds an equivalent tracker — same diameter, same
        future trajectory (chord competition is resolved in sorted order,
        so replayed deltas classify edges identically)."""
        ids = sorted(self._adj)
        index = {nid: i for i, nid in enumerate(ids)}
        parents = [
            -1 if self._parent[nid] is None else index[self._parent[nid]]
            for nid in ids
        ]
        return {
            "ids": ids,
            "parents": parents,
            "chords": sorted(self._chords),
        }

    def _orient_from_root(self) -> None:
        order: List[int] = [self._root]  # type: ignore[list-item]
        parent = self._parent
        parent[self._root] = None  # type: ignore[index]
        for cur in order:  # breadth-first: the loop reads what it appends
            for nxt in self._adj[cur]:
                if nxt not in parent:
                    parent[nxt] = cur
                    order.append(nxt)
                elif nxt != parent[cur] and parent[nxt] != cur:
                    self._chords.add(edge_key(cur, nxt))
        if len(order) != len(self._adj):
            raise NotATreeError("graph is not connected")
        for nid in reversed(order):
            self._recompute(nid)

    def _kids(self, nid: int) -> List[int]:
        """``nid``'s children: its neighbours whose parent it is (its own
        parent is skipped unread, as in :meth:`_recompute`)."""
        parent = self._parent
        up = parent[nid]
        return [c for c in self._adj[nid] if c != up and parent[c] == nid]

    def _top_down(self) -> List[int]:
        """Every node the orientation reaches from the root, breadth-first."""
        order: List[int] = [self._root]  # type: ignore[list-item]
        for nid in order:
            order.extend(self._kids(nid))
        return order

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._adj)

    def __contains__(self, nid: int) -> bool:
        return nid in self._adj

    @property
    def root(self) -> Optional[int]:
        return self._root

    @property
    def n_chords(self) -> int:
        """Number of non-tree (cycle-closing) edges currently tracked."""
        return len(self._chords)

    @property
    def is_exact(self) -> bool:
        """True when :attr:`diameter` is the exact graph diameter.

        The maintained aggregate is the diameter of the spanning tree;
        with no chords the graph *is* that tree, so the value is exact.
        With chords (the Forgiving Tree's short heal cycles) the chords
        can only shorten distances, so the value brackets the true
        diameter from above — the mirror of the double sweep's
        lower-bound bracket, and still inside the Theorem 1.2 envelope.
        """
        return not self._chords

    @property
    def diameter(self) -> int:
        """Diameter of the maintained tree overlay (0 for a singleton).

        Exact whenever the tracked graph is a tree (:attr:`is_exact`);
        an upper bound when chord edges are present.
        """
        if self._root is None:
            raise EmptyStructureError("diameter of empty tree")
        return self._diam[self._root]

    def height_of(self, nid: int) -> int:
        """Edges from ``nid`` down to its deepest subtree leaf."""
        if nid not in self._adj:
            raise NodeNotFoundError(nid, "height_of")
        return self._height[nid]

    # ------------------------------------------------------------------
    # the delta feed
    # ------------------------------------------------------------------
    def apply_report(self, report) -> None:
        """Consume one heal/insert round's :class:`HealReport` delta.

        Deletion rounds replay the **net deltas from the raw
        chronological event log** (:meth:`HealReport.net_edge_deltas`),
        not the report's disjointified summary sets: an edge toggling an
        odd number of times inside one heal (removed, re-added, removed
        again — observed under RandomChurn at n=300) vanishes from both
        summary sets, and feeding those here would leave a phantom edge
        in the maintained overlay.  The transport mirror replays the
        same way (``TransportMirror.apply``)."""
        if report.is_insertion:
            pairs = report.inserted_batch or ((report.inserted, report.attached_to),)
            for nid, attach_to in pairs:
                self.insert_leaf(nid, attach_to)
        else:
            added, removed = report.net_edge_deltas()
            self.apply_delete(report.deleted, added, removed)

    def insert_leaf(self, nid: int, attach_to: int) -> None:
        """A fresh leaf ``nid`` joined under live ``attach_to`` — O(changed
        ancestors), worst case O(depth)."""
        nid, attach_to = int(nid), int(attach_to)
        if nid in self._adj:
            raise DuplicateNodeError(nid)
        if self._root is None:
            # First node of an empty network (the network can re-grow).
            self._adj[nid] = set()
            self._parent[nid] = None
            self._height[nid] = 0
            self._diam[nid] = 0
            self._root = nid
            return
        if attach_to not in self._adj:
            raise NodeNotFoundError(attach_to, "insert_leaf attach point")
        self._adj[nid] = {attach_to}
        self._adj[attach_to].add(nid)
        self._parent[nid] = attach_to
        self._height[nid] = 0
        self._diam[nid] = 0
        self._bubble(attach_to)

    def apply_delete(
        self,
        victim: int,
        added: Iterable[Tuple[int, int]],
        removed: Iterable[Tuple[int, int]],
    ) -> None:
        """One deletion round: the victim dies, heal edges rewire the tree.

        ``added``/``removed`` are the net image-edge deltas of the round
        (canonical pairs, as reported by the engines).  Raises
        :class:`NotATreeError` when the deltas do not leave a tree — the
        caller should then fall back to BFS measurement.
        """
        if victim not in self._adj:
            raise NodeNotFoundError(victim, "apply_delete victim")
        if len(self._adj) == 1:
            self._adj.clear()
            self._parent.clear()
            self._height.clear()
            self._diam.clear()
            self._root = None
            return
        if victim == self._root:
            # Re-root to a tree child (a chord neighbor carries no
            # orientation to flip); n >= 2 guarantees one exists.
            self._reroot_adjacent(min(self._kids(victim)))

        # Normalize and include every victim-incident edge in the removals
        # (engines report them, but baseline reports are trusted less).
        removed_keys = {edge_key(int(u), int(v)) for u, v in removed}
        removed_keys |= {edge_key(victim, x) for x in self._adj[victim]}
        added_keys = [edge_key(int(u), int(v)) for u, v in added]

        detached: Set[int] = set()  # fragment roots cut off the anchor tree
        dirty: Set[int] = set()  # nodes whose child set changed
        for u, v in removed_keys:
            if v not in self._adj.get(u, ()):
                raise NotATreeError(f"removed edge {(u, v)} not present")
            self._adj[u].discard(v)
            self._adj[v].discard(u)
            if (u, v) in self._chords:
                self._chords.discard((u, v))  # chords carry no orientation
            elif self._parent.get(u) == v:
                self._parent[u] = None
                detached.add(u)
                dirty.add(v)
            elif self._parent.get(v) == u:
                self._parent[v] = None
                detached.add(v)
                dirty.add(u)
            else:  # pragma: no cover - defensive: cannot happen on a tree
                raise NotATreeError(f"edge {(u, v)} had no orientation")

        if self._adj[victim]:
            raise NotATreeError(f"victim {victim} still has edges after removals")
        for store in (self._adj, self._parent, self._height, self._diam):
            store.pop(victim, None)
        detached.discard(victim)
        dirty.discard(victim)

        pending: List[Tuple[int, int]] = []
        for u, v in added_keys:
            if u not in self._adj or v not in self._adj:
                raise NotATreeError(f"added edge {(u, v)} touches unknown node")
            if v in self._adj[u]:
                raise NotATreeError(f"added edge {(u, v)} already present")
            self._adj[u].add(v)
            self._adj[v].add(u)
            pending.append((u, v))
        # Existing chords may reconnect fragments a removed tree edge cut
        # off: they compete with the new edges for spanning duty.  Sorted,
        # not set order: which competitor wins spanning duty decides the
        # future orientation, and a checkpoint-restored tracker must make
        # the same choice as the unbroken run.
        #
        # Only chords touching a detached fragment can change anything: a
        # fragment only ever attaches *to* the anchor tree, so an endpoint
        # anchored here stays anchored for the whole re-hang loop and a
        # both-anchored chord would round-trip through ``pending`` back
        # into the chord set untouched.  Selecting just the incident
        # chords keeps chord-heavy soaks O(fragment size) per deletion
        # instead of O(all accumulated chords) — and dropping the no-ops
        # from ``sorted(...)`` preserves the survivors' relative order, so
        # spanning-duty competition resolves identically.
        members = self._fragment_members(detached)
        affected: Set[Tuple[int, int]] = set()
        if members is None:
            affected = set(self._chords)
        elif self._chords:
            affected = {
                key
                for node in members
                for nbr in self._adj[node]
                if (key := edge_key(node, nbr)) in self._chords
            }
        pending.extend(sorted(affected))
        self._chords -= affected

        # Re-hang detached fragments along the new (and chord) edges.  A
        # fragment's internal orientation and aggregates are still valid;
        # only the path from the re-attachment point up to the fragment
        # root flips.  An edge whose endpoints land in the same fragment
        # closes a cycle and is kept as a chord.
        #
        # ``members`` already names every detached node's fragment root,
        # so classifying an endpoint is one lookup and a node it does not
        # list is anchored — no walk towards the root.  ``rehung`` marks
        # former fragment roots whose fragments were absorbed into the
        # anchor tree: a hit on one resolves to the anchor root, which is
        # pinned for the whole call (the victim was re-rooted away above),
        # so absorbed fragments never need per-node invalidation.  Only
        # when the fragments outgrew the enumeration cap do endpoints walk
        # *up*, memoized with path compression for the duration of the
        # call (every carried chord is re-tested each pass).
        memo: Dict[int, int] = {}
        rehung: Set[int] = set()
        anchor = self._root

        def frag_root(nid: int) -> int:
            if members is not None:
                root = members.get(nid, anchor)
                return anchor if root in rehung else root  # type: ignore[return-value]
            path = []
            cur = nid
            while cur not in memo and self._parent[cur] is not None:
                path.append(cur)
                cur = self._parent[cur]  # type: ignore[assignment]
            root = memo.get(cur, cur)
            if root in rehung:
                root = anchor  # type: ignore[assignment]
            for node in path:
                memo[node] = root
            memo[cur] = root
            return root  # type: ignore[return-value]

        while pending:
            rest: List[Tuple[int, int]] = []
            progress = False
            for u, v in pending:
                ru, rv = frag_root(u), frag_root(v)
                if ru == rv:
                    self._chords.add(edge_key(u, v))
                    progress = True
                elif ru == self._root:
                    self._rehang(v, u)
                    detached.discard(rv)
                    rehung.add(rv)
                    dirty.add(u)
                    progress = True
                elif rv == self._root:
                    self._rehang(u, v)
                    detached.discard(ru)
                    rehung.add(ru)
                    dirty.add(v)
                    progress = True
                else:
                    rest.append((u, v))
            if not progress:
                raise NotATreeError("heal round left the overlay disconnected")
            pending = rest
        if detached:
            raise NotATreeError("heal round left the overlay disconnected")

        # Any order is exact (module docstring).  Lowest stored height first
        # as a rule takes a seed's descendant seeds before it, so an ancestor
        # is not bubbled against a value its descendant is about to change
        # (a sixth fewer recomputations per event on a deep 100k-node tree).
        for seed in sorted(dirty, key=self._height.__getitem__):
            self._bubble(seed)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _recompute(self, nid: int) -> bool:
        """Refresh ``height``/``diam`` of ``nid`` from its children's
        stored pairs; True when either value changed.

        The children are the neighbours pointing at ``nid``; its own
        parent is skipped unread, so the scan never looks upward."""
        parent, heights, diams = self._parent, self._height, self._diam
        up = parent[nid]
        top1 = top2 = -1  # the two tallest child branch heights
        best_child_diam = 0
        for c in self._adj[nid]:
            if c == up or parent[c] != nid:
                continue
            h = heights[c]
            if h > top1:
                top1, top2 = h, top1
            elif h > top2:
                top2 = h
            d = diams[c]
            if d > best_child_diam:
                best_child_diam = d
        height = top1 + 1
        diam = max(height + top2 + 1, best_child_diam)
        if heights.get(nid) == height and diams.get(nid) == diam:
            return False
        heights[nid] = height
        diams[nid] = diam
        return True

    def _bubble(self, nid: int) -> None:
        """Recompute upward from ``nid`` while the stored pair keeps
        changing (see "Consistency invariant" in the module docstring)."""
        cur: Optional[int] = nid
        while cur is not None and self._recompute(cur):
            cur = self._parent[cur]

    def _fragment_members(self, detached: Set[int]) -> Optional[Dict[int, int]]:
        """``node -> fragment root`` for every node of every detached
        fragment, or None when they outgrow the cap.

        Walks the fragments' subtrees downward (their internal
        orientation is still intact), so whatever the map does not list
        is anchored.  Past ``4·|chords| + 64`` nodes the caller's full
        chord scan and upward walks are the cheaper side.
        """
        cap = 4 * len(self._chords) + 64
        members: Dict[int, int] = {}
        adj, parent = self._adj, self._parent
        for root in detached:
            stack = [root]
            while stack:
                node = stack.pop()
                if len(members) == cap:
                    return None
                members[node] = root
                up = parent[node]  # _kids, inlined: this walk is hot
                for c in adj[node]:
                    if c != up and parent[c] == node:
                        stack.append(c)
        return members

    def _rehang(self, top: int, onto: int) -> None:
        """Re-root ``top``'s fragment at ``top`` and hang it under ``onto``.

        Flips the parent pointers along the ``top`` → fragment-root path
        and attaches, then re-aggregates the flipped nodes bottom-up.
        """
        path = [top]
        while self._parent[path[-1]] is not None:
            path.append(self._parent[path[-1]])  # type: ignore[arg-type]
        for child, par in zip(path, path[1:]):
            self._parent[par] = child
        self._parent[top] = onto
        for node in reversed(path):
            self._recompute(node)

    def _reroot_adjacent(self, new_root: int) -> None:
        """Move the orientation root to a neighbor of the current root."""
        old = self._root
        assert old is not None and new_root in self._adj[old]
        if self._parent[new_root] != old:  # pragma: no cover - defensive
            raise InvariantViolationError("metrics-root", "neighbor not a child")
        self._parent[old] = new_root
        self._parent[new_root] = None
        self._root = new_root
        self._recompute(old)
        self._recompute(new_root)

    # ------------------------------------------------------------------
    # validation (tests)
    # ------------------------------------------------------------------
    def check(self) -> None:
        """Recompute everything from scratch and compare (slow; tests)."""
        if self._root is None:
            if self._adj or self._parent or self._height or self._chords:
                raise InvariantViolationError("metrics-empty", "stale entries")
            return
        # Orientation forms a spanning tree of the adjacency minus chords:
        # the adjacency is symmetric, and the children a parent pointer
        # derives (a pointer along an edge) reach every node from the root.
        for u, row in self._adj.items():
            for v in row:
                if u not in self._adj.get(v, ()):
                    raise InvariantViolationError("metrics-adjacency", f"{(u, v)}")
        if self._parent.keys() != self._adj.keys():
            raise InvariantViolationError("metrics-orientation", "pointer set")
        if self._parent[self._root] is not None:
            # The root is then some node's child and the walk never ends.
            raise InvariantViolationError("metrics-orientation", "root has a parent")
        order = self._top_down()
        seen = set(order)
        if seen != set(self._adj):
            raise InvariantViolationError(
                "metrics-spanning", f"unreachable: {set(self._adj) - seen}"
            )
        tree_edges = {
            edge_key(n, self._parent[n])  # type: ignore[arg-type]
            for n in self._adj
            if self._parent[n] is not None
        }
        all_edges = {edge_key(u, v) for u, s in self._adj.items() for v in s}
        if tree_edges | self._chords != all_edges or tree_edges & self._chords:
            raise InvariantViolationError("metrics-chords", "edge partition broken")
        # Aggregates match a bottom-up recomputation over this orientation.
        stored = {n: (self._height[n], self._diam[n]) for n in self._adj}
        for nid in reversed(order):
            self._recompute(nid)
        for nid in self._adj:
            if stored[nid] != (self._height[nid], self._diam[nid]):
                raise InvariantViolationError(
                    "metrics-aggregate",
                    f"node {nid}: stored {stored[nid]} vs "
                    f"{(self._height[nid], self._diam[nid])}",
                )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if self._root is None:
            return "DynamicTreeMetrics(empty)"
        return f"DynamicTreeMetrics(n={len(self._adj)}, diameter={self.diameter})"
