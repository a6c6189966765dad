"""The Forgiving Graph healing engine (sequential reference).

Implements the PODC 2009 healing algorithm over general connected graphs
under arbitrary insert/delete churn.  The healed network is the *image*
of an endpoint graph containing real nodes plus the virtual helpers of
deployed :class:`~repro.fgraph.rtree.ReconstructionTree`\\ s; every helper
is simulated by a member of its own haft, and the image maps each helper
onto its simulator.

Structure invariants (each checked by :meth:`ForgivingGraph.check`):

* **One haft per dead region, one port per node.**  Each maximal
  connected set of deleted nodes is healed by a single haft whose leaves
  are the region's surviving neighbors.  When a deletion would give a
  node a second port — or joins two regions — the adjacent hafts are
  *merged* into the next build, so every real node is a leaf of at most
  one haft at any time.
* **One helper per node.**  Within a haft, helpers are simulated by
  their in-order predecessor leaves (injective); with at most one haft
  per node, each real node simulates at most one helper *globally*.
* **Degree increase <= 3, structurally.**  A port edge replaces at least
  one lost ideal edge (net <= 0) and a simulated helper carries at most
  three endpoint edges, so every node's image degree exceeds its ideal
  degree by at most 3 — the Forgiving Tree's bound, now under churn on
  general graphs.
* **Depth <= ceil(log2(W/w)) per port**, by the RT construction, which
  is what bounds the stretch at O(log n): a healed path crosses each
  dead region in at most ``2 log2 n + 2`` hops.

Weights are *insertion subtree sizes*: ``jw(x) = 1 +`` the number of
nodes that joined (transitively) under ``x`` in the insertion forest.
Every insert bumps the weights up the live chain of insertion parents —
the counted ``FGWeightUpdate`` cascade in the distributed runtime — so a
port that fronts a large joined population is rebuilt near the root.

Message accounting is synthesized per round with the exact rules the
distributed runtime (:mod:`repro.fgraph.distributed`) counts for real:
failure notifications attributed to the victim, one report per notified
neighbor to the round's coordinator, one shipped portion per surviving
member.  Tests cross-check the tallies node-for-node.
"""

from __future__ import annotations

from collections import Counter
from itertools import starmap
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from ..core.errors import (
    DuplicateNodeError,
    InvariantViolationError,
    NodeNotFoundError,
    SimulationOverError,
)
from ..core.events import (
    EdgeAdded,
    EdgeRemoved,
    HealReport,
    HelperCreated,
    HelperDestroyed,
    NodeInserted,
    WillPortionSent,
    edge_key,
    normalize_wave,
)
from ..core.flat import AliveView
from ..graphs.adjacency import Graph, copy as copy_graph, from_adjacency
from ..guarantees import degree_increase_bound
from .rtree import ReconstructionTree

Edge = Tuple[int, int]


class ForgivingGraph:
    """Self-healing general-graph engine (see module docstring).

    Parameters
    ----------
    graph:
        The initial network as an adjacency mapping.  Unlike the
        Forgiving Tree engine no spanning tree is extracted — the FG
        heals the graph it is given.
    strict:
        Run :meth:`check` after every event (slow; tests).
    """

    def __init__(self, graph: Mapping[int, Iterable[int]], strict: bool = False):
        self.strict = strict
        self._ideal: Graph = from_adjacency(graph)
        if not self._ideal:
            raise NodeNotFoundError(-1, "empty initial graph")
        self._alive: Set[int] = set(self._ideal)
        self._jw: Dict[int, int] = {n: 1 for n in self._ideal}
        self._ins_parent: Dict[int, Optional[int]] = {n: None for n in self._ideal}
        self._ins_children: Dict[int, Set[int]] = {}
        self._hafts: Dict[int, ReconstructionTree] = {}
        self._haft_of: Dict[int, int] = {}
        self._next_haft = 0
        self._img: Dict[int, Dict[int, int]] = {n: {} for n in self._ideal}
        for u, vs in self._ideal.items():
            for v in vs:
                if u < v:
                    self._img[u][v] = self._img[v][u] = 1
        # Degree increase -> number of live nodes at it; the max is
        # repaired lazily, as the Forgiving Tree's multiset does.
        self._inc: Dict[int, int] = dict(
            Counter(len(self._img[n]) - len(self._ideal[n]) for n in self._alive)
        )
        self._inc_max, self._inc_dirty = max(self._inc), False
        self.rounds = 0

    # ------------------------------------------------------------------
    # image multiset (edge -> number of contributing structures) and the
    # degree-increase histogram
    # ------------------------------------------------------------------
    def _inc_shift(self, val: int, k: int) -> None:
        """Add ``k`` (+-1) live nodes at degree increase ``val``."""
        c = self._inc.get(val, 0) + k
        if c:
            self._inc[val] = c
            if val > self._inc_max:
                self._inc_max = val
        else:
            del self._inc[val]
            self._inc_dirty |= val == self._inc_max

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def alive(self) -> AliveView:
        """Surviving node ids: a zero-copy read-only view (the type the
        flat Forgiving Tree core hands out)."""
        return AliveView(self._alive)

    def __len__(self) -> int:
        return len(self._alive)

    def __contains__(self, nid: int) -> bool:
        return nid in self._alive

    def graph(self) -> Graph:
        """The healed network (image graph) over surviving real nodes."""
        return {n: set(row) for n, row in self._img.items()}

    def adjacency(self) -> Graph:
        return self.graph()

    def view(self) -> Mapping[int, Mapping[int, int]]:
        """The live image ``node -> {neighbour: multiplicity}``: what
        :meth:`graph` copies.  Read it, never mutate it, and do not hold
        it across an event."""
        return self._img

    def ideal_graph(self, include_dead: bool = False) -> Graph:
        """The churn baseline: every insertion applied, nothing healed.

        With ``include_dead`` the deleted nodes remain as routable ghosts
        — the graph ``G(t)`` the paper measures stretch against.
        """
        if include_dead:
            return copy_graph(self._ideal)
        return {
            n: {m for m in vs if m in self._alive}
            for n, vs in self._ideal.items()
            if n in self._alive
        }

    def ideal_degree(self, nid: int) -> int:
        return len(self._ideal[nid])

    def degree_increase(self, nid: int) -> int:
        if nid not in self._alive:
            raise NodeNotFoundError(nid, "degree_increase")
        return len(self._img[nid]) - len(self._ideal[nid])

    def max_degree_increase(self) -> int:
        """Max degree increase over survivors, O(1) amortized."""
        if not self._inc:
            return 0
        if self._inc_dirty:
            self._inc_max = max(self._inc)
            self._inc_dirty = False
        return self._inc_max

    def weight_of(self, nid: int) -> int:
        """Current insertion-subtree weight of ``nid``."""
        return self._jw[nid]

    def haft_of(self, nid: int) -> Optional[ReconstructionTree]:
        hid = self._haft_of.get(nid)
        return None if hid is None else self._hafts[hid]

    @property
    def hafts(self) -> List[ReconstructionTree]:
        return [self._hafts[h] for h in sorted(self._hafts)]

    # ------------------------------------------------------------------
    # healing: deletion
    # ------------------------------------------------------------------
    def delete(self, nid: int) -> HealReport:
        """The adversary deletes ``nid``; merge + rebuild the region RT."""
        if not self._alive:
            raise SimulationOverError("all nodes already deleted")
        if nid not in self._alive:
            raise NodeNotFoundError(nid, "delete")
        self.rounds += 1
        events: List[object] = []
        tally: Dict[int, int] = {}

        img_nbrs = sorted(self._img[nid])
        direct_alive = sorted(u for u in self._ideal[nid] if u in self._alive)
        coordinator = min(img_nbrs) if img_nbrs else None
        haft_ids = sorted(
            {self._haft_of[m] for m in (nid, *direct_alive) if m in self._haft_of}
        )
        old_hafts = [self._hafts.pop(h) for h in haft_ids]

        # -- counted flow: Deleted fan-out, reports in, portions out ----
        if img_nbrs:
            tally[nid] = len(img_nbrs)
            for u in img_nbrs:
                if u != coordinator:
                    tally[u] = tally.get(u, 0) + 1

        # -- merge manifests / split out the victim's port --------------
        leaves = ReconstructionTree.merged_leaves(
            old_hafts,
            drop=(nid,),
            fresh={u: self._jw[u] for u in direct_alive},
            refresh={u: self._jw[u] for u in img_nbrs},
        )

        # -- swap the old structures for the freshly balanced RT ---------
        new_haft = ReconstructionTree.build(leaves) if len(leaves) >= 2 else None
        retire = {edge_key(nid, u): 1 for u in direct_alive}
        for haft in old_hafts:
            events.extend(
                HelperDestroyed(sim=s, helper_id=s) for s in sorted(haft.helper_links)
            )
            for e in haft.image:
                retire[e] = retire.get(e, 0) + 1
            for m in haft.weight:
                del self._haft_of[m]
        gain = new_haft.image if new_haft is not None else set()
        removed, added = self._swap_image(nid, retire, gain)
        if new_haft is not None:
            self._hafts[self._next_haft] = new_haft
            self._haft_of.update(dict.fromkeys(new_haft.weight, self._next_haft))
            self._next_haft += 1
            events.extend(
                HelperCreated(sim=s, helper_id=s, ready_heir=False)
                for s in sorted(new_haft.helper_links)
            )
            if coordinator not in new_haft.weight:
                raise InvariantViolationError(
                    "fg-coordinator",
                    f"coordinator {coordinator} outside the rebuilt haft",
                )
            tally[coordinator] = tally.get(coordinator, 0) + len(new_haft.weight) - 1
            for m in sorted(new_haft.weight):
                if m != coordinator:
                    events.append(WillPortionSent(owner=coordinator, recipient=m))

        # -- bookkeeping -------------------------------------------------
        self._alive.discard(nid)
        parent = self._ins_parent.pop(nid, None)
        if parent is not None:
            self._ins_children.get(parent, set()).discard(nid)
        for child in self._ins_children.pop(nid, set()):
            if child in self._alive:
                self._ins_parent[child] = None

        events.extend(starmap(EdgeRemoved, sorted(removed)))
        events.extend(starmap(EdgeAdded, sorted(added)))
        report = HealReport(
            deleted=nid,
            was_internal=bool(old_hafts) or new_haft is not None,
            edges_added=frozenset(added),
            edges_removed=frozenset(removed),
            events=tuple(events),
            messages_per_node=tally,
        )
        if self.strict:
            self.check()
        return report

    def _swap_image(
        self, nid: int, retire: Dict[Edge, int], gain: Set[Edge]
    ) -> Tuple[List[Edge], List[Edge]]:
        """Apply one haft swap to the image as one multiset diff: ``retire``
        counts what leaves (the victim's direct edges, the old hafts'
        images), ``gain`` is the new haft's image.

        Returns the edges whose count reached 0 and the edges whose count
        left 0, as retiring everything and then deploying would: an edge
        the new haft keeps is in both lists.  Keeps the degree-increase
        histogram: the victim leaves it, each endpoint of an edge that
        appears or vanishes for good moves by one.
        """
        img, ideal = self._img, self._ideal
        self._inc_shift(len(img[nid]) - len(ideal[nid]), -1)
        removed: List[Edge] = []
        added: List[Edge] = []
        moved: Dict[int, int] = {}
        for e in retire.keys() | gain:
            a, b = e
            c, m = img[a].get(b, 0), retire.get(e, 0)
            count = c - m + (e in gain)
            if c == m:  # the count passes through 0
                if m:
                    removed.append(e)
                if count:
                    added.append(e)
                if not (m and count):  # the edge vanished or appeared
                    for x in e:
                        moved[x] = moved.get(x, 0) + (1 if count else -1)
            if count:
                img[a][b] = img[b][a] = count
            else:
                del img[a][b], img[b][a]
        if img.pop(nid):  # pragma: no cover - defensive
            raise InvariantViolationError("fg-image", f"victim {nid} keeps edges")
        for x, dx in moved.items():
            if dx and x != nid:
                now = len(img[x]) - len(ideal[x])
                self._inc_shift(now - dx, -1)
                self._inc_shift(now, +1)
        return removed, added

    # ------------------------------------------------------------------
    # healing: insertion
    # ------------------------------------------------------------------
    def insert(self, nid: int, attach_to: int) -> HealReport:
        """A fresh node joins under a live one (ideal-graph convention)."""
        nid, attach_to = int(nid), int(attach_to)
        if nid in self._ideal:  # ids are never reused
            raise DuplicateNodeError(nid)
        if attach_to not in self._alive:
            raise NodeNotFoundError(attach_to, "insert attach point")
        self.rounds += 1
        self._alive.add(nid)
        self._ideal[nid] = {attach_to}
        self._ideal[attach_to].add(nid)
        self._img[nid] = {attach_to: 1}
        self._img[attach_to][nid] = 1
        self._inc_shift(0, +1)  # attach_to gains one ideal and one image edge: net 0
        self._jw[nid] = 1
        self._ins_parent[nid] = attach_to
        self._ins_children.setdefault(attach_to, set()).add(nid)

        # INSERT handshake + the weight-update cascade up the live chain
        # of insertion parents (each hop is one counted message).
        tally: Dict[int, int] = {nid: 1, attach_to: 1}  # request + ack
        self._jw[attach_to] += 1
        cur, up = attach_to, self._ins_parent[attach_to]
        while up is not None:
            tally[cur] = tally.get(cur, 0) + 1
            self._jw[up] += 1
            cur, up = up, self._ins_parent[up]

        report = HealReport(
            deleted=-1,
            edges_added=frozenset({edge_key(nid, attach_to)}),
            events=(
                NodeInserted(nid, attach_to),
                EdgeAdded(*edge_key(nid, attach_to)),
            ),
            messages_per_node=tally,
            inserted=nid,
            attached_to=attach_to,
        )
        if self.strict:
            self.check()
        return report

    def insert_batch(self, joiners: Iterable[Tuple[int, int]]) -> HealReport:
        """A wave of joiners lands in one round (shared wave semantics)."""
        wave = normalize_wave(joiners, known_ids=self._ideal, alive=self._alive)
        reports = [self.insert(n, a) for n, a in wave]
        self.rounds -= len(wave) - 1  # one wave = one round
        return HealReport.of_wave(wave, reports)

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def check(self) -> None:
        """Recompute every derived structure and verify the invariants."""
        # Hafts: pairwise disjoint, internally valid, membership-indexed.
        seen: Set[int] = set()
        for hid, haft in self._hafts.items():
            haft.check()
            if haft.members & seen:
                raise InvariantViolationError(
                    "fg-one-port", f"haft {hid} shares members"
                )
            seen |= haft.members
            for m in haft.members:
                if self._haft_of.get(m) != hid:
                    raise InvariantViolationError("fg-haft-index", f"member {m}")
                if m not in self._alive:
                    raise InvariantViolationError("fg-haft-dead", f"member {m}")
                if all(x in self._alive for x in self._ideal[m]):
                    raise InvariantViolationError(
                        "fg-port-unearned", f"member {m} lost no ideal edge"
                    )
        if set(self._haft_of) != seen:
            raise InvariantViolationError("fg-haft-index", "stale port entries")
        # The image multiset matches a from-scratch recomputation.
        fresh: Dict[Tuple[int, int], int] = {}
        for u, vs in self._ideal.items():
            if u not in self._alive:
                continue
            for v in vs:
                if u < v and v in self._alive:
                    fresh[(u, v)] = fresh.get((u, v), 0) + 1
        for haft in self._hafts.values():
            for e in haft.image_edges():
                fresh[e] = fresh.get(e, 0) + 1
        stored = {
            (u, v): c
            for u, row in self._img.items()
            for v, c in row.items()
            if u < v
        }
        if stored != fresh:
            raise InvariantViolationError(
                "fg-image",
                f"multiset drift: {sorted(set(stored) ^ set(fresh))[:6]}",
            )
        # The paper's Theorem: additive degree increase bounded by 3; the
        # kept histogram and its max match a recount.
        bound = degree_increase_bound()
        hist: Dict[int, int] = {}
        for n in self._alive:
            inc = self.degree_increase(n)
            if inc > bound:
                raise InvariantViolationError("fg-degree", f"node {n} increase {inc}")
            hist[inc] = hist.get(inc, 0) + 1
        if hist != self._inc:
            raise InvariantViolationError("fg-inc-histogram", "histogram diverged")
        if hist and self.max_degree_increase() != max(hist):
            raise InvariantViolationError("fg-inc-max", "stale maximum")
        # Weights are consistent with the insertion forest.
        for n, p in self._ins_parent.items():
            if p is not None and p not in self._alive:
                raise InvariantViolationError("fg-ins-forest", f"stale parent of {n}")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ForgivingGraph(n={len(self._alive)}, hafts={len(self._hafts)}, "
            f"rounds={self.rounds})"
        )
