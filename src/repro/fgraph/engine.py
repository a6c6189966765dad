"""The Forgiving Graph healing engine (sequential reference).

Implements the PODC 2009 healing algorithm over general connected graphs
under arbitrary insert/delete churn.  The healed network is the *image*
of an endpoint graph containing real nodes plus the virtual helpers of
deployed :class:`~repro.fgraph.rtree.ReconstructionTree` hafts; every
helper is simulated by a member of its own haft, and the image maps each
helper onto its simulator.

Structure invariants (each checked by :meth:`ForgivingGraph.check`):

* **One haft per dead region, one port per node.**  Each maximal
  connected set of deleted nodes is healed by a single haft whose leaves
  are the region's surviving neighbors.  When a deletion would give a
  node a second port — or joins two regions — the adjacent hafts are
  *merged*, so every real node is a leaf of at most one haft at any time.
* **One helper per node.**  Within a haft, helpers are simulated by
  their in-order predecessor leaves (injective); with at most one haft
  per node, each real node simulates at most one helper *globally*.
* **Degree increase <= 3, structurally.**  A port edge replaces at least
  one lost ideal edge (net <= 0) and a simulated helper carries at most
  three endpoint edges, so every node's image degree exceeds its ideal
  degree by at most 3 — the Forgiving Tree's bound, now under churn on
  general graphs.
* **Depth <= floor(log2 L) + 1 per port** in an ``L``-leaf haft, by the
  haft's shape, which is what bounds the stretch at O(log n): a healed
  path crosses each dead region in at most ``2 log2 n + 2`` hops.

A deletion updates the hafts in place: the victim leaves its haft
(:meth:`~repro.fgraph.rtree.ReconstructionTree.remove`), and the hafts
of its surviving direct neighbors merge with one fresh leaf per portless
neighbor (:meth:`~repro.fgraph.rtree.ReconstructionTree.merge`).  Both
touch O(log L) helpers per haft, and only those helpers' links reach the
image diff and the report.

Message accounting is synthesized per round with the exact rules the
distributed runtime (:mod:`repro.fgraph.distributed`) counts for real:
failure notifications attributed to the victim, one report per notified
neighbor to the round's coordinator, the probe walk's probes and
answers, one shipped portion per member whose port or helper changed.
Tests cross-check the tallies node-for-node.
"""

from __future__ import annotations

from collections import Counter
from itertools import repeat, starmap
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
from ..graphs.view import OverlayView
from ..guarantees import degree_increase_bound
from .rtree import Journal, Links, ReconstructionTree, link_edges, probe_walk

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
        self._hafts: Dict[int, ReconstructionTree] = {}
        self._haft_of: Dict[int, int] = {}
        self._next_haft = 0
        # The image: ``node -> {neighbour: multiplicity}``, kept as an
        # :class:`OverlayView` so adversaries' degree and roster questions
        # are answered from its index (built on the first question).
        self._img = OverlayView({n: {} for n in self._ideal})
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
    # image multiset (edge -> its ideal edge + the helper links mapping
    # onto it) and the degree-increase histogram
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
        :meth:`graph` copies, an :class:`~repro.graphs.view.OverlayView`
        (``max_degree_nodes`` / ``sorted_nodes`` answer from its index).
        Read it, never mutate it, and do not hold it across an event."""
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
        """The adversary deletes ``nid``; remove it from its haft and
        merge the region's hafts."""
        if not self._alive:
            raise SimulationOverError("all nodes already deleted")
        if nid not in self._alive:
            raise NodeNotFoundError(nid, "delete")
        self.rounds += 1
        img_nbrs = sorted(self._img[nid])
        coordinator = img_nbrs[0] if img_nbrs else None
        # -- counted flow: Deleted fan-out, reports in, the probe walk,
        # portions out to the members whose portion changed ------------
        tally: Dict[int, int] = {}
        hops: Set[Edge] = set()
        if img_nbrs:
            tally[nid] = len(img_nbrs)
            for u in img_nbrs:
                if u != coordinator:
                    tally[u] = 1
            self._probe_walk(nid, img_nbrs, tally, hops)
        hafts, fresh, haft, changed, removed, added = self._heal(nid)
        links = haft.helper_links if haft else {}
        events: List[object] = [
            HelperDestroyed(sim=s, helper_id=s) for s in changed if changed[s]
        ]
        events += [
            HelperCreated(sim=s, helper_id=s, ready_heir=False)
            for s in changed
            if s in links
        ]
        gone = set(removed)
        relisted = {e for e in hops if e not in gone}
        if haft is not None:
            if coordinator not in haft.members:
                raise InvariantViolationError(
                    "fg-coordinator",
                    f"coordinator {coordinator} outside the merged haft",
                )
            helpers, ports = haft.changed_portions(changed)
            recipients = sorted((helpers | ports) - {nid, coordinator})
            if recipients:
                tally[coordinator] = tally.get(coordinator, 0) + len(recipients)
            events += map(WillPortionSent, repeat(coordinator), recipients)
            # Every portion recipient is an endpoint of a touched edge:
            # its port edge (or, collapsed, its helper's right link) is
            # listed removed and re-added unless it really is new.
            pp, new_edges = haft.port_parent, set(added)
            for m in recipients:
                p = pp[m] if pp[m] != m else links[m][2][0]
                e = (m, p) if m < p else (p, m)
                if e not in new_edges:
                    relisted.add(e)
        events += starmap(EdgeRemoved, sorted(relisted.union(removed)))
        events += starmap(EdgeAdded, sorted(relisted.union(added)))
        report = HealReport(
            deleted=nid,
            was_internal=bool(hafts) or haft is not None,
            edges_added=frozenset(added),
            edges_removed=frozenset(removed),
            events=tuple(events),
            messages_per_node=tally,
            hafts=hafts,
            fresh=fresh,
        )
        if self.strict:
            self.check()
        return report

    def _probe_walk(
        self, nid: int, notified: List[int], tally: Dict[int, int], hops: Set[Edge]
    ) -> None:
        """Synthesize the heal's probe walk over the pre-heal hafts
        (:func:`~repro.fgraph.rtree.probe_walk`, the rules the distributed
        nodes follow): each probe counts for its sender and its image
        edge goes into ``hops``; each resume counts for the coordinator;
        each recipient answers the coordinator once per probe (the
        coordinator's own answers are local)."""
        coordinator = notified[0]
        haft_of, hafts = self._haft_of, self._hafts

        def port_of(e: int) -> Optional[int]:
            hid = haft_of.get(e)
            return None if hid is None else hafts[hid].port_parent[e]

        def links_of(s: int) -> Optional[Links]:
            hid = haft_of.get(s)
            return None if hid is None else hafts[hid].helper_links.get(s)

        probes, resumes, _roots, _ = probe_walk(nid, notified, port_of, links_of)
        for src, dst in probes:
            tally[src] = tally.get(src, 0) + 1
            hops.add((src, dst) if src < dst else (dst, src))
        received = [dst for _, dst in probes]
        for dst in resumes:
            if dst != coordinator:
                tally[coordinator] = tally.get(coordinator, 0) + 1
                received.append(dst)
        for dst in received:
            if dst != coordinator:
                tally[dst] = tally.get(dst, 0) + 1

    def _heal(
        self, nid: int
    ) -> Tuple[int, int, Optional[ReconstructionTree], Journal, List[Edge], List[Edge]]:
        """The structural half of a deletion, O(log L + degree) amortized:
        remove ``nid`` from its haft, merge the hafts of its surviving
        direct neighbors with one fresh leaf per portless one, and swap
        the changed helpers' links in the image.

        Returns how many hafts merged (the victim's own included) and how
        many fresh leaves joined them, the merged haft (None if the
        region dissolved), the changed helpers' old links (sorted by
        simulator; ``None``: no helper before), and the edges removed
        from and added to the image.
        """
        direct_alive = sorted(u for u in self._ideal[nid] if u in self._alive)
        haft_of = self._haft_of
        popped = {
            h: self._hafts.pop(h)
            for h in {haft_of[m] for m in (nid, *direct_alive) if m in haft_of}
        }
        journal: Journal = {}
        own = haft_of.pop(nid, None)
        if own is not None:
            popped[own].remove(nid, journal)
        fresh = [u for u in direct_alive if u not in haft_of]
        haft: Optional[ReconstructionTree] = ReconstructionTree.merge(
            popped.values(), fresh, journal
        )
        if len(haft.members) >= 2:
            hid = next((h for h, t in popped.items() if t is haft), None)
            if hid is None:
                hid, self._next_haft = self._next_haft, self._next_haft + 1
            self._hafts[hid] = haft
            for t in popped.values():
                if t is not haft:
                    haft_of.update(dict.fromkeys(t.members, hid))
            haft_of.update(dict.fromkeys(fresh, hid))
        else:  # 0 or 1 members: the region dissolves (heir promotion)
            for m in haft.members:
                haft_of.pop(m, None)
            haft = None
        links = haft.helper_links if haft else {}
        changed = {
            s: journal[s] for s in sorted(journal) if journal[s] != links.get(s)
        }
        retire = {edge_key(nid, u): 1 for u in direct_alive}
        gain: Dict[Edge, int] = {}
        for s, old in changed.items():
            for acc, helper in ((retire, old), (gain, links.get(s))):
                for e in link_edges(s, helper):
                    acc[e] = acc.get(e, 0) + 1
        removed, added = self._swap_image(nid, retire, gain)
        self._alive.discard(nid)
        return len(popped), len(fresh), haft, changed, removed, added

    def _swap_image(
        self, nid: int, retire: Dict[Edge, int], gain: Dict[Edge, int]
    ) -> Tuple[List[Edge], List[Edge]]:
        """Apply one heal to the image as one multiset diff: ``retire``
        counts what leaves (the victim's direct edges, the changed
        helpers' old links), ``gain`` what arrives (their new links).

        Returns the edges whose count fell to 0 and the edges whose count
        rose from 0.  Keeps the degree-increase histogram and the view's
        degree index: the victim leaves both, each endpoint of an edge
        that appears or vanishes moves by one.
        """
        img, ideal = self._img, self._ideal
        self._inc_shift(len(img[nid]) - len(ideal[nid]), -1)
        removed: List[Edge] = []
        added: List[Edge] = []
        moved: Dict[int, int] = {}
        for e in retire.keys() | gain.keys():
            a, b = e
            c = img[a].get(b, 0)
            count = c - retire.get(e, 0) + gain.get(e, 0)
            if not (c and count):  # the edge vanished or appeared
                (added if count else removed).append(e)
                for x in e:
                    moved[x] = moved.get(x, 0) + (1 if count else -1)
            if count:
                img[a][b] = img[b][a] = count
            else:
                del img[a][b], img[b][a]
        for x, dx in moved.items():
            if dx:
                img.resized(x, len(img[x]) - dx)
                if x != nid:
                    now = len(img[x]) - len(ideal[x])
                    self._inc_shift(now - dx, -1)
                    self._inc_shift(now, +1)
        if img.pop_row(nid):  # pragma: no cover - defensive
            raise InvariantViolationError("fg-image", f"victim {nid} keeps edges")
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
        self._img.put_row(nid, {attach_to: 1})
        self._img[attach_to][nid] = 1
        self._img.resized(attach_to, len(self._img[attach_to]) - 1)
        self._inc_shift(0, +1)  # attach_to gains one ideal and one image edge: net 0
        report = HealReport(
            deleted=-1,
            edges_added=frozenset({edge_key(nid, attach_to)}),
            events=(
                NodeInserted(nid, attach_to),
                EdgeAdded(*edge_key(nid, attach_to)),
            ),
            messages_per_node={nid: 1, attach_to: 1},  # request + ack
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
        # Hafts: pairwise disjoint, canonical over their in-order
        # sequences (shape, injective simulators, the depth bound),
        # membership-indexed.
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
            for s, links in haft.helper_links.items():
                for e in link_edges(s, links):
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
        if self._img.index_is_stale() or self._img.roster_is_stale():
            raise InvariantViolationError("fg-view", "degree index or roster drifted")
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

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ForgivingGraph(n={len(self._alive)}, hafts={len(self._hafts)}, "
            f"rounds={self.rounds})"
        )
