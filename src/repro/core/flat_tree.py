"""The Forgiving Tree healing algorithm, and the engine that runs it on
flat struct-of-arrays storage.

This module holds the package's **one text** of the paper's algorithm
(Algorithm 3.1 with its will / heir / helper rules): ``delete`` /
``insert_batch`` and the ``_fix_node_deletion`` / ``_fix_leaf_deletion`` /
``_find_donor`` / will-maintenance methods of :class:`FlatForgivingTree`.
The text is written against a small storage surface — integer *handles*
compared with ``==`` against ``NIL``, six columns (``ident``, ``nchild``,
``parent``, ``sim``, ``head``, ``role``), the structural methods of
:class:`~repro.core.virtual_tree.TreeText` and the owner-keyed will
operations of :class:`~repro.core.slot_tree.WillText` — and never asks
which storage it is on.  One algorithm, two stores:

* :class:`FlatForgivingTree` (here) runs it over ``FlatCore`` +
  ``FlatWills``: the hot path, what every campaign and benchmark measures;
* :class:`~repro.core.forgiving_tree.ForgivingTree` runs the *same
  function objects* over a :class:`~repro.core.virtual_tree.VirtualTree`
  and an :class:`~repro.core.slot_tree.ObjectWills` — the readable
  object model, kept as the differential oracle for the storage.

The virtual tree and the wills are one text each too: ``FlatCore`` and
``VirtualTree`` both inherit ``TreeText``, ``FlatWills`` and
``ObjectWills`` both inherit ``WillText``, so the engines differ in
storage only, never in a tree rule or a will rule.

The tree-input helpers (:func:`as_adjacency`, :func:`check_is_tree`), the
will-mode constants and the per-round message tally live here too, next
to the algorithm that uses them; import them from :mod:`repro.core`.

What the flat layout buys (the BENCH_churn ladder's flat per-event cost):

* ``alive`` is a zero-copy set view — no O(n) copy per round;
* victim/attachment sampling is O(1) via :meth:`sample_alive`;
* nodes are array rows, so n = 10^6 fits in a few flat arrays instead of
  millions of dict entries and lists — see :meth:`from_parents` for O(n)
  bulk construction without an adjacency dict.

(``degree`` and ``max_degree_increase`` read the tree text's maintained
counters on either store.)  Object views are materialized on demand
(:meth:`will_of`, :meth:`virtual_tree`), which is the thin-view
contract: the test wall, the healer catalog, the harness and the
distributed drivers run against the same API either way.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple, Union

from .errors import (
    DuplicateNodeError,
    InvariantViolationError,
    NodeNotFoundError,
    NotATreeError,
    SimulationOverError,
)
from .events import (
    EdgeAdded,
    EdgeRemoved,
    HealReport,
    HelperCreated,
    HelperDestroyed,
    HelperTransferred,
    LeafWillSent,
    NodeInserted,
    WillPortionSent,
    normalize_wave,
)
from .flat import NIL, AliveView, FlatCore, FlatWills
from .slot_tree import ObjectWills, SlotTree
from .state import HelperState, NodeState
from .virtual_tree import VirtualTree

TreeInput = Union[Mapping[int, Iterable[int]], Iterable[Tuple[int, int]], object]

#: Will-maintenance modes.
WILL_SPLICE = "splice"
WILL_REBUILD = "rebuild"


def as_adjacency(tree: TreeInput) -> Dict[int, List[int]]:
    """Normalize tree input (adjacency mapping, edge iterable or
    ``networkx.Graph``) to a symmetric adjacency dict."""
    if hasattr(tree, "adj") and hasattr(tree, "nodes"):  # networkx.Graph
        return {int(n): sorted(int(m) for m in tree.adj[n]) for n in tree.nodes}
    if isinstance(tree, Mapping):
        adj: Dict[int, Set[int]] = {int(n): set() for n in tree}
        for n, neighbors in tree.items():
            for m in neighbors:
                adj.setdefault(int(n), set()).add(int(m))
                adj.setdefault(int(m), set()).add(int(n))
        return {n: sorted(s) for n, s in adj.items()}
    adj = {}
    for u, v in tree:  # type: ignore[union-attr]
        adj.setdefault(int(u), set()).add(int(v))
        adj.setdefault(int(v), set()).add(int(u))
    return {n: sorted(s) for n, s in adj.items()}


def check_is_tree(adjacency: Mapping[int, Sequence[int]]) -> None:
    """Raise :class:`NotATreeError` unless ``adjacency`` is connected
    with exactly ``n - 1`` edges."""
    n = len(adjacency)
    m = sum(len(v) for v in adjacency.values()) // 2
    if m != n - 1:
        raise NotATreeError(f"{n} nodes but {m} edges")
    start = next(iter(adjacency))
    seen = {start}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for nxt in adjacency[cur]:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    if len(seen) != n:
        raise NotATreeError("graph is not connected")


class _Tally:
    """Per-round synthesized message accounting (mirrors the distributed
    layer's counting rules so Theorem 1.3 can be sanity-checked cheaply)."""

    def __init__(self) -> None:
        self.sent: Dict[int, int] = {}

    def send(self, node: int, count: int = 1) -> None:
        self.sent[node] = self.sent.get(node, 0) + count


class FlatForgivingTree:
    """Self-healing tree on flat storage (see module docstring).

    Drop-in API replacement for :class:`~repro.core.forgiving_tree.ForgivingTree`;
    the constructor signature, the report stream and every public query
    behave identically (``alive`` returns a zero-copy set *view* rather
    than a fresh ``set``, supporting the same set algebra).
    """

    def __init__(
        self,
        tree: TreeInput,
        root: Optional[int] = None,
        branching: int = 2,
        will_mode: str = WILL_SPLICE,
        strict: bool = False,
    ) -> None:
        adjacency = as_adjacency(tree)
        if not adjacency:
            raise NotATreeError("empty tree")
        root_id = min(adjacency) if root is None else root
        if root_id not in adjacency:
            raise NodeNotFoundError(root_id, "root")
        check_is_tree(adjacency)
        self._setup(root_id, branching, will_mode, strict)
        self.original_degree = {
            nid: len(neigh) for nid, neigh in adjacency.items()
        }
        self.initial_nodes: Set[int] = set(adjacency)
        self._ever: Set[int] = set(adjacency)  # ids may never be reused
        n = len(adjacency)
        self._c.reserve(n + max(16, n // 8))
        self._w.reserve(2 * n + 16)
        self._build(adjacency)

    def _setup(self, root_id: int, branching: int, will_mode: str, strict: bool) -> None:
        if will_mode not in (WILL_SPLICE, WILL_REBUILD):
            raise ValueError(f"unknown will_mode {will_mode!r}")
        if branching < 2:
            raise ValueError("branching must be >= 2")
        self.branching = branching
        self.will_mode = will_mode
        self.strict = strict
        self.root_id = root_id
        self._events: List[object] = []
        self._c = FlatCore(recorder=None)  # recorder attaches after the build
        self._w = FlatWills(branching=branching)
        self._tally = _Tally()
        self.rounds = 0

    @classmethod
    def from_parents(
        cls,
        parents: Sequence[int],
        branching: int = 2,
        will_mode: str = WILL_SPLICE,
        strict: bool = False,
    ) -> "FlatForgivingTree":
        """Bulk-build from a parent array (node i's parent; -1 at the root).

        O(n) with no adjacency dict — the constructor the n = 10^6 scaling
        ladder uses.  Produces exactly the structure the adjacency
        constructor would: per-parent children come out id-ascending, the
        BFS attach order matches ``_build``, and the wills are identical.
        """
        n = len(parents)
        if n == 0:
            raise NotATreeError("empty tree")
        root = -1
        count = [0] * n
        for i in range(n):
            p = parents[i]
            if p == -1:
                if root != -1:
                    raise NotATreeError("two roots in parent array")
                root = i
            elif 0 <= p < n:
                count[p] += 1
            else:
                raise NodeNotFoundError(p, "parent array")
        if root == -1:
            raise NotATreeError("no root in parent array")

        # Counting sort children by parent; filling in ascending child id
        # leaves each parent's children sorted ascending (Algorithm 3.5's
        # sort for free).
        offset = [0] * (n + 1)
        for i in range(n):
            offset[i + 1] = offset[i] + count[i]
        cursor = list(offset[:n])
        childarr = [0] * (n - 1) if n > 1 else []
        for i in range(n):
            p = parents[i]
            if p != -1:
                childarr[cursor[p]] = i
                cursor[p] += 1

        self = cls.__new__(cls)
        self._setup(root, branching, will_mode, strict)
        self.original_degree = {
            i: count[i] + (0 if i == root else 1) for i in range(n)
        }
        self.initial_nodes = set(range(n))
        self._ever = set(range(n))

        c, w = self._c, self._w
        c.reserve(n + max(16, n // 8))
        w.reserve(2 * n + 16)
        for i in range(n):
            c.add_real(i, original_degree=self.original_degree[i])
        c.set_root(c.real(root))
        queue = deque([root])
        while queue:
            nid = queue.popleft()
            parent_slot = c.real(nid)
            kids = childarr[offset[nid] : offset[nid + 1]]
            for kid in kids:
                c.attach(c.real(kid), parent_slot)
                queue.append(kid)
            w.build(nid, kids)
        # cycles unreachable from the root would leave nodes unattached
        for i in range(n):
            if i != root and c.parent[c.real(i)] == NIL:
                raise NotATreeError("parent array contains a cycle")
        c.recorder = self._events.append
        return self

    # ------------------------------------------------------------------
    # checkpointing (the soak service's snapshot surface)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Dict[str, object]:
        """Full engine state between events, checkpoint-codec ready.

        Taken *between* healing rounds (the per-event scratch —
        ``_events``, ``_tally`` — is reset at the top of every round, so
        it never needs to travel).  Everything whose *order* steers
        future heals serializes order-preserving through the core/wills
        snapshots; the engine-level id sets are membership-only and come
        out sorted.  :meth:`restore` inverts this exactly: a restored
        engine replays any event sequence to bit-identical
        :class:`HealReport` streams (asserted in ``tests/test_soak.py``).
        """
        from array import array

        od = self.original_degree
        return {
            "meta": {
                "branching": self.branching,
                "will_mode": self.will_mode,
                "strict": int(self.strict),
                "root_id": self.root_id,
                "rounds": self.rounds,
            },
            "core": self._c.snapshot_state(),
            "wills": self._w.snapshot_state(),
            "arrays": {
                "origdeg_k": array("q", od.keys()),
                "origdeg_v": array("q", od.values()),
                "initial": array("q", sorted(self.initial_nodes)),
                "ever": array("q", sorted(self._ever)),
            },
        }

    @classmethod
    def restore(cls, state: Dict[str, object]) -> "FlatForgivingTree":
        """Rebuild an engine from :meth:`snapshot_state` output."""
        meta = state["meta"]
        arrays = state["arrays"]
        self = cls.__new__(cls)
        self._setup(
            int(meta["root_id"]),
            int(meta["branching"]),
            str(meta["will_mode"]),
            bool(meta["strict"]),
        )
        self.rounds = int(meta["rounds"])
        self._c = FlatCore.restore_state(state["core"])
        self._w = FlatWills.restore_state(state["wills"])
        self.original_degree = dict(
            zip(arrays["origdeg_k"], arrays["origdeg_v"])
        )
        self.initial_nodes = set(arrays["initial"])
        self._ever = set(arrays["ever"])
        self._c.recorder = self._events.append
        return self

    def to_object_engine(self) -> "ForgivingTree":
        """Materialize an object :class:`ForgivingTree` in the same state.

        The differential cross-validation oracle: the soak service
        restores a checkpoint, implants this object engine next to the
        flat one, and replays a window of events through both — the two
        report streams must match bit for bit before the soak continues
        (the same parity the ``tests/test_flatcore.py`` wall asserts from
        round zero, applied from an arbitrary mid-campaign state).  Both
        engines run this module's algorithm text, so the oracle differs
        in *storage*: it catches a slot, free-list, counter or will-arena
        fault in the restored arrays, not a wrong healing rule.
        """
        from .forgiving_tree import ForgivingTree

        obj = ForgivingTree.__new__(ForgivingTree)
        obj.branching = self.branching
        obj.will_mode = self.will_mode
        obj.strict = self.strict
        obj.root_id = self.root_id
        obj._events = []
        obj._c = VirtualTree.adopt(self._c)
        obj._c.recorder = obj._events.append
        obj._w = ObjectWills(self.branching)
        for owner in self._w._root:
            obj._w.adopt(self._w, owner)
        obj.original_degree = dict(self.original_degree)
        obj.initial_nodes = set(self.initial_nodes)
        obj._ever = set(self._ever)
        obj._tally = _Tally()
        obj.rounds = self.rounds
        return obj

    def _build(self, adjacency: Mapping[int, Sequence[int]]) -> None:
        c, w = self._c, self._w
        for nid in adjacency:
            c.add_real(nid, original_degree=self.original_degree[nid])
        c.set_root(c.real(self.root_id))
        seen = {self.root_id}
        queue = deque([self.root_id])
        while queue:
            nid = queue.popleft()
            parent_slot = c.real(nid)
            kids = sorted(k for k in adjacency[nid] if k not in seen)
            for kid in kids:
                seen.add(kid)
                c.attach(c.real(kid), parent_slot)
                queue.append(kid)
            w.build(nid, kids)
        c.recorder = self._events.append

    # ------------------------------------------------------------------
    # public queries
    # ------------------------------------------------------------------
    @property
    def alive(self) -> AliveView:
        """Ids of surviving nodes (zero-copy live set view)."""
        return AliveView(self._c._reals)

    def __len__(self) -> int:
        return len(self._c)

    def __contains__(self, nid: int) -> bool:
        return nid in self._c

    def adjacency(self) -> Dict[int, Set[int]]:
        """Current healed overlay (image graph) adjacency."""
        return self._c.image_adjacency()

    def edges(self) -> Set[Tuple[int, int]]:
        """Current healed overlay edges (canonical pairs)."""
        return self._c.image_edges()

    def degree(self, nid: int) -> int:
        """Current degree of ``nid`` in the healed overlay — O(1)."""
        return self._c.image_degree(nid)

    def degree_increase(self, nid: int) -> int:
        """Current degree minus original degree (Theorem 1.1 quantity) —
        the maintained counter ``check()`` holds to ``original_degree``."""
        return self._c.degree_increase(nid)

    def max_degree_increase(self) -> int:
        """``max_v degree(v, G_t) - degree(v, G_0)`` over survivors — O(1)."""
        return self._c.max_degree_increase()

    def sample_alive(self, rng) -> int:
        """Uniform surviving node id — O(1) on the flat store (ladder-scale
        victim picks); the object store answers with a sorted draw."""
        return self._c.sample_alive(rng)

    def state_of(self, nid: int) -> NodeState:
        """Wait/Ready/Deployed snapshot for ``nid`` (Figure 3)."""
        if nid not in self._c:
            raise NodeNotFoundError(nid, "state_of")
        role = self._c.role_of(nid)
        if role == NIL:
            return NodeState(nid, HelperState.WAIT, False, False, 0)
        nkids = self._c.nchild[role]
        if nkids == 1:
            return NodeState(nid, HelperState.READY, True, True, 1)
        return NodeState(nid, HelperState.DEPLOYED, True, False, nkids)

    def will_of(self, nid: int) -> SlotTree:
        """A copy of ``nid``'s current will blueprint (object view)."""
        return ObjectWills(self.branching).adopt(self._w, nid)

    def heir_of(self, nid: int) -> Optional[int]:
        """Current heir designated by ``nid`` (None for tree leaves)."""
        return self._w.heir(nid)

    def virtual_tree(self) -> VirtualTree:
        """An object :class:`VirtualTree` copy of the flat store (same
        shape, hids, sims, image and degree counters).  Read it, do not
        mutate it."""
        return VirtualTree.adopt(self._c)

    def render(self) -> str:
        """ASCII view of the virtual tree (helpers bracketed)."""
        return self._c.render()

    def check(self) -> None:
        """Validate every invariant of the structure; raise on violation:
        the tree text's check on this engine's own store (structure,
        image, degree counters, the store's links), the degree baselines,
        and the wills."""
        c = self._c
        c.check(branching=self.branching)
        for nid, x in c._reals.items():
            if c.inc[x] != c.imgdeg[x] - self.original_degree[nid]:
                raise InvariantViolationError(
                    "vt-origdeg", f"node {nid}: inc diverged from original_degree"
                )
        self._check_wills()

    def _check_wills(self) -> None:
        """Every will is valid, its slots are exactly its owner's
        children's stand-ins, and (binary case) the ready-heir slot /
        plain-child role invariants I3 / I4 hold.  Read through the
        storage surface only, so both engines run this one check."""
        c, w = self._c, self._w
        w.check_all()
        for nid in w._root:
            real = c.real(nid)
            stand_ins = {c.owner(child) for child in c.children(real)}
            will_slots = set(w.stand_ins(nid))
            if stand_ins != will_slots:
                raise InvariantViolationError(
                    "will-slots",
                    f"node {nid}: will {sorted(will_slots)} vs VT {sorted(stand_ins)}",
                )
            for child in c.children(real):
                if c.is_helper(child):
                    if self.branching == 2 and c.nchild[child] != 1:
                        raise InvariantViolationError(
                            "I3-ready-heir-slot",
                            f"helper slot under {nid} has {c.nchild[child]} children",
                        )
                else:
                    role = c.role_of(c.ident[child])
                    if (
                        self.branching == 2
                        and role != NIL
                        and not (c.nchild[role] == 1 and c.head[role] == child)
                    ):
                        raise InvariantViolationError(
                            "I4-plain-child-role",
                            f"real child {c.ident[child]} of {nid} holds a non-vacuous role",
                        )

    # ------------------------------------------------------------------
    # the healing entry point
    # ------------------------------------------------------------------
    def delete(self, nid: int) -> HealReport:
        """Adversary deletes ``nid``; heal and report (Algorithm 3.1)."""
        c = self._c
        if not c._reals:
            raise SimulationOverError("all nodes already deleted")
        real = c.real(nid)
        c.begin_event()
        self._events = []
        c.recorder = self._events.append
        self._tally = _Tally()

        was_internal = c.nchild[real] > 0
        if was_internal:
            self._fix_node_deletion(real)
        else:
            self._fix_leaf_deletion(real)
        self.rounds += 1

        added = frozenset(e.key() for e in self._events if isinstance(e, EdgeAdded))
        removed = frozenset(e.key() for e in self._events if isinstance(e, EdgeRemoved))
        report = HealReport(
            deleted=nid,
            was_internal=was_internal,
            edges_added=added - removed,
            edges_removed=removed - added,
            events=tuple(self._events),
            messages_per_node=dict(self._tally.sent),
        )
        if self.strict:
            self.check()
        return report

    # ------------------------------------------------------------------
    # the insertion entry point (churn model, after "The Forgiving Graph")
    # ------------------------------------------------------------------
    def insert(self, nid: int, attach_to: int) -> HealReport:
        """A new node joins the network, attached to live ``attach_to``.

        The joiner becomes a real leaf child of the attachment point's
        real position and a fresh slot of its will (see
        :meth:`WillText.add` for the placement rule): reconstruction
        trees deploy over it like over any original child, so the
        Theorem 1 degree/diameter machinery is preserved.  Following the
        Forgiving Graph's *ideal graph* convention, the demanded edge
        raises both endpoints' baseline degrees — degree *increase*
        keeps measuring only heal-induced edges.

        Node ids are never reused: inserting an id that ever existed
        raises :class:`DuplicateNodeError`.

        The synthesized message tally mirrors the distributed INSERT
        handshake exactly (request, optional leaf-will retraction, ack,
        O(1) will-portion refreshes, the joiner's leaf-will deposit) so
        the two runtimes can be cross-checked per insertion.  A single
        insert *is* a batch wave of one — see :meth:`insert_batch` for
        the one shared implementation of the join choreography.
        """
        return self.insert_batch([(nid, attach_to)])

    def insert_batch(self, joiners: Iterable[Tuple[int, int]]) -> HealReport:
        """A wave of nodes joins in one round, amortizing will rebuilds.

        ``joiners`` is an ordered sequence of ``(nid, attach_to)`` pairs.
        Every joiner is placed by exactly the same rule as :meth:`insert`
        (so the resulting structure is identical to applying the wave
        sequentially), but will maintenance is amortized per *attachment
        point*: the portions an attachment point's will must retransmit
        are computed once for the whole wave — one recomputation pass per
        touched stand-in, not one per joiner (:meth:`WillText.add_batch`).
        The synthesized message tally mirrors the distributed
        ``InsertBatch`` handshake exactly, per node.

        Wave semantics: attachment points must be alive *before* the wave
        (a joiner cannot attach to another joiner of the same wave), and
        ids are never reused.  The wave counts as a single round.
        """
        c, w = self._c, self._w
        wave = normalize_wave(joiners, known_ids=self._ever, alive=c)

        c.begin_event()
        self._events = []
        c.recorder = self._events.append
        self._tally = _Tally()

        groups: Dict[int, List[int]] = {}
        for nid, attach_to in wave:
            groups.setdefault(attach_to, []).append(nid)

        for attach_to, group in groups.items():
            parent = c.real(attach_to)
            for nid in group:
                self._tally.send(nid, 1)  # join request to the attachment point
            if c.nchild[parent] == 0 and self._leaf_will_holder(parent) is not None:
                # The attachment point stops being a tree leaf: it
                # retracts its deposited leaf will (once per wave).
                self._tally.send(attach_to, 1)
            for nid in group:
                self._events.append(NodeInserted(nid, attach_to))
                node = c.add_real(nid, original_degree=1)
                c.attach(node, parent)
                self._ever.add(nid)
                w.build(nid, [])
                self._tally.send(attach_to, 1)  # join ack (parent-link handshake)
                self.original_degree[nid] = 1
                self.original_degree[attach_to] += 1
                c.bump_original_degree(attach_to)
            delta = w.add_batch(attach_to, group)
            # One portion pass for the whole group: the union of touched
            # slots, plus the heir and the SubRT root (their portions
            # embed cross-refs) — each retransmitted exactly once.
            targets = set(delta.touched)
            heir = w.heir(attach_to)
            if heir is not None:
                targets.add(heir)
            targets.add(w.root_sim(attach_to))
            for t in sorted(s for s in targets if w.contains(attach_to, s)):
                self._events.append(WillPortionSent(attach_to, t))
                self._tally.send(attach_to, 1)
            for nid in group:
                # Each joiner is a tree leaf: it deposits its leaf will.
                self._events.append(LeafWillSent(nid, attach_to))
                self._tally.send(nid, 1)
        self.rounds += 1

        added = frozenset(e.key() for e in self._events if isinstance(e, EdgeAdded))
        report = HealReport(
            deleted=-1,
            was_internal=False,
            edges_added=added,
            edges_removed=frozenset(),
            events=tuple(self._events),
            messages_per_node=dict(self._tally.sent),
            inserted=wave[0][0] if len(wave) == 1 else None,
            attached_to=wave[0][1] if len(wave) == 1 else None,
            inserted_batch=tuple(wave),
        )
        if self.strict:
            self.check()
        return report

    def _leaf_will_holder(self, real: int) -> Optional[int]:
        """Where a tree leaf's leaf will is deposited (None: nowhere).

        Mirrors the distributed holder rule: the owner of the nearest
        ancestor position answering as a *different* node, falling back
        to a surviving sibling under the node's own root helper.
        """
        c = self._c
        nid = c.ident[real]
        pos = c.parent[real]
        while pos != NIL and c.owner(pos) == nid:
            pos = c.parent[pos]
        if pos != NIL:
            return c.owner(pos)
        role = c.role_of(nid)
        if role != NIL:
            for child in c.children(role):
                if c.owner(child) != nid:
                    return c.owner(child)
        return None

    # ------------------------------------------------------------------
    # FixNodeDeletion (Algorithm 3.3 + makeRT 3.8 + MakeHelper 3.9)
    # ------------------------------------------------------------------
    def _fix_node_deletion(self, real: int) -> None:
        c, w = self._c, self._w
        v = c.ident[real]
        # Snapshot the will before discarding it: a store may free the
        # will's positions on discard, and the plan is read to the end.
        will_stand_ins = w.stand_ins(v)
        specs = w.internal_specs(v)
        heir = w.heir(v)
        will_root_sim = w.root_sim(v) if will_stand_ins else None
        w.discard(v)

        # A vacuous ready heir directly above v (its only child is v itself)
        # is bookkeeping fiction equivalent to holding no role: drop it.
        role = c.role_of(v)
        if role != NIL and c.nchild[role] == 1 and c.head[role] == real:
            self._record_destroy(role)
            c.splice(role)
            role = NIL

        parent_pos = c.parent[real]

        # --- anchor resolution (makeRT): bypass ready-heir slots ---------
        anchors: Dict[int, int] = {}
        for child in c.children(real):
            stand_in = c.owner(child)
            if c.is_real(child):
                child_role = c.role_of(c.ident[child])
                if child_role != NIL and self.branching == 2:
                    # The binary protocol never reaches this (invariant I4).
                    raise InvariantViolationError(
                        "I4-plain-child-role",
                        f"child {c.ident[child]} of dying {v} holds a role",
                    )
                c.detach(child)
                anchors[stand_in] = child
            elif c.nchild[child] == 1:
                sub = c.head[child]
                c.detach(sub)
                c.detach(child)
                self._record_destroy(child)
                c.destroy_helper(child)  # frees its simulator (= stand_in)
                anchors[stand_in] = sub
                self._tally.send(stand_in, 2)  # bypass brokerage intros
            else:
                # Generalized-b only: a wide helper slot stays in place as
                # the anchor; its simulator remains busy simulating it and
                # is excluded from new duties by ``resolve_sim`` below.
                if self.branching == 2:
                    raise InvariantViolationError(
                        "I3-ready-heir-slot",
                        f"slot helper under dying {v} has {c.nchild[child]} children",
                    )
                c.detach(child)
                anchors[stand_in] = child
        if set(anchors) != set(will_stand_ins):
            raise InvariantViolationError(
                "will-slots",
                f"dying {v}: anchors {sorted(anchors)} vs will {sorted(will_stand_ins)}",
            )

        # Donors must avoid the dying node, the stand-ins with *pending
        # duties* in this deployment (the planned internal simulators and
        # the heir — other stand-ins are fair game), and — when the parent
        # is real — the parent and its stand-ins (a will may never list
        # its owner or a duplicate).
        assert heir is not None
        base_exclude = {v, heir} | {spec.sim for spec in specs}
        collision_set: Set[int] = set()
        if parent_pos != NIL and c.is_real(parent_pos):
            parent_nid = c.ident[parent_pos]
            collision_set.add(parent_nid)
            if w.has(parent_nid):
                collision_set |= set(w.stand_ins(parent_nid)) - {v}
            base_exclude |= collision_set

        # Helpers that must survive donor stealing while this repair runs.
        pinned = tuple(
            x
            for x in (parent_pos, role, *anchors.values())
            if x != NIL and c.is_helper(x)
        )

        # Bypassing slots may have destroyed v's own role (generalized-b:
        # a donor grant can make v simulate one of its own slot helpers).
        if role != NIL and c.role_of(v) == NIL:
            role = NIL
        # A wide slot still simulated by the dying node must move first.
        if (
            self.branching > 2
            and role != NIL
            and any(role == a for a in anchors.values())
        ):
            try:
                donor: Optional[int] = self._find_donor(
                    real, exclude=set(base_exclude), pinned=pinned
                )
            except InvariantViolationError as exc:
                if exc.invariant != "donor" or c.nchild[role] != 1:
                    raise
                # Simulator exhaustion: a one-child anchor helper can be
                # dropped in place, its child becoming the anchor.
                sub = c.head[role]
                c.detach(sub)
                for s, a in list(anchors.items()):
                    if a == role:
                        anchors[s] = sub
                self._record_destroy(role)
                c.destroy_helper(role)
                donor = None
            if donor is not None:
                old = c.transfer_role(role, donor)
                self._events.append(HelperTransferred(c.ident[role], old, donor))
                self._tally.send(donor, c.nchild[role] + 1)
            role = NIL

        # --- duty-sim resolution ------------------------------------------
        # The will plans each helper position's simulator.  In the binary
        # protocol every planned stand-in is guaranteed free; the
        # generalized tree substitutes a donor at deployment time when a
        # planned stand-in is still simulating elsewhere.
        used_donors: Set[int] = set()

        def steal_from_anchors(extra: Set[int] = frozenset()) -> Optional[int]:
            """Last-resort simulator source: a one-child helper anchor can
            be dropped in place (its child becomes the anchor), freeing its
            simulator.  Keeps the anchors map coherent."""
            for s in sorted(anchors):
                a = anchors[s]
                if (
                    c.is_helper(a)
                    and c.nchild[a] == 1
                    and c.sim[a] not in base_exclude
                    and c.sim[a] not in used_donors
                    and c.sim[a] not in extra
                ):
                    sub = c.head[a]
                    c.detach(sub)
                    anchors[s] = sub
                    freed = c.sim[a]
                    self._record_destroy(a)
                    c.destroy_helper(a)
                    self._tally.send(freed, 2)
                    return freed
            return None

        def find_duty_donor() -> int:
            try:
                return self._find_donor(
                    real, exclude=base_exclude | used_donors, pinned=pinned
                )
            except InvariantViolationError as exc:
                if exc.invariant != "donor":
                    raise
                stolen = steal_from_anchors()
                if stolen is None:
                    raise
                return stolen

        def rebind_parent() -> None:
            nonlocal parent_pos, pinned
            parent_pos = c.parent[real]
            pinned = tuple(
                x
                for x in (parent_pos, role, *anchors.values())
                if x != NIL and c.is_helper(x)
            )

        def free_busy_sim(planned: int) -> bool:
            """Endgame fallback: ``planned`` is stuck simulating a
            redundant one-child helper — bypass that helper so the
            planned simulator can take up its own duty.  Donor stealing
            can never free ``planned`` itself (pending duties are
            excluded from every donor search), so without this move the
            rebuild-mode b > 2 endgame exhausts donors when the only
            busy helper left is the one directly above the dying node
            (its single child being the dying node itself)."""
            busy = c.role_of(planned)
            if busy == NIL or c.nchild[busy] != 1:
                return False
            if busy == parent_pos:
                if self._splice_helper(busy) is None:
                    return False
                rebind_parent()
                return True
            for s in sorted(anchors):
                if anchors[s] == busy:
                    sub = c.head[busy]
                    c.detach(sub)
                    anchors[s] = sub
                    self._record_destroy(busy)
                    c.destroy_helper(busy)
                    self._tally.send(planned, 2)
                    return True
            if busy in pinned:
                return False
            return self._splice_helper(busy) is not None

        def resolve_sim(planned: int) -> int:
            if (
                c.role_of(planned) == NIL
                and planned not in used_donors
                and planned not in collision_set
            ):
                return planned
            if self.branching == 2:
                raise InvariantViolationError(
                    "I4-plain-child-role", f"planned sim {planned} is busy"
                )
            if (
                planned not in used_donors
                and planned not in collision_set
                and free_busy_sim(planned)
            ):
                return planned
            donor = find_duty_donor()
            used_donors.add(donor)
            self._tally.send(planned, 1)  # redirects its duty to the donor
            return donor

        # --- build and wire the SubRT helpers (GenerateSubRT shape) ------
        new_helpers: Dict[int, int] = {}
        for spec in specs:
            sim = resolve_sim(spec.sim)
            helper = c.new_helper(sim)
            new_helpers[spec.sim] = helper  # keyed by *planned* sim
            self._events.append(HelperCreated(sim, c.ident[helper], ready_heir=False))
            self._tally.send(sim, 1)  # claims its role to neighbors
        for spec in specs:
            helper = new_helpers[spec.sim]
            for ref in spec.children:
                kind, key = ref
                node = anchors[key] if kind == "leaf" else new_helpers[key]
                c.attach(node, helper)

        def subrt_root() -> int:
            # Late-bound on purpose: donor stealing (steal_from_anchors)
            # may still replace a one-child anchor by its child — and
            # destroy the anchor helper — between here and the top
            # attachment.  A snapshot taken now could re-attach that
            # destroyed helper.
            return (
                new_helpers[will_root_sim]
                if new_helpers
                else anchors[will_stand_ins[0]]
            )

        # --- top attachment -----------------------------------------------
        if role != NIL:
            # v had helper duties: its heir inherits them, and the root of
            # SubRT(v) takes v's place below v's parent (MakeWill lines 9-12).
            role_exclusions = self._donor_exclusions(role)
            inheritor: Optional[int] = None
            if (
                c.role_of(heir) == NIL
                and heir not in used_donors
                and heir not in role_exclusions
            ):
                inheritor = heir
            elif (
                self.branching > 2
                and heir not in used_donors
                and heir not in role_exclusions
                and free_busy_sim(heir)
            ):
                inheritor = heir
            else:
                if self.branching == 2:
                    raise InvariantViolationError(
                        "I4-plain-child-role", f"heir {heir} cannot inherit from {v}"
                    )
                try:
                    inheritor = self._find_donor(
                        real,
                        exclude=base_exclude | used_donors | role_exclusions,
                        pinned=pinned,
                    )
                except InvariantViolationError as exc:
                    if exc.invariant != "donor":
                        raise
                    inheritor = steal_from_anchors(extra=role_exclusions)
                    # Simulator exhaustion (endgame): a one-child role can
                    # simply be short-circuited instead of inherited.
                    if inheritor is None:
                        if (
                            c.nchild[role] == 1
                            and self._splice_helper(role) is not None
                        ):
                            role = NIL
                        else:
                            raise
                if inheritor is not None:
                    used_donors.add(inheritor)
        if role != NIL:
            assert inheritor is not None
            old_sim = c.transfer_role(role, inheritor)
            self._events.append(HelperTransferred(c.ident[role], old_sim, inheritor))
            self._tally.send(inheritor, c.nchild[role] + 1)  # introduces itself
            rv = subrt_root()
            if parent_pos == NIL:
                # Generalized-b only: a donor-granted role on the root.
                if self.branching == 2:
                    raise InvariantViolationError("root-role", "root held a helper role")
                c.set_root(NIL)
                c.set_root(rv)
            else:
                if c.is_real(parent_pos) and self.branching == 2:
                    raise InvariantViolationError(
                        "I4-parent-kind", f"dying {v} holds a role but has a real parent"
                    )
                c.replace_child(parent_pos, real, rv)
                if c.is_real(parent_pos):
                    self._replace_slot_standin(
                        parent_pos, v, rv, exclude=base_exclude | used_donors
                    )
            # If the inherited helper occupies a slot in a real parent's
            # will, the stand-in there must follow the new simulator.
            self._notify_standin_change(role, v, inheritor)
        if role == NIL:
            # v had no helper duties: the heir interposes a fresh one-child
            # helper — the ready heir (MakeWill lines 13-16).
            try:
                ready_sim: Optional[int] = resolve_sim(heir)
            except InvariantViolationError as exc:
                if exc.invariant != "donor" or self.branching == 2:
                    raise
                # Simulator exhaustion (endgame): the ready heir is a
                # structural optimization, not a necessity — skip it and
                # attach the SubRT root directly.
                ready_sim = None
            rv = subrt_root()
            if ready_sim is None:
                if parent_pos == NIL:
                    c.set_root(NIL)
                    c.set_root(rv)
                else:
                    c.replace_child(parent_pos, real, rv)
                    if c.is_real(parent_pos):
                        self._replace_slot_standin(
                            parent_pos, v, rv, exclude=base_exclude | used_donors
                        )
                    else:
                        self._tally.send(c.owner(parent_pos), 1)
            else:
                ready = c.new_helper(ready_sim)
                self._events.append(
                    HelperCreated(ready_sim, c.ident[ready], ready_heir=True)
                )
                self._tally.send(ready_sim, 2)
                if parent_pos == NIL:
                    # v was the root: the ready heir becomes the virtual root.
                    c.set_root(NIL)  # real is still registered; re-root below
                    c.attach(rv, ready)
                    c.set_root(ready)
                else:
                    c.replace_child(parent_pos, real, ready)
                    c.attach(rv, ready)
                # The parent must treat the heir as its child (Algorithm 3.3
                # lines 3-6: "hparent(h) replaces v by h in SubRT(...)").
                if parent_pos != NIL and c.is_real(parent_pos):
                    self._replace_slot_standin(
                        parent_pos, v, ready, exclude=base_exclude | used_donors
                    )
                elif parent_pos != NIL:
                    # Helper parent: its simulator's hchildren field changes.
                    self._tally.send(c.owner(parent_pos), 1)

        c.remove_real(real)
        self._refresh_leaf_wills(anchors)

    # ------------------------------------------------------------------
    # FixLeafDeletion (Algorithm 3.4 + MakeLeafWill 3.7)
    # ------------------------------------------------------------------
    def _fix_leaf_deletion(self, real: int) -> None:
        c, w = self._c, self._w
        v = c.ident[real]
        if w.has(v):
            w.discard(v)
        role = c.role_of(v)
        parent_pos = c.parent[real]

        if parent_pos == NIL:
            # v is the virtual root and childless: the network empties.
            if role != NIL:
                raise InvariantViolationError("root-role", "childless root with a role")
            c.remove_real(real)
            return

        c.detach(real)

        if role == NIL:
            self._absorb_child_loss(parent_pos, lost_stand_in=v)
        elif role == parent_pos:
            # v's own helper sits directly above it (Algorithm 3.7's special
            # case).  Image-equivalent resolution: short-circuit it.
            remaining = c.nchild[role]
            if remaining == 0:
                # vacuous ready heir: vanish and cascade the slot loss.
                grand = c.detach(role)
                self._record_destroy(role)
                c.destroy_helper(role)
                if grand != NIL:
                    self._absorb_child_loss(grand, lost_stand_in=v)
            else:
                spliced = None
                if remaining == 1:
                    spliced = self._splice_helper(role)
                if spliced is None:
                    # branching > 2 only: the helper keeps its children but
                    # its simulator died; find a donor to take it over.
                    donor = self._find_donor(
                        role,
                        exclude={v} | self._donor_exclusions(role),
                        pinned=(role, parent_pos),
                    )
                    old = c.transfer_role(role, donor)
                    self._events.append(HelperTransferred(c.ident[role], old, donor))
                    self._tally.send(donor, c.nchild[role] + 1)
                    self._notify_standin_change(role, old, donor)
        else:
            # Non-adjacent helper duties: the leaf will (Algorithm 3.7) hands
            # them to the parent, who short-circuits its own helper first
            # (Algorithm 3.4 lines 7-16).
            freed: Optional[int] = None
            cascade_to = NIL
            cascade_standin = 0
            if c.is_real(parent_pos):
                if self.branching == 2:
                    raise InvariantViolationError(
                        "I4-leaf-parent",
                        f"leaf {v} holds a non-adjacent role under a real parent",
                    )
                # Generalized-b: a busy plain child died; the parent's will
                # just loses the slot and the role finds a donor below.
                self._absorb_child_loss(parent_pos, lost_stand_in=v)
            else:
                remaining = c.nchild[parent_pos]
                if remaining == 0:
                    cascade_to = c.detach(parent_pos)
                    freed = c.sim[parent_pos]
                    cascade_standin = freed
                    self._record_destroy(parent_pos)
                    c.destroy_helper(parent_pos)
                    if cascade_to != NIL and c.is_real(cascade_to):
                        # A real grandparent's slot loss is pure will
                        # bookkeeping (no splicing), so absorb it now:
                        # deferring would leave the dissolved slot's
                        # stand-in — the freed simulator itself — in the
                        # will, and the collision/donor checks below
                        # would reject every live candidate (spurious
                        # donor exhaustion in the b > 2 endgame).
                        self._absorb_child_loss(
                            cascade_to, lost_stand_in=cascade_standin
                        )
                        cascade_to = NIL
                elif remaining == 1:
                    # bypass(z): short-circuit the parent's helper, freeing
                    # its simulator to inherit the leaf will.
                    if self._splice_helper(parent_pos) is not None:
                        freed = c.sim[parent_pos]
            # Does anything real remain below the role?  The dissolved
            # parent helper may have been the role's only child, or —
            # b > 2 endgame — the dying leaf may have been the only real
            # node under a whole chain of one-child helpers hanging off
            # the role.  Either way the remaining subtree routes nothing:
            # it vanishes instead of being inherited, and the role's own
            # slot loss cascades upward (the deferred cascade target, if
            # any, is inside the dissolved subtree and needs no visit).
            doomed: List[int] = []
            stack: List[int] = [role]
            while stack:
                node = stack.pop()
                if c.is_real(node):
                    doomed.clear()
                    break
                doomed.append(node)  # parents precede their children
                stack.extend(c.children(node))
            if doomed:
                sim = c.sim[role]
                grand = c.detach(role)
                for helper in reversed(doomed):  # children first
                    if c.parent[helper] != NIL:
                        c.detach(helper)
                    self._record_destroy(helper)
                    c.destroy_helper(helper)
                c.remove_real(real)
                if grand != NIL:
                    self._absorb_child_loss(grand, lost_stand_in=sim)
                return
            if (
                freed is None
                or freed == v
                or c.role_of(freed) != NIL
                or self._standin_collision(role, freed)
            ):
                freed = self._find_donor(
                    role,
                    exclude={v} | self._donor_exclusions(role),
                    pinned=(role, parent_pos),
                )
            old = c.transfer_role(role, freed)
            self._events.append(HelperTransferred(c.ident[role], old, freed))
            self._tally.send(freed, c.nchild[role] + 1)
            self._notify_standin_change(role, old, freed)
            # Cascade only after the inheritance settled: the cascade may
            # legitimately splice the very helper just inherited.  The
            # donor search above may itself have stolen (spliced) the
            # cascade target to free a simulator — the slot loss is then
            # already absorbed and the helper must not be touched again.
            if (
                not c.is_real(parent_pos)
                and cascade_to != NIL
                and (c.is_real(cascade_to) or c.helper_alive(cascade_to))
            ):
                self._absorb_child_loss(cascade_to, lost_stand_in=cascade_standin)

        c.remove_real(real)

    # ------------------------------------------------------------------
    # cascading slot loss ("short-circuit" of redundant virtual nodes)
    # ------------------------------------------------------------------
    def _absorb_child_loss(self, node: int, lost_stand_in: int) -> None:
        """``node`` lost one child slot entirely.

        Real parents update their wills; helper parents left with a single
        child are redundant and short-circuited; helpers left childless
        vanish and the loss cascades upward.
        """
        c = self._c
        if c.is_real(node):
            self._will_remove(c.ident[node], lost_stand_in)
            return
        remaining = c.nchild[node]
        if remaining == 0:
            grand = c.detach(node)
            sim = c.sim[node]
            self._record_destroy(node)
            c.destroy_helper(node)
            if grand != NIL:
                self._absorb_child_loss(grand, lost_stand_in=sim)
        elif remaining == 1:
            # Helpers never *gain* children, so a helper at one child was at
            # two: it is a redundant virtual node — short-circuit it.
            self._splice_helper(node)
        # else: still >= 2 children: nothing to do.

    # ------------------------------------------------------------------
    # will maintenance
    # ------------------------------------------------------------------
    def _will_remove(self, p: int, stand_in: int) -> None:
        if not self._w.has(p):
            raise KeyError(p)
        if self.will_mode == WILL_SPLICE:
            delta = self._w.remove(p, stand_in)
            for t in delta.touched:
                self._events.append(WillPortionSent(p, t))
                self._tally.send(p, 1)
        else:
            self._rebuild_will(p)
        if self._w.empty(p) and self._c.role_of(p) != NIL:
            # p just became a tree leaf with helper duties: deposit LeafWill.
            self._send_leaf_will(p)

    def _will_replace(self, p: int, old: int, new: int) -> None:
        if not self._w.has(p):
            raise KeyError(p)
        if self.will_mode == WILL_SPLICE:
            delta = self._w.replace(p, old, new)
            for t in delta.touched:
                self._events.append(WillPortionSent(p, t))
                self._tally.send(p, 1)
        else:
            self._rebuild_will(p)

    def _rebuild_will(self, p: int) -> None:
        """Literal Algorithm 3.4 behavior: regenerate and retransmit all."""
        c = self._c
        real = c.real(p)
        stand_ins = [c.owner(child) for child in c.children(real)]
        self._w.discard(p)
        self._w.build(p, stand_ins)
        for s in stand_ins:
            self._events.append(WillPortionSent(p, s))
            self._tally.send(p, 1)

    def _refresh_leaf_wills(self, anchors: Mapping[int, int]) -> None:
        """Children that are tree leaves re-deposit their leaf wills
        (Algorithms 3.3/3.4, trailing loop)."""
        c = self._c
        for stand_in in anchors:
            if stand_in not in c:
                continue
            real = c.real(stand_in)
            if c.nchild[real] == 0 and c.role_of(stand_in) != NIL:
                self._send_leaf_will(stand_in)

    def _send_leaf_will(self, nid: int) -> None:
        c = self._c
        parent = c.parent[c.real(nid)]
        if parent == NIL:
            return
        recipient = c.owner(parent)
        if recipient != nid:
            self._events.append(LeafWillSent(nid, recipient))
            self._tally.send(nid, 1)

    def _replace_slot_standin(
        self, parent: int, old: int, slot_node: int, exclude: Set[int]
    ) -> None:
        """Rename a slot of ``parent``'s will from ``old`` to the owner of
        its new occupant, resolving name collisions at use time.

        Generalized-b only ever needs the resolution: a collision means the
        occupant's owner already answers for another slot of the same will
        (or is the will's owner itself), so either the occupant helper or
        the competing role is re-donated first.
        """
        c, w = self._c, self._w
        parent_nid = c.ident[parent]
        if not w.has(parent_nid):
            return
        new = c.owner(slot_node)
        if new == old:
            return
        collides = new == parent_nid or w.contains(parent_nid, new)
        if collides:
            if self.branching == 2:
                raise InvariantViolationError(
                    "will-slots", f"stand-in collision at {parent_nid}: {new}"
                )
            if c.is_helper(slot_node) and c.sim[slot_node] == new:
                donor = self._find_donor(parent, exclude=exclude | {new, parent_nid})
                old_o = c.transfer_role(slot_node, donor)
                self._events.append(HelperTransferred(c.ident[slot_node], old_o, donor))
                self._tally.send(donor, c.nchild[slot_node] + 1)
                new = donor
            else:
                other = c.role_of(new)
                if other == NIL or c.parent[other] != parent:
                    raise InvariantViolationError(
                        "will-slots",
                        f"unresolvable stand-in collision at {parent_nid}: {new}",
                    )
                donor = self._find_donor(parent, exclude=exclude | {new, parent_nid})
                old_o = c.transfer_role(other, donor)
                self._events.append(HelperTransferred(c.ident[other], old_o, donor))
                self._tally.send(donor, c.nchild[other] + 1)
                self._will_replace(parent_nid, new, donor)
        self._will_replace(parent_nid, old, new)

    def _donor_exclusions(self, helper: int) -> Set[int]:
        """Stand-ins a donor for ``helper`` must avoid: if the helper is a
        will slot of a real parent, renaming the slot's stand-in to an
        existing sibling stand-in would collide — and the will's owner can
        never stand in for its own will."""
        c, w = self._c, self._w
        parent = c.parent[helper]
        if parent != NIL and c.is_real(parent):
            parent_nid = c.ident[parent]
            out = {parent_nid}
            if w.has(parent_nid):
                out |= set(w.stand_ins(parent_nid))
            return out
        return set()

    def _splice_helper(self, helper: int) -> Optional[int]:
        """Short-circuit a one-child helper with full will bookkeeping.

        Returns the moved-up child, or ``None`` when the splice must be
        skipped (generalized-b: the moved-up occupant's owner would collide
        with a sibling stand-in of a real parent's will — the redundant
        helper is then simply kept, which is always legal).
        """
        c, w = self._c, self._w
        moved = c.head[helper]
        parent = c.parent[helper]
        sim = c.sim[helper]
        will_fix: Optional[Tuple[int, int, int]] = None
        if parent != NIL and c.is_real(parent):
            parent_nid = c.ident[parent]
            if w.has(parent_nid) and w.contains(parent_nid, sim):
                new_standin = c.owner(moved)
                if new_standin != sim and (
                    w.contains(parent_nid, new_standin) or new_standin == parent_nid
                ):
                    return None  # collision: keep the redundant helper
                if new_standin != sim:
                    will_fix = (parent_nid, sim, new_standin)
        self._record_destroy(helper)
        c.splice(helper)
        self._tally.send(sim, 2)
        if will_fix is not None:
            self._will_replace(*will_fix)
        return moved

    def _standin_collision(self, helper: int, candidate: int) -> bool:
        """Would renaming ``helper``'s will-slot stand-in to ``candidate``
        collide — with a sibling stand-in, or with the will's own owner?"""
        c, w = self._c, self._w
        parent = c.parent[helper]
        if parent == NIL or not c.is_real(parent):
            return False
        parent_nid = c.ident[parent]
        if candidate == parent_nid:
            return True  # a will may never list its owner as a stand-in
        if not w.has(parent_nid):
            return False
        return w.contains(parent_nid, candidate) and candidate != c.sim[helper]

    def _notify_standin_change(self, helper: int, old: int, new: int) -> None:
        """A helper's simulator changed: if the helper occupies a slot of a
        real parent's will, the will's stand-in must follow (the paper's
        "p detects this and sets its flags accordingly")."""
        c = self._c
        parent = c.parent[helper]
        if parent != NIL and c.is_real(parent):
            parent_nid = c.ident[parent]
            if not self._w.has(parent_nid):
                raise KeyError(parent_nid)
            if self._w.contains(parent_nid, old):
                self._will_replace(parent_nid, old, new)

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def _find_donor(
        self,
        start: int,
        exclude: Set[int],
        pinned: Tuple[int, ...] = (),
    ) -> int:
        """A live real node able to take on helper duties.

        Only the generalized (branching > 2) tree ever needs this — the
        binary protocol's inheritance rules always free the right simulator
        locally, which the tests assert.  Search order:

        1. nearest role-free real by BFS from ``start`` (locality),
        2. any role-free real (global id-ascending scan),
        3. *steal*: splice some one-child helper, hid-ascending — always
           legal, it only shortens paths — and reuse its freed simulator.

        A counting argument makes the chain total: if every live real held
        a role and every helper had >= 2 children, the virtual tree would
        need more edges than a tree can have.
        """
        c = self._c

        queue: deque = deque([start])
        seen: Set[int] = set()
        while queue:
            node = queue.popleft()
            if node in seen:
                continue
            seen.add(node)
            if (
                c.is_real(node)
                and c.ident[node] not in exclude
                and c.role[node] == NIL
            ):
                return c.ident[node]
            if c.parent[node] != NIL:
                queue.append(c.parent[node])
            queue.extend(c.children(node))

        for nid in sorted(c._reals):
            if nid not in exclude and c.role_of(nid) == NIL:
                return nid

        for helper in c.helper_slots():
            if c.nchild[helper] != 1 or c.sim[helper] in exclude:
                continue
            if helper in pinned:
                continue  # load-bearing for the ongoing repair
            parent = c.parent[helper]
            if parent != NIL and c.is_real(parent):
                if not self._w.has(c.ident[parent]):
                    continue  # slot of a node mid-deletion: leave it alone
            sim = c.sim[helper]
            if self._splice_helper(helper) is not None:
                return sim

        raise InvariantViolationError("donor", "no role-free node available")

    def _record_destroy(self, helper: int) -> None:
        self._events.append(
            HelperDestroyed(self._c.sim[helper], self._c.ident[helper])
        )
