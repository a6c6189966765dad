"""Flat struct-of-arrays storage for the Forgiving Tree hot path.

The object core (:mod:`repro.core.virtual_tree`, :mod:`repro.core.slot_tree`)
keeps one Python object per virtual-tree node and per will position.  That is
the right shape for reading the paper but the wrong shape for sustained-churn
campaigns: at n = 10^6 the object graph alone costs gigabytes and every hot
query (``alive``, ``max_degree_increase``, victim sampling) is O(n) per event,
which is where BENCH_churn's superlinear per-event cost came from.

This module stores the same two structures in preallocated parallel arrays
(``array('q')`` — C longs, no per-node objects):

``FlatCore`` — the virtual tree::

    slot:   0    1    2    ...          (int handle, recycled via free list)
    kind  [ R  | R  | H  | ... ]        free / real / helper
    ident [ nid| nid| hid| ... ]        real id or helper id
    sim   [ -1 | -1 | nid| ... ]        simulator (helpers only)
    parent[ .. | .. | .. | ... ]        parent slot or -1
    head/tail/next/prev/nchild          intrusive doubly-linked child lists
    role  [ .. | -1 | -- | ... ]        helper slot simulated by this real
    imgdeg/inc                          image degree & degree increase

``FlatWills`` — every node's will (SubRT blueprint) in one shared arena::

    pos:    0     1     2    ...        (int handle, per-arena free list)
    wkind [ L   | I   | L  | ... ]      free / leaf / internal
    wval  [ s_i | sim | s_i| ... ]      stand-in (leaf) or simulator (internal)
    wparent/whead/wtail/wnext/wprev/wnchild

``FlatWills`` is a store only: the will rules it runs are
:class:`~repro.core.slot_tree.WillText`'s, the same text the object
store :class:`~repro.core.slot_tree.ObjectWills` runs.

Three contracts make the flat layer a drop-in replacement:

* **ids are never reused** at the API boundary: slots recycle, node ids do
  not (``FlatForgivingTree`` keeps the ``_ever`` set exactly like the object
  engine).  Virtual-tree slots freed during an event enter a *limbo* list
  and only rejoin the free list when the next event starts, so within one
  healing round slot equality is object identity — the algorithm's
  ``==`` on handles means the same thing on ints as on the object
  store's node objects, without aliasing.
* **orderings are preserved**: child lists are doubly linked (insert-before
  and positional replace are O(1)), helper iteration is hid-ascending, and
  the wills run the one will text over either store — so event logs,
  message tallies and donor choices are bit-identical to the object engine
  (asserted by the object-vs-flat parity wall in ``tests/test_flatcore.py``).
* **hot queries are O(1)**: ``alive`` is a :class:`AliveView` (a live
  ``collections.abc.Set`` over the id map — no per-event set copy),
  ``max_degree_increase`` reads a maintained degree-increase multiset,
  uniform victim sampling indexes a compact alive list, and per-node image
  degree is a maintained counter instead of an O(m) edge scan.
"""

from __future__ import annotations

from collections.abc import Set as AbstractSet
from array import array
from typing import Callable, Collection, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .errors import (
    DuplicateNodeError,
    EmptyStructureError,
    InvariantViolationError,
    NodeNotFoundError,
)
from .events import EdgeAdded, EdgeRemoved, edge_key
from .slot_tree import NIL, W_FREE, W_INTERNAL, W_LEAF, WillText

#: The 12 parallel columns of :class:`FlatCore`, in serialization order.
CORE_COLUMNS = (
    "kind", "ident", "sim", "parent", "head", "tail",
    "next", "prev", "nchild", "role", "imgdeg", "inc",
)

#: The 8 parallel columns of :class:`FlatWills`, in serialization order.
WILL_COLUMNS = (
    "wkind", "wval", "wparent", "whead",
    "wtail", "wnext", "wprev", "wnchild",
)

#: Virtual-tree slot kinds.
KIND_FREE = 0
KIND_REAL = 1
KIND_HELPER = 2


class AliveView(AbstractSet):
    """Zero-copy live view of the surviving node ids.

    The object engine's ``alive`` property returns ``set(self._reals)`` — an
    O(n) copy per call, paid on every churn event by the harness's liveness
    check and the adversary's victim pick.  This view supports the same set
    algebra (``==``, ``in``, ``<=``, ``|``, ``-``, ``sorted``) through
    :class:`collections.abc.Set` without materializing anything; binary
    operations return plain ``set`` objects.
    """

    __slots__ = ("_reals",)

    def __init__(self, reals: Collection[int]):
        """``reals``: the owner's live container of ids — the flat
        core's ``id -> slot`` dict, the Forgiving Graph's alive set."""
        self._reals = reals

    def __contains__(self, nid: object) -> bool:
        return nid in self._reals

    def __iter__(self) -> Iterator[int]:
        return iter(self._reals)

    def __len__(self) -> int:
        return len(self._reals)

    @classmethod
    def _from_iterable(cls, it) -> set:
        return set(it)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"AliveView({set(self._reals)!r})"


class FlatCore:
    """The virtual tree on parallel arrays (see module docstring).

    Handles are integer *slots*; ``NIL`` (= -1) plays ``None``.  The public
    mutation API mirrors :class:`~repro.core.virtual_tree.VirtualTree`
    operation for operation, including the order of emitted image-edge
    events, so the one healing algorithm text runs over either store.
    """

    def __init__(self, recorder: Optional[Callable[[object], None]] = None):
        self.kind = array("q")
        self.ident = array("q")  # nid for reals, hid for helpers
        self.sim = array("q")  # helpers: simulator nid; reals: NIL
        self.parent = array("q")
        self.head = array("q")  # first child slot
        self.tail = array("q")  # last child slot
        self.next = array("q")  # next sibling slot
        self.prev = array("q")  # previous sibling slot
        self.nchild = array("q")
        self.role = array("q")  # reals: slot of the helper they simulate
        self.imgdeg = array("q")  # reals: degree in the image graph
        self.inc = array("q")  # reals: imgdeg - original degree

        self._reals: Dict[int, int] = {}  # nid -> slot
        self._helpers: Dict[int, int] = {}  # hid -> slot (hid-ascending order)
        self._image: Dict[Tuple[int, int], int] = {}  # canonical edge -> mult
        self._root = NIL
        self._hid_counter = 0
        self.recorder = recorder

        self._free: List[int] = []
        self._limbo: List[int] = []  # freed this event; recycled next event

        # Degree-increase multiset over alive reals: value -> count, plus a
        # lazily-repaired max (values are bounded by branching + 1, so the
        # repair scan is O(#distinct values) and rare).
        self._inc_count: Dict[int, int] = {}
        self._inc_max = 0
        self._inc_dirty = False

        # Compact alive list for O(1) uniform sampling (swap-pop removal).
        self._alive_list: List[int] = []
        self._alive_idx: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # arena management
    # ------------------------------------------------------------------
    def reserve(self, capacity: int) -> None:
        """Preallocate slot capacity (bulk zero-extend, for big builds)."""
        extra = capacity - len(self.kind)
        if extra <= 0:
            return
        zeros = array("q", bytes(8 * extra))
        for arr in (
            self.kind, self.ident, self.sim, self.parent, self.head,
            self.tail, self.next, self.prev, self.nchild, self.role,
            self.imgdeg, self.inc,
        ):
            arr.extend(zeros)
        # Newly minted slots are free, highest last so low slots pop first.
        self._free.extend(range(capacity - 1, len(self.kind) - extra - 1, -1))

    def begin_event(self) -> None:
        """Start a new healing round: recycle the previous round's slots.

        Quarantining frees for one event preserves within-event identity
        semantics (the engine compares slot handles taken at different
        points of one repair).
        """
        if self._limbo:
            self._free.extend(self._limbo)
            self._limbo.clear()

    def _alloc(self) -> int:
        if self._free:
            return self._free.pop()
        slot = len(self.kind)
        for arr in (
            self.kind, self.ident, self.sim, self.parent, self.head,
            self.tail, self.next, self.prev, self.nchild, self.role,
            self.imgdeg, self.inc,
        ):
            arr.append(0)
        return slot

    def _release(self, slot: int) -> None:
        self.kind[slot] = KIND_FREE
        self._limbo.append(slot)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def root(self) -> int:
        return self._root

    def alive_view(self) -> AliveView:
        return AliveView(self._reals)

    def __len__(self) -> int:
        return len(self._reals)

    def __contains__(self, nid: int) -> bool:
        return nid in self._reals

    def real(self, nid: int) -> int:
        try:
            return self._reals[nid]
        except KeyError:
            raise NodeNotFoundError(nid, "virtual tree") from None

    def is_real(self, slot: int) -> bool:
        return self.kind[slot] == KIND_REAL

    def is_helper(self, slot: int) -> bool:
        return self.kind[slot] == KIND_HELPER

    def owner(self, slot: int) -> int:
        """The real node answering for ``slot`` in the image graph."""
        return self.ident[slot] if self.kind[slot] == KIND_REAL else self.sim[slot]

    def role_of(self, nid: int) -> int:
        """Slot of the helper ``nid`` simulates, or NIL."""
        return self.role[self._reals[nid]]

    def helper_slots(self) -> List[int]:
        """All helper slots, hid-ascending (dict order: hids are monotone)."""
        return list(self._helpers.values())

    def helper_alive(self, slot: int) -> bool:
        return (
            self.kind[slot] == KIND_HELPER
            and self._helpers.get(self.ident[slot]) == slot
        )

    def children(self, slot: int) -> List[int]:
        """Child slots in order (a fresh list — safe to mutate under it)."""
        out: List[int] = []
        nxt = self.next
        c = self.head[slot]
        while c != NIL:
            out.append(c)
            c = nxt[c]
        return out

    def sample_alive(self, rng) -> int:
        """Uniform surviving node in O(1) (the ladder's victim picker)."""
        if not self._alive_list:
            raise EmptyStructureError("sample from an empty network")
        return self._alive_list[rng.randrange(len(self._alive_list))]

    # ------------------------------------------------------------------
    # image graph
    # ------------------------------------------------------------------
    def image_adjacency(self) -> Dict[int, Set[int]]:
        adj: Dict[int, Set[int]] = {nid: set() for nid in self._reals}
        for (u, v) in self._image:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def image_edges(self) -> Set[Tuple[int, int]]:
        return set(self._image)

    def image_degree(self, nid: int) -> int:
        if nid not in self._reals:
            raise NodeNotFoundError(nid, "image degree")
        return self.imgdeg[self._reals[nid]]

    def degree_increase(self, nid: int) -> int:
        return self.inc[self._reals[nid]]

    def max_degree_increase(self) -> int:
        """Max degree increase over survivors, O(1) amortized."""
        if not self._inc_count:
            return 0
        if self._inc_dirty:
            self._inc_max = max(self._inc_count)
            self._inc_dirty = False
        return self._inc_max

    def _inc_shift(self, slot: int, delta: int) -> None:
        """Move a live real's degree-increase value in the multiset."""
        old = self.inc[slot]
        new = old + delta
        self.inc[slot] = new
        self._inc_leave(old)
        self._inc_enter(new)

    def _inc_enter(self, val: int) -> None:
        count = self._inc_count
        if val in count:
            count[val] += 1
        elif count:
            count[val] = 1
            if not self._inc_dirty and val > self._inc_max:
                self._inc_max = val
        else:
            count[val] = 1
            self._inc_max = val
            self._inc_dirty = False

    def _inc_leave(self, val: int) -> None:
        count = self._inc_count
        c = count[val] - 1
        if c:
            count[val] = c
        else:
            del count[val]
            if val == self._inc_max:
                self._inc_dirty = True

    def bump_original_degree(self, nid: int) -> None:
        """The ideal-graph baseline of ``nid`` grew by one edge."""
        self._inc_shift(self._reals[nid], -1)

    def _image_add(self, a: int, b: int) -> None:
        u = self.ident[a] if self.kind[a] == KIND_REAL else self.sim[a]
        v = self.ident[b] if self.kind[b] == KIND_REAL else self.sim[b]
        if u == v:
            return
        key = (u, v) if u <= v else (v, u)
        mult = self._image.get(key, 0) + 1
        self._image[key] = mult
        if mult == 1:
            su, sv = self._reals[u], self._reals[v]
            self.imgdeg[su] += 1
            self.imgdeg[sv] += 1
            self._inc_shift(su, 1)
            self._inc_shift(sv, 1)
            if self.recorder is not None:
                self.recorder(EdgeAdded(*key))

    def _image_remove(self, a: int, b: int) -> None:
        u = self.ident[a] if self.kind[a] == KIND_REAL else self.sim[a]
        v = self.ident[b] if self.kind[b] == KIND_REAL else self.sim[b]
        if u == v:
            return
        key = (u, v) if u <= v else (v, u)
        mult = self._image.get(key, 0)
        if mult <= 0:
            raise InvariantViolationError("image-refcount", f"edge {key} not present")
        if mult == 1:
            del self._image[key]
            su, sv = self._reals[u], self._reals[v]
            self.imgdeg[su] -= 1
            self.imgdeg[sv] -= 1
            self._inc_shift(su, -1)
            self._inc_shift(sv, -1)
            if self.recorder is not None:
                self.recorder(EdgeRemoved(*key))
        else:
            self._image[key] = mult - 1

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_real(self, nid: int, original_degree: int = 0) -> int:
        if nid in self._reals:
            raise DuplicateNodeError(nid)
        slot = self._alloc()
        self.kind[slot] = KIND_REAL
        self.ident[slot] = nid
        self.sim[slot] = NIL
        self.parent[slot] = NIL
        self.head[slot] = NIL
        self.tail[slot] = NIL
        self.next[slot] = NIL
        self.prev[slot] = NIL
        self.nchild[slot] = 0
        self.role[slot] = NIL
        self.imgdeg[slot] = 0
        self.inc[slot] = -original_degree
        self._reals[nid] = slot
        self._inc_enter(-original_degree)
        self._alive_idx[nid] = len(self._alive_list)
        self._alive_list.append(nid)
        return slot

    def new_helper(self, sim: int) -> int:
        try:
            sim_slot = self._reals[sim]
        except KeyError:
            raise NodeNotFoundError(sim, "helper simulator") from None
        if self.role[sim_slot] != NIL:
            raise InvariantViolationError(
                "one-role-per-node", f"{sim} already simulates a helper"
            )
        self._hid_counter += 1
        slot = self._alloc()
        self.kind[slot] = KIND_HELPER
        self.ident[slot] = self._hid_counter
        self.sim[slot] = sim
        self.parent[slot] = NIL
        self.head[slot] = NIL
        self.tail[slot] = NIL
        self.next[slot] = NIL
        self.prev[slot] = NIL
        self.nchild[slot] = 0
        self.role[slot] = NIL
        self._helpers[self._hid_counter] = slot
        self.role[sim_slot] = slot
        return slot

    def set_root(self, slot: int) -> None:
        if slot != NIL and self.parent[slot] != NIL:
            raise InvariantViolationError("root", "root must have no parent")
        self._root = slot

    # ------------------------------------------------------------------
    # structural mutations (image bookkeeping is automatic)
    # ------------------------------------------------------------------
    def attach(self, child: int, parent: int, before: int = NIL) -> None:
        """Attach a detached subtree under ``parent``.

        ``before`` names an existing child to insert in front of; NIL
        appends (the common case).
        """
        if self.parent[child] != NIL:
            raise InvariantViolationError("attach", "child already attached")
        if before == NIL:
            last = self.tail[parent]
            if last == NIL:
                self.head[parent] = child
            else:
                self.next[last] = child
            self.prev[child] = last
            self.next[child] = NIL
            self.tail[parent] = child
        else:
            prv = self.prev[before]
            self.prev[child] = prv
            self.next[child] = before
            self.prev[before] = child
            if prv == NIL:
                self.head[parent] = child
            else:
                self.next[prv] = child
        self.nchild[parent] += 1
        self.parent[child] = parent
        self._image_add(child, parent)

    def detach(self, child: int) -> int:
        """Detach ``child`` from its parent; returns the old parent or NIL."""
        parent = self.parent[child]
        if parent == NIL:
            return NIL
        prv, nxt = self.prev[child], self.next[child]
        if prv == NIL:
            self.head[parent] = nxt
        else:
            self.next[prv] = nxt
        if nxt == NIL:
            self.tail[parent] = prv
        else:
            self.prev[nxt] = prv
        self.prev[child] = NIL
        self.next[child] = NIL
        self.nchild[parent] -= 1
        self.parent[child] = NIL
        self._image_remove(child, parent)
        return parent

    def replace_child(self, parent: int, old: int, new: int) -> None:
        """Substitute ``old`` by detached ``new`` at the same position."""
        if self.parent[new] != NIL:
            raise InvariantViolationError("replace_child", "replacement already attached")
        prv, nxt = self.prev[old], self.next[old]
        self.prev[new] = prv
        self.next[new] = nxt
        if prv == NIL:
            self.head[parent] = new
        else:
            self.next[prv] = new
        if nxt == NIL:
            self.tail[parent] = new
        else:
            self.prev[nxt] = new
        self.prev[old] = NIL
        self.next[old] = NIL
        self.parent[old] = NIL
        self.parent[new] = parent
        self._image_remove(old, parent)
        self._image_add(new, parent)

    def splice(self, helper: int) -> int:
        """Bypass a one-child helper: its child takes its place."""
        if self.nchild[helper] != 1:
            raise InvariantViolationError(
                "bypass-precondition", f"helper has {self.nchild[helper]} children"
            )
        child = self.head[helper]
        parent = self.parent[helper]
        self.detach(child)
        if parent != NIL:
            nxt = self.next[helper]
            self.detach(helper)
            self.attach(child, parent, before=nxt)
        else:
            if self._root == helper:
                self._root = child
        self.destroy_helper(helper)
        return child

    def transfer_role(self, helper: int, new_sim: int) -> int:
        """Change the simulator of ``helper``; returns the previous one."""
        if new_sim not in self._reals:
            raise NodeNotFoundError(new_sim, "transfer_role")
        new_slot = self._reals[new_sim]
        if self.role[new_slot] != NIL:
            raise InvariantViolationError(
                "one-role-per-node", f"{new_sim} already simulates a helper"
            )
        old_sim = self.sim[helper]
        incident = self.children(helper)
        if self.parent[helper] != NIL:
            incident.append(self.parent[helper])
        for other in incident:
            self._image_remove(helper, other)
        old_slot = self._reals.get(old_sim, NIL)
        if old_slot != NIL and self.role[old_slot] == helper:
            self.role[old_slot] = NIL
        self.sim[helper] = new_sim
        self.role[new_slot] = helper
        for other in incident:
            self._image_add(helper, other)
        return old_sim

    def destroy_helper(self, helper: int) -> None:
        """Remove a detached, childless helper from the structure."""
        if self.nchild[helper] or self.parent[helper] != NIL:
            raise InvariantViolationError("destroy-helper", "still attached")
        sim = self.sim[helper]
        sim_slot = self._reals.get(sim, NIL)
        if sim_slot != NIL and self.role[sim_slot] == helper:
            self.role[sim_slot] = NIL
        if self._root == helper:
            self._root = NIL
        del self._helpers[self.ident[helper]]
        self._release(helper)

    def remove_real(self, slot: int) -> None:
        """Remove a detached, childless, role-free real node."""
        if self.nchild[slot] or self.parent[slot] != NIL:
            raise InvariantViolationError("remove-real", "still attached")
        if self.role[slot] != NIL:
            raise InvariantViolationError("remove-real", "still simulating a helper")
        if self._root == slot:
            self._root = NIL
        nid = self.ident[slot]
        del self._reals[nid]
        self._inc_leave(self.inc[slot])
        idx = self._alive_idx.pop(nid)
        last = self._alive_list.pop()
        if last != nid:
            self._alive_list[idx] = last
            self._alive_idx[last] = idx
        self._release(slot)

    # ------------------------------------------------------------------
    # validation / inspection
    # ------------------------------------------------------------------
    def iter_slots(self) -> Iterator[int]:
        """Preorder traversal from the root (matches VirtualTree order)."""
        if self._root == NIL:
            return
        stack = [self._root]
        while stack:
            slot = stack.pop()
            yield slot
            stack.extend(reversed(self.children(slot)))

    def check(self, branching: int = 2) -> None:
        """Validate the virtual-tree invariants plus flat-only bookkeeping."""
        if self._root == NIL:
            if self._reals or self._helpers:
                raise InvariantViolationError("vt-empty", "nodes exist but no root")
            self._check_counters()
            return
        if self.parent[self._root] != NIL:
            raise InvariantViolationError("vt-root", "root has a parent")
        seen_real: Set[int] = set()
        seen_help: Set[int] = set()
        for slot in self.iter_slots():
            kids = self.children(slot)
            if len(kids) != self.nchild[slot]:
                raise InvariantViolationError("flat-nchild", f"slot {slot}")
            prev = NIL
            for child in kids:
                if self.parent[child] != slot:
                    raise InvariantViolationError("vt-parent-link", f"slot {slot}")
                if self.prev[child] != prev:
                    raise InvariantViolationError("flat-sib-links", f"slot {slot}")
                prev = child
            if self.tail[slot] != (kids[-1] if kids else NIL):
                raise InvariantViolationError("flat-tail", f"slot {slot}")
            if self.kind[slot] == KIND_REAL:
                nid = self.ident[slot]
                if nid in seen_real:
                    raise InvariantViolationError("vt-dup", f"real {nid}")
                seen_real.add(nid)
                if self._reals.get(nid) != slot:
                    raise InvariantViolationError("flat-real-index", str(nid))
            elif self.kind[slot] == KIND_HELPER:
                hid = self.ident[slot]
                if hid in seen_help:
                    raise InvariantViolationError("vt-dup", f"helper {hid}")
                seen_help.add(hid)
                if self.sim[slot] not in self._reals:
                    raise InvariantViolationError(
                        "vt-sim-alive", f"helper {hid} simulated by dead {self.sim[slot]}"
                    )
                if self.role[self._reals[self.sim[slot]]] != slot:
                    raise InvariantViolationError(
                        "vt-role-map", f"role map disagrees for sim {self.sim[slot]}"
                    )
                if not 1 <= self.nchild[slot] <= branching:
                    raise InvariantViolationError(
                        "vt-helper-arity",
                        f"helper {hid} has {self.nchild[slot]} children",
                    )
            else:
                raise InvariantViolationError("flat-free-reachable", f"slot {slot}")
        if seen_real != set(self._reals):
            raise InvariantViolationError(
                "vt-reachability", f"unreachable reals: {set(self._reals) - seen_real}"
            )
        if seen_help != set(self._helpers):
            raise InvariantViolationError(
                "vt-reachability", f"unreachable helpers: {set(self._helpers) - seen_help}"
            )
        # incremental image graph must match a from-scratch recomputation
        recomputed: Dict[Tuple[int, int], int] = {}
        for slot in self.iter_slots():
            for child in self.children(slot):
                u, v = self.owner(slot), self.owner(child)
                if u != v:
                    key = edge_key(u, v)
                    recomputed[key] = recomputed.get(key, 0) + 1
        if recomputed != self._image:
            raise InvariantViolationError("image-counter", "incremental image diverged")
        self._check_counters()

    def _check_counters(self) -> None:
        """Flat-only: degree counters, multiset, alive list, free lists."""
        degs: Dict[int, int] = {nid: 0 for nid in self._reals}
        for (u, v) in self._image:
            degs[u] += 1
            degs[v] += 1
        inc_recount: Dict[int, int] = {}
        for nid, slot in self._reals.items():
            if self.imgdeg[slot] != degs[nid]:
                raise InvariantViolationError(
                    "flat-imgdeg", f"node {nid}: {self.imgdeg[slot]} != {degs[nid]}"
                )
            val = self.inc[slot]
            inc_recount[val] = inc_recount.get(val, 0) + 1
        if inc_recount != self._inc_count:
            raise InvariantViolationError("flat-inc-multiset", "multiset diverged")
        if inc_recount and self.max_degree_increase() != max(inc_recount):
            raise InvariantViolationError("flat-inc-max", "stale maximum")
        if sorted(self._alive_list) != sorted(self._reals):
            raise InvariantViolationError("flat-alive-list", "alive list diverged")
        for nid, idx in self._alive_idx.items():
            if self._alive_list[idx] != nid:
                raise InvariantViolationError("flat-alive-idx", str(nid))
        used = set(self._reals.values()) | set(self._helpers.values())
        spare = set(self._free) | set(self._limbo)
        if used & spare:
            raise InvariantViolationError("flat-free-list", "live slot on free list")
        if len(spare) != len(self._free) + len(self._limbo):
            raise InvariantViolationError("flat-free-list", "duplicate free slot")
        for slot in spare:
            if self.kind[slot] != KIND_FREE:
                raise InvariantViolationError("flat-free-kind", str(slot))

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Dict[str, object]:
        """Full state as ``{"meta": {...}, "arrays": {name: array('q')}}``.

        Every sequence — including dict key/value columns — is an
        ``array('q')`` so the checkpoint codec can write raw bytes.  Dict
        columns keep *insertion order*: ``_reals`` iterates by node age
        and ``_helpers`` hid-ascending, and both orders are load-bearing
        for bit-identical replay (donor scans, helper steals).  The
        free/limbo lists are LIFO stacks whose order decides future slot
        assignment, so they serialize verbatim too.
        """
        arrays: Dict[str, array] = {
            name: array("q", getattr(self, name)) for name in CORE_COLUMNS
        }
        arrays["reals_k"] = array("q", self._reals.keys())
        arrays["reals_v"] = array("q", self._reals.values())
        arrays["helpers_k"] = array("q", self._helpers.keys())
        arrays["helpers_v"] = array("q", self._helpers.values())
        image = array("q")
        for (u, v), mult in self._image.items():
            image.append(u)
            image.append(v)
            image.append(mult)
        arrays["image"] = image
        arrays["free"] = array("q", self._free)
        arrays["limbo"] = array("q", self._limbo)
        arrays["inc_k"] = array("q", self._inc_count.keys())
        arrays["inc_v"] = array("q", self._inc_count.values())
        arrays["alive"] = array("q", self._alive_list)
        meta = {
            "root": self._root,
            "hid_counter": self._hid_counter,
            "inc_max": self._inc_max,
            "inc_dirty": int(self._inc_dirty),
        }
        return {"meta": meta, "arrays": arrays}

    @classmethod
    def restore_state(cls, state: Dict[str, object]) -> "FlatCore":
        """Rebuild a core from :meth:`snapshot_state` output (exact)."""
        meta = state["meta"]
        arrays = state["arrays"]
        self = cls(recorder=None)
        for name in CORE_COLUMNS:
            setattr(self, name, array("q", arrays[name]))
        self._reals = dict(zip(arrays["reals_k"], arrays["reals_v"]))
        self._helpers = dict(zip(arrays["helpers_k"], arrays["helpers_v"]))
        img = arrays["image"]
        self._image = {
            (img[i], img[i + 1]): img[i + 2] for i in range(0, len(img), 3)
        }
        self._free = list(arrays["free"])
        self._limbo = list(arrays["limbo"])
        self._inc_count = dict(zip(arrays["inc_k"], arrays["inc_v"]))
        self._alive_list = list(arrays["alive"])
        self._alive_idx = {nid: i for i, nid in enumerate(self._alive_list)}
        self._root = int(meta["root"])
        self._hid_counter = int(meta["hid_counter"])
        self._inc_max = int(meta["inc_max"])
        self._inc_dirty = bool(meta["inc_dirty"])
        return self


class FlatWills(WillText):
    """Every node's will (SubRT blueprint) in one shared flat arena.

    A store of :class:`~repro.core.slot_tree.WillText`: all wills share
    eight parallel arrays plus the global position indexes keyed by
    ``(owner, stand_in)``, and the will rules — placement, re-keying, pool
    order, the reported deltas — are the text's, the same function
    objects :class:`~repro.core.slot_tree.ObjectWills` runs.  What is
    here is storage only: the arena, its free list, the intrusive child
    links, and checkpointing.

    Positions free eagerly (the engine never holds position handles across
    operations, so no limbo list is needed here).
    """

    def __init__(self, branching: int = 2):
        if branching < 2:
            raise ValueError(f"branching must be >= 2, got {branching}")
        self.branching = branching
        self.wkind = array("q")
        self.wval = array("q")  # stand-in (leaf) or simulator (internal)
        self.wparent = array("q")
        self.whead = array("q")
        self.wtail = array("q")
        self.wnext = array("q")
        self.wprev = array("q")
        self.wnchild = array("q")
        self._free: List[int] = []

        self._root: Dict[int, int] = {}  # owner -> root pos (NIL when empty);
        #                                  key existence == will existence
        self._heir: Dict[int, int] = {}  # owner -> heir stand-in (NIL none)
        self._leafpos: Dict[Tuple[int, int], int] = {}
        self._intpos: Dict[Tuple[int, int], int] = {}

    # ------------------------------------------------------------------
    # arena management
    # ------------------------------------------------------------------
    def reserve(self, capacity: int) -> None:
        extra = capacity - len(self.wkind)
        if extra <= 0:
            return
        zeros = array("q", bytes(8 * extra))
        for arr in (
            self.wkind, self.wval, self.wparent, self.whead,
            self.wtail, self.wnext, self.wprev, self.wnchild,
        ):
            arr.extend(zeros)
        self._free.extend(range(capacity - 1, len(self.wkind) - extra - 1, -1))

    def _alloc(self) -> int:
        if self._free:
            return self._free.pop()
        pos = len(self.wkind)
        for arr in (
            self.wkind, self.wval, self.wparent, self.whead,
            self.wtail, self.wnext, self.wprev, self.wnchild,
        ):
            arr.append(0)
        return pos

    def _release(self, pos: int) -> None:
        self.wkind[pos] = W_FREE
        self._free.append(pos)

    # ------------------------------------------------------------------
    # the will text's store port
    # ------------------------------------------------------------------
    def _mk_leaf(self, owner: int, stand_in: int) -> int:
        pos = self._alloc()
        self.wkind[pos] = W_LEAF
        self.wval[pos] = stand_in
        self.wparent[pos] = NIL
        self.whead[pos] = NIL
        self.wtail[pos] = NIL
        self.wnext[pos] = NIL
        self.wprev[pos] = NIL
        self.wnchild[pos] = 0
        self._leafpos[(owner, stand_in)] = pos
        return pos

    def _mk_internal(self, owner: int, sim: int, children: Sequence[int]) -> int:
        pos = self._alloc()
        self.wkind[pos] = W_INTERNAL
        self.wval[pos] = sim
        self.wparent[pos] = NIL
        self.whead[pos] = NIL
        self.wnext[pos] = NIL
        self.wprev[pos] = NIL
        self.wnchild[pos] = len(children)
        prev = NIL
        for child in children:
            self.wparent[child] = pos
            self.wprev[child] = prev
            if prev == NIL:
                self.whead[pos] = child
            else:
                self.wnext[prev] = child
            prev = child
        if prev != NIL:
            self.wnext[prev] = NIL
        self.wtail[pos] = prev
        self._intpos[(owner, sim)] = pos
        return pos

    def _children(self, pos: int) -> List[int]:
        out: List[int] = []
        nxt = self.wnext
        c = self.whead[pos]
        while c != NIL:
            out.append(c)
            c = nxt[c]
        return out

    def _append(self, parent: int, child: int) -> None:
        last = self.wtail[parent]
        if last == NIL:
            self.whead[parent] = child
        else:
            self.wnext[last] = child
        self.wprev[child] = last
        self.wnext[child] = NIL
        self.wtail[parent] = child
        self.wparent[child] = parent
        self.wnchild[parent] += 1

    def _unlink(self, parent: int, child: int) -> None:
        prv, nxt = self.wprev[child], self.wnext[child]
        if prv == NIL:
            self.whead[parent] = nxt
        else:
            self.wnext[prv] = nxt
        if nxt == NIL:
            self.wtail[parent] = prv
        else:
            self.wprev[nxt] = prv
        self.wprev[child] = NIL
        self.wnext[child] = NIL
        self.wparent[child] = NIL
        self.wnchild[parent] -= 1

    def _graft(self, owner: int, old: int, new: int) -> None:
        """Put ``new`` exactly where ``old`` sits (links + parent + root)."""
        grand = self.wparent[old]
        prv, nxt = self.wprev[old], self.wnext[old]
        self.wprev[new] = prv
        self.wnext[new] = nxt
        self.wparent[new] = grand
        if grand == NIL:
            self._root[owner] = new
        else:
            if prv == NIL:
                self.whead[grand] = new
            else:
                self.wnext[prv] = new
            if nxt == NIL:
                self.wtail[grand] = new
            else:
                self.wprev[nxt] = new
        self.wprev[old] = NIL
        self.wnext[old] = NIL
        self.wparent[old] = NIL

    def _retag(self, pos: int, val: int) -> None:
        self.wval[pos] = val

    def _check_links(self, pos: int, kids: List[int]) -> None:
        """The intrusive list agrees with the count, back links and tail."""
        sim = self.wval[pos]
        if len(kids) != self.wnchild[pos]:
            raise InvariantViolationError("flat-will-nchild", str(sim))
        prev = NIL
        for child in kids:
            if self.wprev[child] != prev:
                raise InvariantViolationError("flat-will-sib-links", str(sim))
            prev = child
        if self.wtail[pos] != prev:
            raise InvariantViolationError("flat-will-tail", str(sim))

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Dict[str, object]:
        """Full arena state (same ``meta``/``arrays`` shape as FlatCore).

        The ``_root`` map's key *existence* encodes will existence and its
        insertion order tracks will creation order; the free list is the
        LIFO allocation stack.  Both serialize verbatim so a restored
        arena hands out positions in the same sequence the unbroken run
        would have.
        """
        arrays: Dict[str, array] = {
            name: array("q", getattr(self, name)) for name in WILL_COLUMNS
        }
        arrays["free"] = array("q", self._free)
        arrays["root_k"] = array("q", self._root.keys())
        arrays["root_v"] = array("q", self._root.values())
        arrays["heir_k"] = array("q", self._heir.keys())
        arrays["heir_v"] = array("q", self._heir.values())
        leafpos = array("q")
        for (owner, stand_in), pos in self._leafpos.items():
            leafpos.append(owner)
            leafpos.append(stand_in)
            leafpos.append(pos)
        arrays["leafpos"] = leafpos
        intpos = array("q")
        for (owner, sim), pos in self._intpos.items():
            intpos.append(owner)
            intpos.append(sim)
            intpos.append(pos)
        arrays["intpos"] = intpos
        return {"meta": {"branching": self.branching}, "arrays": arrays}

    @classmethod
    def restore_state(cls, state: Dict[str, object]) -> "FlatWills":
        """Rebuild a will arena from :meth:`snapshot_state` output."""
        meta = state["meta"]
        arrays = state["arrays"]
        self = cls(branching=int(meta["branching"]))
        for name in WILL_COLUMNS:
            setattr(self, name, array("q", arrays[name]))
        self._free = list(arrays["free"])
        self._root = dict(zip(arrays["root_k"], arrays["root_v"]))
        self._heir = dict(zip(arrays["heir_k"], arrays["heir_v"]))
        lp = arrays["leafpos"]
        self._leafpos = {
            (lp[i], lp[i + 1]): lp[i + 2] for i in range(0, len(lp), 3)
        }
        ip = arrays["intpos"]
        self._intpos = {
            (ip[i], ip[i + 1]): ip[i + 2] for i in range(0, len(ip), 3)
        }
        return self
