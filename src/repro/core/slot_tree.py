"""Slot trees: the shape of a node's Reconstruction Tree (SubRT).

A *slot tree* is the will's blueprint for ``GenerateSubRT`` (Algorithm 3.5 of
the paper): a full search tree whose

* **leaves** are the child *slots* of a node ``v``, identified by their
  *stand-in* (the real node currently answering for that child edge), in
  left-to-right key order, and whose
* **internal positions** are each *assigned* to a distinct non-heir stand-in
  — the real node that will simulate the corresponding helper node when
  ``v`` dies.

For the paper's binary case the construction is exactly Algorithm 3.5: the
leaves are sorted ascending by ID, the heir is the highest-ID child, and the
``d - 1`` internal positions are keyed by the maximum stand-in of their left
subtree, which enumerates exactly the non-heir children.  The generalized
``branching = b`` tree implements the Section 4.2 remark (degree increase
``α = b + 1``, stretch ``≈ 2·log_b Δ``).

Maintenance is **positional** (never re-sorted after construction), which is
what makes the paper's O(1)-messages-per-deletion claim (Theorem 1.3) true:

* ``remove(y)`` splices the dead leaf out.  Its parent internal position, if
  left with a single child, is spliced too, freeing its simulator — the
  paper's "helper node which has just decreased in degree from 3 to 2".  The
  freed simulator re-keys the internal position that was assigned to ``y``
  (if any) and becomes the new heir if ``y`` was the heir.
* ``replace(old, new)`` substitutes a stand-in in place (used when an heir
  takes a dead child's slot, or when a leaf will is inherited).

Both operations report exactly which stand-ins' will *portions* changed so
that the distributed layer can count retransmissions; the deltas are O(1)
per operation, which the test-suite asserts.

**One text, two stores.**  The rules above are written once, as the
owner-first methods of :class:`WillText` (``build``, the queries, ``remove``
/ ``replace`` / ``add`` / ``add_batch``, ``check``).  The text reads four
columns (``wkind``, ``wval``, ``wparent``, ``wnchild``) and four indexes
(``_root`` / ``_heir`` per owner, ``_leafpos`` / ``_intpos`` per
``(owner, stand_in)``), and changes structure only through a small port
(``_mk_leaf``, ``_mk_internal``, ``_append``, ``_unlink``, ``_graft``,
``_retag``, ``_release``, ``_children``, ``_check_links``).  Two stores
implement the port and inherit the text:

* :class:`~repro.core.flat.FlatWills` — every node's will in one arena of
  ``array('q')`` columns with intrusive child lists and a free list: the
  hot path;
* :class:`ObjectWills` (here) — dict columns, Python child lists,
  positions never recycled: the readable store, the object engine's and
  the message-passing protocol's, and the storage oracle the flat arena is
  cross-checked against.

:class:`SlotTree` is a one-owner view ``(store, owner)`` over either store —
the shape the paper draws, and what a protocol node holds as its will.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (
    DuplicateNodeError,
    EmptyStructureError,
    InvariantViolationError,
    NodeNotFoundError,
)

#: The "no position / no node" handle of every store (plays ``None``).
NIL = -1

#: Will position kinds (the ``wkind`` column).
W_FREE = 0
W_LEAF = 1
W_INTERNAL = 2

#: Reference to a position in the slot tree, used when describing structure:
#: ``("leaf", stand_in)`` or ``("internal", sim)`` or ``("top",)`` for the
#: position above the root.
PosRef = Tuple[str, ...]


@dataclass(frozen=True)
class RemovalDelta:
    """What changed when a leaf slot was removed.

    Attributes
    ----------
    emptied:
        The tree had a single leaf and is now empty.
    spliced_sim:
        Simulator freed because its internal position was spliced out
        (``None`` if no internal was spliced — only possible for b > 2).
    reassigned:
        ``(freed_position_old_sim, new_sim)`` if an internal position that
        was assigned to the dead stand-in got a new simulator.
    new_heir:
        The new heir stand-in if the dead slot was the heir.
    touched:
        Stand-ins whose will portion changed and must be retransmitted
        (always O(1) of them).
    """

    emptied: bool = False
    spliced_sim: Optional[int] = None
    reassigned: Optional[Tuple[int, int]] = None
    new_heir: Optional[int] = None
    touched: Tuple[int, ...] = ()


@dataclass(frozen=True)
class ReplaceDelta:
    """What changed when a stand-in was substituted positionally."""

    was_heir: bool
    had_internal: bool
    touched: Tuple[int, ...] = ()


@dataclass(frozen=True)
class AddDelta:
    """What changed when a new leaf slot was inserted (churn model).

    Attributes
    ----------
    became_heir:
        The will was empty, so the new stand-in is the (only) heir.
    paired_with:
        The existing leaf the new slot was paired with under a fresh
        internal position (``None`` when the will was empty or the new
        leaf filled a spare internal arity slot, b > 2 only).
    touched:
        Stand-ins whose will portion changed and must be retransmitted
        (always O(1) of them, the Theorem 1.3 property insertions keep).
    """

    became_heir: bool = False
    paired_with: Optional[int] = None
    touched: Tuple[int, ...] = ()


@dataclass(frozen=True)
class AddBatchDelta:
    """What changed when a wave of leaf slots was inserted together.

    ``touched`` is the union of the per-add touched sets, deduplicated —
    the point of batching: each affected stand-in's portion is recomputed
    and retransmitted *once per wave*, not once per joiner.
    """

    added: Tuple[int, ...] = ()
    touched: Tuple[int, ...] = ()


@dataclass
class InternalSpec:
    """Structural description of one internal position (for deployment)."""

    sim: int
    parent: PosRef  # ("internal", sim) or ("top",)
    children: List[PosRef] = field(default_factory=list)


class WillText:
    """The will rules, stated once, owner-first, over a store port.

    Every method takes the owning node id first.  A store subclasses this
    text and supplies the columns, the indexes and the port methods named
    in the module docstring; the text writes no column itself, so the
    same function objects run over the flat arena and the object store.
    ``_root[owner]`` is ``NIL`` for an empty will (key existence == will
    existence), ``_heir[owner]`` is ``NIL`` when there is no heir.
    """

    branching: int
    _root: Dict[int, int]
    _heir: Dict[int, int]
    _leafpos: Dict[Tuple[int, int], int]
    _intpos: Dict[Tuple[int, int], int]

    # ------------------------------------------------------------------
    # construction / teardown
    # ------------------------------------------------------------------
    def build(self, owner: int, stand_ins: Sequence[int]) -> None:
        """Create ``owner``'s will: the stand-ins are sorted ascending
        (Algorithm 3.5) and the maximum becomes the heir."""
        if owner in self._root:
            raise DuplicateNodeError(owner)
        ids = sorted(stand_ins)
        if len(set(ids)) != len(ids):
            dup = next(x for i, x in enumerate(ids) if i and ids[i - 1] == x)
            raise DuplicateNodeError(dup)
        if not ids:
            self._root[owner] = NIL
            self._heir[owner] = NIL
            return
        self._heir[owner] = ids[-1]
        self._root[owner] = self._build(owner, ids)

    def _build(self, owner: int, ids: Sequence[int]) -> int:
        if len(ids) == 1:
            return self._mk_leaf(owner, ids[0])
        groups = _split_even(ids, self.branching)
        children = [self._build(owner, g) for g in groups]
        sim = max(groups[0])  # BST separator: max of first subtree
        return self._mk_internal(owner, sim, children)

    def discard(self, owner: int) -> None:
        """Drop ``owner``'s will entirely, freeing its positions."""
        root = self._root.pop(owner)
        self._heir.pop(owner)
        if root == NIL:
            return
        stack = [root]
        while stack:
            pos = stack.pop()
            if self.wkind[pos] == W_LEAF:
                del self._leafpos[(owner, self.wval[pos])]
            else:
                del self._intpos[(owner, self.wval[pos])]
                stack.extend(self._children(pos))
            self._release(pos)

    def adopt(self, src: "WillText", owner: int) -> "SlotTree":
        """Copy ``owner``'s will from store ``src`` position for position
        (never re-sorted) and return a view of the copy — ``will_of``'s
        deep copy, and how an object engine takes over a flat one's wills."""
        root = src._root[owner]
        self._heir[owner] = src._heir[owner]
        self._root[owner] = NIL if root == NIL else self._copy(src, owner, root)
        return SlotTree.of(self, owner)

    def _copy(self, src: "WillText", owner: int, pos: int) -> int:
        if src.wkind[pos] == W_LEAF:
            return self._mk_leaf(owner, src.wval[pos])
        kids = [self._copy(src, owner, c) for c in src._children(pos)]
        return self._mk_internal(owner, src.wval[pos], kids)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def has(self, owner: int) -> bool:
        """Does ``owner`` currently hold a will at all?"""
        return owner in self._root

    def empty(self, owner: int) -> bool:
        return self._root[owner] == NIL

    def contains(self, owner: int, stand_in: int) -> bool:
        return (owner, stand_in) in self._leafpos

    def has_internal(self, owner: int, stand_in: int) -> bool:
        """Does ``stand_in`` simulate an internal position of this will?"""
        return (owner, stand_in) in self._intpos

    def heir(self, owner: int) -> Optional[int]:
        """The heir stand-in (Algorithm 3.2 line 8; None when empty)."""
        h = self._heir[owner]
        return None if h == NIL else h

    def stand_ins(self, owner: int) -> List[int]:
        """Leaf stand-ins in left-to-right order."""
        out: List[int] = []
        root = self._root[owner]
        if root != NIL:
            self._collect_leaves(root, out)
        return out

    def _collect_leaves(self, pos: int, out: List[int]) -> None:
        if self.wkind[pos] == W_LEAF:
            out.append(self.wval[pos])
        else:
            for child in self._children(pos):
                self._collect_leaves(child, out)

    def _collect_internals(self, owner: int) -> List[int]:
        root = self._root[owner]
        if root == NIL or self.wkind[root] == W_LEAF:
            return []
        out: List[int] = []
        stack = [root]
        while stack:
            pos = stack.pop()
            if self.wkind[pos] == W_INTERNAL:
                out.append(pos)
                stack.extend(self._children(pos))
        return out

    def internal_sims(self, owner: int) -> List[int]:
        """Simulators currently assigned to internal positions."""
        return sorted(self.wval[p] for p in self._collect_internals(owner))

    def root_sim(self, owner: int) -> int:
        """Stand-in answering for the root position (``rv`` in
        Algorithm 3.6)."""
        root = self._root[owner]
        if root == NIL:
            raise EmptyStructureError("root of empty slot tree")
        return self.wval[root]

    def depth(self, owner: int) -> int:
        """Longest root-to-leaf edge count (0 for a single leaf)."""
        root = self._root[owner]
        if root == NIL:
            raise EmptyStructureError("depth of empty slot tree")
        return self._depth(root)

    def _depth(self, pos: int) -> int:
        if self.wkind[pos] == W_LEAF:
            return 0
        return 1 + max(self._depth(c) for c in self._children(pos))

    def as_shape(self, owner: int):
        """Nested-tuple rendering, for tests and debugging.

        Leaves render as their stand-in; internals as
        ``(sim, child, child, ...)``.
        """
        root = self._root[owner]
        return None if root == NIL else self._shape(root)

    def _shape(self, pos: int):
        if self.wkind[pos] == W_LEAF:
            return self.wval[pos]
        return (self.wval[pos], *(self._shape(c) for c in self._children(pos)))

    def _ref(self, pos: int) -> PosRef:
        if self.wkind[pos] == W_LEAF:
            return ("leaf", self.wval[pos])
        return ("internal", self.wval[pos])

    # ------------------------------------------------------------------
    # structural description (used to deploy the RT and to build portions)
    # ------------------------------------------------------------------
    def internal_specs(self, owner: int) -> List[InternalSpec]:
        """All internal positions with parent/children refs, sim-ascending."""
        specs: List[InternalSpec] = []
        for pos in sorted(self._collect_internals(owner), key=self.wval.__getitem__):
            parent = self.wparent[pos]
            spec = InternalSpec(
                sim=self.wval[pos],
                parent=("top",) if parent == NIL else ("internal", self.wval[parent]),
            )
            spec.children = [self._ref(c) for c in self._children(pos)]
            specs.append(spec)
        return specs

    def attachment_sim(self, owner: int, stand_in: int) -> Optional[int]:
        """The stand-in a leaf connects to in the *image* graph.

        This is the paper's ``nextparent`` rule in Algorithm 3.6 line 4: a
        leaf normally connects to its parent internal position's simulator,
        but when that simulator is the leaf itself (an image self-loop) it
        connects to the grandparent position instead.  ``None`` means the
        connection goes above the root of the SubRT (to the heir helper or
        to the deleted node's parent).
        """
        pos = self.wparent[self._leaf(owner, stand_in)]
        if pos != NIL and self.wval[pos] == stand_in:
            pos = self.wparent[pos]
        return None if pos == NIL else self.wval[pos]

    def internal_parent_sim(self, owner: int, stand_in: int) -> Optional[int]:
        """Simulator above ``stand_in``'s internal position (None = top)."""
        parent = self.wparent[self._internal(owner, stand_in)]
        return None if parent == NIL else self.wval[parent]

    def internal_children_refs(self, owner: int, stand_in: int) -> List[PosRef]:
        """Children references of ``stand_in``'s internal position."""
        return [self._ref(c) for c in self._children(self._internal(owner, stand_in))]

    # ------------------------------------------------------------------
    # positional maintenance
    # ------------------------------------------------------------------
    def _leaf(self, owner: int, stand_in: int) -> int:
        try:
            return self._leafpos[(owner, stand_in)]
        except KeyError:
            raise NodeNotFoundError(stand_in, "slot tree leaf") from None

    def _internal(self, owner: int, stand_in: int) -> int:
        try:
            return self._intpos[(owner, stand_in)]
        except KeyError:
            raise NodeNotFoundError(stand_in, "slot tree internal") from None

    def _around(self, pos: int) -> List[int]:
        """Stand-ins whose portions reference ``pos`` (O(1) of them)."""
        out = [self.wval[pos]]
        parent = self.wparent[pos]
        if parent != NIL:
            out.append(self.wval[parent])
        if self.wkind[pos] == W_INTERNAL:
            out.extend([self.wval[c] for c in self._children(pos)])
        return out

    def _pick_free(self, owner: int, freed: List[int]) -> int:
        """Pick a free (unassigned, non-heir) stand-in for a vacant role.

        For binary trees the freed simulator of the just-spliced internal is
        the unique candidate, which reproduces the paper's re-keying rule;
        for b > 2 we deterministically pick the smallest free stand-in.
        """
        if freed:
            return freed[0]
        heir = self._heir[owner]
        pool = [
            s
            for s in sorted(self.stand_ins(owner))
            if s != heir and (owner, s) not in self._intpos
        ]
        if not pool:
            raise InvariantViolationError("slot-tree-pool", "no free stand-in")
        return pool[0]

    def _touched(self, owner: int, touched: List[int]) -> Tuple[int, ...]:
        """Deduplicated, in first-touch order, live stand-ins only."""
        leafpos = self._leafpos
        return tuple(dict.fromkeys(t for t in touched if (owner, t) in leafpos))

    def remove(self, owner: int, stand_in: int) -> RemovalDelta:
        """Remove a dead leaf slot positionally (see module docstring)."""
        leaf = self._leaf(owner, stand_in)
        del self._leafpos[(owner, stand_in)]
        parent = self.wparent[leaf]

        if parent == NIL:  # single-slot will
            self._root[owner] = NIL
            self._heir[owner] = NIL
            self._release(leaf)
            return RemovalDelta(emptied=True)

        self._unlink(parent, leaf)
        self._release(leaf)
        touched: List[int] = []
        spliced_sim: Optional[int] = None
        freed: List[int] = []
        to_free: List[int] = []

        # The dead stand-in's own internal assignment (if any) is now vacant.
        vacant = self._intpos.pop((owner, stand_in), None)

        if self.wnchild[parent] == 1:
            # "short-circuit": splice the one-child internal position out.
            only = self._children(parent)[0]
            self._unlink(parent, only)
            self._graft(owner, parent, only)
            parent_sim = self.wval[parent]
            spliced_sim = parent_sim
            if parent == vacant:
                vacant = None  # the vacant position itself was spliced away
            else:
                self._intpos.pop((owner, parent_sim), None)
                freed.append(parent_sim)
            to_free.append(parent)
            touched.append(parent_sim)  # it lost its internal assignment
            touched.extend(self._around(only))
        else:
            touched.extend(self._around(parent))

        reassigned: Optional[Tuple[int, int]] = None
        if vacant is not None:
            new_sim = self._pick_free(owner, freed)
            self._retag(vacant, new_sim)
            self._intpos[(owner, new_sim)] = vacant
            if new_sim in freed:
                freed.remove(new_sim)
            reassigned = (stand_in, new_sim)
            touched.append(new_sim)
            touched.extend(self._around(vacant))

        new_heir: Optional[int] = None
        if stand_in == self._heir[owner]:
            new_heir = self._pick_free(owner, freed)
            self._heir[owner] = new_heir
            touched.append(new_heir)

        for pos in to_free:
            self._release(pos)
        return RemovalDelta(
            emptied=False,
            spliced_sim=spliced_sim,
            reassigned=reassigned,
            new_heir=new_heir,
            touched=self._touched(owner, touched),
        )

    def replace(self, owner: int, old: int, new: int) -> ReplaceDelta:
        """Substitute stand-in ``old`` by ``new`` positionally.

        Used when a dead child's heir takes over its slot (Algorithm 3.3
        lines 3-5: "``hparent(h)`` replaces ``v`` by ``h`` in its will")
        and when a leaf will moves a slot to the inheriting node.
        """
        if (owner, new) in self._leafpos:
            raise DuplicateNodeError(new)
        leaf = self._leaf(owner, old)
        del self._leafpos[(owner, old)]
        self._retag(leaf, new)
        self._leafpos[(owner, new)] = leaf

        node = self._intpos.pop((owner, old), None)
        if node is not None:
            self._retag(node, new)
            self._intpos[(owner, new)] = node

        was_heir = old == self._heir[owner]
        if was_heir:
            self._heir[owner] = new

        touched = [new]
        touched.extend(self._around(leaf))
        if node is not None:
            touched.extend(self._around(node))
        return ReplaceDelta(
            was_heir=was_heir,
            had_internal=node is not None,
            touched=self._touched(owner, touched),
        )

    def add(self, owner: int, stand_in: int) -> AddDelta:
        """Insert a new leaf slot positionally (the churn model's join).

        Placement rule: the new leaf pairs with a *shallowest* existing
        leaf under a fresh internal position whose simulator is the new
        stand-in itself — a fresh stand-in holds no internal assignment
        and is never the heir, so every slot-tree invariant survives with
        no re-keying.  For ``branching > 2`` an underfull internal
        position encountered first (level order) absorbs the leaf
        directly.  Attaching at minimum depth keeps the tree within one
        level of balanced, preserving the ``O(log d)`` depth Theorem 1.2
        leans on; the touched-portion delta stays O(1).
        """
        if (owner, stand_in) in self._leafpos:
            raise DuplicateNodeError(stand_in)
        root = self._root[owner]
        leaf = self._mk_leaf(owner, stand_in)

        if root == NIL:
            self._root[owner] = leaf
            self._heir[owner] = stand_in
            return AddDelta(became_heir=True, touched=(stand_in,))

        # Level-order scan: first spare internal slot (b > 2) or first
        # (= shallowest) leaf wins.
        queue = deque([root])
        target = root
        while queue:
            pos = queue.popleft()
            if self.wkind[pos] == W_LEAF or self.wnchild[pos] < self.branching:
                target = pos
                break
            queue.extend(self._children(pos))

        touched: List[int] = [stand_in]
        if self.wkind[target] == W_INTERNAL:
            self._append(target, leaf)
            touched.extend(self._around(target))
            return AddDelta(touched=self._touched(owner, touched))

        node = self._mk_internal(owner, stand_in, ())
        self._graft(owner, target, node)  # node takes target's place
        self._append(node, target)
        self._append(node, leaf)
        touched.extend(self._around(node))
        return AddDelta(
            paired_with=self.wval[target],
            touched=self._touched(owner, touched),
        )

    def add_batch(self, owner: int, stand_ins: Sequence[int]) -> AddBatchDelta:
        """Insert a wave of leaf slots, amortizing the portion recompute.

        Each joiner is placed by exactly the same rule as :meth:`add`, in
        order, so the resulting slot tree is *identical* to applying the
        same adds sequentially — the amortization is entirely in the
        reported ``touched`` set, which is the deduplicated union: a wave
        costs one portion retransmission per touched stand-in, not one
        per joiner (adds never remove leaves, so every intermediate
        touched stand-in is still live at the end of the wave).
        """
        ids = [int(s) for s in stand_ins]
        if len(set(ids)) != len(ids):
            dup = next(x for i, x in enumerate(ids) if x in ids[:i])
            raise DuplicateNodeError(dup)
        touched: List[int] = []
        for s in ids:
            touched.extend(self.add(owner, s).touched)
        return AddBatchDelta(added=tuple(ids), touched=self._touched(owner, touched))

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def check(self, owner: int) -> Tuple[int, int]:
        """Validate one will's invariants; return its ``(leaves,
        internals)`` position counts.

        One walk from the root, one index probe per position: every
        reachable position must be the one its index entry names.  An
        index entry no walk reaches (a stale entry of *any* owner) is
        what :meth:`check_all`'s totals catch.
        """
        root = self._root[owner]
        heir = self._heir[owner]
        if root == NIL:
            if heir != NIL:
                raise InvariantViolationError("slot-tree-empty", "stale heir")
            return 0, 0
        if self.wparent[root] != NIL:
            raise InvariantViolationError("slot-tree-parent-link", "root has a parent")
        if (owner, heir) not in self._leafpos:
            raise InvariantViolationError("slot-tree-heir", f"heir {heir} not a leaf")
        if (owner, heir) in self._intpos:
            raise InvariantViolationError("slot-tree-heir", "heir holds an internal position")
        leaves = internals = 0
        stack = [root]
        while stack:
            pos = stack.pop()
            val = self.wval[pos]
            if self.wkind[pos] == W_LEAF:
                if self._leafpos.get((owner, val)) != pos:
                    raise InvariantViolationError("slot-tree-leaves", "leaf index mismatch")
                leaves += 1
                continue
            if self._intpos.get((owner, val)) != pos:
                raise InvariantViolationError("slot-tree-sim-index", str(val))
            if (owner, val) not in self._leafpos:
                raise InvariantViolationError(
                    "slot-tree-sim", f"internal sim {val} is not a live stand-in"
                )
            kids = self._children(pos)
            self._check_links(pos, kids)
            if not 2 <= len(kids) <= self.branching:
                raise InvariantViolationError(
                    "slot-tree-arity", f"internal {val} has {len(kids)} children"
                )
            for child in kids:
                if self.wparent[child] != pos:
                    raise InvariantViolationError("slot-tree-parent-link", str(val))
            stack.extend(kids)
            internals += 1
        return leaves, internals

    def check_all(self) -> None:
        """Validate every will, and that the indexes hold nothing else."""
        leaves = internals = 0
        for owner in self._root:
            nleaf, nint = self.check(owner)
            leaves += nleaf
            internals += nint
        if leaves != len(self._leafpos):
            raise InvariantViolationError("slot-tree-leaves", "stale leaf index entry")
        if internals != len(self._intpos):
            raise InvariantViolationError("slot-tree-internals", "stale internal index entry")


class ObjectWills(WillText):
    """Every node's will on dict columns and Python child lists.

    The readable store: a position is an integer handed out once and never
    recycled, its columns are dict entries, an internal position's
    children are a plain ``list``.  The object engine and the
    message-passing protocol keep their wills here, and it is the oracle
    the flat arena's storage is cross-checked against.  ``wnchild`` and
    the child lists exist for internal positions only.
    """

    def __init__(self, branching: int = 2):
        if branching < 2:
            raise ValueError(f"branching must be >= 2, got {branching}")
        self.branching = branching
        self.wkind: Dict[int, int] = {}
        self.wval: Dict[int, int] = {}  # stand-in (leaf) or simulator (internal)
        self.wparent: Dict[int, int] = {}
        self.wnchild: Dict[int, int] = {}
        self._kids: Dict[int, List[int]] = {}
        self._next = 0  # the next position handle; never reused

        self._root: Dict[int, int] = {}
        self._heir: Dict[int, int] = {}
        self._leafpos: Dict[Tuple[int, int], int] = {}
        self._intpos: Dict[Tuple[int, int], int] = {}

    def _new(self, kind: int, val: int) -> int:
        pos = self._next
        self._next += 1
        self.wkind[pos] = kind
        self.wval[pos] = val
        self.wparent[pos] = NIL
        return pos

    def _mk_leaf(self, owner: int, stand_in: int) -> int:
        pos = self._new(W_LEAF, stand_in)
        self._leafpos[(owner, stand_in)] = pos
        return pos

    def _mk_internal(self, owner: int, sim: int, children: Sequence[int]) -> int:
        pos = self._new(W_INTERNAL, sim)
        self._kids[pos] = list(children)
        self.wnchild[pos] = len(children)
        for child in children:
            self.wparent[child] = pos
        self._intpos[(owner, sim)] = pos
        return pos

    def _children(self, pos: int) -> List[int]:
        """The live child list (read it; the text never mutates under it)."""
        return self._kids[pos]

    def _append(self, parent: int, child: int) -> None:
        self._kids[parent].append(child)
        self.wparent[child] = parent
        self.wnchild[parent] += 1

    def _unlink(self, parent: int, child: int) -> None:
        self._kids[parent].remove(child)
        self.wparent[child] = NIL
        self.wnchild[parent] -= 1

    def _graft(self, owner: int, old: int, new: int) -> None:
        """Put ``new`` exactly where ``old`` sits (parent slot or root)."""
        grand = self.wparent[old]
        self.wparent[new] = grand
        if grand == NIL:
            self._root[owner] = new
        else:
            kids = self._kids[grand]
            kids[kids.index(old)] = new
        self.wparent[old] = NIL

    def _retag(self, pos: int, val: int) -> None:
        self.wval[pos] = val

    def _release(self, pos: int) -> None:
        del self.wkind[pos], self.wval[pos], self.wparent[pos]
        self._kids.pop(pos, None)
        self.wnchild.pop(pos, None)

    def _check_links(self, pos: int, kids: List[int]) -> None:
        if self.wnchild[pos] != len(kids):
            raise InvariantViolationError("will-nchild", str(self.wval[pos]))


class SlotTree:
    """One node's will: a view ``(store, owner)`` of a will store.

    ``SlotTree(stand_ins, branching)`` builds a fresh will in a store of
    its own (owner 0); :meth:`of` views an existing will in a shared
    store — a protocol node's will in its driver's :class:`ObjectWills`,
    or any will of a :class:`~repro.core.flat.FlatWills` arena.  Every
    method is a one-statement delegate to the store's :class:`WillText`.

    Parameters
    ----------
    stand_ins:
        The child stand-ins.  They are sorted ascending at construction
        (Algorithm 3.5); the maximum becomes the heir.
    branching:
        Maximum number of children per internal position (paper: 2).
    """

    __slots__ = ("store", "owner")

    def __init__(self, stand_ins: Sequence[int], branching: int = 2):
        self.store: WillText = ObjectWills(branching)
        self.owner = 0
        self.store.build(0, stand_ins)

    @classmethod
    def of(cls, store: WillText, owner: int) -> "SlotTree":
        """The view of ``owner``'s will in ``store`` (no copy)."""
        view = cls.__new__(cls)
        view.store = store
        view.owner = owner
        return view

    def __len__(self) -> int:
        return len(self.store.stand_ins(self.owner))

    def __bool__(self) -> bool:
        return not self.store.empty(self.owner)

    def __contains__(self, stand_in: int) -> bool:
        return self.store.contains(self.owner, stand_in)

    @property
    def branching(self) -> int:
        return self.store.branching

    @property
    def heir(self) -> Optional[int]:
        return self.store.heir(self.owner)

    @property
    def stand_ins(self) -> List[int]:
        return self.store.stand_ins(self.owner)

    @property
    def internal_sims(self) -> List[int]:
        return self.store.internal_sims(self.owner)

    def has_internal(self, stand_in: int) -> bool:
        return self.store.has_internal(self.owner, stand_in)

    def depth(self) -> int:
        return self.store.depth(self.owner)

    def root_sim(self) -> int:
        return self.store.root_sim(self.owner)

    def internal_specs(self) -> List[InternalSpec]:
        return self.store.internal_specs(self.owner)

    def attachment_sim(self, stand_in: int) -> Optional[int]:
        return self.store.attachment_sim(self.owner, stand_in)

    def internal_parent_sim(self, stand_in: int) -> Optional[int]:
        return self.store.internal_parent_sim(self.owner, stand_in)

    def internal_children_refs(self, stand_in: int) -> List[PosRef]:
        return self.store.internal_children_refs(self.owner, stand_in)

    def as_shape(self):
        return self.store.as_shape(self.owner)

    def remove(self, stand_in: int) -> RemovalDelta:
        return self.store.remove(self.owner, stand_in)

    def replace(self, old: int, new: int) -> ReplaceDelta:
        return self.store.replace(self.owner, old, new)

    def add(self, stand_in: int) -> AddDelta:
        return self.store.add(self.owner, stand_in)

    def add_batch(self, stand_ins: Sequence[int]) -> AddBatchDelta:
        return self.store.add_batch(self.owner, stand_ins)

    def check(self) -> Tuple[int, int]:
        return self.store.check(self.owner)

    def clone(self) -> "SlotTree":
        """Deep copy preserving positions (not re-sorted), in a store of
        its own."""
        return ObjectWills(self.store.branching).adopt(self.store, self.owner)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SlotTree({self.as_shape()!r}, heir={self.heir})"


def _split_even(ids: Sequence[int], branching: int) -> List[Sequence[int]]:
    """Split ``ids`` into at most ``branching`` contiguous near-even groups.

    For b = 2 this is the classic ceil/floor split, so depth is
    ``ceil(log2 d)`` — the balance Theorem 1.2 relies on.
    """
    n = len(ids)
    k = min(branching, n)
    groups: List[Sequence[int]] = []
    start = 0
    for i in range(k):
        size = (n - start + (k - i - 1)) // (k - i)  # ceil of remaining / slots
        groups.append(ids[start : start + size])
        start += size
    return [g for g in groups if g]
