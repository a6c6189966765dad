"""The virtual tree: real nodes, helper nodes, and the image homomorphism.

The paper describes the healed network as "the homomorphic image of the tree
... under a graph homomorphism which fixes the actual nodes in the tree and
maps each virtual node to a distinct actual node which is simulating it"
(Section 3).  This module makes that object explicit: a rooted tree over
*real* nodes (processors) and *helper* ("virtual") nodes, each helper
simulated by exactly one live real node and each real node simulating at
most one helper (this is what bounds the degree increase by 3: one
``hparent`` edge plus at most two ``hchildren`` edges), together with an
*incrementally maintained* image graph: every virtual-tree edge ``(A, B)``
contributes the edge ``(owner(A), owner(B))`` to the real network unless
the owners coincide (self-loops vanish — that is the paper's "if ``hy`` is
``ly``'s parent" rule in Algorithm 3.6).

The healing algorithm (:mod:`repro.core.flat_tree`) performs all of the
paper's operations — RT deployment, ``bypass``, short-circuiting, heir and
leaf-will inheritance — as small structured mutations on this tree, and the
image graph falls out automatically.  Keeping the pre-image explicit is what
lets the test-suite check the paper's invariants directly.

**One text, two stores.**  The tree's rules are written once, as the
methods of :class:`TreeText`: construction (``add_real``, ``new_helper``,
``set_root``), the structural operations (``attach``, ``detach``,
``replace_child``, ``splice`` — the paper's ``bypass`` —,
``transfer_role``, ``destroy_helper``, ``remove_real``), the image graph
they maintain (an edge refcount, every real's image degree, the multiset
of degree increases), the queries, ``check``, ``render`` and ``adopt``.
Nodes are integer *handles*; ``NIL`` plays ``None``.  The text reads and
writes nine columns indexed by handle (``kind``, ``ident``, ``sim``,
``parent``, ``head``, ``nchild``, ``role``, ``imgdeg``, ``inc``) and five
indexes (``_reals`` / ``_helpers`` by id, ``_image``, ``_root``,
``_hid_counter``), and touches child order only through a small port
(``_alloc``, ``_release``, ``children``, ``_append``, ``_unlink``,
``_swap``, ``_check_links``, ``begin_event``).  Two stores implement the
port and inherit the text:

* :class:`~repro.core.flat.FlatCore` — ``array('q')`` columns, intrusive
  child lists, recycled slots: the hot path;
* :class:`VirtualTree` (here) — dict columns, Python child lists, handles
  never recycled: the readable store, the object engine's, and the oracle
  the flat arena's storage is cross-checked against.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from .errors import (
    DuplicateNodeError,
    InvariantViolationError,
    NodeNotFoundError,
)
from .events import EdgeAdded, EdgeRemoved, edge_key
from .slot_tree import NIL

#: Node kinds (the ``kind`` column).
KIND_FREE = 0
KIND_REAL = 1
KIND_HELPER = 2


class TreeText:
    """The virtual-tree rules, stated once, over a store port.

    A store subclasses this text, calls ``__init__`` for the indexes, and
    supplies the columns and the port methods named in the module
    docstring.  The text reads columns by plain indexing, so the same
    function objects run over the flat arena and the object store.
    ``role[x]`` is the helper a real simulates (``NIL``: none);
    ``imgdeg[x]`` / ``inc[x]`` are a real's image degree and its increase
    over the original degree.
    """

    kind: object
    ident: object
    sim: object
    parent: object
    head: object
    nchild: object
    role: object
    imgdeg: object
    inc: object

    def __init__(self, recorder: Optional[Callable[[object], None]] = None):
        self._reals: Dict[int, int] = {}  # nid -> handle (node age order)
        self._helpers: Dict[int, int] = {}  # hid -> handle (hid-ascending order)
        self._image: Dict[Tuple[int, int], int] = {}  # canonical edge -> mult
        self._root = NIL
        self._hid_counter = 0
        self.recorder = recorder

        # Degree-increase multiset over alive reals: value -> count, plus a
        # lazily-repaired max (values are bounded by branching + 1, so the
        # repair scan is O(#distinct values) and rare).
        self._inc_count: Dict[int, int] = {}
        self._inc_max = 0
        self._inc_dirty = False

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._reals)

    def __contains__(self, nid: int) -> bool:
        return nid in self._reals

    def real(self, nid: int) -> int:
        try:
            return self._reals[nid]
        except KeyError:
            raise NodeNotFoundError(nid, "virtual tree") from None

    def is_real(self, x: int) -> bool:
        return self.kind[x] == KIND_REAL

    def is_helper(self, x: int) -> bool:
        return self.kind[x] == KIND_HELPER

    def owner(self, x: int) -> int:
        """The real node answering for ``x`` in the image graph."""
        return self.ident[x] if self.kind[x] == KIND_REAL else self.sim[x]

    def role_of(self, nid: int) -> int:
        """The helper ``nid`` simulates (``ishelper``), or NIL."""
        return self.role[self._reals[nid]]

    def helper_slots(self) -> List[int]:
        """All helpers, hid-ascending (dict order: hids are monotone)."""
        return list(self._helpers.values())

    def helper_alive(self, x: int) -> bool:
        """Is helper ``x`` still part of the structure (not destroyed)?"""
        return self.kind[x] == KIND_HELPER and self._helpers.get(self.ident[x]) == x

    # ------------------------------------------------------------------
    # image graph and degree accounting
    # ------------------------------------------------------------------
    def image_adjacency(self) -> Dict[int, Set[int]]:
        """Adjacency of the image (healed real network), tree edges only."""
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
        return self.inc[self.real(nid)]

    def max_degree_increase(self) -> int:
        """Max degree increase over survivors, O(1) amortized."""
        if not self._inc_count:
            return 0
        if self._inc_dirty:
            self._inc_max = max(self._inc_count)
            self._inc_dirty = False
        return self._inc_max

    def bump_original_degree(self, nid: int) -> None:
        """The ideal-graph baseline of ``nid`` grew by one edge."""
        self._inc_shift(self._reals[nid], -1)

    def _inc_shift(self, x: int, delta: int) -> None:
        """Move a live real's degree-increase value in the multiset."""
        old = self.inc[x]
        new = old + delta
        self.inc[x] = new
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

    def _image_add(self, a: int, b: int) -> None:
        u = self.ident[a] if self.kind[a] == KIND_REAL else self.sim[a]
        v = self.ident[b] if self.kind[b] == KIND_REAL else self.sim[b]
        if u == v:
            return
        key = (u, v) if u <= v else (v, u)
        mult = self._image.get(key, 0) + 1
        self._image[key] = mult
        if mult == 1:
            xu, xv = self._reals[u], self._reals[v]
            self.imgdeg[xu] += 1
            self.imgdeg[xv] += 1
            self._inc_shift(xu, 1)
            self._inc_shift(xv, 1)
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
            xu, xv = self._reals[u], self._reals[v]
            self.imgdeg[xu] -= 1
            self.imgdeg[xv] -= 1
            self._inc_shift(xu, -1)
            self._inc_shift(xv, -1)
            if self.recorder is not None:
                self.recorder(EdgeRemoved(*key))
        else:
            self._image[key] = mult - 1

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_real(self, nid: int, original_degree: int = 0) -> int:
        """Register a new detached real node."""
        if nid in self._reals:
            raise DuplicateNodeError(nid)
        x = self._new(KIND_REAL, nid, NIL)
        self.imgdeg[x] = 0
        self.inc[x] = -original_degree
        self._reals[nid] = x
        self._inc_enter(-original_degree)
        return x

    def new_helper(self, sim: int) -> int:
        """Create a fresh detached helper simulated by ``sim``."""
        try:
            sim_x = self._reals[sim]
        except KeyError:
            raise NodeNotFoundError(sim, "helper simulator") from None
        if self.role[sim_x] != NIL:
            raise InvariantViolationError(
                "one-role-per-node", f"{sim} already simulates a helper"
            )
        self._hid_counter += 1
        x = self._new(KIND_HELPER, self._hid_counter, sim)
        self._helpers[self._hid_counter] = x
        self.role[sim_x] = x
        return x

    def _new(self, kind: int, ident: int, sim: int) -> int:
        x = self._alloc(kind, ident)
        self.sim[x] = sim
        self.parent[x] = NIL
        self.head[x] = NIL
        self.nchild[x] = 0
        self.role[x] = NIL
        return x

    def set_root(self, x: int) -> None:
        if x != NIL and self.parent[x] != NIL:
            raise InvariantViolationError("root", "root must have no parent")
        self._root = x

    @classmethod
    def adopt(cls, src: "TreeText") -> "TreeText":
        """A copy of store ``src`` in a fresh store of this class.

        Same reals in the same order, same helpers with the same hids and
        simulators, same child order, same image and degree counters —
        how the flat engine hands its tree to an object view.
        """
        self = cls()
        copy: Dict[int, int] = {}
        for nid, x in src._reals.items():
            copy[x] = self.add_real(nid, original_degree=src.imgdeg[x] - src.inc[x])
        for hid, h in src._helpers.items():
            self._hid_counter = hid - 1
            copy[h] = self.new_helper(src.sim[h])
        self._hid_counter = src._hid_counter
        for x in src.iter_nodes():
            for child in src.children(x):
                self.attach(copy[child], copy[x])
        if src._root != NIL:
            self.set_root(copy[src._root])
        return self

    # ------------------------------------------------------------------
    # structural mutations (image bookkeeping is automatic)
    # ------------------------------------------------------------------
    def attach(self, child: int, parent: int) -> None:
        """Attach a detached subtree as ``parent``'s last child."""
        if self.parent[child] != NIL:
            raise InvariantViolationError("attach", "child already attached")
        self._append(parent, child)
        self.nchild[parent] += 1
        self.parent[child] = parent
        self._image_add(child, parent)

    def detach(self, child: int) -> int:
        """Detach ``child`` from its parent; returns the old parent or NIL."""
        parent = self.parent[child]
        if parent == NIL:
            return NIL
        self._unlink(parent, child)
        self.nchild[parent] -= 1
        self.parent[child] = NIL
        self._image_remove(child, parent)
        return parent

    def replace_child(self, parent: int, old: int, new: int) -> None:
        """Substitute ``old`` by detached ``new`` at the same position."""
        if self.parent[new] != NIL:
            raise InvariantViolationError("replace_child", "replacement already attached")
        self._swap(parent, old, new)
        self.parent[old] = NIL
        self.parent[new] = parent
        self._image_remove(old, parent)
        self._image_add(new, parent)

    def splice(self, helper: int) -> int:
        """Remove a one-child helper, connecting its child to its parent.

        This is the paper's ``bypass`` operation / the "short-circuit" of a
        redundant virtual node whose degree dropped from 3 to 2.  Returns
        the child that moved up.  The helper is destroyed.
        """
        if self.nchild[helper] != 1:
            raise InvariantViolationError(
                "bypass-precondition", f"helper has {self.nchild[helper]} children"
            )
        child = self.head[helper]
        parent = self.parent[helper]
        self.detach(child)
        if parent != NIL:
            self.replace_child(parent, helper, child)
        elif self._root == helper:
            self._root = child
        self.destroy_helper(helper)
        return child

    def transfer_role(self, helper: int, new_sim: int) -> int:
        """Change the simulator of ``helper`` (heir / leaf-will inheritance).

        Returns the previous simulator id.  The image edges incident to the
        helper are re-registered under the new owner.
        """
        if new_sim not in self._reals:
            raise NodeNotFoundError(new_sim, "transfer_role")
        new_x = self._reals[new_sim]
        if self.role[new_x] != NIL:
            raise InvariantViolationError(
                "one-role-per-node", f"{new_sim} already simulates a helper"
            )
        old_sim = self.sim[helper]
        incident = self.children(helper)
        if self.parent[helper] != NIL:
            incident.append(self.parent[helper])
        for other in incident:
            self._image_remove(helper, other)
        old_x = self._reals.get(old_sim, NIL)
        if old_x != NIL and self.role[old_x] == helper:
            self.role[old_x] = NIL
        self.sim[helper] = new_sim
        self.role[new_x] = helper
        for other in incident:
            self._image_add(helper, other)
        return old_sim

    def destroy_helper(self, helper: int) -> None:
        """Remove a detached, childless helper from the structure."""
        if self.nchild[helper] or self.parent[helper] != NIL:
            raise InvariantViolationError("destroy-helper", "still attached")
        sim_x = self._reals.get(self.sim[helper], NIL)
        if sim_x != NIL and self.role[sim_x] == helper:
            self.role[sim_x] = NIL
        if self._root == helper:
            self._root = NIL
        del self._helpers[self.ident[helper]]
        self._release(helper)

    def remove_real(self, x: int) -> None:
        """Remove a detached, childless, role-free real node."""
        if self.nchild[x] or self.parent[x] != NIL:
            raise InvariantViolationError("remove-real", "still attached")
        if self.role[x] != NIL:
            raise InvariantViolationError("remove-real", "still simulating a helper")
        if self._root == x:
            self._root = NIL
        del self._reals[self.ident[x]]
        self._inc_leave(self.inc[x])
        self._release(x)

    # ------------------------------------------------------------------
    # validation / inspection
    # ------------------------------------------------------------------
    def iter_nodes(self) -> Iterator[int]:
        """Preorder traversal from the root."""
        if self._root == NIL:
            return
        stack = [self._root]
        while stack:
            x = stack.pop()
            yield x
            stack.extend(reversed(self.children(x)))

    def check(self, branching: int = 2) -> None:
        """Validate every virtual-tree invariant, the maintained image and
        degree counters, and the store's own links; raise on violation."""
        seen_real: Set[int] = set()
        seen_help: Set[int] = set()
        image: Dict[Tuple[int, int], int] = {}
        stack = [] if self._root == NIL else [self._root]
        if stack and self.parent[self._root] != NIL:
            raise InvariantViolationError("vt-root", "root has a parent")
        while stack:
            x = stack.pop()
            kids = self.children(x)
            if len(kids) != self.nchild[x] or self.head[x] != (kids[0] if kids else NIL):
                raise InvariantViolationError("vt-child-count", f"node {x}")
            u = self.owner(x)
            for child in kids:
                if self.parent[child] != x:
                    raise InvariantViolationError("vt-parent-link", f"node {x}")
                v = self.owner(child)
                if u != v:
                    key = edge_key(u, v)
                    image[key] = image.get(key, 0) + 1
            stack.extend(kids)
            kind, ident = self.kind[x], self.ident[x]
            if kind == KIND_REAL:
                if ident in seen_real or self._reals.get(ident) != x:
                    raise InvariantViolationError("vt-dup", f"real {ident}")
                seen_real.add(ident)
            elif kind == KIND_HELPER:
                if ident in seen_help or self._helpers.get(ident) != x:
                    raise InvariantViolationError("vt-dup", f"helper {ident}")
                seen_help.add(ident)
                sim = self.sim[x]
                if sim not in self._reals:
                    raise InvariantViolationError(
                        "vt-sim-alive", f"helper {ident} simulated by dead {sim}"
                    )
                if self.role[self._reals[sim]] != x:
                    raise InvariantViolationError(
                        "vt-role-map", f"role map disagrees for sim {sim}"
                    )
                if not 1 <= len(kids) <= branching:
                    raise InvariantViolationError(
                        "vt-helper-arity", f"helper {ident} has {len(kids)} children"
                    )
            else:
                raise InvariantViolationError("vt-free-reachable", f"node {x}")
        if seen_real != set(self._reals):
            raise InvariantViolationError(
                "vt-reachability", f"unreachable reals: {set(self._reals) - seen_real}"
            )
        if seen_help != set(self._helpers):
            raise InvariantViolationError(
                "vt-reachability", f"unreachable helpers: {set(self._helpers) - seen_help}"
            )
        # The role map read the other way: every role a real holds is a
        # live helper that real simulates (a stale entry passes the
        # helper -> simulator check above but reports a phantom role).
        helpers = set(self._helpers.values())
        holders = 0
        for nid, x in self._reals.items():
            h = self.role[x]
            if h != NIL:
                holders += 1
                if h not in helpers or self.sim[h] != nid:
                    raise InvariantViolationError("vt-role-map", f"{nid} holds a stale role")
        if holders != len(helpers):
            raise InvariantViolationError("vt-role-map", "role holders != helpers")
        if image != self._image:
            raise InvariantViolationError("image-counter", "incremental image diverged")
        self._check_counters()
        self._check_links()

    def _check_counters(self) -> None:
        """Recount the image degrees and the degree-increase multiset."""
        degs: Dict[int, int] = {nid: 0 for nid in self._reals}
        for (u, v) in self._image:
            degs[u] += 1
            degs[v] += 1
        inc_recount: Dict[int, int] = {}
        for nid, x in self._reals.items():
            if self.imgdeg[x] != degs[nid]:
                raise InvariantViolationError(
                    "vt-imgdeg", f"node {nid}: {self.imgdeg[x]} != {degs[nid]}"
                )
            val = self.inc[x]
            inc_recount[val] = inc_recount.get(val, 0) + 1
        if inc_recount != self._inc_count:
            raise InvariantViolationError("vt-inc-multiset", "multiset diverged")
        if inc_recount and self.max_degree_increase() != max(inc_recount):
            raise InvariantViolationError("vt-inc-max", "stale maximum")

    def render(self) -> str:
        """ASCII rendering of the virtual tree (for examples and debugging).

        Real nodes render as their id; helpers as ``[sim]`` (deployed) or
        ``<sim>`` (ready heirs), mirroring Figure 1's circles vs rectangle.
        """
        lines: List[str] = []

        def walk(x: int, prefix: str, last: bool) -> None:
            if self.kind[x] == KIND_REAL:
                label = str(self.ident[x])
            else:
                label = f"<{self.sim[x]}>" if self.nchild[x] == 1 else f"[{self.sim[x]}]"
            connector = "" if not prefix else ("`- " if last else "|- ")
            lines.append(prefix + connector + label)
            child_prefix = prefix + ("   " if last or not prefix else "|  ")
            kids = self.children(x)
            for i, child in enumerate(kids):
                walk(child, child_prefix, i == len(kids) - 1)

        if self._root == NIL:
            return "(empty)"
        walk(self._root, "", True)
        return "\n".join(lines)


class VirtualTree(TreeText):
    """The virtual tree on dict columns and Python child lists.

    The readable store of :class:`TreeText`: a handle is an integer
    handed out once and never recycled, its columns are dict entries, its
    children a plain ``list``.  The object engine keeps its tree here, and
    it is the oracle the flat arena's storage is cross-checked against.
    As on the flat store, a handle freed during an event stays readable
    until the next event begins; then its entries are dropped.

    Parameters
    ----------
    recorder:
        Optional callback receiving :class:`EdgeAdded` / :class:`EdgeRemoved`
        events as image edges appear and disappear (used by the engine to
        build :class:`~repro.core.events.HealReport`).
    """

    def __init__(self, recorder: Optional[Callable[[object], None]] = None):
        super().__init__(recorder)
        self.kind: Dict[int, int] = {}
        self.ident: Dict[int, int] = {}  # nid for reals, hid for helpers
        self.sim: Dict[int, int] = {}  # helpers: simulator nid; reals: NIL
        self.parent: Dict[int, int] = {}
        self.head: Dict[int, int] = {}  # first child (NIL: none)
        self.nchild: Dict[int, int] = {}
        self.role: Dict[int, int] = {}
        self.imgdeg: Dict[int, int] = {}  # reals only
        self.inc: Dict[int, int] = {}  # reals only
        self._kids: Dict[int, List[int]] = {}
        self._next = 0  # the next handle; never reused
        self._limbo: List[int] = []  # freed this event; dropped next event

    def _alloc(self, kind: int, ident: int) -> int:
        x = self._next
        self._next += 1
        self.kind[x] = kind
        self.ident[x] = ident
        self._kids[x] = []
        return x

    def _release(self, x: int) -> None:
        self.kind[x] = KIND_FREE
        self._limbo.append(x)

    def begin_event(self) -> None:
        """Start a new healing round: drop the last round's freed handles."""
        for x in self._limbo:
            for column in (
                self.kind, self.ident, self.sim, self.parent, self.head,
                self.nchild, self.role, self.imgdeg, self.inc, self._kids,
            ):
                column.pop(x, None)
        self._limbo.clear()

    def children(self, x: int) -> List[int]:
        """Child handles in order (a fresh list — safe to mutate under it)."""
        return list(self._kids[x])

    def _append(self, parent: int, child: int) -> None:
        kids = self._kids[parent]
        if not kids:
            self.head[parent] = child
        kids.append(child)

    def _unlink(self, parent: int, child: int) -> None:
        kids = self._kids[parent]
        kids.remove(child)
        self.head[parent] = kids[0] if kids else NIL

    def _swap(self, parent: int, old: int, new: int) -> None:
        kids = self._kids[parent]
        idx = kids.index(old)
        kids[idx] = new
        if idx == 0:
            self.head[parent] = new

    def _check_links(self) -> None:
        """No handle outlives its event: every entry is live or in limbo."""
        live = set(self._reals.values()) | set(self._helpers.values())
        if set(self.kind) != live | set(self._limbo):
            raise InvariantViolationError("vt-handles", "stale handle entry")

    def sample_alive(self, rng) -> int:
        """Uniform surviving node id: a sorted draw (O(n log n) — the
        object store keeps no sampling index)."""
        return rng.choice(sorted(self._reals))
