"""The Forgiving Tree on the explicit object model (the readable reference).

The paper states its algorithm once, and so does this package: the healing
steps — ``FixNodeDeletion`` / ``FixLeafDeletion`` with RT deployment,
``bypass``, short-circuiting, heir inheritance, leaf wills, the churn
model's joins — are the methods of
:class:`~repro.core.flat_tree.FlatForgivingTree`.  :class:`ForgivingTree`
runs *those same function objects* over a different store: one
:class:`~repro.core.virtual_tree.VirtualTree` of node objects, the shape
the paper draws, and one :class:`~repro.core.slot_tree.ObjectWills` for
every node's will.  The private adapter at the bottom of this module
presents the tree through the handle/column surface the algorithm is
written against (handles are the ``VTNode`` objects themselves, ``NIL``
plays ``None``); the wills need none, since ``ObjectWills`` and the flat
engine's ``FlatWills`` are two stores of one will text
(:class:`~repro.core.slot_tree.WillText`).

What differs between the two engines is therefore storage only — ordered
Python child lists vs intrusive linked lists, object identity vs recycled
integer slots, recomputed vs maintained degree counters, never-recycled
will positions with Python child lists vs the ``FlatWills`` arena's free
list and intrusive links — and that is what driving both with one event
stream (``tests/test_flatcore.py``, the soak service's resume
cross-validation) checks.  The message-level distributed protocol in
:mod:`repro.distributed` is an independently written refinement of the
algorithm that keeps its wills in an ``ObjectWills`` too; integration
tests assert it produces the same image graph after every event.

Usage::

    from repro import ForgivingTree

    ft = ForgivingTree({0: [1, 2], 1: [3, 4], 2: [], 3: [], 4: []})
    report = ft.delete(1)          # adversary kills node 1
    ft.max_degree_increase()       # never exceeds 3 (Theorem 1.1)
    ft.adjacency()                 # the healed overlay

The engine accepts any tree given as an adjacency mapping, an edge list, or
a ``networkx`` graph.  ``branching`` generalizes the binary reconstruction
trees to the Section 4.2 tradeoff (degree increase ``b + 1``, depth
``log_b``); ``will_mode`` selects positional O(1) will maintenance
(``"splice"``, default, the paper's full-version behavior) or literal
regeneration (``"rebuild"``, Algorithm 3.4's reading) for the ablation
study.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from .errors import (
    NodeNotFoundError,
    NotATreeError,
)
from .flat import NIL
from .flat_tree import (
    WILL_REBUILD,
    WILL_SPLICE,
    FlatForgivingTree,
    TreeInput,
    _Tally,
    as_adjacency,
    check_is_tree,
)
from .slot_tree import ObjectWills
from .state import HelperState, NodeState
from .virtual_tree import VirtualTree, VTHelper, VTNode, VTReal, owner_of


class ForgivingTree:
    """Self-healing tree data structure (see module docstring).

    Parameters
    ----------
    tree:
        The initial tree: adjacency mapping ``{node: [neighbors...]}``, an
        iterable of edges, or a ``networkx.Graph``.
    root:
        Root node id; defaults to the smallest id (the paper roots the BFS
        tree arbitrarily).
    branching:
        Max children per helper node; 2 reproduces the paper, larger values
        give the Section 4.2 degree/diameter tradeoff (α = branching + 1).
    will_mode:
        ``"splice"`` (positional, O(1) portions per change — default) or
        ``"rebuild"`` (full regeneration, used by the ablation benchmark).
    strict:
        Run the full invariant checker after every deletion (slow; tests).
    """

    def __init__(
        self,
        tree: TreeInput,
        root: Optional[int] = None,
        branching: int = 2,
        will_mode: str = WILL_SPLICE,
        strict: bool = False,
    ) -> None:
        if will_mode not in (WILL_SPLICE, WILL_REBUILD):
            raise ValueError(f"unknown will_mode {will_mode!r}")
        if branching < 2:
            raise ValueError("branching must be >= 2")
        self.branching = branching
        self.will_mode = will_mode
        self.strict = strict

        adjacency = as_adjacency(tree)
        if not adjacency:
            raise NotATreeError("empty tree")
        self.root_id = min(adjacency) if root is None else root
        if self.root_id not in adjacency:
            raise NodeNotFoundError(self.root_id, "root")
        check_is_tree(adjacency)

        self._events: List[object] = []
        self._mount(VirtualTree(recorder=self._events.append), ObjectWills(branching))
        self.original_degree: Dict[int, int] = {
            nid: len(neigh) for nid, neigh in adjacency.items()
        }
        self.initial_nodes: Set[int] = set(adjacency)
        self._ever: Set[int] = set(adjacency)  # ids may never be reused
        self._tally = _Tally()
        self.rounds = 0
        self._build(adjacency)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _mount(self, vt: VirtualTree, wills: ObjectWills) -> None:
        """Adopt the storage, and present it to the healing algorithm."""
        self._vt = vt
        self._c = _ObjectCore(vt)
        self._w = wills

    def _build(self, adjacency: Mapping[int, Sequence[int]]) -> None:
        vt = self._vt
        for nid in adjacency:
            vt.add_real(nid)
        root = vt.real(self.root_id)
        vt.set_root(root)
        seen = {self.root_id}
        queue = deque([self.root_id])
        while queue:
            nid = queue.popleft()
            parent = vt.real(nid)
            kids = sorted(k for k in adjacency[nid] if k not in seen)
            for kid in kids:
                seen.add(kid)
                vt.attach(vt.real(kid), parent)
                queue.append(kid)
            self._w.build(nid, kids)

    # ------------------------------------------------------------------
    # public queries
    # ------------------------------------------------------------------
    @property
    def alive(self) -> Set[int]:
        """Ids of surviving nodes."""
        return self._vt.alive

    def __len__(self) -> int:
        return len(self._vt)

    def __contains__(self, nid: int) -> bool:
        return nid in self._vt

    def adjacency(self) -> Dict[int, Set[int]]:
        """Current healed overlay (image graph) adjacency."""
        return self._vt.image_adjacency()

    def edges(self) -> Set[Tuple[int, int]]:
        """Current healed overlay edges (canonical pairs)."""
        return self._vt.image_edges()

    def degree(self, nid: int) -> int:
        """Current degree of ``nid`` in the healed overlay."""
        return self._vt.image_degree(nid)

    def degree_increase(self, nid: int) -> int:
        """Current degree minus original degree (Theorem 1.1 quantity)."""
        return self.degree(nid) - self.original_degree[nid]

    def max_degree_increase(self) -> int:
        """``max_v degree(v, G_t) - degree(v, G_0)`` over survivors."""
        if not self._vt:
            return 0
        return max(self.degree_increase(nid) for nid in self._vt.alive)

    def state_of(self, nid: int) -> NodeState:
        """Wait/Ready/Deployed snapshot for ``nid`` (Figure 3)."""
        if nid not in self._vt:
            raise NodeNotFoundError(nid, "state_of")
        role = self._vt.role_of(nid)
        if role is None:
            return NodeState(nid, HelperState.WAIT, False, False, 0)
        nkids = len(role.children)
        if nkids == 1:
            return NodeState(nid, HelperState.READY, True, True, 1)
        return NodeState(nid, HelperState.DEPLOYED, True, False, nkids)

    def virtual_tree(self) -> VirtualTree:
        """The underlying virtual tree (read it, do not mutate it)."""
        return self._vt

    def render(self) -> str:
        """ASCII view of the virtual tree (helpers bracketed)."""
        return self._vt.render()

    def check(self) -> None:
        """Validate every invariant of the structure; raise on violation."""
        self._vt.check(branching=self.branching)
        self._check_wills()

    # The will read-outs and the wills' check are the flat engine's too:
    # both engines' wills are stores of the one will text.
    will_of = FlatForgivingTree.will_of
    heir_of = FlatForgivingTree.heir_of
    _check_wills = FlatForgivingTree._check_wills

    # ------------------------------------------------------------------
    # the healing algorithm: FlatForgivingTree's text, verbatim, reading
    # and writing this engine's storage through ``self._c`` / ``self._w``
    # ------------------------------------------------------------------
    delete = FlatForgivingTree.delete
    insert = FlatForgivingTree.insert
    insert_batch = FlatForgivingTree.insert_batch
    sample_alive = FlatForgivingTree.sample_alive
    _leaf_will_holder = FlatForgivingTree._leaf_will_holder
    _fix_node_deletion = FlatForgivingTree._fix_node_deletion
    _fix_leaf_deletion = FlatForgivingTree._fix_leaf_deletion
    _absorb_child_loss = FlatForgivingTree._absorb_child_loss
    _will_remove = FlatForgivingTree._will_remove
    _will_replace = FlatForgivingTree._will_replace
    _rebuild_will = FlatForgivingTree._rebuild_will
    _refresh_leaf_wills = FlatForgivingTree._refresh_leaf_wills
    _send_leaf_will = FlatForgivingTree._send_leaf_will
    _replace_slot_standin = FlatForgivingTree._replace_slot_standin
    _donor_exclusions = FlatForgivingTree._donor_exclusions
    _splice_helper = FlatForgivingTree._splice_helper
    _standin_collision = FlatForgivingTree._standin_collision
    _notify_standin_change = FlatForgivingTree._notify_standin_change
    _find_donor = FlatForgivingTree._find_donor
    _record_destroy = FlatForgivingTree._record_destroy


# ----------------------------------------------------------------------
# the object store behind the algorithm's handle/column surface
# ----------------------------------------------------------------------
class _Column:
    """One :class:`~repro.core.flat.FlatCore` column, computed:
    ``column[node]`` reads the field off the node object."""

    __slots__ = ("_read",)

    def __init__(self, read: Callable[[VTNode], object]) -> None:
        self._read = read

    def __getitem__(self, node: VTNode):
        return self._read(node)


class _ObjectCore:
    """A :class:`VirtualTree` spoken to the way the healing algorithm
    speaks to :class:`~repro.core.flat.FlatCore`.

    Handles are the ``VTNode`` objects (hashable, equal only to
    themselves, never equal to ``NIL``); ``NIL`` stands wherever the tree
    itself says ``None``.  Nothing here decides anything: every method is
    the tree's own operation, or a field read.
    """

    ident = _Column(lambda x: x.nid if x.is_real else x.hid)
    nchild = _Column(lambda x: len(x.children))
    parent = _Column(lambda x: NIL if x.parent is None else x.parent)
    sim = _Column(lambda x: x.sim)
    head = _Column(lambda x: x.children[0] if x.children else NIL)

    def __init__(self, vt: VirtualTree) -> None:
        self.vt = vt
        self.role = _Column(lambda x: self.role_of(x.nid))

    @property
    def _reals(self) -> Dict[int, VTReal]:
        return self.vt._reals  # the live id map

    @property
    def recorder(self) -> Optional[Callable[[object], None]]:
        return self.vt.recorder

    @recorder.setter
    def recorder(self, recorder: Optional[Callable[[object], None]]) -> None:
        self.vt.recorder = recorder

    def __len__(self) -> int:
        return len(self.vt)

    def __contains__(self, nid: int) -> bool:
        return nid in self.vt

    # -- queries -------------------------------------------------------
    def real(self, nid: int) -> VTReal:
        return self.vt.real(nid)

    def is_real(self, node: VTNode) -> bool:
        return node.is_real

    def is_helper(self, node: VTNode) -> bool:
        return node.is_helper

    def owner(self, node: VTNode) -> int:
        return owner_of(node)

    def role_of(self, nid: int):
        return self.vt._role.get(nid, NIL)

    def children(self, node: VTNode) -> List[VTNode]:
        return list(node.children)  # fresh: callers mutate the tree under it

    def helper_slots(self) -> List[VTHelper]:
        return self.vt.helpers()  # creation order == hid-ascending

    def helper_alive(self, helper: VTHelper) -> bool:
        return self.vt.helper_alive(helper)

    def sample_alive(self, rng) -> int:
        """Uniform surviving node id: a sorted draw (O(n log n) — the
        object model keeps no sampling index)."""
        return rng.choice(sorted(self._reals))

    # -- flat-only bookkeeping the object model has no use for ----------
    def begin_event(self) -> None:
        """Handles are objects: nothing is recycled between events."""

    def bump_original_degree(self, nid: int) -> None:
        """Degrees are recomputed from the image graph, not maintained."""

    # -- mutations -----------------------------------------------------
    def add_real(self, nid: int, original_degree: int = 0) -> VTReal:
        return self.vt.add_real(nid)  # baseline degrees: a maintained counter

    def new_helper(self, sim: int) -> VTHelper:
        return self.vt.new_helper(sim)

    def set_root(self, node) -> None:
        self.vt.set_root(None if node == NIL else node)

    def attach(self, child: VTNode, parent: VTNode) -> None:
        self.vt.attach(child, parent)

    def detach(self, child: VTNode):
        parent = self.vt.detach(child)
        return NIL if parent is None else parent

    def replace_child(self, parent: VTNode, old: VTNode, new: VTNode) -> None:
        self.vt.replace_child(parent, old, new)

    def splice(self, helper: VTHelper) -> Optional[VTNode]:
        return self.vt.splice(helper)

    def transfer_role(self, helper: VTHelper, new_sim: int) -> int:
        return self.vt.transfer_role(helper, new_sim)

    def destroy_helper(self, helper: VTHelper) -> None:
        self.vt.destroy_helper(helper)

    def remove_real(self, real: VTReal) -> None:
        self.vt.remove_real(real)
