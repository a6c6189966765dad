"""The Forgiving Tree on the object stores (the readable reference).

The paper states its algorithm once, and so does this package: the healing
steps — ``FixNodeDeletion`` / ``FixLeafDeletion`` with RT deployment,
``bypass``, short-circuiting, heir inheritance, leaf wills, the churn
model's joins — are the methods of
:class:`~repro.core.flat_tree.FlatForgivingTree`.  :class:`ForgivingTree`
runs *those same function objects*, and the flat engine's queries and
check, over different stores: one
:class:`~repro.core.virtual_tree.VirtualTree` (dict columns, Python child
lists, never-recycled handles) and one
:class:`~repro.core.slot_tree.ObjectWills` for every node's will.  The
stores need no adapter: ``VirtualTree`` and the flat engine's ``FlatCore``
are two stores of one tree text
(:class:`~repro.core.virtual_tree.TreeText`), ``ObjectWills`` and
``FlatWills`` two stores of one will text
(:class:`~repro.core.slot_tree.WillText`).

What differs between the two engines is therefore storage only — Python
child lists vs intrusive linked lists, never-recycled handles vs recycled
integer slots, a sorted draw vs a compact alive list for
:meth:`sample_alive`, a fresh ``set`` vs a live view for :attr:`alive` —
and that is what driving both with one event stream
(``tests/test_flatcore.py``, the soak service's resume cross-validation)
checks.  The message-level distributed protocol in :mod:`repro.distributed`
is an independently written refinement of the algorithm that keeps its
wills in an ``ObjectWills`` too; integration tests assert it produces the
same image graph after every event.

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

from typing import Dict, List, Optional, Set

from .errors import (
    NodeNotFoundError,
    NotATreeError,
)
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
from .virtual_tree import VirtualTree


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
        self._c = VirtualTree()  # the recorder attaches after the build
        self._w = ObjectWills(branching)
        self.original_degree: Dict[int, int] = {
            nid: len(neigh) for nid, neigh in adjacency.items()
        }
        self.initial_nodes: Set[int] = set(adjacency)
        self._ever: Set[int] = set(adjacency)  # ids may never be reused
        self._tally = _Tally()
        self.rounds = 0
        self._build(adjacency)

    @property
    def alive(self) -> Set[int]:
        """Ids of surviving nodes (a fresh ``set``)."""
        return set(self._c._reals)

    def virtual_tree(self) -> VirtualTree:
        """The live virtual tree of this engine (read it, do not mutate it)."""
        return self._c

    # ------------------------------------------------------------------
    # everything else is FlatForgivingTree's text, verbatim, reading and
    # writing this engine's stores through ``self._c`` / ``self._w``: the
    # public queries (both stores keep maintained degree counters), the
    # check, the will read-outs, and the healing algorithm
    # ------------------------------------------------------------------
    _build = FlatForgivingTree._build
    __len__ = FlatForgivingTree.__len__
    __contains__ = FlatForgivingTree.__contains__
    adjacency = FlatForgivingTree.adjacency
    edges = FlatForgivingTree.edges
    degree = FlatForgivingTree.degree
    degree_increase = FlatForgivingTree.degree_increase
    max_degree_increase = FlatForgivingTree.max_degree_increase
    state_of = FlatForgivingTree.state_of
    render = FlatForgivingTree.render
    check = FlatForgivingTree.check
    will_of = FlatForgivingTree.will_of
    heir_of = FlatForgivingTree.heir_of
    _check_wills = FlatForgivingTree._check_wills

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
