"""Unit tests for the virtual tree and its incremental image graph.

Every test runs once per store of the one tree text: the object store
(:class:`VirtualTree`) and the flat arena (:class:`FlatCore`).  Handles
are integers on both, so node attributes are read through the columns
(``vt.parent[x]``) and ``vt.children(x)``.
"""

import pytest

from repro.core.errors import (
    DuplicateNodeError,
    InvariantViolationError,
    NodeNotFoundError,
)
from repro.core.events import EdgeAdded, EdgeRemoved
from repro.core.flat import FlatCore
from repro.core.slot_tree import NIL
from repro.core.virtual_tree import KIND_HELPER, VirtualTree

STORES = (VirtualTree, FlatCore)


@pytest.fixture(params=STORES, ids=lambda cls: cls.__name__)
def store(request):
    return request.param


def build_simple(store):
    """0 - 1, 0 - 2 (root 0)."""
    vt = store()
    r0, r1, r2 = vt.add_real(0), vt.add_real(1), vt.add_real(2)
    vt.set_root(r0)
    vt.attach(r1, r0)
    vt.attach(r2, r0)
    return vt, r0, r1, r2


class TestImageBookkeeping:
    def test_real_edges(self, store):
        vt, *_ = build_simple(store)
        assert vt.image_edges() == {(0, 1), (0, 2)}
        vt.check()

    def test_helper_self_loop_vanishes(self, store):
        vt, r0, r1, r2 = build_simple(store)
        helper = vt.new_helper(1)  # simulated by 1
        vt.detach(r1)
        vt.attach(helper, r0)
        vt.attach(r1, helper)  # edge helper(sim 1) - real 1: self-loop
        assert vt.image_edges() == {(0, 1), (0, 2)}
        vt.check()

    def test_duplicate_edges_merge(self, store):
        vt, r0, r1, r2 = build_simple(store)
        helper = vt.new_helper(2)
        vt.detach(r2)
        vt.attach(helper, r0)  # image 0-2
        vt.attach(r2, helper)  # self-loop
        # 0-2 present exactly once even though contributed by helper
        assert vt.image_edges() == {(0, 1), (0, 2)}
        assert vt.image_degree(0) == 2

    def test_recorder_events(self, store):
        events = []
        vt = store(recorder=events.append)
        a, b = vt.add_real(1), vt.add_real(2)
        vt.set_root(a)
        vt.attach(b, a)
        assert events == [EdgeAdded(1, 2)]
        vt.detach(b)
        assert events[-1] == EdgeRemoved(1, 2)

    def test_transfer_role_moves_edges(self, store):
        vt, r0, r1, r2 = build_simple(store)
        helper = vt.new_helper(1)
        vt.detach(r2)
        vt.attach(helper, r0)
        vt.attach(r2, helper)
        assert vt.image_edges() == {(0, 1), (1, 2)}
        vt.transfer_role(helper, 2)
        # now the helper maps to 2: edge 1-2 gone, 0-2 appears
        assert vt.image_edges() == {(0, 1), (0, 2)}
        assert vt.role_of(2) == helper
        assert vt.role_of(1) == NIL
        vt.check()


class TestStructuralOps:
    def test_splice(self, store):
        vt, r0, r1, r2 = build_simple(store)
        helper = vt.new_helper(1)
        vt.detach(r2)
        vt.attach(helper, r0)
        vt.attach(r2, helper)
        moved = vt.splice(helper)
        assert moved == r2
        assert vt.parent[r2] == r0
        assert vt.role_of(1) == NIL
        assert vt.image_edges() == {(0, 1), (0, 2)}
        vt.check()

    def test_splice_needs_single_child(self, store):
        vt, r0, r1, r2 = build_simple(store)
        helper = vt.new_helper(1)
        vt.detach(r1), vt.detach(r2)
        vt.attach(helper, r0)
        vt.attach(r1, helper)
        vt.attach(r2, helper)
        with pytest.raises(InvariantViolationError):
            vt.splice(helper)

    def test_replace_child_positional(self, store):
        vt, r0, r1, r2 = build_simple(store)
        r3 = vt.add_real(3)
        vt.replace_child(r0, r1, r3)
        assert vt.children(r0)[0] == r3
        assert vt.parent[r1] == NIL
        assert vt.image_edges() == {(0, 3), (0, 2)}

    def test_one_role_per_node(self, store):
        vt, *_ = build_simple(store)
        vt.new_helper(1)
        with pytest.raises(InvariantViolationError):
            vt.new_helper(1)

    def test_helper_needs_live_sim(self, store):
        vt, *_ = build_simple(store)
        with pytest.raises(NodeNotFoundError):
            vt.new_helper(99)

    def test_remove_real_requires_detached(self, store):
        vt, r0, r1, r2 = build_simple(store)
        with pytest.raises(InvariantViolationError):
            vt.remove_real(r1)
        vt.detach(r1)
        vt.remove_real(r1)
        assert 1 not in vt

    def test_remove_real_requires_role_free(self, store):
        vt, r0, r1, r2 = build_simple(store)
        vt.new_helper(1)  # 1 simulates something
        vt.detach(r1)
        with pytest.raises(InvariantViolationError):
            vt.remove_real(r1)

    def test_duplicate_real(self, store):
        vt, *_ = build_simple(store)
        with pytest.raises(DuplicateNodeError):
            vt.add_real(0)

    def test_check_detects_unreachable(self, store):
        vt, r0, r1, r2 = build_simple(store)
        vt.add_real(9)  # registered but never attached
        with pytest.raises(InvariantViolationError):
            vt.check()

    def test_check_detects_a_stale_role_entry(self, store):
        vt, r0, r1, r2 = build_simple(store)
        helper = vt.new_helper(1)
        vt.detach(r2)
        vt.attach(helper, r0)
        vt.attach(r2, helper)
        vt.check()
        vt.role[r2] = helper  # 2 now claims a helper simulated by 1
        with pytest.raises(InvariantViolationError, match="vt-role-map"):
            vt.check()

    def test_render_smoke(self, store):
        vt, r0, r1, r2 = build_simple(store)
        helper = vt.new_helper(1)
        vt.detach(r2)
        vt.attach(helper, r0)
        vt.attach(r2, helper)
        text = vt.render()
        assert "0" in text and "<1>" in text  # one-child helper renders <sim>


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from tests.conftest import examples  # noqa: E402


class Twins:
    """One object store and one flat store driven by the same operations.

    Live nodes are kept as handle pairs ``(object handle, flat handle)``;
    every primitive runs on both stores and is followed by a comparison
    of everything the text maintains.
    """

    def __init__(self):
        self.logs = ([], [])
        self.stores = (
            VirtualTree(recorder=self.logs[0].append),
            FlatCore(recorder=self.logs[1].append),
        )
        self.reals = []  # live real pairs, creation order
        self.helpers = []  # live helper pairs, creation order
        self.next_id = 0

    @property
    def obj(self):
        return self.stores[0]

    def call(self, op, *args):
        """``op`` on both stores (a pair argument passes each store its
        own handle); return the two results."""
        out = tuple(
            getattr(store, op)(*(a[side] if isinstance(a, tuple) else a for a in args))
            for side, store in enumerate(self.stores)
        )
        self.compare()
        return out

    def raises(self, op, *args):
        """``op`` is invalid here: both stores must refuse it alike."""
        for side, store in enumerate(self.stores):
            with pytest.raises(InvariantViolationError):
                getattr(store, op)(*(a[side] if isinstance(a, tuple) else a for a in args))

    def compare(self):
        obj, flat = self.stores
        assert self.logs[0] == self.logs[1]
        assert obj.image_edges() == flat.image_edges()
        assert {n: obj.image_degree(n) for n in obj._reals} == {
            n: flat.image_degree(n) for n in flat._reals
        }
        assert obj.max_degree_increase() == flat.max_degree_increase()
        assert obj.render() == flat.render()

    def check(self):
        for store in self.stores:
            store.check(branching=2)

    # -- helpers reading the (identical) structure off the object store --
    def role_free(self):
        return [r for r in self.reals if self.obj.role[r[0]] == NIL]

    def subtree(self, pair):
        """Pairs in the subtree under ``pair`` (itself included)."""
        obj = self.obj
        inside = {pair[0]}
        stack = [pair[0]]
        while stack:
            for child in obj.children(stack.pop()):
                inside.add(child)
                stack.append(child)
        return [p for p in self.reals + self.helpers if p[0] in inside]

    def open_parents(self):
        """Nodes that may take one more child (helpers keep arity <= 2)."""
        obj = self.obj
        return self.reals + [h for h in self.helpers if obj.nchild[h[0]] < 2]

    def loose(self):
        """Non-root nodes whose removal keeps their parent's arity >= 1."""
        obj = self.obj
        out = []
        for p in self.reals[1:] + self.helpers:
            up = obj.parent[p[0]]
            if obj.kind[up] != KIND_HELPER or obj.nchild[up] >= 2:
                out.append(p)
        return out

    # -- composite steps, each leaving a valid tree ----------------------
    def grow(self, k, deg):
        parents = self.open_parents()
        real = self.call("add_real", self.next_id, deg % 3)
        self.next_id += 1
        self.call("attach", real, parents[k % len(parents)])
        self.reals.append(real)

    def deploy(self, k, j):
        """A fresh one-child helper takes a non-root node's place."""
        free, nodes = self.role_free(), self.reals[1:] + self.helpers
        if not free or not nodes:
            return
        node = nodes[j % len(nodes)]
        up = self.obj.parent[node[0]]
        up = next(p for p in self.reals + self.helpers if p[0] == up)
        helper = self.call("new_helper", self.obj.ident[free[k % len(free)][0]])
        self.call("replace_child", up, node, helper)
        self.call("attach", node, helper)
        self.helpers.append(helper)

    def splice(self, k, _):
        if not self.helpers:
            return
        helper = self.helpers[k % len(self.helpers)]
        if self.obj.nchild[helper[0]] != 1:
            self.raises("splice", helper)
            return
        moved = self.call("splice", helper)
        assert moved in self.reals + self.helpers
        self.helpers.remove(helper)

    def transfer(self, k, j):
        free = self.role_free()
        if not self.helpers or not free:
            return
        helper = self.helpers[k % len(self.helpers)]
        old = self.call("transfer_role", helper, self.obj.ident[free[j % len(free)][0]])
        assert old[0] == old[1]

    def prune(self, k, _):
        leaves = [
            p for p in self.loose()
            if p in self.role_free() and self.obj.nchild[p[0]] == 0
        ]
        if not leaves:
            return
        leaf = leaves[k % len(leaves)]
        self.call("detach", leaf)
        self.call("remove_real", leaf)
        self.reals.remove(leaf)

    def move(self, k, j):
        movable = self.loose()
        if not movable:
            return
        node = movable[k % len(movable)]
        inside = self.subtree(node)
        targets = [p for p in self.open_parents() if p not in inside]
        self.call("detach", node)
        self.call("attach", node, targets[j % len(targets)])

    def scratch(self, k, _):
        """A helper created and destroyed detached, and a refused role."""
        busy = [r for r in self.reals if r not in self.role_free()]
        if busy:
            self.raises("new_helper", self.obj.ident[busy[k % len(busy)][0]])
        free = self.role_free()
        if free:
            helper = self.call("new_helper", self.obj.ident[free[k % len(free)][0]])
            self.call("destroy_helper", helper)

    def bump(self, k, _):
        self.call("bump_original_degree", self.obj.ident[self.reals[k % len(self.reals)][0]])

    def event(self, _k, _j):
        self.call("begin_event")

    STEPS = ("grow", "grow", "deploy", "deploy", "splice", "transfer",
             "prune", "move", "scratch", "bump", "event")


tree_ops = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=len(Twins.STEPS) - 1),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=10**6),
    ),
    min_size=1,
    max_size=40,
)


class TestStoresAgree:
    """Random valid operation sequences: the two stores of the one text
    emit the same image-edge stream and keep the same image, degrees,
    maximum degree increase and shape; both pass ``check`` throughout."""

    @settings(max_examples=examples(80), deadline=None)
    @given(ops=tree_ops)
    def test_random_operation_sequences(self, ops):
        twins = Twins()
        root = twins.call("add_real", twins.next_id, 0)
        twins.next_id += 1
        twins.call("set_root", root)
        twins.reals.append(root)
        for step, k, j in ops:
            getattr(twins, Twins.STEPS[step])(k, j)
            twins.check()
        obj, flat = twins.stores
        for copy, src in ((VirtualTree.adopt(flat), flat), (FlatCore.adopt(obj), obj)):
            copy.check(branching=2)
            assert copy.render() == src.render()
            assert copy.image_edges() == src.image_edges()
            assert list(copy._helpers) == list(src._helpers)
            assert copy.max_degree_increase() == src.max_degree_increase()
