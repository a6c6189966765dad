"""Unit tests for the slot tree (GenerateSubRT + positional maintenance)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import (
    DuplicateNodeError,
    EmptyStructureError,
    NodeNotFoundError,
)
from repro.core.flat import FlatWills
from repro.core.slot_tree import ObjectWills, SlotTree
from tests.conftest import examples


class TestConstruction:
    def test_empty(self):
        tree = SlotTree([])
        assert len(tree) == 0
        assert tree.heir is None
        assert not tree

    def test_single(self):
        tree = SlotTree([7])
        assert tree.stand_ins == [7]
        assert tree.heir == 7
        assert tree.internal_sims == []
        assert tree.depth() == 0
        assert tree.root_sim() == 7

    def test_pair(self):
        tree = SlotTree([3, 9])
        # Two leaves, one internal keyed by the smaller (non-heir) child.
        assert tree.stand_ins == [3, 9]
        assert tree.heir == 9
        assert tree.internal_sims == [3]
        assert tree.as_shape() == (3, 3, 9)

    def test_figure2_shape(self):
        """Figure 2's four-child example: children a,b,c,h -> 1,2,3,8."""
        tree = SlotTree([1, 2, 3, 8])
        # Root keyed b(=2): left h_a{a,b}, right h_c{c,h}.
        assert tree.as_shape() == (2, (1, 1, 2), (3, 3, 8))
        assert tree.heir == 8
        # Portion facts from Figure 2:
        assert tree.attachment_sim(8) == 3  # h's nextparent is c
        assert tree.attachment_sim(2) == 1  # b's nextparent is a
        assert tree.attachment_sim(1) == 2  # a attaches past its own helper
        assert tree.internal_parent_sim(3) == 2  # c's helper hangs below b's
        assert tree.root_sim() == 2

    def test_figure5_eight_children(self):
        """The eight-child SubRT(v) of Figure 5 (a..h -> 10..17)."""
        tree = SlotTree(list(range(10, 18)))
        assert tree.as_shape() == (
            13,
            (11, (10, 10, 11), (12, 12, 13)),
            (15, (14, 14, 15), (16, 16, 17)),
        )
        assert tree.heir == 17
        assert tree.depth() == 3

    def test_sorted_on_construction(self):
        tree = SlotTree([5, 1, 3])
        assert tree.stand_ins == [1, 3, 5]
        assert tree.heir == 5

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateNodeError):
            SlotTree([1, 1, 2])

    def test_bad_branching(self):
        with pytest.raises(ValueError):
            SlotTree([1, 2], branching=1)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 33, 100])
    def test_depth_is_logarithmic(self, n):
        tree = SlotTree(list(range(n)))
        import math

        assert tree.depth() <= max(1, math.ceil(math.log2(n)))

    @pytest.mark.parametrize("b,n", [(3, 9), (3, 10), (4, 17), (5, 26)])
    def test_generalized_depth(self, b, n):
        import math

        tree = SlotTree(list(range(n)), branching=b)
        tree.check()
        assert tree.depth() <= max(1, math.ceil(math.log(n, b)))

    def test_internal_sims_are_non_heir_children(self):
        tree = SlotTree(list(range(6)))
        assert set(tree.internal_sims) == set(range(5))  # all but heir 5

    def test_heir_never_internal(self):
        for n in range(2, 20):
            tree = SlotTree(list(range(n)))
            assert tree.heir not in tree.internal_sims


class TestRemoval:
    def test_remove_to_empty(self):
        tree = SlotTree([4])
        delta = tree.remove(4)
        assert delta.emptied
        assert len(tree) == 0
        assert tree.heir is None

    def test_remove_heir_transfers_to_spliced_sim(self):
        # Paper: "the surviving child whose helper node has just decreased
        # in degree from 3 to 2" becomes the new heir.
        tree = SlotTree([1, 2, 3, 8])
        delta = tree.remove(8)  # the heir dies
        assert delta.new_heir == 3  # h_c was spliced; c is freed
        assert tree.heir == 3
        assert 3 not in tree.internal_sims
        tree.check()

    def test_remove_non_heir_rekeys(self):
        tree = SlotTree([1, 2, 3, 8])
        delta = tree.remove(2)  # b dies; its internal (the root) re-keys
        assert delta.reassigned == (2, 1)  # a's helper was spliced; a re-keys
        assert tree.heir == 8
        tree.check()

    def test_remove_left_leaf_own_key(self):
        tree = SlotTree([1, 2, 3, 8])
        delta = tree.remove(1)  # a is a left leaf keyed by itself
        assert delta.spliced_sim == 1
        assert delta.reassigned is None
        tree.check()
        assert set(tree.stand_ins) == {2, 3, 8}

    def test_remove_missing(self):
        tree = SlotTree([1, 2])
        with pytest.raises(NodeNotFoundError):
            tree.remove(99)

    def test_touched_is_small(self):
        tree = SlotTree(list(range(64)))
        delta = tree.remove(31)
        # O(1) portions change per removal (Theorem 1.3's enabler).
        assert len(delta.touched) <= 8

    def test_remove_all_one_by_one(self):
        tree = SlotTree(list(range(12)))
        for x in [5, 0, 11, 3, 7, 1, 9, 2, 10, 4, 6, 8]:
            tree.remove(x)
            tree.check()
        assert len(tree) == 0


class TestReplace:
    def test_replace_plain(self):
        tree = SlotTree([1, 2, 3, 8])
        delta = tree.replace(3, 42)
        assert not delta.was_heir
        assert delta.had_internal
        assert 42 in tree
        assert 3 not in tree
        assert 42 in tree.internal_sims
        tree.check()

    def test_replace_heir_keeps_heirship(self):
        tree = SlotTree([1, 2, 3, 8])
        delta = tree.replace(8, 0)  # heir replaced positionally
        assert delta.was_heir
        assert tree.heir == 0
        tree.check()

    def test_replace_keeps_shape(self):
        tree = SlotTree([1, 2, 3, 8])
        before = tree.as_shape()
        tree.replace(2, 77)

        def sub(x):
            if isinstance(x, tuple):
                return tuple(sub(c) for c in x)
            return 77 if x == 2 else x

        assert tree.as_shape() == sub(before)

    def test_replace_collision(self):
        tree = SlotTree([1, 2, 3])
        with pytest.raises(DuplicateNodeError):
            tree.replace(1, 2)


class TestErrors:
    def test_depth_of_empty(self):
        with pytest.raises(EmptyStructureError):
            SlotTree([]).depth()

    def test_root_of_empty(self):
        with pytest.raises(EmptyStructureError):
            SlotTree([]).root_sim()


#: The two will stores the one will text runs over.  A property drives
#: a one-owner view of either: the arena's free-list reuse and intrusive
#: links meet the same rules as the object store's fresh positions.
STORES = {"object": ObjectWills, "flat": FlatWills}


def view_on(store_name, ids, branching=2, owner=7):
    """A will over ``ids`` in a new store of kind ``store_name``, built
    after a same-sized will was built and discarded: on the flat arena
    every position it gets is a recycled one, in free-list order."""
    store = STORES[store_name](branching)
    store.build(owner - 1, ids)
    store.discard(owner - 1)
    store.build(owner, ids)
    return SlotTree.of(store, owner)


@settings(max_examples=examples(200), deadline=None)
@given(
    ids=st.lists(st.integers(0, 10_000), min_size=1, max_size=40, unique=True),
    seed=st.integers(0, 2**32 - 1),
    store=st.sampled_from(sorted(STORES)),
)
def test_property_random_removals_keep_invariants(ids, seed, store):
    """Any removal order keeps the slot tree a valid full search tree with
    the heir outside the assignment and O(1) touched portions per step."""
    import random as _random

    tree = view_on(store, ids)
    order = list(ids)
    _random.Random(seed).shuffle(order)
    for x in order:
        delta = tree.remove(x)
        tree.check()
        tree.store.check_all()
        if not delta.emptied:
            assert len(delta.touched) <= 8


@settings(max_examples=examples(100), deadline=None)
@given(
    ids=st.lists(st.integers(0, 1000), min_size=2, max_size=24, unique=True),
    branching=st.integers(2, 5),
    seed=st.integers(0, 2**32 - 1),
    store=st.sampled_from(sorted(STORES)),
)
def test_property_generalized_removals(ids, branching, seed, store):
    import random as _random

    tree = view_on(store, ids, branching=branching)
    tree.check()
    order = list(ids)
    _random.Random(seed).shuffle(order)
    for x in order:
        tree.remove(x)
        tree.check()
        tree.store.check_all()


@settings(max_examples=examples(100), deadline=None)
@given(
    ids=st.lists(st.integers(0, 1000), min_size=2, max_size=20, unique=True),
    store=st.sampled_from(sorted(STORES)),
)
def test_property_clone_equals_original(ids, store):
    tree = view_on(store, ids)
    clone = tree.clone()
    assert clone.as_shape() == tree.as_shape()
    assert clone.heir == tree.heir
    clone.remove(clone.stand_ins[0])
    assert tree.as_shape() != clone.as_shape() or len(ids) == 1
