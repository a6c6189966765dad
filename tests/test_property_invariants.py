"""Property-based campaign tests (hypothesis): the paper's invariants hold
for random trees under arbitrary deletion orders."""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import ForgivingTree
from repro.core.errors import InvariantViolationError
from repro.core.invariants import check_full
from repro.graphs import generators, metrics

CAMPAIGN_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@CAMPAIGN_SETTINGS
@given(
    n=st.integers(2, 48),
    tree_seed=st.integers(0, 10**6),
    order_seed=st.integers(0, 10**6),
)
def test_binary_campaign_invariants(n, tree_seed, order_seed):
    """The paper's protocol: every invariant + theorem bound, every round."""
    tree = generators.random_tree(n, tree_seed)
    d0 = metrics.diameter_exact(tree)
    delta = max(len(v) for v in tree.values())
    ft = ForgivingTree(tree, strict=True)
    order = sorted(tree)
    random.Random(order_seed).shuffle(order)
    for nid in order:
        ft.delete(nid)
        if len(ft) > 1:
            check_full(ft, original_diameter=d0, max_degree=delta)


@CAMPAIGN_SETTINGS
@given(
    n=st.integers(2, 50),
    tree_seed=st.integers(0, 10**6),
    order_seed=st.integers(0, 10**6),
    branching=st.integers(3, 6),
)
def test_generalized_campaign_invariants(n, tree_seed, order_seed, branching):
    """The α-extension within its validated envelope (DESIGN.md §5)."""
    tree = generators.random_tree(n, tree_seed)
    ft = ForgivingTree(tree, strict=True, branching=branching)
    order = sorted(tree)
    random.Random(order_seed).shuffle(order)
    for nid in order:
        ft.delete(nid)
    assert len(ft) == 0


@pytest.mark.xfail(strict=True, raises=InvariantViolationError)
def test_generalized_campaign_known_donor_falsifier():
    """ROADMAP item 1(a), open: the example Hypothesis found for
    :func:`test_generalized_campaign_invariants` — at step 37 of 41 the
    b-ary endgame's donor search finds no role-free node.  Pinned so the
    bug is visible on every run instead of depending on the draw; the
    strict xfail turns into a failure the day the donor search is fixed,
    which is when this becomes an ``@example`` of the property above."""
    test_generalized_campaign_invariants.hypothesis.inner_test(
        n=41, tree_seed=6, order_seed=5218, branching=3
    )


@CAMPAIGN_SETTINGS
@given(
    n=st.integers(2, 40),
    tree_seed=st.integers(0, 10**6),
    order_seed=st.integers(0, 10**6),
)
def test_rebuild_mode_campaign(n, tree_seed, order_seed):
    """Literal Algorithm 3.4 will regeneration is equally safe."""
    tree = generators.random_tree(n, tree_seed)
    ft = ForgivingTree(tree, strict=True, will_mode="rebuild")
    order = sorted(tree)
    random.Random(order_seed).shuffle(order)
    for nid in order:
        ft.delete(nid)
        if len(ft) > 1:
            check_full(ft)


@CAMPAIGN_SETTINGS
@given(
    n=st.integers(3, 40),
    tree_seed=st.integers(0, 10**6),
)
def test_partial_campaign_connectivity(n, tree_seed):
    """Stopping mid-campaign leaves a connected overlay with live wills."""
    tree = generators.random_tree(n, tree_seed)
    ft = ForgivingTree(tree, strict=True)
    order = sorted(tree)
    random.Random(tree_seed).shuffle(order)
    for nid in order[: n // 2]:
        ft.delete(nid)
    check_full(ft)
    for nid in sorted(ft.alive):
        ft.will_of(nid).check()


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(2, 28),
    deg_target=st.booleans(),
    tree_seed=st.integers(0, 10**6),
)
def test_adversarial_orders_degree_bound(n, deg_target, tree_seed):
    """Greedy hub/leaf targeting never breaks the +3 bound."""
    tree = generators.random_tree(n, tree_seed)
    ft = ForgivingTree(tree, strict=True)
    while len(ft) > 0:
        adjacency = ft.adjacency()
        key = (lambda x: (len(adjacency[x]), x)) if deg_target else (
            lambda x: (-len(adjacency[x]), x)
        )
        victim = max(sorted(adjacency), key=key)
        ft.delete(victim)
        assert ft.max_degree_increase() <= 3
