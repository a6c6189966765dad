"""Shared fixtures and helpers for the test-suite."""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional

import pytest
from hypothesis import settings

from repro import ForgivingTree
from repro.core.invariants import check_full
from repro.graphs import generators, metrics

# The tier-1 wall draws the same Hypothesis examples on every run (and
# ignores the local ``.hypothesis/`` example database), so its verdict is
# a property of the code, not of the draw (ROADMAP item 1b).  A fuzzing
# run names its own profile with ``--hypothesis-profile``.
settings.register_profile("tier1", derandomize=True)


def pytest_configure(config):
    if config.getoption("hypothesis_profile", default=None) is None:
        settings.load_profile("tier1")


def run_full_campaign(
    tree: Dict[int, Iterable[int]],
    order: Optional[List[int]] = None,
    seed: int = 0,
    branching: int = 2,
    check_every: int = 1,
    will_mode: str = "splice",
) -> ForgivingTree:
    """Delete every node in ``order`` (default: seeded shuffle), checking
    invariants along the way; returns the (empty) engine."""
    ft = ForgivingTree(tree, strict=True, branching=branching, will_mode=will_mode)
    d0 = metrics.diameter_exact({k: set(v) for k, v in tree.items()}) if len(tree) > 1 else 0
    delta = max((len(v) for v in tree.values()), default=0)
    if order is None:
        order = sorted(tree)
        random.Random(seed).shuffle(order)
    for i, nid in enumerate(order):
        ft.delete(nid)
        if len(ft) > 1 and i % check_every == 0:
            check_full(ft, original_diameter=d0, max_degree=delta)
    return ft


@pytest.fixture
def star9():
    return generators.star(8)


@pytest.fixture
def path10():
    return generators.path(10)


@pytest.fixture
def random_tree_30():
    return generators.random_tree(30, seed=7)


#: The Figure 5 instance: r=0, p=4, v=6, i=5, j=7, k=8, a..h = 10..17,
#: m,n,o = 18,19,20.  Chosen so the sorted orders match the figure
#: (i < v < j < k and heirs h, k, o).
FIGURE5_TREE = {
    0: [4],
    4: [5, 6, 7, 8],
    6: [10, 11, 12, 13, 14, 15, 16, 17],
    17: [18, 19, 20],
}

FIG5 = {
    "r": 0,
    "p": 4,
    "i": 5,
    "v": 6,
    "j": 7,
    "k": 8,
    "a": 10,
    "b": 11,
    "c": 12,
    "d": 13,
    "e": 14,
    "f": 15,
    "g": 16,
    "h": 17,
    "m": 18,
    "n": 19,
    "o": 20,
}


@pytest.fixture
def figure5_tree():
    return {k: list(v) for k, v in FIGURE5_TREE.items()}
