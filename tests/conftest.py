"""Shared fixtures and helpers for the test-suite."""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional

import pytest
from hypothesis import assume, settings
from hypothesis.database import DirectoryBasedExampleDatabase

from repro import ForgivingTree
from repro.core.invariants import check_full
from repro.graphs import generators, metrics

# The tier-1 wall draws the same Hypothesis examples on every run (and
# ignores the local ``.hypothesis/`` example database), so its verdict is
# a property of the code, not of the draw (ROADMAP item 1b).  A fuzzing
# run names its own profile with ``--hypothesis-profile``; CI's ``fuzz``
# job uses the one registered here: fresh draws every run, 300 examples
# per property that sizes itself with :func:`examples`, and a directory
# example database the job keeps as an artifact, so a falsifier is
# replayed first on the next run and can be pinned as an ``@example``.
settings.register_profile("tier1", derandomize=True)
settings.register_profile(
    "fuzz",
    derandomize=False,
    max_examples=300,
    deadline=None,
    database=DirectoryBasedExampleDatabase(".hypothesis/examples"),
    print_blob=True,
)


def pytest_configure(config):
    if config.getoption("hypothesis_profile", default=None) is None:
        settings.load_profile("tier1")


def examples(tier1: int) -> int:
    """``max_examples`` for one property: its own budget on the
    derandomized tier-1 wall, at least the active profile's on a fuzzing
    run (read at import, i.e. after the profile was loaded)."""
    active = settings.default
    return tier1 if active.derandomize else max(tier1, active.max_examples)


def assume_not_a_known_finding(exc: BaseException) -> None:
    """Discard the drawn example if ``exc`` is an open protocol finding
    that is already pinned, so a fuzzing run over whole campaigns stops
    on new falsifiers only (call it from an ``except``, then re-raise).

    ROADMAP item 2(e): on rare event streams the distributed Forgiving
    Tree dies of ``unmatched SimChange hchild`` on every transport, the
    synchronous one included — pinned as ``tests/test_churn.py::
    TestDistributedInsert::test_known_unmatched_simchange_falsifier``.
    Delete the entry with the fix."""
    assume("unmatched SimChange hchild" not in str(exc))


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
