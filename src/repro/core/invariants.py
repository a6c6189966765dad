"""Invariant checkers for the Forgiving Tree.

These functions validate everything the paper guarantees (and the internal
bookkeeping those guarantees rest on).  Only tests call them (the engines'
``strict`` mode runs the engines' own ``check()``):

* unit tests call them at chosen checkpoints;
* property-based tests (hypothesis) fuzz random trees and deletion orders
  and call :func:`check_full` continuously.

The theorem bounds come from :mod:`repro.guarantees`; the graph walks from
:mod:`repro.graphs`.

``check_full`` raises :class:`~repro.core.errors.InvariantViolationError`
with the name of the violated invariant (I1-I4, listed in docs/SCALING.md
"The invariant list", or the theorem bound that failed).  It checks the
engine's own tree store in place: no object copy of a flat engine is
built.
"""

from __future__ import annotations

from typing import Set

from ..graphs.adjacency import is_connected
from ..graphs.metrics import diameter_exact
from ..guarantees import degree_increase_bound, diameter_envelope
from .errors import InvariantViolationError
from .forgiving_tree import ForgivingTree


def check_degree_bound(ft: ForgivingTree) -> None:
    """Theorem 1.1: no node's degree grows by more than branching + 1."""
    bound = degree_increase_bound(ft.branching)
    for nid in ft.alive:
        inc = ft.degree_increase(nid)
        if inc > bound:
            raise InvariantViolationError(
                "thm1-degree", f"node {nid} degree increase {inc} > {bound}"
            )


def check_connectivity(ft: ForgivingTree) -> None:
    """The healed overlay stays connected while any node survives."""
    if not is_connected(ft.adjacency()):
        raise InvariantViolationError("connectivity", "healed overlay is disconnected")


def check_acyclic_image(ft: ForgivingTree) -> bool:
    """The image graph may legitimately contain short cycles (Figure 5's
    (b, c, d) cycle); return whether it is currently a tree.  Not an
    invariant — exposed for the tests that verify cycles *can* occur."""
    adjacency = ft.adjacency()
    n = len(adjacency)
    m = sum(len(s) for s in adjacency.values()) // 2
    return m == n - 1


def check_helper_constraints(ft: ForgivingTree) -> None:
    """I1/I2: sims unique and alive; helper arity within [1, branching]."""
    store = ft._c  # the engine's own tree store, whichever engine
    sims: Set[int] = set()
    for h in store.helper_slots():
        sim = store.sim[h]
        if sim in sims:
            raise InvariantViolationError("I1-injective-sims", f"sim {sim} reused")
        sims.add(sim)
        if sim not in store:
            raise InvariantViolationError("I1-live-sims", f"sim {sim} is dead")
        if not 1 <= store.nchild[h] <= ft.branching:
            raise InvariantViolationError(
                "I2-helper-arity", f"helper has {store.nchild[h]} children"
            )


def check_slot_invariants(ft: ForgivingTree) -> None:
    """I3/I4 (and every unnumbered structural check) via the engine's
    own checker."""
    ft.check()


def check_diameter_bound(
    ft: ForgivingTree, original_diameter: int, max_degree: int
) -> None:
    """Theorem 1.2: healed diameter within the O(D log ∆) envelope."""
    adjacency = ft.adjacency()
    if len(adjacency) <= 1:
        return
    measured = diameter_exact(adjacency)
    bound = diameter_envelope(original_diameter, max_degree, ft.branching)
    if measured > bound:
        raise InvariantViolationError(
            "thm1-diameter", f"diameter {measured} > bound {bound}"
        )


def check_full(
    ft: ForgivingTree,
    original_diameter: int | None = None,
    max_degree: int | None = None,
) -> None:
    """Run every invariant (and the theorem bounds when context is given)."""
    check_slot_invariants(ft)
    check_helper_constraints(ft)
    check_degree_bound(ft)
    check_connectivity(ft)
    if original_diameter is not None and max_degree is not None:
        check_diameter_bound(ft, original_diameter, max_degree)


#: Alias: "check all invariants" (used by the churn property tests).
check_all = check_full
