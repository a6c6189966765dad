"""The papers' guarantees, stated once as checkable formulas and budgets.

Every checker in the repo — the engine invariants
(:mod:`repro.core.invariants`, :meth:`repro.fgraph.ForgivingGraph.check`),
the SLO watchdogs (:func:`repro.obs.slo.default_slos`), the audit
certificates (:class:`repro.audit.AuditParams`) — and every test and
benchmark that prints *measured vs bound* imports its constants from
here, so a bound cannot drift between the place that asserts it and the
place that reports it.  This module imports nothing from the package.
"""

from __future__ import annotations

import math


def degree_increase_bound(branching: int = 2) -> int:
    """Theorem 1.1: degree increase is at most 3 (generalized: b + 1).

    The Forgiving Graph keeps the same additive bound under churn."""
    return branching + 1


def diameter_envelope(original_diameter: int, max_degree: int, branching: int = 2) -> int:
    """Theorem 1.2 envelope: ``O(D log ∆)`` with explicit safe constants.

    The proof charges each original edge on a root path at most
    ``⌈log_b ∆⌉ + 1`` healed hops (RT depth plus the ready heir), doubled
    for the two root paths; ``(⌈log_b ∆⌉ + 2)·(D + 1) + 2`` dominates it
    for every instance we generate.
    """
    if max_degree <= 1:
        return max(original_diameter, 1) + 2
    log_delta = max(1, math.ceil(math.log(max_degree, branching)))
    return (log_delta + 2) * (original_diameter + 1) + 2


#: Theorem 1.3 envelope: no node sends more than this many messages per
#: delete heal.  The measured protocol peak is 8: random trees of 30 and
#: 80 nodes, seeds 0–299, each deleted down to one node in a seeded
#: random order (5 of 32,400 deletions reach 8, 59 reach 7).  12 leaves
#: headroom for generalized branching without ever scaling in n.
#: Batch-insert waves scale it by the wave size — each joiner runs its
#: own O(1) handshake.
FT_NODE_MESSAGE_BUDGET = 12

#: The FT word budget: no message names more than 8 node ids
#: (``WillPortionMsg`` is the widest).
FT_MESSAGE_ID_BUDGET = 8

#: The FG manifest budget is ``FG_ID_BASE + FG_IDS_PER_NODE · |alive|``:
#: a manifest is a haft's in-order member sequence (one id per member),
#: and a region can never exceed the alive node set — the honest O(L)
#: deviation (docs/FORGIVING_GRAPH.md).  The base is what an ``FGPortion``
#: carries besides its manifest: sender, recipient, port parent and the
#: three links of the helper it simulates.
FG_ID_BASE = 6
FG_IDS_PER_NODE = 1


def fg_stretch_envelope(n: int) -> float:
    """Forgiving Graph: a healed path crosses each dead region in at most
    ``2 log2 n + 2`` hops (``n`` = nodes ever seen)."""
    return 2 * math.log2(n) + 2


def thm2_lower_bound_holds(alpha: int, beta: float, delta: int) -> bool:
    """Theorem 2: any healer with degree increase ≤ α and stretch ≤ β on
    the star of max degree ∆ satisfies ``α^(2β+1) ≥ ∆`` (α ≥ 3)."""
    if alpha < 1:
        return delta <= 1
    return alpha ** (2 * beta + 1) >= delta


def thm2_min_stretch(alpha: int, delta: int) -> float:
    """The β any (α, ·)-healer must pay on the star: β ≥ (log_α ∆ − 1)/2."""
    if delta <= 1 or alpha <= 1:
        return 0.0
    return max(0.0, (math.log(delta, alpha) - 1) / 2)


def section42_stretch_bound(alpha: int, delta: int) -> float:
    """Section 4.2 remark: the modified Forgiving Tree achieves
    ``β ≤ 2·log_α ∆ + 2`` for any α ≥ 3."""
    if delta <= 1:
        return 2.0
    if alpha < 3:
        raise ValueError("the remark requires alpha >= 3")
    return 2 * math.log(delta, alpha) + 2


def setup_messages_bound(n: int, constant: float = 4.0) -> float:
    """Setup phase: w.h.p. ``O(log n)`` messages per edge (Cohen [4])."""
    return constant * math.log2(max(n, 2))
