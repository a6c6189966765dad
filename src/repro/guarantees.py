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

#: The FG word budget: no message names more than 6 node ids.  A heal
#: ships O(1)-id portions — a report or portion carries sender,
#: recipient, port parent and the three links of one helper; probes and
#: their answers carry fewer — never a haft's member list.
FG_MESSAGE_ID_BUDGET = 6

#: Base of :func:`fg_node_message_budget`: a notified node's report,
#: climb and descent forwards and one answer per probe it receives; for
#: the coordinator, its own walk hops and the handful of portions the
#: removed member's relabel touches.
FG_NODE_MESSAGE_BASE = 8


def fg_node_message_budget(n: int, fresh: int, hafts: int) -> int:
    """No node but the victim sends more than this many messages in one
    Forgiving Graph delete heal that merges ``hafts`` hafts (the victim's
    own included) with ``fresh`` portless direct neighbours (the
    victim's fan-out is its own, as in the FT).

    Walkers send O(1) each (:data:`FG_NODE_MESSAGE_BASE`).  The
    coordinator also ships one portion per member whose port or helper
    changed, and merging charges each complete tree of the merged row at
    most two: its root (re-hung: the root's simulator, or the real root's
    port) and its rightmost member (the spine or carry helper it comes
    to simulate, or the spine helper it drops).  A haft of ``L < n``
    members has at most ``ceil(log2 n)`` trees; the victim's own haft,
    whose last tree dissolves into its left subtrees on removal, at most
    twice that; each fresh neighbour is a one-leaf tree whose root and
    rightmost member coincide.  Hence ``8 + 2 (1 + hafts) ceil(log2 n) +
    fresh``.  It grows with the hafts merged, not with their size: one
    delete merging nine hafts of 511 members measures 115 sends
    against 268, a massacre growing one haft to 22,640 members at most
    12 + fresh.  The engine's delete report carries both terms
    (``HealReport.hafts`` / ``fresh``), and the audit charges them
    exactly.  A caller that sees only the victim's fan-out ``f`` can
    bound both by it (``hafts + fresh <= f + 1``), overcharging each
    node by up to ``2 (f + 1) ceil(log2 n)``."""
    log_n = math.ceil(math.log2(max(n, 2)))
    return FG_NODE_MESSAGE_BASE + 2 * (1 + hafts) * log_n + fresh


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
