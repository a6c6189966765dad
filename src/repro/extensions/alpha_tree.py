"""The generalized α-Forgiving-Tree (Section 4.2 remark).

"The Forgiving Tree can be modified so that it ensures that 1) the degree
of any node increases by no more than α for any α ≥ 3; and that the
diameter increases by no more than a multiplicative factor of
β ≤ 2 log_α ∆ + 2."

The generalization replaces the binary reconstruction trees by balanced
``b``-ary search trees (``b = α - 1`` children per helper, so a helper's
degree is at most ``b + 1 = α``), shrinking RT depth from ``log₂`` to
``log_b`` at the price of a larger degree increase — the tradeoff Theorem 2
proves unavoidable.

The paper gives no maintenance protocol for α > 3; DESIGN.md §2/§5
documents the donor rules this implementation uses.  The binary case is
validated exhaustively; the generalized case is validated by full deletion
campaigns up to n = 50 and partial campaigns beyond (see tests), with rare
deep-state simulator-exhaustion corners at larger scales remaining open.
"""

from __future__ import annotations

import math

from ..core.forgiving_tree import ForgivingTree
from ..guarantees import degree_increase_bound, section42_stretch_bound, thm2_min_stretch


def branching_for_alpha(alpha: int) -> int:
    """Helper arity for a target degree increase α (paper: α ≥ 3)."""
    if alpha < 3:
        raise ValueError("the construction needs alpha >= 3")
    return alpha - 1


def alpha_for_branching(branching: int) -> int:
    """Degree-increase bound achieved by ``branching``-ary helpers."""
    if branching < 2:
        raise ValueError("branching must be >= 2")
    return degree_increase_bound(branching)


class AlphaForgivingTree(ForgivingTree):
    """Forgiving Tree with degree increase ≤ α and stretch ~ 2·log_{α-1} ∆.

    A thin parameterization of the core engine: ``AlphaForgivingTree(tree,
    alpha=5)`` equals ``ForgivingTree(tree, branching=4)``.
    """

    def __init__(self, tree, alpha: int = 3, **kwargs):
        self.alpha = alpha
        super().__init__(tree, branching=branching_for_alpha(alpha), **kwargs)


def tradeoff_point(alpha: int, max_degree: int) -> dict:
    """The (α, β) point the Section 4.2 remark promises, plus the
    Theorem 2 floor, for benchmark tables."""
    b = branching_for_alpha(alpha)
    depth = math.log(max_degree, b) if max_degree > 1 else 0.0
    return {
        "alpha": alpha,
        "branching": b,
        "rt_depth": depth,
        "beta_promise": section42_stretch_bound(alpha, max_degree),
        "beta_floor_thm2": thm2_min_stretch(alpha, max_degree),
    }
