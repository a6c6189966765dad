"""The Θ(n)-degree attack on surrogate healing (Section 1, "Our Results").

"A naive approach ... is simply to 'surrogate' one neighbor of the deleted
node to take on the role of the deleted node ... an intelligent adversary
can always cause this approach to increase the degree of some node by Θ(n)."

The attack: repeatedly delete the current *highest-degree* survivor.  Under
surrogate healing, each such deletion dumps the hub's edges onto one of its
neighbors — a node whose original degree was small — creating a new
over-degree hub, which is deleted next, and so on.  The maximum degree
increase grows linearly while the Forgiving Tree holds it at three under
the very same attack (benchmark EXP-BASE-DEG).
"""

from __future__ import annotations

from ..baselines.base import Healer
from ..graphs.view import max_degree_nodes
from .base import Adversary


class SurrogateKillerAdversary(Adversary):
    """Deletes the max-degree survivor, tie-breaking toward the node whose
    surrogate would suffer the largest degree *increase* (white-box twist
    exploiting the deterministic smallest-id surrogate rule)."""

    name = "surrogate-killer"

    def choose(self, healer: Healer) -> int:
        graph = healer.view()
        if len(graph) == 1:
            return next(iter(graph))
        hubs = max_degree_nodes(graph)

        def surrogate_pain(victim: int) -> int:
            neighbors = graph[victim]
            if not neighbors:
                return -1
            surrogate = min(neighbors)
            # Edges the surrogate would absorb beyond what it already has.
            taken = graph[surrogate]
            return sum(1 for m in neighbors if m != surrogate and m not in taken)

        return max(hubs, key=lambda h: (surrogate_pain(h), -h))
