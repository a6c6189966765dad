"""Graph metrics: diameters, eccentricities, stretch.

The paper's success metrics (Model 2.1) are *degree increase* and *diameter
stretch*.  Degree bookkeeping lives with the engines; this module provides
the distance machinery: exact diameters (all-sources BFS), the fast
double-sweep lower bound used by benchmarks on larger graphs, per-pair
stretch between two graphs, and eccentricities.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..core.errors import DisconnectedGraphError, EmptyStructureError
from .adjacency import Graph, bfs_distances
from .view import sorted_nodes


def eccentricity(graph: Graph, source: int) -> int:
    """Max hop distance from ``source`` (graph must be connected)."""
    dist = bfs_distances(graph, source)
    if len(dist) != len(graph):
        raise DisconnectedGraphError(f"node {source} cannot reach the whole graph")
    return max(dist.values())


def diameter_exact(graph: Graph) -> int:
    """Exact diameter by all-sources BFS (O(n·m); fine up to a few 1000s)."""
    if not graph:
        raise EmptyStructureError("diameter of empty graph")
    if len(graph) == 1:
        return 0
    best = 0
    for source in graph:
        best = max(best, eccentricity(graph, source))
    return best


def diameter_double_sweep(graph: Graph, seed: int = 0) -> int:
    """Double-sweep lower bound on the diameter (exact on trees).

    Start a BFS anywhere, move to the farthest node found, BFS again; the
    max distance of the second sweep lower-bounds the diameter and equals
    it on trees — which is where the benchmarks use it.  On general
    graphs the result can undershoot the true diameter, so callers
    measuring non-tree overlays (baseline healers keep cycles) must treat
    it as a lower bound.

    ``seed`` only picks the first sweep's start node: the function is
    deterministic given ``seed``, and the campaign harness threads its
    own seed through so repeated runs reproduce end to end (the result
    itself can differ across seeds only on non-tree graphs, where
    different start nodes may find different lower bounds).
    """
    if not graph:
        raise EmptyStructureError("diameter of empty graph")
    if len(graph) == 1:
        return 0
    start = random.Random(seed).choice(sorted_nodes(graph))
    last, _ = _sweep(graph, start)
    # The farthest node, largest id among ties.
    _, ecc = _sweep(graph, max(last))
    return ecc


def _sweep(graph: Graph, source: int) -> Tuple[List[int], int]:
    """BFS from ``source`` level by level, keeping only a ``seen`` set:
    the last (farthest) level and its distance, the eccentricity."""
    seen = {source}
    level = [source]
    ecc = 0
    while True:
        nxt = []
        for u in level:
            for v in graph[u]:
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        if not nxt:
            break
        level = nxt
        ecc += 1
    if len(seen) != len(graph):
        raise DisconnectedGraphError("double sweep on disconnected graph")
    return level, ecc


def diameter(graph: Graph, exact: bool = True, seed: int = 0) -> int:
    """Diameter; ``exact=False`` uses the double sweep.

    Caveat for ``exact=False``: the double sweep is exact *on trees only*
    (every healed Forgiving Tree overlay); on general graphs it is a
    seed-dependent lower bound — see :func:`diameter_double_sweep`.  For
    per-round measurement over churn campaigns prefer the incremental
    engine (:class:`repro.graphs.incremental.DynamicTreeMetrics`), which
    is exact on trees at O(changed ancestors) per round (worst case
    O(depth)) instead of O(m).
    """
    return diameter_exact(graph) if exact else diameter_double_sweep(graph, seed)


def radius(graph: Graph) -> int:
    """Min eccentricity over nodes (exact, all-sources)."""
    if not graph:
        raise EmptyStructureError("radius of empty graph")
    return min(eccentricity(graph, s) for s in graph)


def center(graph: Graph) -> Set[int]:
    """Nodes of minimum eccentricity."""
    if not graph:
        raise EmptyStructureError("center of empty graph")
    ecc = {s: eccentricity(graph, s) for s in graph}
    r = min(ecc.values())
    return {s for s, e in ecc.items() if e == r}


def pairwise_stretch(
    before: Graph,
    after: Graph,
    pairs: Optional[Iterable[Tuple[int, int]]] = None,
    sample: int = 0,
    seed: int = 0,
) -> Dict[Tuple[int, int], float]:
    """Distance stretch ``d_after(u,v) / d_before(u,v)`` for node pairs.

    Only pairs alive in both graphs are measured.  ``sample > 0`` draws that
    many random pairs instead of measuring all (used on large graphs).
    """
    common = sorted(set(before) & set(after))
    if pairs is None:
        if sample > 0:
            rng = random.Random(seed)
            pairs = [
                tuple(sorted(rng.sample(common, 2)))  # type: ignore[misc]
                for _ in range(sample)
                if len(common) >= 2
            ]
        else:
            pairs = [(u, v) for i, u in enumerate(common) for v in common[i + 1 :]]
    out: Dict[Tuple[int, int], float] = {}
    cache_before: Dict[int, Dict[int, int]] = {}
    cache_after: Dict[int, Dict[int, int]] = {}
    for u, v in pairs:
        if u not in cache_before:
            cache_before[u] = bfs_distances(before, u)
        if u not in cache_after:
            cache_after[u] = bfs_distances(after, u)
        d0 = cache_before[u].get(v)
        d1 = cache_after[u].get(v)
        if d0 in (None, 0) or d1 is None:
            continue
        out[(u, v)] = d1 / d0
    return out


def max_stretch(before: Graph, after: Graph, sample: int = 0, seed: int = 0) -> float:
    """Max pairwise stretch between two graphs (1.0 if nothing measurable)."""
    stretches = pairwise_stretch(before, after, sample=sample, seed=seed)
    return max(stretches.values(), default=1.0)
