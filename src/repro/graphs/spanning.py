"""Spanning trees of general graphs.

The Forgiving Tree operates on a rooted spanning tree of the network
(Section 3: "we begin with a rooted spanning tree T, which without loss of
generality may as well be the entire network").  The sequential engine uses
:func:`spanning_shape` here; the *distributed* construction with Cohen-style
O(log n) messages per edge lives in :mod:`repro.distributed.setup`.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Set, Tuple

from ..core.flat_tree import TreeShape, breadth_first
from ..core.errors import DisconnectedGraphError, NodeNotFoundError, NotATreeError
from ..core.events import edge_key
from .adjacency import Graph, edges, from_edges, require_connected


def spanning_shape(
    graph: Graph, root: Optional[int] = None
) -> Tuple[TreeShape, Set[Tuple[int, int]]]:
    """The BFS spanning tree of a connected graph (root: default the
    smallest id) and its non-tree edges, from one BFS.

    Neighbors are scanned in sorted order, so the tree is deterministic —
    and it is a *shortest-path* tree, which preserves the paper's diameter
    accounting (tree height ≤ eccentricity of the root).  It registers
    its nodes in the order an edge-built tree mapping lists them — the
    root's first child, the root, then breadth-first — the order every
    Forgiving Tree over a general graph has used.  The extras are the
    set difference of the edge sets, as they always were: the healed
    overlay's neighbour sets inherit that set's order.
    """
    if not graph:
        raise NotATreeError("empty tree")
    root = min(graph) if root is None else root
    if root not in graph:
        require_connected(graph)  # a disconnected input says so first
        raise NodeNotFoundError(root, "bfs_tree root")
    bfs, fanout, cross = breadth_first(graph, root)
    if len(bfs) != len(graph):
        raise DisconnectedGraphError("graph is not connected")
    shape = TreeShape(root, bfs[1:2] + bfs[:1] + bfs[2:], bfs, fanout)
    if not cross:
        return shape, set()
    tree = {edge_key(u, kid) for u, kids in shape.families() for kid in kids}
    return shape, edges(graph) - tree


def bfs_tree(graph: Graph, root: Optional[int] = None) -> Graph:
    """:func:`spanning_shape`'s tree as an adjacency (empty for an empty
    graph)."""
    return spanning_shape(graph, root)[0].graph() if graph else {}


def random_spanning_tree(graph: Graph, seed: int = 0) -> Graph:
    """Random spanning tree by randomized BFS/DFS hybrid (deterministic
    per seed).  Used by tests to vary tree shapes over the same graph."""
    if not graph:
        return {}
    rng = random.Random(seed)
    root = rng.choice(sorted(graph))
    parent: Dict[int, int] = {}
    seen = {root}
    frontier = [root]
    while frontier:
        idx = rng.randrange(len(frontier))
        frontier[idx], frontier[-1] = frontier[-1], frontier[idx]
        cur = frontier.pop()
        neighbors = sorted(graph[cur])
        rng.shuffle(neighbors)
        for nxt in neighbors:
            if nxt not in seen:
                seen.add(nxt)
                parent[nxt] = cur
                frontier.append(nxt)
    if len(seen) != len(graph):
        raise DisconnectedGraphError("random_spanning_tree on disconnected graph")
    if not parent:
        return {root: set()}
    return from_edges(parent.items())


def tree_parents(tree: Graph, root: int) -> Dict[int, Optional[int]]:
    """Parent map of a tree rooted at ``root`` (root maps to None),
    breadth-first."""
    shape = spanning_shape(tree, root)[0]
    return {root: None, **{k: p for p, kids in shape.families() for k in kids}}


def tree_height(tree: Graph, root: int) -> int:
    """Height of the tree as rooted at ``root``."""
    from .adjacency import bfs_distances

    dist = bfs_distances(tree, root)
    if len(dist) != len(tree):
        raise DisconnectedGraphError("tree_height on disconnected input")
    return max(dist.values())


def non_tree_edges(graph: Graph, tree: Graph) -> Set[Tuple[int, int]]:
    """Edges of ``graph`` not used by ``tree`` (canonical pairs)."""
    return edges(graph) - edges(tree)
