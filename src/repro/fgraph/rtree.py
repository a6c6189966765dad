"""Half-full reconstruction trees keyed by subtree weight (FG Section 3).

The Forgiving Graph (Hayes–Saia–Trehan, PODC 2009) replaces the Forgiving
Tree's *fixed* per-node reconstruction trees with **weight-balanced binary
trees over subtree weights**: the neighbors of a failed region become the
leaves of a full binary tree in which a leaf of weight ``w`` sits at depth
at most ``ceil(log2(W / w))`` (``W`` = total weight).  Heavy leaves —
ports that represent many real nodes — sit near the root, so a path that
crosses the region pays ``O(log(W/w))`` hops per endpoint and the overall
stretch telescopes to ``O(log n)``.  That depth guarantee is exactly the
property the paper's *half-full trees* exist to provide.

This module realizes the guarantee constructively.  :func:`target_depths`
computes the Kraft-feasible depth ``d(w) = ceil(log2(W / w))`` per leaf
(``sum 2^-d <= 1``), and :meth:`ReconstructionTree.build` assembles the
path-compressed canonical code tree for those depths — every internal
node has exactly two children and depths only shrink, keeping the bound
— in one stack pass over the codes' common-prefix lengths.  The result
is the *freshly balanced* RT the engine deploys on every deletion;
:meth:`ReconstructionTree.merged_leaves` is the merge/split primitive
that folds the leaf manifests of every haft adjacent to a failure —
minus the victim's port, plus the victim's surviving direct neighbors —
into the leaf list of the next build.

Simulation assignment (who *runs* each virtual node) follows the
Forgiving Tree's discipline: each internal helper is simulated by its
**in-order predecessor leaf** (the rightmost leaf of its left subtree).
That map is injective and total over all internals, so every member
simulates at most one helper of the haft — and since the engine keeps
each real node in at most one haft (hafts adjacent through a shared
member are merged), at most one helper *globally*.  A helper has at most
three endpoint edges (parent + two children), which pins the additive
degree-increase bound of 3 structurally; see ``docs/FORGIVING_GRAPH.md``.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from ..core.errors import InvariantViolationError
from ..core.events import edge_key

#: Endpoint kinds, shared with the distributed layer's ``Ref`` convention.
REAL = "real"
HELPER = "helper"

#: ``(image id, kind)`` — for a helper endpoint the image id is the id of
#: the real node simulating it.
Ref = Tuple[int, str]


def leaf_depth(weight: int, total: int) -> int:
    """``ceil(log2(total / weight))`` in exact integer arithmetic."""
    if weight < 1:
        raise ValueError("leaf weights must be >= 1")
    return (-(-total // weight) - 1).bit_length()


def target_depths(weighted: Sequence[Tuple[int, int]]) -> Dict[int, int]:
    """Kraft-feasible code lengths for the weighted leaves.

    ``sum_w 2^-d(w) <= sum_w w/W = 1``, so a binary code tree with these
    leaf depths always exists (and :meth:`ReconstructionTree.build`
    constructs the canonical one).
    """
    total = sum(w for _, w in weighted)
    return {nid: leaf_depth(w, total) for nid, w in weighted}


def fold_manifests(
    manifests: Iterable[Mapping[int, int]],
    drop: Iterable[int] = (),
    fresh: Mapping[int, int] = {},
    refresh: Mapping[int, int] = {},
) -> List[Tuple[int, int]]:
    """Fold leaf manifests into the ``(member, weight)`` list of a build.

    ``drop`` removes the victim's port (the *split* half of a healing
    round), ``fresh`` adds the victim's surviving direct neighbors at
    their current weights, and ``refresh`` overrides the stored weight of
    any member whose current weight is known first-hand this round (the
    nodes adjacent to the failure) — the opportunistic half of "weight
    updates on insertion": weights recorded at the last build are
    replaced whenever fresher ones reach the rebuild.  Everything else
    enters at its manifest weight.  The sequential engine and the
    distributed coordinator run this same fold over the same data, which
    is what makes their rebuilds (and message tallies) agree exactly.
    """
    merged: Dict[int, int] = {}
    for manifest in manifests:
        merged.update(manifest)
    merged.update(fresh)
    for nid, w in refresh.items():
        if nid in merged:
            merged[nid] = w
    for nid in drop:
        merged.pop(nid, None)
    return sorted(merged.items())


class ReconstructionTree:
    """A deployed weight-balanced RT over the ports of one healed region.

    Instances are immutable once built; the engine replaces whole trees
    (merge + fresh build) rather than editing them in place — the
    "freshly balanced RT" reading of the 2009 healing step.  Build them
    with :meth:`build`, which also records the image the links imply.

    Attributes
    ----------
    weight:
        ``member -> weight`` at build time (the manifest payload).
    depth:
        ``member -> leaf depth``; bounded by ``ceil(log2(W / w)) ``.
    port_parent:
        ``member -> sim`` of the helper its port edge attaches to.
    helper_links:
        ``sim -> (parent ref | None, left child ref, right child ref)``
        for every helper, keyed by the real node simulating it.
    root_sim:
        The simulator of the RT root helper.
    image:
        The canonical image edges this haft contributes (read it, never
        mutate it; :meth:`image_edges` is a copy).
    """

    image: Set[Tuple[int, int]]

    def __init__(
        self,
        weight: Dict[int, int],
        depth: Dict[int, int],
        port_parent: Dict[int, int],
        helper_links: Dict[int, Tuple[Optional[Ref], Ref, Ref]],
        root_sim: int,
    ) -> None:
        self.weight = weight
        self.depth = depth
        self.port_parent = port_parent
        self.helper_links = helper_links
        self.root_sim = root_sim

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, weighted: Iterable[Tuple[int, int]]) -> "ReconstructionTree":
        """Build the canonical half-full RT over ``(member, weight)`` leaves.

        Deterministic in its input *set* (leaves are ordered by target
        depth, then id), which is what lets the sequential engine and the
        distributed coordinator arrive at the identical tree from the
        same manifests.  Requires at least two leaves — the engine
        resolves 0/1-leaf regions without deploying any helpers.

        The path-compressed trie of the canonical codes for the target
        depths is the Cartesian tree of the adjacent codes' common-prefix
        lengths: internal node ``k`` is where leaf ``k`` and leaf
        ``k + 1`` branch, and the shallowest branch point of a range is
        its root.  One stack pass links it, and one walk from the root
        records depths, port parents, helper links and image edges.
        Internal ``k``'s in-order predecessor is leaf ``k``, which
        therefore simulates it.
        """
        weight = dict(sorted({int(n): int(w) for n, w in weighted}.items()))
        if len(weight) < 2:
            raise ValueError("an RT needs at least two leaves")
        total = sum(weight.values())
        order = sorted(zip(map(leaf_depth, weight.values(), repeat(total)), weight))
        ids = [nid for _, nid in order]
        n = len(ids) - 1

        # lcp[k]: trie depth at which the codes of leaves k and k+1 branch.
        # Code k+1 is (code k + 1) shifted left, so the two agree on every
        # bit above the lowest 0 of code k.
        lcp: List[int] = []
        code = 0
        for k in range(n):
            d = order[k][0]
            lcp.append(d - (code ^ (code + 1)).bit_length())
            code = (code + 1) << (order[k + 1][0] - d)
        if code >> order[-1][0]:  # pragma: no cover - Kraft guarantees feasibility
            raise InvariantViolationError("rt-kraft", f"code overflow at {ids[-1]}")

        # Children as indices into ids: internal c >= 0, leaf j as ~j.
        left = [~k for k in range(n)]
        right = [~(k + 1) for k in range(n)]
        stack: List[int] = []
        for k in range(n):
            while stack and lcp[stack[-1]] > lcp[k]:
                left[k] = stack.pop()
            if stack:
                right[stack[-1]] = k
            stack.append(k)

        depth: Dict[int, int] = {}
        port_parent: Dict[int, int] = {}
        links: Dict[int, Tuple[Optional[Ref], Ref, Ref]] = {}
        image: Set[Tuple[int, int]] = set()
        walk: List[Tuple[int, Optional[Ref], int]] = [(stack[0], None, 0)]
        while walk:
            k, par, d = walk.pop()
            sim = ids[k]
            refs: List[Ref] = []
            for c in (left[k], right[k]):
                if c < 0:
                    other = ids[~c]
                    port_parent[other], depth[other] = sim, d + 1
                    refs.append((other, REAL))
                else:
                    other = ids[c]
                    walk.append((c, (sim, HELPER), d + 1))
                    refs.append((other, HELPER))
                if other != sim:
                    image.add((sim, other) if sim < other else (other, sim))
            links[sim] = (par, refs[0], refs[1])
        tree = cls(weight, depth, port_parent, links, ids[stack[0]])
        tree.image = image
        return tree

    # ------------------------------------------------------------------
    # merge/split: the leaf-manifest algebra of a healing round
    # ------------------------------------------------------------------
    @staticmethod
    def merged_leaves(
        hafts: Iterable["ReconstructionTree"],
        drop: Iterable[int] = (),
        fresh: Mapping[int, int] = {},
        refresh: Mapping[int, int] = {},
    ) -> List[Tuple[int, int]]:
        """Fold whole hafts into the leaf list of the next build."""
        return fold_manifests((h.weight for h in hafts), drop, fresh, refresh)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def members(self) -> Set[int]:
        return set(self.weight)

    @property
    def total_weight(self) -> int:
        return sum(self.weight.values())

    @property
    def n_helpers(self) -> int:
        return len(self.helper_links)

    def manifest(self) -> Tuple[Tuple[int, int], ...]:
        """The ``(member, weight)`` list every member carries (the FG
        analog of a Forgiving Tree will: enough shipped-ahead state for
        any survivor to rebuild the region)."""
        return tuple(sorted(self.weight.items()))

    def sim_of(self, member: int) -> Optional[int]:
        """The helper ``member`` simulates, as its own id (or None)."""
        return member if member in self.helper_links else None

    def image_edges(self) -> Set[Tuple[int, int]]:
        """Canonical image edges this haft contributes (self-loops from a
        node simulating its own port's parent collapse away)."""
        return set(self.image)

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def check(self) -> None:
        """Verify every structural invariant; raise on violation."""
        members = self.members
        if len(members) < 2:
            raise InvariantViolationError("rt-size", "fewer than two leaves")
        total = self.total_weight
        for nid, d in self.depth.items():
            if d > leaf_depth(self.weight[nid], total):
                raise InvariantViolationError(
                    "rt-depth",
                    f"leaf {nid}: depth {d} > ceil(log2({total}/{self.weight[nid]}))",
                )
        if len(self.helper_links) != len(members) - 1:
            raise InvariantViolationError(
                "rt-full", f"{len(self.helper_links)} helpers for {len(members)} leaves"
            )
        if set(self.helper_links) - members:
            raise InvariantViolationError("rt-sims", "simulator outside the haft")
        if set(self.port_parent) != members:
            raise InvariantViolationError("rt-ports", "port/member mismatch")
        # Every helper's children agree with the leaves' port parents and
        # the parent refs thread back consistently.
        child_count: Dict[int, int] = {}
        root_seen = 0
        for sim, (par, left, right) in self.helper_links.items():
            for ref in (left, right):
                nid, kind = ref
                if kind == REAL:
                    if self.port_parent.get(nid) != sim:
                        raise InvariantViolationError(
                            "rt-port-parent", f"leaf {nid} vs helper {sim}"
                        )
                else:
                    cpar = self.helper_links[nid][0]
                    if cpar != (sim, HELPER):
                        raise InvariantViolationError(
                            "rt-parent-ref", f"helper {nid} vs {sim}"
                        )
                child_count[sim] = child_count.get(sim, 0) + 1
            if par is None:
                root_seen += 1
                if sim != self.root_sim:
                    raise InvariantViolationError("rt-root", f"stray root {sim}")
        if root_seen != 1:
            raise InvariantViolationError("rt-root", f"{root_seen} roots")
        if any(c != 2 for c in child_count.values()):
            raise InvariantViolationError("rt-arity", "helper without two children")
        image = {
            edge_key(sim, ref[0])
            for sim, (_par, left, right) in self.helper_links.items()
            for ref in (left, right)
            if ref[0] != sim
        }
        if image != self.image:
            raise InvariantViolationError("rt-image", "image differs from the links")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ReconstructionTree(leaves={len(self.weight)}, "
            f"W={self.total_weight}, helpers={self.n_helpers})"
        )
