"""Half-full reconstruction trees (hafts), merged like binary numbers.

The Forgiving Graph (Hayes–Saia–Trehan, PODC 2009) heals every dead
region of the graph with one *half-full tree* (haft) whose leaves are the
region's surviving neighbors ("members", each attached by one port edge).
A haft over ``L`` leaves is a row of complete binary trees, one per 1-bit
of ``L``, largest first, hung off a right spine: the spine helper between
two trees has the left tree as its left child and the rest of the row as
its right child.  Tree ``i`` of the row hangs ``i`` spine hops below the
root and the heights are distinct 1-bits of ``L``, so every leaf sits at
depth at most ``floor(log2 L) + 1`` — which is what bounds a region
crossing at ``2 log2 n + 2`` hops and the stretch at ``O(log n)``.

Simulation follows the Forgiving Tree's discipline: each helper is
simulated by its **in-order predecessor leaf** (the rightmost leaf of its
left subtree).  That map is injective and leaves exactly one member free,
the haft's rightmost leaf.  Shape and simulators are a pure function of
the in-order member sequence (:meth:`ReconstructionTree.build`), and the
two operations keep them so with ``O(log L)`` local changes:

* :meth:`~ReconstructionTree.remove` — the rightmost leaf moves into the
  removed member's slot and takes over the helper it simulated; the last
  complete tree's right path dissolves into its left subtrees (``L - 1``
  in binary).
* :meth:`~ReconstructionTree.merge` — binary addition over the complete
  trees of several hafts plus one single-leaf tree per fresh member: two
  trees of height ``h`` combine under one new helper into a tree of
  height ``h + 1``, and the survivors hang off a new spine.

Both record in a caller's *journal* the links each helper had before its
first change, so the caller diffs exactly the helpers that were
dissolved, created or relinked
(:meth:`~ReconstructionTree.changed_portions` adds the members whose
port moved).  Neither reads more than the row, the last tree's right
path, the tree roots and the removed member's neighbourhood, so both
run unchanged on the *partial* haft the distributed coordinator
assembles from its probe walk (:func:`probe_walk`).  The engine keeps
each real node in at most one haft, so each real node simulates at
most one helper globally, and a helper carries at most three endpoint
edges: the additive degree bound of 3 (``docs/FORGIVING_GRAPH.md``).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..core.errors import InvariantViolationError

#: Endpoint kinds, shared with the distributed layer's ``Ref`` convention.
REAL = "real"
HELPER = "helper"

#: ``(image id, kind)`` — for a helper endpoint the image id is the id of
#: the real node simulating it.
Ref = Tuple[int, str]
#: ``(parent ref | None, left child ref, right child ref)`` of a helper.
Links = Tuple[Optional[Ref], Ref, Ref]
#: ``(height, root ref, rightmost member)`` of one complete tree.
Tree = Tuple[int, Ref, int]
#: ``sim -> links before the operation`` (``None``: no helper then).
Journal = Dict[int, Optional[Links]]


def link_edges(sim: int, links: Optional[Links]) -> Iterator[Tuple[int, int]]:
    """The image edges of helper ``sim``'s two child links (a link to its
    own simulator collapses away)."""
    for c, _kind in links[1:] if links else ():
        if c != sim:
            yield (sim, c) if sim < c else (c, sim)


def probe_walk(
    victim: int,
    notified: Sequence[int],
    port_of: Callable[[int], Optional[int]],
    links_of: Callable[[int], Optional[Links]],
) -> Tuple[List[Tuple[int, int]], List[int], List[int], Set[int]]:
    """The probe walk of one heal, as a pure function of local pointers.

    ``notified`` are the victim's image neighbours, ``port_of`` their
    port parents, ``links_of`` any helper's links (None: the node
    simulates none); the victim's own links are whatever the caller
    knows or rebuilt.  Rules, one per local pointer:

    * **climb** — a notified member probes its port parent, and a
      notified node whose helper is the victim's parent or holds the
      victim's port climbs from its own helper; a climbing helper probes
      its parent, once per heal, and stops at the victim or a root;
    * **descend** — a root reached walks its right path to the
      rightmost leaf, probing each right child and each helper left
      child on it; below the victim's helper the coordinator *resumes*
      the descent at the victim's right child.

    Returns ``(probes, resumes, roots, unknown)``: the ``(sender,
    recipient)`` probe messages, the resume targets, the roots reached,
    and the nodes whose links the caller could not supply (``links_of``
    raising ``KeyError(node)`` ends that branch; empty: the walk is
    complete).
    """
    probes: List[Tuple[int, int]] = []
    resumes: List[int] = []
    roots: List[int] = []
    climbed: Set[int] = set()
    unknown: Set[int] = set()

    def climb(s: int) -> None:
        while s not in climbed:
            climbed.add(s)
            up = links_of(s)[0]  # type: ignore[index]
            if up is None:
                roots.append(s)
                return
            if up[0] == victim:
                return
            probes.append((s, up[0]))
            s = up[0]

    def descend(s: int) -> None:
        while True:
            _, left, right = links_of(s)  # type: ignore[misc]
            if s == victim:
                if right[1] != HELPER:
                    return
                s = right[0]
                resumes.append(s)
                continue
            if left[1] == HELPER and left[0] != victim:
                probes.append((s, left[0]))
            if right[1] != HELPER:
                return
            if right[0] != victim:
                probes.append((s, right[0]))
            s = right[0]

    for e in notified:
        p = port_of(e)
        if p is None:
            continue
        try:
            if p == e:
                climb(e)
            elif p != victim:
                probes.append((e, p))
                climb(p)
            own = links_of(e)
            if own is not None and victim in (own[1][0], own[2][0]):
                climb(e)
        except KeyError as exc:
            unknown.add(exc.args[0])
    try:
        own = links_of(victim)
        if own is not None and own[0] is None:
            roots.append(victim)
    except KeyError as exc:
        unknown.add(exc.args[0])
    for r in roots:
        try:
            descend(r)
        except KeyError as exc:
            unknown.add(exc.args[0])
    return probes, resumes, roots, unknown


class ReconstructionTree:
    """One haft over the members of a healed region.

    Attributes
    ----------
    members:
        The leaves (real nodes with a port into this haft).
    trees:
        The row of complete trees, largest first.
    port_parent:
        ``member -> sim`` of the helper its port edge attaches to.
    helper_links:
        ``sim -> (parent ref | None, left child ref, right child ref)``
        for every helper, keyed by the real node simulating it.
    left_height:
        ``sim -> height of the helper's left subtree``: a spine helper's
        left tree, ``h - 1`` for a helper of height ``h`` inside a
        complete tree.  It changes only when the left link does.
    """

    def __init__(self) -> None:
        self.members: Set[int] = set()
        self.trees: List[Tree] = []
        self.port_parent: Dict[int, int] = {}
        self.helper_links: Dict[int, Links] = {}
        self.left_height: Dict[int, int] = {}

    @classmethod
    def build(cls, sequence: Iterable[int]) -> "ReconstructionTree":
        """The canonical haft over an in-order member sequence."""
        return cls.merge([], sequence, {})

    # ------------------------------------------------------------------
    # journaled writes
    # ------------------------------------------------------------------
    def _set(
        self,
        sim: int,
        links: Optional[Links],
        journal: Journal,
        height: Optional[int] = None,
    ) -> None:
        """Write helper ``sim``'s links (None: dissolve it); ``height``
        sets its left height when the left link is new."""
        if sim not in journal:
            journal[sim] = self.helper_links.get(sim)
        if links is None:
            del self.helper_links[sim]
            del self.left_height[sim]
        else:
            self.helper_links[sim] = links
            if height is not None:
                self.left_height[sim] = height

    def _hang(self, ref: Ref, parent: Optional[int], journal: Journal) -> None:
        """Make the helper simulated by ``parent`` (None: nothing) the
        parent of ``ref``."""
        nid, kind = ref
        if kind == REAL:
            if parent is None:
                self.port_parent.pop(nid, None)
            else:
                self.port_parent[nid] = parent
        else:
            _, left, right = self.helper_links[nid]
            up = None if parent is None else (parent, HELPER)
            self._set(nid, (up, left, right), journal)

    def _relabel_child(self, sim: int, old: int, new: int, journal: Journal) -> None:
        up, *kids = self.helper_links[sim]
        left, right = ((new, k) if c == old else (c, k) for c, k in kids)
        self._set(sim, (up, left, right), journal)

    def _unspine(self, journal: Journal) -> None:
        """Dissolve the spine: the row's trees stand alone."""
        for _h, _root, last in self.trees[:-1]:
            self._set(last, None, journal)
        for _h, root, _last in self.trees:
            self._hang(root, None, journal)

    def _respine(self, journal: Journal) -> None:
        """Hang the row off a fresh spine: the helper after tree ``i`` is
        simulated by that tree's rightmost member."""
        trees = self.trees
        spine = [last for _h, _root, last in trees[:-1]]
        for i, (h, root, last) in enumerate(trees[:-1]):
            up = (spine[i - 1], HELPER) if i else None
            right = (spine[i + 1], HELPER) if i + 2 < len(trees) else trees[-1][1]
            self._set(last, (up, root, right), journal, h)
            self._hang(root, last, journal)
        if trees:
            self._hang(trees[-1][1], spine[-1] if spine else None, journal)

    # ------------------------------------------------------------------
    # the two operations
    # ------------------------------------------------------------------
    def remove(self, x: int, journal: Journal) -> None:
        """Take member ``x`` out: the rightmost leaf ``y`` moves into its
        slot and takes over the helper ``x`` simulated, and the last
        complete tree dissolves along its right path."""
        links, pp = self.helper_links, self.port_parent
        self._unspine(journal)
        height, ref, y = self.trees.pop()
        while height:
            height -= 1
            sim = ref[0]
            _, left, ref = links[sim]
            self._set(sim, None, journal)
            self._hang(left, None, journal)
            self.trees.append((height, left, sim))
        pp.pop(y, None)
        if x != y:
            parent = pp.pop(x, None)
            if parent is not None:
                pp[y] = parent
                self._relabel_child(parent, x, y, journal)
            moved = links.get(x)
            if moved is not None:
                height = self.left_height[x]
                self._set(x, None, journal)
                self._set(y, moved, journal, height)
                up, left, right = moved
                if up is not None:
                    self._relabel_child(up[0], x, y, journal)
                self._hang(left, y, journal)
                self._hang(right, y, journal)
            self.trees = [
                (h, (y, k) if r == x else (r, k), y if last == x else last)
                for h, (r, k), last in self.trees
            ]
        self.members.discard(x)
        self._respine(journal)

    @classmethod
    def merge(
        cls,
        hafts: Iterable["ReconstructionTree"],
        fresh: Iterable[int],
        journal: Journal,
    ) -> "ReconstructionTree":
        """Binary addition over the hafts' complete trees plus one leaf per
        ``fresh`` member (in the given order), hung off a new spine.

        The hafts are ordered by their contents (size, then rightmost
        member), so every runtime that holds the same hafts computes the
        same result.  The largest haft absorbs the others and is returned
        (a new haft if ``hafts`` is empty).
        """
        hafts = sorted(hafts, key=lambda t: (-t.size, t.trees[-1][2]))
        base = hafts[0] if hafts else cls()
        row: List[Tree] = []
        for haft in hafts:
            haft._unspine(journal)
            row += haft.trees
            if haft is not base:
                base.members |= haft.members
                base.port_parent.update(haft.port_parent)
                base.helper_links.update(haft.helper_links)
                base.left_height.update(haft.left_height)
        for nid in fresh:
            base.members.add(nid)
            row.append((0, (nid, REAL), nid))
        by_height: Dict[int, List[Tree]] = {}
        for tree in row:
            by_height.setdefault(tree[0], []).append(tree)
        out: List[Tree] = []
        height = 0
        while by_height:
            level = by_height.pop(height, [])
            for i in range(1, len(level), 2):
                (_, a, sim), (_, b, last) = level[i - 1], level[i]
                base._set(sim, (None, a, b), journal, height)
                base._hang(a, sim, journal)
                base._hang(b, sim, journal)
                up = (height + 1, (sim, HELPER), last)
                by_height.setdefault(height + 1, []).append(up)
            if len(level) % 2:
                out.append(level[-1])
            height += 1
        base.trees = out[::-1]
        base._respine(journal)
        return base

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def n_helpers(self) -> int:
        return len(self.helper_links)

    @property
    def size(self) -> int:
        """The number of leaves, read off the row (a partial haft knows
        its row but not every member)."""
        return sum(1 << h for h, _root, _last in self.trees)

    @property
    def root(self) -> Ref:
        trees = self.trees
        return (trees[0][2], HELPER) if len(trees) > 1 else trees[0][1]

    def walk(self) -> List[Tuple[int, int]]:
        """``(member, depth)`` in order; a helper reached twice (one node
        simulating two helpers) is an invariant violation."""
        out: List[Tuple[int, int]] = []
        seen: Set[int] = set()
        stack = [(self.root, 0)]
        while stack:
            (nid, kind), d = stack.pop()
            if kind == REAL:
                out.append((nid, d))
                continue
            if nid in seen:
                raise InvariantViolationError("rt-sims", f"helper {nid} reached twice")
            seen.add(nid)
            if nid not in self.helper_links:
                raise InvariantViolationError("rt-links", f"no helper run by {nid}")
            _, left, right = self.helper_links[nid]
            stack += ((right, d + 1), (left, d + 1))
        return out

    def sequence(self) -> Tuple[int, ...]:
        """The in-order member sequence (the haft is a pure function of
        it: :meth:`build`)."""
        return tuple(m for m, _ in self.walk())

    def portion(self, member: int) -> Tuple[Optional[int], Optional[Links], Optional[int]]:
        """What ``member`` holds of this haft: its port parent, the links
        of the helper it simulates and that helper's left height."""
        return (
            self.port_parent.get(member),
            self.helper_links.get(member),
            self.left_height.get(member),
        )

    def changed_portions(self, journal: Journal) -> Tuple[Set[int], Set[int]]:
        """``(helper changed, port changed)``: the members whose simulated
        helper or port parent differs from before the journaled
        operations.  Read off the journal alone: a leaf's port moves
        exactly when it leaves or joins the children of a changed helper,
        so a partial haft answers the same as the full one."""
        links = self.helper_links
        helpers: Set[int] = set()
        old_port: Dict[int, int] = {}
        new_port: Dict[int, int] = {}
        for sim, old in journal.items():
            new = links.get(sim)
            if old == new:
                continue
            helpers.add(sim)
            for acc, l in ((old_port, old), (new_port, new)):
                for c, kind in l[1:] if l else ():
                    if kind == REAL:
                        acc[c] = sim
        ports = {
            m for m in old_port.keys() | new_port.keys()
            if old_port.get(m) != new_port.get(m)
        }
        return helpers, ports

    def sim_of(self, member: int) -> Optional[int]:
        """The helper ``member`` simulates, as its own id (or None)."""
        return member if member in self.helper_links else None

    def image_edges(self) -> Set[Tuple[int, int]]:
        """Canonical image edges this haft contributes (a self-loop from
        a node simulating its own port's parent collapses away)."""
        links = self.helper_links
        return {e for s in links for e in link_edges(s, links[s])}

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def check(self) -> None:
        """Verify shape, simulators and the depth bound; raise on violation."""
        size = len(self.members)
        if size < 2:
            raise InvariantViolationError("rt-size", "fewer than two leaves")
        walk = self.walk()
        sequence: Sequence[int] = [m for m, _ in walk]
        if len(sequence) != size or set(sequence) != self.members:
            raise InvariantViolationError("rt-members", "leaves are not the members")
        bound = size.bit_length()  # floor(log2 L) + 1
        for m, d in walk:
            if d > bound:
                raise InvariantViolationError(
                    "rt-depth", f"leaf {m}: depth {d} > floor(log2 {size}) + 1"
                )
        free = self.members - self.helper_links.keys()
        if len(free) != 1 or len(self.helper_links) != size - 1:
            raise InvariantViolationError(
                "rt-sims", f"{len(free)} free members for {self.n_helpers} helpers"
            )
        canon = self.build(sequence)
        if (self.trees, self.port_parent, self.helper_links, self.left_height) != (
            canon.trees, canon.port_parent, canon.helper_links, canon.left_height
        ):
            raise InvariantViolationError(
                "rt-shape", "haft differs from the canonical one over its sequence"
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ReconstructionTree(leaves={len(self.members)}, "
            f"helpers={self.n_helpers})"
        )
