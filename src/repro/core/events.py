"""Event records produced while healing.

Every structural action taken by a healing engine is recorded as a small
immutable event.  The per-deletion :class:`HealReport` aggregates them and is
the unit the harness, the tests and the benchmarks consume: it says which
image edges appeared/disappeared, which helper roles moved, and how much
(simulated) communication the repair needed.

The sequential engine synthesizes message counts from the events using the
same accounting the distributed runtime measures for real, which lets tests
cross-check the two.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Container, FrozenSet, Iterable, List, Tuple

from .errors import DuplicateNodeError, NodeNotFoundError


def edge_key(u: int, v: int) -> Tuple[int, int]:
    """Canonical undirected edge representation (sorted pair)."""
    return (u, v) if u <= v else (v, u)


def normalize_wave(
    joiners: Iterable[Tuple[int, int]],
    known_ids: Container[int],
    alive: Container[int],
) -> List[Tuple[int, int]]:
    """Validate a batch insert wave *before* anything mutates.

    The wave rules every runtime shares: at least one joiner, no
    duplicate ids within the wave, ids never reused (``known_ids``),
    and every attachment point alive before the wave — in particular
    not itself a joiner of the same wave.  Raising here keeps
    ``insert_batch`` atomic: a rejected wave leaves no partial state.
    """
    wave = [(int(n), int(a)) for n, a in joiners]
    if not wave:
        raise ValueError("insert_batch needs at least one joiner")
    wave_ids = [n for n, _ in wave]
    if len(set(wave_ids)) != len(wave_ids):
        dup = next(x for i, x in enumerate(wave_ids) if x in wave_ids[:i])
        raise DuplicateNodeError(dup)
    for nid, attach_to in wave:
        if nid in known_ids:
            raise DuplicateNodeError(nid)
        if attach_to in wave_ids:
            raise NodeNotFoundError(
                attach_to, "insert_batch attach point joins in the same wave"
            )
        if attach_to not in alive:
            raise NodeNotFoundError(attach_to, "insert_batch attach point")
    return wave


@dataclass(frozen=True)
class EdgeAdded:
    """An image-graph edge appeared during a repair."""

    u: int
    v: int

    def key(self) -> Tuple[int, int]:
        return edge_key(self.u, self.v)


@dataclass(frozen=True)
class EdgeRemoved:
    """An image-graph edge disappeared (endpoint died or helper bypassed)."""

    u: int
    v: int

    def key(self) -> Tuple[int, int]:
        return edge_key(self.u, self.v)


@dataclass(frozen=True)
class NodeInserted:
    """A new real node joined the network, attached to a live node."""

    nid: int
    attached_to: int


@dataclass(frozen=True)
class HelperCreated:
    """A real node began simulating a fresh helper node."""

    sim: int
    helper_id: int
    ready_heir: bool


@dataclass(frozen=True)
class HelperDestroyed:
    """A helper node was destroyed (bypassed, spliced, or its region died)."""

    sim: int
    helper_id: int


@dataclass(frozen=True)
class HelperTransferred:
    """An existing helper changed simulator (heir/leaf-will inheritance)."""

    helper_id: int
    old_sim: int
    new_sim: int


@dataclass(frozen=True)
class WillPortionSent:
    """A node re-sent one will portion to one child stand-in."""

    owner: int
    recipient: int


@dataclass(frozen=True)
class LeafWillSent:
    """A tree leaf re-deposited its leaf will with its parent stand-in."""

    owner: int
    recipient: int


@dataclass
class HealReport:
    """Everything that happened during one churn round (delete or insert).

    Attributes
    ----------
    deleted:
        The real node removed by the adversary this round (``-1`` for an
        insertion round).
    was_internal:
        True if the node had child slots (an RT was deployed).
    edges_added / edges_removed:
        Image-graph edge deltas (canonical sorted pairs).
    events:
        The full ordered event log for the round.
    messages_per_node:
        Synthesized count of protocol messages each involved node sent
        (events attributed to their acting node).
    inserted:
        The node that joined this round (``None`` for a deletion round
        and for batch waves of more than one joiner).
    attached_to:
        The live node the inserted node attached to.
    inserted_batch:
        For a batch insert wave: the ``(joiner, attach_to)`` pairs applied
        this round, in order (empty otherwise).
    hafts / fresh:
        Forgiving Graph deletions only (0 otherwise): how many hafts the
        heal merged (the victim's own included) and how many portless
        direct neighbours joined them as fresh leaves — the two terms of
        :func:`~repro.guarantees.fg_node_message_budget`.
    """

    deleted: int
    was_internal: bool = False
    edges_added: FrozenSet[Tuple[int, int]] = frozenset()
    edges_removed: FrozenSet[Tuple[int, int]] = frozenset()
    events: tuple = ()
    messages_per_node: dict = field(default_factory=dict)
    inserted: "int | None" = None
    attached_to: "int | None" = None
    inserted_batch: Tuple[Tuple[int, int], ...] = ()
    hafts: int = 0
    fresh: int = 0

    @classmethod
    def of_wave(
        cls, wave: List[Tuple[int, int]], reports: List["HealReport"]
    ) -> "HealReport":
        """One round's report for a batch insert ``wave`` applied as
        single inserts: ``reports[i]`` is the report of ``wave[i]``."""
        messages: dict = {}
        for r in reports:
            for n, c in r.messages_per_node.items():
                messages[n] = messages.get(n, 0) + c
        return cls(
            deleted=-1,
            edges_added=frozenset().union(*(r.edges_added for r in reports)),
            events=tuple(e for r in reports for e in r.events),
            messages_per_node=messages,
            inserted=wave[0][0] if len(wave) == 1 else None,
            attached_to=wave[0][1] if len(wave) == 1 else None,
            inserted_batch=tuple(wave),
        )

    @property
    def is_insertion(self) -> bool:
        return self.inserted is not None or bool(self.inserted_batch)

    def net_edge_deltas(self) -> Tuple[FrozenSet[Tuple[int, int]], FrozenSet[Tuple[int, int]]]:
        """Net ``(added, removed)`` replayed from the chronological log.

        The summary sets are *disjointified* (``added - removed`` /
        ``removed - added``), so an edge that toggles an odd number of
        times inside one heal — removed, re-added, removed again —
        vanishes from both and the summary under-reports the net delta.
        Replaying the raw event order recovers it: an edge's net effect
        is decided by its first and last transition (first=removed says
        it existed before the round, last=removed says it is gone after,
        so R…R nets to removed; A…A nets to added; mixed ends cancel).

        Summary entries with no recorded edge events are trusted as-is —
        healers may append post-hoc bookkeeping outside the event log
        (e.g. :class:`~repro.baselines.forgiving.ForgivingTreeHealer`
        dropping a victim's surviving non-tree extras), and the
        baselines build reports from plain graph diffs with no events.
        """
        first: dict = {}
        last: dict = {}
        for event in self.events:
            if isinstance(event, (EdgeAdded, EdgeRemoved)):
                key = event.key()
                first.setdefault(key, event)
                last[key] = event
        added = {
            k
            for k in last
            if isinstance(first[k], EdgeAdded) and isinstance(last[k], EdgeAdded)
        }
        removed = {
            k
            for k in last
            if isinstance(first[k], EdgeRemoved) and isinstance(last[k], EdgeRemoved)
        }
        added |= {k for k in self.edges_added if k not in first}
        removed |= {k for k in self.edges_removed if k not in first}
        return frozenset(added), frozenset(removed)

    @property
    def total_messages(self) -> int:
        return sum(self.messages_per_node.values())

    @property
    def max_messages_per_node(self) -> int:
        if not self.messages_per_node:
            return 0
        return max(self.messages_per_node.values())

    def describe(self) -> str:
        """One-line human readable summary (used by examples)."""
        if len(self.inserted_batch) > 1:
            return (
                f"inserted wave of {len(self.inserted_batch)}: "
                f"+{len(self.edges_added)} edges, "
                f"{self.total_messages} msgs (max/node {self.max_messages_per_node})"
            )
        if self.is_insertion:
            return (
                f"inserted {self.inserted} under {self.attached_to}: "
                f"+{len(self.edges_added)} edges, "
                f"{self.total_messages} msgs (max/node {self.max_messages_per_node})"
            )
        kind = "internal" if self.was_internal else "leaf"
        return (
            f"deleted {self.deleted} ({kind}): +{len(self.edges_added)} edges, "
            f"-{len(self.edges_removed)} edges, "
            f"{self.total_messages} msgs (max/node {self.max_messages_per_node})"
        )
