"""Distributed Forgiving Graph: the counted-message healing protocol.

Runs the same healing algorithm as :class:`~repro.fgraph.engine.ForgivingGraph`
over the :class:`~repro.distributed.network.Network` simulator, with every
decision made from per-node local state and every byte of coordination
paid for as real counted messages.  The per-node message tallies match
the sequential engine's synthesized ones **exactly** (the cross-check the
tests pin node-for-node), the same discipline the Forgiving Tree's
insert/delete handshakes established.

One heal round, ``delete(v)``:

1. **Failure fan-out** — the detector notifies every image neighbor of
   ``v`` (:class:`FGDeleted`, attributed to the victim, as in the FT
   protocol).  The notification names the round's *coordinator* — the
   smallest-id image neighbor — and how many reports it should expect.
2. **Reports in** — each notified node prunes the victim from its local
   state and sends the coordinator one :class:`FGReport` carrying
   whether it was a direct neighbor of the victim and the **manifest**
   of the haft it belongs to: the haft's in-order member sequence (the
   FG analog of a Forgiving Tree will: state shipped ahead of failures
   so any survivor can rebuild the region).
3. **Portions out** — the coordinator rebuilds each reported haft from
   its manifest, runs the sequential engine's ``remove`` (the victim)
   and ``merge`` (the hafts plus the portless direct neighbors) on them,
   and ships each surviving member its new portion (:class:`FGPortion`,
   ``WillPortionMsg``-style): its port parent, the helper it now
   simulates (if any), and the new manifest.

Insertions run the FT-style two-message handshake
(:class:`FGInsertRequest` / :class:`FGInsertAck`).

Message sizes are accounted honestly: reports and portions carry a
manifest, so unlike the FT's O(1)-id messages they are O(L) ids for an
L-leaf haft, one per member; see ``docs/FORGIVING_GRAPH.md``.

:class:`DistributedForgivingGraph` keeps only what is protocol — the
empty setup round, the coordinator-naming fan-out and the handshake
wave; everything else (membership, validation, the inject/drain
wrappers, the integrity scan, the read-outs) is the
:class:`~repro.distributed.driver.ProtocolDriver` shell it shares with
the Forgiving Tree runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from ..core.errors import NodeNotFoundError, ProtocolError
from ..distributed.driver import ProtocolDriver, Wave
from ..distributed.messages import Message
from ..distributed.network import Network
from ..graphs.adjacency import Graph
from .rtree import Links, ReconstructionTree

#: A haft's in-order member sequence, as carried by reports and portions.
Manifest = Tuple[int, ...]


def _manifest_ids(manifest: Optional[Manifest]) -> int:
    return 0 if manifest is None else len(manifest)


@dataclass(frozen=True)
class FGDeleted(Message):
    """Failure notification: ``victim`` died; report to ``coordinator``."""

    victim: int
    coordinator: int
    n_reports: int

    def id_count(self) -> int:
        return 4


@dataclass(frozen=True)
class FGReport(Message):
    """A notified neighbor's contribution to the heal: whether it was a
    direct ideal neighbor of the victim, and the manifest of the haft it
    belongs to (None if portless)."""

    is_direct: bool
    manifest: Optional[Manifest]

    def id_count(self) -> int:
        return 2 + _manifest_ids(self.manifest)


@dataclass(frozen=True)
class FGPortion(Message):
    """The coordinator ships one member its new portion: the new
    port parent, the helper it simulates (if any), and the manifest.
    A portion with no manifest dissolves the member's haft state."""

    port_parent_sim: Optional[int]
    helper: Optional[Links]
    manifest: Optional[Manifest]

    def id_count(self) -> int:
        return 3 + (0 if self.helper is None else 3) + _manifest_ids(self.manifest)


@dataclass(frozen=True)
class FGInsertRequest(Message):
    """A joiner asks a live node to adopt it (INSERT handshake, half 1)."""

    def id_count(self) -> int:
        return 2


@dataclass(frozen=True)
class FGInsertAck(Message):
    """The attachment point confirms adoption (INSERT handshake, half 2)."""

    def id_count(self) -> int:
        return 2


class FGNode:
    """Local state and handlers of one real node in the FG protocol."""

    def __init__(self, nid: int):
        self.nid = nid
        self.network: Optional[Network] = None
        self.direct: Set[int] = set()
        self.port_parent_sim: Optional[int] = None
        self.helper: Optional[Links] = None
        self.manifest: Optional[Manifest] = None
        # Coordinator duty (at most one heal round at a time).
        self._await_reports: int = 0
        self._gather: List[Tuple[int, bool, Optional[Manifest]]] = []
        self._victim: Optional[int] = None
        self._victim_was_direct = False

    # -- plumbing ----------------------------------------------------------
    @property
    def pending(self) -> Set[str]:
        """Outstanding obligations (empty at quiescence)."""
        return {"reports"} if self._await_reports else set()

    def _send(self, message: Message) -> None:
        assert self.network is not None
        self.network.send(message)

    def neighbor_claims(self) -> Set[int]:
        """Image neighbors claimed from local state (strictly symmetric
        with every other node's claims — the network validates)."""
        claims = set(self.direct)
        if self.port_parent_sim is not None:
            claims.add(self.port_parent_sim)
        if self.helper is not None:
            parent, left, right = self.helper
            if parent is not None:
                claims.add(parent[0])
            claims.add(left[0])
            claims.add(right[0])
        claims.discard(self.nid)
        return claims

    def pointer_refs(self) -> List[Tuple[str, int]]:
        """Every ``(field, node id)`` this node's local state names —
        direct edges, portion-parent sim, RT helper links — for the
        driver's dangling-pointer scan."""
        refs: List[Tuple[str, int]] = [("direct", d) for d in sorted(self.direct)]
        if self.port_parent_sim is not None:
            refs.append(("port_parent_sim", self.port_parent_sim))
        if self.helper is not None:
            parent, left, right = self.helper
            if parent is not None:
                refs.append(("helper.parent", parent[0]))
            refs.append(("helper.left", left[0]))
            refs.append(("helper.right", right[0]))
        return refs

    # -- dispatch ----------------------------------------------------------
    def handle(self, message: Message) -> None:
        if isinstance(message, FGDeleted):
            self._on_deleted(message)
        elif isinstance(message, FGReport):
            self._on_report(message)
        elif isinstance(message, FGPortion):
            self._on_portion(message)
        elif isinstance(message, FGInsertRequest):
            self._on_insert_request(message)
        elif isinstance(message, FGInsertAck):
            pass  # the joiner set its state optimistically at request time
        else:  # pragma: no cover - defensive
            raise ProtocolError(f"node {self.nid}: unknown message {message}")

    # -- failure handling --------------------------------------------------
    def _on_deleted(self, msg: FGDeleted) -> None:
        was_direct = msg.victim in self.direct
        self.direct.discard(msg.victim)
        if msg.coordinator == self.nid:
            if self._await_reports or self._victim is not None:
                # Coordinator duty is single-slot: a second heal naming
                # this node coordinator mid-gather would clobber the
                # report tally.  The admission layers guarantee it never
                # happens — the sync network quiesces per event, the
                # async transport's footprints/leases keep a busy
                # coordinator's region exclusive until release — so a
                # message landing here means an overlapping heal was
                # admitted unsafely.  Fail loudly instead of corrupting.
                raise ProtocolError(
                    f"node {self.nid}: asked to coordinate the heal of "
                    f"{msg.victim} while still coordinating {self._victim} "
                    "(overlapping heal admitted without a lease handoff)"
                )
            self._victim = msg.victim
            self._victim_was_direct = was_direct
            self._await_reports = msg.n_reports - 1  # everyone but itself
            self._gather = []
            if self._await_reports == 0:
                self._finalize()
        else:
            self._send(
                FGReport(
                    sender=self.nid,
                    recipient=msg.coordinator,
                    is_direct=was_direct,
                    manifest=self.manifest,
                )
            )

    def _on_report(self, msg: FGReport) -> None:
        if self._await_reports <= 0:  # pragma: no cover - defensive
            raise ProtocolError(f"node {self.nid}: unexpected report")
        self._gather.append((msg.sender, msg.is_direct, msg.manifest))
        self._await_reports -= 1
        if self._await_reports == 0:
            self._finalize()

    def _finalize(self) -> None:
        """Coordinator: rebuild the reported hafts, remove the victim,
        merge, ship the portions."""
        victim = self._victim
        assert victim is not None
        contributions = self._gather + [
            (self.nid, self._victim_was_direct, self.manifest)
        ]
        hafts = [
            ReconstructionTree.build(m)
            for m in {m for _, _, m in contributions if m is not None}
        ]
        for haft in hafts:
            if victim in haft.members:
                haft.remove(victim, {})
        fresh = sorted(n for n, direct, m in contributions if direct and m is None)
        rt = ReconstructionTree.merge(hafts, fresh, {})
        self._victim = None
        self._gather = []
        members = sorted(rt.members)
        if len(members) >= 2:
            manifest = rt.manifest()
            for member in members:
                portion = (
                    rt.port_parent[member],
                    rt.helper_links.get(member),
                    manifest,
                )
                if member == self.nid:
                    self._apply_portion(*portion)
                else:
                    self._send(
                        FGPortion(
                            sender=self.nid,
                            recipient=member,
                            port_parent_sim=portion[0],
                            helper=portion[1],
                            manifest=portion[2],
                        )
                    )
        else:
            # 0 or 1 members: the region dissolves; the lone survivor (if
            # any) can only be the coordinator itself.  Heir promotion
            # without a message.
            if members and members[0] != self.nid:
                raise ProtocolError(
                    f"node {self.nid}: lone survivor {members[0]} is "
                    "not the coordinator"
                )
            self._apply_portion(None, None, None)

    def _apply_portion(
        self,
        port_parent_sim: Optional[int],
        helper: Optional[Links],
        manifest: Optional[Manifest],
    ) -> None:
        self.port_parent_sim = port_parent_sim
        self.helper = helper
        self.manifest = manifest

    def _on_portion(self, msg: FGPortion) -> None:
        self._apply_portion(msg.port_parent_sim, msg.helper, msg.manifest)

    # -- churn handling ----------------------------------------------------
    def _on_insert_request(self, msg: FGInsertRequest) -> None:
        self.direct.add(msg.sender)
        self._send(FGInsertAck(sender=self.nid, recipient=msg.sender))


class DistributedForgivingGraph(ProtocolDriver):
    """Message-passing Forgiving Graph over an initial general graph.

    The public surface is the driver shell it shares with
    :class:`~repro.distributed.protocol.DistributedForgivingTree`:
    ``alive``, ``delete`` / ``insert`` / ``insert_batch`` returning
    per-round :class:`~repro.distributed.network.RoundStats`, and the
    image graph derived strictly from both endpoints' local claims.
    """

    tag = "fg"

    def __init__(self, graph: Graph, network: Optional[Network] = None):
        if not graph:
            raise NodeNotFoundError(-1, "empty initial graph")
        super().__init__(graph, Network() if network is None else network)
        for nid in graph:
            self.network.register(FGNode(nid))
        for nid, neigh in graph.items():
            node = self.network.nodes[nid]
            node.direct = {int(m) for m in neigh if int(m) != nid}
        # No setup traffic: hafts (and their manifests) only exist after
        # the first failure.  The empty round keeps stats indexing
        # aligned with the FT runtime (round 0 = setup).
        self.network.begin_round(0)
        self.setup_stats = self.network.run_round(0)

    # ------------------------------------------------------------------
    def _fan_out(self, victim: int, claims: List[int]) -> None:
        """The notification names the round's coordinator — the
        smallest-id image neighbor, :meth:`heal_coordinator`'s answer —
        and how many reports it should expect."""
        for neighbor in claims:
            self.network.send(
                FGDeleted(
                    sender=victim,
                    recipient=neighbor,
                    victim=victim,
                    coordinator=claims[0],
                    n_reports=len(claims),
                )
            )

    def _inject_wave(self, wave: Wave) -> None:
        """Each joiner runs the full INSERT handshake; the per-node
        tallies are exactly the sum of the single-insert flows."""
        for nid, attach_to in wave:
            node = FGNode(nid)
            node.direct = {attach_to}
            self.network.register(node)
        for nid, attach_to in wave:
            self.network.send(FGInsertRequest(sender=nid, recipient=attach_to))
