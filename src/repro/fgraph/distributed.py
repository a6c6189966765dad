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
   state and sends the coordinator one :class:`FGReport` carrying its
   current insertion-subtree weight and the leaf **manifest** of the
   haft it belongs to (the FG analog of a Forgiving Tree will: state
   shipped ahead of failures so any survivor can rebuild the region).
3. **Portions out** — the coordinator folds the manifests (dropping the
   victim's port, adding the victim's surviving direct neighbors,
   refreshing first-hand weights), builds the identical freshly balanced
   RT the sequential engine builds, and ships each surviving member its
   new portion (:class:`FGPortion`, ``WillPortionMsg``-style): its port
   parent, the helper it now simulates (if any), and the new manifest.

Insertions run the FT-style handshake (:class:`FGInsertRequest` /
:class:`FGInsertAck`) followed by the **weight-update cascade**: one
:class:`FGWeightUpdate` per hop up the live chain of insertion parents,
so the subtree weights the next rebuild keys on are already in place.

Message sizes are accounted honestly: reports and portions carry a leaf
manifest, so unlike the FT's O(1)-id messages they are O(L) ids for an
L-leaf haft — the price of the *freshly balanced* (rebuild-on-merge)
reading of the 2009 algorithm; see ``docs/FORGIVING_GRAPH.md``.

:class:`DistributedForgivingGraph` keeps only what is protocol — the
empty setup round, the coordinator-naming fan-out, the handshake wave
and the cascade-depth guard; everything else (membership, validation,
the inject/drain wrappers, the integrity scan, the read-outs) is the
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
from .rtree import Ref, ReconstructionTree, fold_manifests

#: ``(member, weight)`` leaf list, as carried by reports and portions.
Manifest = Tuple[Tuple[int, int], ...]

#: ``(parent ref | None, left child ref, right child ref)`` of a helper.
HelperLinks = Tuple[Optional[Ref], Ref, Ref]


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
    """A notified neighbor's contribution to the rebuild: its fresh
    weight, whether it was a direct ideal neighbor of the victim, and
    the manifest of the haft it belongs to (None if portless)."""

    weight: int
    is_direct: bool
    manifest: Optional[Manifest]

    def id_count(self) -> int:
        return 3 + 2 * _manifest_ids(self.manifest)


@dataclass(frozen=True)
class FGPortion(Message):
    """The coordinator ships one member its rebuilt portion: the new
    port parent, the helper it simulates (if any), and the manifest.
    A portion with no manifest dissolves the member's haft state."""

    port_parent_sim: Optional[int]
    helper: Optional[HelperLinks]
    manifest: Optional[Manifest]

    def id_count(self) -> int:
        return 3 + (0 if self.helper is None else 3) + 2 * _manifest_ids(self.manifest)


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


@dataclass(frozen=True)
class FGWeightUpdate(Message):
    """One hop of the insertion-weight cascade: "+1 joined below you"."""

    def id_count(self) -> int:
        return 2


class FGNode:
    """Local state and handlers of one real node in the FG protocol."""

    def __init__(self, nid: int):
        self.nid = nid
        self.network: Optional[Network] = None
        self.direct: Set[int] = set()
        self.ins_parent: Optional[int] = None
        self.jw: int = 1
        self.port_parent_sim: Optional[int] = None
        self.helper: Optional[HelperLinks] = None
        self.manifest: Optional[Manifest] = None
        # Coordinator duty (at most one heal round at a time).
        self._await_reports: int = 0
        self._gather: List[Tuple[int, int, bool, Optional[Manifest]]] = []
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
        direct edges, insertion-forest parent, portion-parent sim, RT
        helper links — for the driver's dangling-pointer scan."""
        refs: List[Tuple[str, int]] = [("direct", d) for d in sorted(self.direct)]
        if self.ins_parent is not None:
            refs.append(("ins_parent", self.ins_parent))
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
        elif isinstance(message, FGWeightUpdate):
            self._on_weight_update(message)
        else:  # pragma: no cover - defensive
            raise ProtocolError(f"node {self.nid}: unknown message {message}")

    # -- failure handling --------------------------------------------------
    def _on_deleted(self, msg: FGDeleted) -> None:
        was_direct = msg.victim in self.direct
        self.direct.discard(msg.victim)
        if self.ins_parent == msg.victim:
            self.ins_parent = None  # insertion-forest root from now on
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
                    weight=self.jw,
                    is_direct=was_direct,
                    manifest=self.manifest,
                )
            )

    def _on_report(self, msg: FGReport) -> None:
        if self._await_reports <= 0:  # pragma: no cover - defensive
            raise ProtocolError(f"node {self.nid}: unexpected report")
        self._gather.append((msg.sender, msg.weight, msg.is_direct, msg.manifest))
        self._await_reports -= 1
        if self._await_reports == 0:
            self._finalize()

    def _finalize(self) -> None:
        """Coordinator: fold manifests, build the RT, ship the portions."""
        victim = self._victim
        assert victim is not None
        contributions = self._gather + [
            (self.nid, self.jw, self._victim_was_direct, self.manifest)
        ]
        manifests = {m for _, _, _, m in contributions if m is not None}
        fresh = {nid: w for nid, w, is_direct, _ in contributions if is_direct}
        refresh = {nid: w for nid, w, _, _ in contributions}
        leaves = fold_manifests(
            (dict(m) for m in sorted(manifests)),
            drop=(victim,),
            fresh=fresh,
            refresh=refresh,
        )
        self._victim = None
        self._gather = []
        if len(leaves) >= 2:
            rt = ReconstructionTree.build(leaves)
            manifest = rt.manifest()
            for member in sorted(rt.members):
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
            # 0 or 1 leaves: the region dissolves; the lone survivor (if
            # any) can only be the coordinator itself.  Heir promotion
            # without a message.
            if leaves and leaves[0][0] != self.nid:
                raise ProtocolError(
                    f"node {self.nid}: lone survivor {leaves[0][0]} is "
                    "not the coordinator"
                )
            self._apply_portion(None, None, None)

    def _apply_portion(
        self,
        port_parent_sim: Optional[int],
        helper: Optional[HelperLinks],
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
        self.jw += 1
        self._send(FGInsertAck(sender=self.nid, recipient=msg.sender))
        if self.ins_parent is not None:
            self._send(FGWeightUpdate(sender=self.nid, recipient=self.ins_parent))

    def _on_weight_update(self, msg: FGWeightUpdate) -> None:
        self.jw += 1
        if self.ins_parent is not None:
            self._send(FGWeightUpdate(sender=self.nid, recipient=self.ins_parent))


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
        # The weight cascade runs one hop per sub-round, so a round's
        # latency is the insertion-forest depth — deeper than the FT's
        # O(1) heals.  Keep a generous livelock guard instead of the
        # default 64 (a plugged-in ``network``'s ``max_depth`` should be
        # similarly generous).
        super().__init__(
            graph, Network(max_sub_rounds=4096) if network is None else network
        )
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

    def _check_wave(self, joiners) -> List[Tuple[int, int]]:
        """The shared wave rules + the cascade-depth guard."""
        wave = super()._check_wave(joiners)
        for _nid, attach_to in wave:
            self._check_cascade_depth(attach_to)
        return wave

    def _inject_wave(self, wave: Wave) -> None:
        """Each joiner runs the full INSERT handshake; the weight
        cascades of a wave interleave across sub-rounds but the per-node
        tallies are exactly the sum of the single-insert flows."""
        for nid, attach_to in wave:
            node = FGNode(nid)
            node.direct = {attach_to}
            node.ins_parent = attach_to
            self.network.register(node)
        for nid, attach_to in wave:
            self.network.send(FGInsertRequest(sender=nid, recipient=attach_to))

    def _check_cascade_depth(self, attach_to: int) -> None:
        """Reject an insert whose weight cascade cannot quiesce.

        The cascade climbs the insertion forest one hop per sub-round, so
        a chain deeper than the network's livelock guard would abort the
        round with an opaque quiescence error — and diverge from the
        sequential engine, which walks chains of any length.  The chain
        depth is read from the nodes' own (exact) parent pointers; the
        protocol's hard limit is validated loudly here instead.
        """
        depth = 0
        node = self.network.nodes[attach_to]
        while node.ins_parent is not None:
            depth += 1
            node = self.network.nodes[node.ins_parent]
        if depth + 3 > self.network.max_sub_rounds:
            raise ProtocolError(
                f"insertion-forest chain of depth {depth} above {attach_to} "
                f"exceeds the {self.network.max_sub_rounds}-sub-round guard "
                "(one weight-update hop per sub-round)"
            )
