"""Distributed Forgiving Graph: the counted-message healing protocol.

Runs the same healing algorithm as :class:`~repro.fgraph.engine.ForgivingGraph`
over the :class:`~repro.distributed.network.Network` simulator, with every
decision made from per-node local state and every byte of coordination
paid for as real counted messages.  The per-node message tallies match
the sequential engine's synthesized ones **exactly** (the cross-check the
tests pin node-for-node), the same discipline the Forgiving Tree's
insert/delete handshakes established.

A member's local state is its **portion** of its haft: its port parent,
the links of the helper it simulates and that helper's left height —
O(1) ids, no member list.  One heal round, ``delete(v)``:

1. **Failure fan-out** — the detector notifies every image neighbor of
   ``v`` (:class:`FGDeleted`, attributed to the victim, as in the FT
   protocol).  The notification names the round's *coordinator* — the
   smallest-id image neighbor — and how many reports it should expect.
2. **Reports in** — each notified node prunes the victim and sends the
   coordinator one :class:`FGReport` with whether it was a direct
   neighbor and its own portion.  The victim's neighbours in its haft
   are exactly the nodes whose portions point at it, so the reports
   rebuild the victim's slot.
3. **Probe walk** — at the same time every notified member climbs
   (:class:`FGClimb`) from its port toward its haft's root, each helper
   forwarding once per heal; a root walks its right path down to the
   rightmost leaf (:class:`FGDescend`), probing the tree roots and the
   last tree's left subtrees on the way (:class:`FGTreeRoot`).  Every
   probe is answered to the coordinator with the recipient's portion
   (:class:`FGProbeReply`); the rules are
   :func:`~repro.fgraph.rtree.probe_walk`, which the coordinator replays
   over what it has heard to know how many answers to await.
4. **Portions out** — the coordinator assembles each haft's row, last
   tree and tree roots into a partial haft, runs the sequential engine's
   ``remove`` (the victim) and ``merge`` (the hafts plus the portless
   direct neighbors) on them, and ships an :class:`FGPortion` only to
   the members whose port parent or helper changed.

Insertions run the FT-style two-message handshake
(:class:`FGInsertRequest` / :class:`FGInsertAck`).

:class:`DistributedForgivingGraph` keeps only what is protocol — the
empty setup round, the coordinator-naming fan-out and the handshake
wave; everything else (membership, validation, the inject/drain
wrappers, the integrity scan, the read-outs) is the
:class:`~repro.distributed.driver.ProtocolDriver` shell it shares with
the Forgiving Tree runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..core.errors import NodeNotFoundError, ProtocolError
from ..distributed.driver import ProtocolDriver, Wave
from ..distributed.messages import Message
from ..distributed.network import Network
from ..graphs.adjacency import Graph, degrees
from .rtree import HELPER, REAL, Links, ReconstructionTree, Ref, Tree, probe_walk


def _links_ids(links: Optional[Links]) -> int:
    return 0 if links is None else 3


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
    direct ideal neighbor of the victim, and its own portion."""

    is_direct: bool
    port_parent_sim: Optional[int]
    helper: Optional[Links]
    left_height: Optional[int]

    def id_count(self) -> int:
        return 3 + _links_ids(self.helper)


@dataclass(frozen=True)
class FGClimb(Message):
    """Walk probe: climb from the recipient's helper toward its root."""

    victim: int
    coordinator: int

    def id_count(self) -> int:
        return 4


@dataclass(frozen=True)
class FGDescend(FGClimb):
    """Walk probe: descend the right path from the recipient's helper."""


@dataclass(frozen=True)
class FGTreeRoot(FGClimb):
    """Walk probe: one hop to a left child off the right path."""


@dataclass(frozen=True)
class FGProbeReply(Message):
    """A probe recipient answers the coordinator with its helper."""

    helper: Links
    left_height: int

    def id_count(self) -> int:
        return 5


@dataclass(frozen=True)
class FGPortion(Message):
    """The coordinator ships one member the parts of its portion that
    changed: its port parent (``new_port``) and/or the helper it
    simulates with that helper's left height (``new_helper``; None
    dissolves it)."""

    new_port: bool
    port_parent_sim: Optional[int]
    new_helper: bool
    helper: Optional[Links]
    left_height: Optional[int]

    def id_count(self) -> int:
        port = self.new_port and self.port_parent_sim is not None
        return 2 + port + _links_ids(self.helper)


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


#: A notified node's report as the coordinator files it.
Report = Tuple[bool, Optional[int], Optional[Links], Optional[int]]


@dataclass
class _Gather:
    """The coordinator's view of one heal while the walk runs."""

    victim: int
    reports: Dict[int, Report] = field(default_factory=dict)
    helpers: Dict[int, Tuple[Links, int]] = field(default_factory=dict)
    answers: int = 0
    resumed: Set[int] = field(default_factory=set)

    # -- what the coordinator can see ------------------------------------
    def port_of(self, nid: int) -> Optional[int]:
        return self.reports[nid][1]

    def links_of(self, nid: int) -> Optional[Links]:
        if nid == self.victim:
            return self.victim_slot()[1]
        if nid in self.reports:
            return self.reports[nid][2]
        return self.helpers[nid][0]

    def height_of(self, nid: int) -> int:
        if nid in self.reports:
            return self.reports[nid][3]  # type: ignore[return-value]
        return self.helpers[nid][1]

    def victim_slot(self) -> Tuple[Optional[int], Optional[Links], Optional[int]]:
        """The victim's portion, rebuilt from the pointers at it.

        Its helper's parent and children, and the holder of its port,
        all reported (they were its image neighbours).  With two
        children the left one is where the port holder's climb ends, so
        this raises ``KeyError`` until that chain is heard."""
        x = self.victim
        up = port = None
        kids: List[Tuple[int, str]] = []
        for nid in sorted(self.reports):
            _direct, pp, links, _h = self.reports[nid]
            if pp == x:
                kids.append((nid, REAL))
            if links is None:
                continue
            if links[0] is not None and links[0][0] == x:
                kids.append((nid, HELPER))
            for c, kind in links[1:]:
                if c == x:
                    if kind == HELPER:
                        up = (nid, HELPER)
                    else:
                        port = nid
        if not kids:
            return port, None, None
        if len(kids) == 1:
            left, right = (x, REAL), kids[0]
        else:
            s = port
            while self.links_of(s)[0][0] != x:  # type: ignore[index]
                s = self.links_of(s)[0][0]  # type: ignore[index]
            left = (s, HELPER)
            right = kids[1] if kids[0] == left else kids[0]
        height = 0 if left[1] == REAL else self.height_of(left[0]) + 1
        return (x if port is None else port), (up, left, right), height

    def walk(self):
        """Replay the walk over what has been heard."""
        notified = sorted(self.reports)
        return probe_walk(self.victim, notified, self.port_of, self.links_of)

    # -- the partial hafts -------------------------------------------------
    def hafts(
        self, roots: List[int]
    ) -> Tuple[List[ReconstructionTree], Optional[ReconstructionTree]]:
        """One partial haft per root reached — its row, read off the right
        path, and every helper heard from under it — and the one holding
        the victim (None if it had no port)."""
        x = self.victim
        port, xlinks, xheight = self.victim_slot()
        known = dict(self.helpers)
        for nid, (_d, _pp, links, height) in self.reports.items():
            if links is not None:
                known[nid] = (links, height)
        if xlinks is not None:
            known[x] = (xlinks, xheight)
        root_of: Dict[int, int] = {}

        def find(s: int) -> int:
            path = []
            while s not in root_of:
                up = known[s][0][0]
                if up is None:
                    root_of[s] = s
                    break
                path.append(s)
                s = up[0]
            for p in path:
                root_of[p] = root_of[s]
            return root_of[s]

        by_root = {r: ReconstructionTree() for r in roots}
        for s, (links, height) in known.items():
            haft = by_root[find(s)]
            haft.helper_links[s] = links
            haft.left_height[s] = height
            for c, kind in links[1:]:
                if kind == REAL:
                    haft.port_parent[c] = s
                    haft.members.add(c)
        for r, haft in by_root.items():
            haft.trees = _row(r, known)
        own = None
        if port is not None:
            own = by_root[find(x if xlinks is not None else port)]
        return list(by_root.values()), own


def _row(root: int, known: Dict[int, Tuple[Links, int]]) -> List[Tree]:
    """A haft's row of complete trees from its right path: left heights
    fall strictly along it, and the last tree's own path is the suffix
    ``h - 1, ..., 0``; the helpers above it are the spine."""
    path: List[int] = []
    ref: Ref = (root, HELPER)
    while ref[1] == HELPER:
        path.append(ref[0])
        ref = known[ref[0]][0][2]
    last = ref[0]
    heights = [known[s][1] for s in path]
    h = 0
    while h < len(heights) and heights[-1 - h] == h:
        h += 1
    spine = path[: len(path) - h]
    trees = [(known[s][1], known[s][0][1], s) for s in spine]
    tip = known[spine[-1]][0][2] if spine else (root, HELPER)
    trees.append((h, tip, last))
    return trees


class FGNode:
    """Local state and handlers of one real node in the FG protocol."""

    def __init__(self, nid: int):
        self.nid = nid
        self.network: Optional[Network] = None
        self.direct: Set[int] = set()
        self.port_parent_sim: Optional[int] = None
        self.helper: Optional[Links] = None
        self.left_height: Optional[int] = None
        # The heal (victim id) this node last climbed for.
        self._climbed: Optional[int] = None
        # Coordinator duty (at most one heal round at a time): the
        # victim, the reports still due, and what the walk has heard.
        self._victim: Optional[int] = None
        self._await_reports = 0
        self._gather: Optional[_Gather] = None

    # -- plumbing ----------------------------------------------------------
    @property
    def pending(self) -> Set[str]:
        """Outstanding obligations (empty at quiescence)."""
        if self._await_reports:
            return {"reports"}
        return {"probes"} if self._victim is not None else set()

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
        elif isinstance(message, FGClimb):
            self._on_probe(message)
        elif isinstance(message, FGProbeReply):
            self._on_reply(message)
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
        victim, coordinator = msg.victim, msg.coordinator
        was_direct = victim in self.direct
        self.direct.discard(victim)
        report = (was_direct, self.port_parent_sim, self.helper, self.left_height)
        if coordinator == self.nid:
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
                    f"{victim} while still coordinating {self._victim} "
                    "(overlapping heal admitted without a lease handoff)"
                )
            self._victim, self._await_reports = victim, msg.n_reports - 1
            self._gather = _Gather(victim, {self.nid: report})
        else:
            self._send(
                FGReport(
                    sender=self.nid,
                    recipient=coordinator,
                    is_direct=was_direct,
                    port_parent_sim=report[1],
                    helper=report[2],
                    left_height=report[3],
                )
            )
        # Walk duties: climb from the port, and from the own helper when
        # it held the victim.
        port, helper = self.port_parent_sim, self.helper
        if port == self.nid:
            self._climb(victim, coordinator)
        elif port is not None and port != victim:
            self._probe(FGClimb, port, victim, coordinator)
        if helper is not None and victim in (helper[1][0], helper[2][0]):
            self._climb(victim, coordinator)
        if coordinator == self.nid:
            self._progress()

    def _probe(self, kind, to: int, victim: int, coordinator: int) -> None:
        self._send(
            kind(sender=self.nid, recipient=to, victim=victim, coordinator=coordinator)
        )

    def _simulated(self) -> Links:
        """The helper a probe reached here expects this node to run."""
        if self.helper is None:
            raise ProtocolError(f"node {self.nid}: probed, but simulates no helper")
        return self.helper

    def _climb(self, victim: int, coordinator: int) -> None:
        if self._climbed == victim:
            return
        self._climbed = victim
        up = self._simulated()[0]
        if up is None:
            self._descend(victim, coordinator)
        elif up[0] != victim:
            self._probe(FGClimb, up[0], victim, coordinator)

    def _descend(self, victim: int, coordinator: int) -> None:
        _, left, right = self._simulated()
        if left[1] == HELPER and left[0] != victim:
            self._probe(FGTreeRoot, left[0], victim, coordinator)
        if right[1] == HELPER and right[0] != victim:
            self._probe(FGDescend, right[0], victim, coordinator)

    def _on_probe(self, msg: FGClimb) -> None:
        if isinstance(msg, FGDescend):
            self._descend(msg.victim, msg.coordinator)
        elif not isinstance(msg, FGTreeRoot):
            self._climb(msg.victim, msg.coordinator)
        if msg.coordinator == self.nid:
            self._gather.answers += 1  # type: ignore[union-attr]
            self._progress()
        else:
            self._send(
                FGProbeReply(
                    sender=self.nid,
                    recipient=msg.coordinator,
                    helper=self.helper,  # type: ignore[arg-type]
                    left_height=self.left_height,  # type: ignore[arg-type]
                )
            )

    def _on_report(self, msg: FGReport) -> None:
        if self._await_reports <= 0:  # pragma: no cover - defensive
            raise ProtocolError(f"node {self.nid}: unexpected report")
        self._gather.reports[msg.sender] = (  # type: ignore[union-attr]
            msg.is_direct, msg.port_parent_sim, msg.helper, msg.left_height
        )
        self._await_reports -= 1
        self._progress()

    def _on_reply(self, msg: FGProbeReply) -> None:
        heal = self._gather
        if heal is None:  # pragma: no cover - defensive
            raise ProtocolError(f"node {self.nid}: unexpected probe reply")
        heal.helpers[msg.sender] = (msg.helper, msg.left_height)
        heal.answers += 1
        self._progress()

    def _progress(self) -> None:
        """Coordinator: replay the walk over what has been heard; resume
        the descent below the victim once its slot is known; finish when
        every report and every probe's answer is in."""
        heal = self._gather
        assert heal is not None
        if self._await_reports:
            return
        probes, resumes, roots, unknown = heal.walk()
        for to in resumes:
            if to not in heal.resumed:
                heal.resumed.add(to)
                if to == self.nid:
                    self._descend(heal.victim, self.nid)
                else:
                    self._probe(FGDescend, to, heal.victim, self.nid)
        expected = len(probes) + sum(1 for to in resumes if to != self.nid)
        if not unknown and heal.answers == expected:
            self._finalize(roots)

    def _finalize(self, roots: List[int]) -> None:
        """Coordinator: remove the victim from its partial haft, merge,
        ship each member whose portion changed its new parts."""
        heal = self._gather
        assert heal is not None
        self._victim = self._gather = None
        hafts, own = heal.hafts(roots)
        journal: Dict = {}
        if own is not None:
            own.remove(heal.victim, journal)
        fresh = sorted(
            n for n, (direct, port, _l, _h) in heal.reports.items()
            if direct and port is None
        )
        rt = ReconstructionTree.merge(hafts, fresh, journal)
        if rt.size < 2:
            # 0 or 1 members: the region dissolves; the lone survivor (if
            # any) can only be the coordinator itself.  Heir promotion
            # without a message.
            self._apply(True, None, True, None, None)
            return
        # Ship first, apply the own portion last: a send the transport
        # refuses (its depth guard) then leaves no member half-applied.
        helpers, ports = rt.changed_portions(journal)
        own_portion = None
        for member in sorted((helpers | ports) - {heal.victim}):
            port, helper, height = rt.portion(member)
            portion = (member in ports, port, member in helpers, helper, height)
            if member == self.nid:
                own_portion = portion
            else:
                self._send(FGPortion(self.nid, member, *portion))
        if own_portion is not None:
            self._apply(*own_portion)

    def _apply(
        self,
        new_port: bool,
        port_parent_sim: Optional[int],
        new_helper: bool,
        helper: Optional[Links],
        left_height: Optional[int],
    ) -> None:
        if new_port:
            self.port_parent_sim = port_parent_sim
        if new_helper:
            self.helper = helper
            self.left_height = left_height

    def _on_portion(self, msg: FGPortion) -> None:
        self._apply(
            msg.new_port, msg.port_parent_sim, msg.new_helper, msg.helper,
            msg.left_height,
        )

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
        super().__init__(degrees(graph), Network() if network is None else network)
        for nid in graph:
            self.network.register(FGNode(nid))
        for nid, neigh in graph.items():
            node = self.network.nodes[nid]
            node.direct = {int(m) for m in neigh if int(m) != nid}
        # No setup traffic: hafts (and their portions) only exist after
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
