"""Driver for the distributed Forgiving Tree (binary protocol).

Builds the per-node states from an initial tree, distributes the initial
wills and leaf wills as real messages (the O(1)-per-tree-edge setup cost),
and then heals deletions round by round, returning the network's
communication statistics.  All healing decisions are made inside
:class:`~repro.distributed.node.ProtocolNode` handlers from local state.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..core import as_adjacency, check_is_tree
from ..core.errors import (
    NodeNotFoundError,
    ProtocolError,
    SimulationOverError,
)
from ..core.events import normalize_wave
from ..core.slot_tree import SlotTree
from .messages import REAL, Deleted, InsertRequest
from .network import Network, RoundStats
from .node import ProtocolNode


class DistributedForgivingTree:
    """Message-passing Forgiving Tree over an initial tree (binary case).

    The public surface mirrors the sequential engine where it matters for
    validation: ``alive``, ``delete``, ``edges``/``adjacency``,
    ``degree`` / ``max_degree_increase`` — plus the per-round
    :class:`~repro.distributed.network.RoundStats` (Theorem 1.3 metrics).
    """

    def __init__(
        self, tree, root: Optional[int] = None, network: Optional[Network] = None
    ):
        adjacency = as_adjacency(tree)
        check_is_tree(adjacency)
        self.root_id = min(adjacency) if root is None else root
        if self.root_id not in adjacency:
            raise NodeNotFoundError(self.root_id, "root")
        # ``network`` plugs in an alternative transport (e.g. the
        # discrete-event :class:`repro.simnet.AsyncNetwork`); the node
        # protocol is transport-agnostic.  Must be empty.
        if network is not None and len(network):
            raise ProtocolError("provided network already has nodes")
        self.network = Network() if network is None else network
        self.original_degree: Dict[int, int] = {
            n: len(neigh) for n, neigh in adjacency.items()
        }
        self._ever: Set[int] = set(adjacency)  # ids may never be reused
        self.rounds = 0
        self._build(adjacency)

    # ------------------------------------------------------------------
    def _build(self, adjacency: Mapping[int, Sequence[int]]) -> None:
        parent: Dict[int, Optional[int]] = {self.root_id: None}
        order: List[int] = [self.root_id]
        queue = deque([self.root_id])
        seen = {self.root_id}
        while queue:
            cur = queue.popleft()
            for nxt in sorted(adjacency[cur]):
                if nxt not in seen:
                    seen.add(nxt)
                    parent[nxt] = cur
                    order.append(nxt)
                    queue.append(nxt)
        children: Dict[int, List[int]] = {n: [] for n in adjacency}
        for n, p in parent.items():
            if p is not None:
                children[p].append(n)

        for nid in adjacency:
            node = ProtocolNode(nid)
            self.network.register(node)
        for nid in adjacency:
            node = self.network.nodes[nid]
            p = parent[nid]
            node.parent_ref = None if p is None else (p, REAL)
            kids = sorted(children[nid])
            node.will = SlotTree(kids, branching=2)
            node.slot_kind = {k: REAL for k in kids}

        # Setup phase: wills and leaf wills travel as counted messages.
        self.network.begin_round(0)
        for nid in adjacency:
            node = self.network.nodes[nid]
            node.refresh_portions()
            node._maybe_deposit_leaf_will()
        self.setup_stats = self.network.run_round(0)

    # ------------------------------------------------------------------
    @property
    def alive(self) -> Set[int]:
        return set(self.network.nodes)

    def __len__(self) -> int:
        return len(self.network)

    def __contains__(self, nid: int) -> bool:
        return nid in self.network

    def check_delete(self, nid: int) -> None:
        """Validate a deletion without mutating anything."""
        if not self.network.nodes:
            raise SimulationOverError("all nodes already deleted")
        if nid not in self.network:
            raise NodeNotFoundError(nid, "delete")

    def heal_coordinator(self, nid: int) -> Optional[int]:
        """Who would anchor the heal of ``nid``, from live local state.

        The Forgiving Tree repair has no single coordinator — it is
        will-driven, every notified neighbor acts from its own portion —
        so the *handoff anchor* (the node a delegated overlapping event
        queues on, see ``docs/LEASES.md``) is defined as the smallest-id
        notified neighbor: deterministic, computable by every notified
        node without extra messages, and the same rule the Forgiving
        Graph protocol already uses for its real coordinator.  ``None``
        for an isolated victim (nobody is notified, nothing to anchor).
        """
        if nid not in self.network:
            raise NodeNotFoundError(nid, "heal_coordinator")
        claims = self.network.nodes[nid].neighbor_claims()
        return min(claims) if claims else None

    def inject_delete(self, nid: int) -> None:
        """Remove the victim and send the failure fan-out *without*
        draining the network.  Async transports use this to overlap
        several heals (delegated events resume this way mid-flight
        under the region-lease policy); :meth:`delete` is the
        inject-then-drain wrapper.  The caller must have opened an
        accounting window."""
        self.check_delete(nid)
        self.rounds += 1
        victim = self.network.remove(nid)
        claims = sorted(victim.neighbor_claims())
        self.network.trace_instant("ft:delete", victim=nid, fanout=len(claims))
        for neighbor in claims:
            self.network.send(
                Deleted(sender=nid, recipient=neighbor, victim=nid)
            )

    def delete(self, nid: int) -> RoundStats:
        """Adversary deletes ``nid``; neighbors detect and heal."""
        self.check_delete(nid)
        self.network.begin_round(self.rounds + 1)
        self.inject_delete(nid)
        stats = self.network.run_round(self.rounds)
        self._check_quiescent()
        return stats

    def insert(self, nid: int, attach_to: int) -> RoundStats:
        """A new node joins under live ``attach_to`` (churn model).

        The joiner registers with the network and runs the INSERT
        handshake as real counted messages: request, (optional leaf-will
        retraction by the attachment point), ack + O(1) will-portion
        refreshes, and the joiner's leaf-will deposit.  Node ids are
        never reused, matching the sequential engine.  A single insert
        *is* a batch wave of one (:meth:`insert_batch`).
        """
        return self.insert_batch([(nid, attach_to)])

    def insert_batch(self, joiners) -> RoundStats:
        """A wave of nodes joins in one round (batch INSERT handshake).

        Mirrors :meth:`~repro.core.forgiving_tree.ForgivingTree.insert_batch`
        semantics: ``joiners`` is an ordered sequence of ``(nid,
        attach_to)`` pairs, attachment points must be alive before the
        wave (a joiner cannot attach to a same-wave joiner), and ids are
        never reused.  Requests for the same attachment point are flagged
        so the adoptee coalesces its will-portion retransmissions into
        one pass for the whole wave (``InsertRequest.final``); the
        per-node message tallies cross-check against the sequential
        engine's synthesized ones exactly.
        """
        wave = normalize_wave(joiners, known_ids=self._ever, alive=self.network)
        self.network.begin_round(self.rounds + 1)
        self._inject_wave(wave)
        stats = self.network.run_round(self.rounds)
        self._check_quiescent()
        return stats

    def inject_insert_batch(self, joiners) -> None:
        """Register a wave's joiners and send their requests *without*
        draining (the async-transport half of :meth:`insert_batch`).
        The caller must have opened an accounting window."""
        self._inject_wave(
            normalize_wave(joiners, known_ids=self._ever, alive=self.network)
        )

    def _inject_wave(self, wave) -> None:
        """The already-validated wave's registration + request fan-out.

        Validation stays in the callers, *before* any accounting window
        opens — a rejected wave must leave no partial state, and on the
        async transport an exception after ``begin_round`` would leave
        the injection context dangling."""
        self.rounds += 1
        self.network.trace_instant("ft:insert-wave", joiners=len(wave))
        groups: Dict[int, List[int]] = {}
        for nid, attach_to in wave:
            groups.setdefault(attach_to, []).append(nid)
        for nid, attach_to in wave:
            node = ProtocolNode(nid)
            self.network.register(node)
            self._ever.add(nid)
            self.original_degree[nid] = 1
            self.original_degree[attach_to] += 1
        for attach_to, group in groups.items():
            for i, nid in enumerate(group):
                self.network.send(
                    InsertRequest(
                        sender=nid,
                        recipient=attach_to,
                        child_ref=(nid, REAL),
                        final=i == len(group) - 1,
                    )
                )

    def _check_quiescent(self) -> None:
        for nid, node in self.network.nodes.items():
            if node.pending:
                raise ProtocolError(
                    f"node {nid} still awaiting {sorted(node.pending)}"
                )

    def integrity_violations(self) -> List[Tuple[str, int, str]]:
        """Protocol-specific corruption scan for the repair pass.

        Unlike :meth:`_check_quiescent` / ``image_edges`` (which *raise*
        at the first illegality), this tolerantly enumerates everything
        wrong with the current overlay: heals frozen halfway (pending
        obligations that will never clear because the messages died
        with a crashed sender) and dangling pointers — real-position,
        helper-role, will stand-in, or deposited leaf-will references
        naming a node that no longer exists.  Returns
        ``(kind, node, detail)`` tuples in the
        :data:`repro.faults.VIOLATION_KINDS` taxonomy.
        """
        out: List[Tuple[str, int, str]] = []
        alive = set(self.network.nodes)
        for nid, node in self.network.nodes.items():
            if node.pending:
                out.append(
                    (
                        "half-applied-heal",
                        nid,
                        f"awaiting {sorted(node.pending)}",
                    )
                )
            refs: List[Tuple[str, int]] = []
            if node.parent_ref is not None:
                refs.append(("parent_ref", node.parent_ref[0]))
            refs.extend(("will", s) for s in node.will.stand_ins)
            if node.role is not None:
                if node.role.hparent is not None:
                    refs.append(("role.hparent", node.role.hparent[0]))
                refs.extend(("role.hchild", c[0]) for c in node.role.hchildren)
            refs.extend(("leaf_will", holder) for holder in node.leaf_wills)
            for where, ref in refs:
                if ref != nid and ref not in alive:
                    out.append(
                        (
                            "dangling-pointer",
                            nid,
                            f"{where} names dead node {ref}",
                        )
                    )
        return out

    # ------------------------------------------------------------------
    def edges(self) -> Set[Tuple[int, int]]:
        """Current overlay from both endpoints' local state (validated)."""
        return self.network.image_edges()

    def adjacency(self) -> Dict[int, Set[int]]:
        adj: Dict[int, Set[int]] = {n: set() for n in self.network.nodes}
        for u, v in self.edges():
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def degree(self, nid: int) -> int:
        return len(self.adjacency()[nid])

    def max_degree_increase(self) -> int:
        adj = self.adjacency()
        if not adj:
            return 0
        return max(len(s) - self.original_degree[n] for n, s in adj.items())

    # -- Theorem 1.3 metrics ----------------------------------------------
    def last_stats(self) -> RoundStats:
        return self.network.stats_history[-1]

    def peak_messages_per_node(self) -> int:
        return max(
            (
                max(s.max_sent_per_node, s.max_received_per_node)
                for s in self.network.stats_history[1:]  # skip setup
            ),
            default=0,
        )

    def peak_latency(self) -> int:
        return max(
            (s.sub_rounds for s in self.network.stats_history[1:]), default=0
        )
