"""The driver shell the distributed runtimes share.

A distributed runtime is a protocol (a node class, its messages, its
setup round) plus a shell that is the same whatever the protocol:
membership, validation, the inject-then-drain wrappers the synchronous
and asynchronous transports call, the quiescence check, the tolerant
corruption scan, and the image / Theorem 1.3 read-outs.
:class:`ProtocolDriver` states the shell once;
:class:`~repro.distributed.protocol.DistributedForgivingTree` and
:class:`~repro.fgraph.distributed.DistributedForgivingGraph` subclass it
and keep only what is protocol: ``tag``, the setup round in their
constructor, :meth:`_fan_out`, :meth:`_inject_wave`, and (FG) a stricter
:meth:`_check_wave`.  Their nodes expose ``pending``,
``neighbor_claims()`` and ``pointer_refs()``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.errors import NodeNotFoundError, ProtocolError, SimulationOverError
from ..core.events import normalize_wave
from .network import Network, RoundStats

Wave = Sequence[Tuple[int, int]]


class ProtocolDriver:
    """Everything about a distributed runtime that is not protocol."""

    #: Prefix of the driver-level trace marks (``"ft"`` / ``"fg"``).
    tag: str

    def __init__(self, original_degree: Dict[int, int], network: Network):
        # The subclass hands over every initial node's degree and its
        # default synchronous network or the caller's alternative
        # transport (e.g. the discrete-event
        # :class:`repro.simnet.AsyncNetwork`); the node protocols are
        # transport-agnostic.  Must be empty.
        if len(network):
            raise ProtocolError("provided network already has nodes")
        self.network = network
        self.original_degree = original_degree
        self._ever: Set[int] = set(original_degree)  # ids may never be reused
        self.rounds = 0

    # -- the protocol's part -------------------------------------------
    def _fan_out(self, victim: int, claims: List[int]) -> None:
        """Send the failure notifications for ``victim`` (already
        removed) to its sorted former neighbors ``claims``."""
        raise NotImplementedError

    def _inject_wave(self, wave: Wave) -> None:
        """Register the validated wave's joiners and send their requests."""
        raise NotImplementedError

    # -- membership ------------------------------------------------------
    @property
    def alive(self) -> Set[int]:
        return set(self.network.nodes)

    def __len__(self) -> int:
        return len(self.network)

    def __contains__(self, nid: int) -> bool:
        return nid in self.network

    # -- deletions -------------------------------------------------------
    def check_delete(self, nid: int) -> None:
        """Validate a deletion without mutating anything."""
        if not self.network.nodes:
            raise SimulationOverError("all nodes already deleted")
        if nid not in self.network:
            raise NodeNotFoundError(nid, "delete")

    def heal_coordinator(self, nid: int) -> Optional[int]:
        """Who would anchor the heal of ``nid``, from live local state:
        the smallest-id notified neighbor, ``None`` for an isolated
        victim (nobody is notified, nothing to anchor).

        The Forgiving Graph's heal has a real coordinator and this is
        the node :meth:`inject_delete`'s fan-out names.  The Forgiving
        Tree repair has none — it is will-driven, every notified
        neighbor acts from its own portion — so the same rule defines
        its *handoff anchor*: deterministic and computable by every
        notified node without extra messages.  Either way it is the node
        a delegated overlapping event queues on under the region-lease
        policy (``docs/LEASES.md``).
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
        self.network.trace_instant(
            f"{self.tag}:delete", victim=nid, fanout=len(claims)
        )
        self._fan_out(nid, claims)

    def delete(self, nid: int) -> RoundStats:
        """Adversary deletes ``nid``; neighbors detect and heal."""
        self.check_delete(nid)
        self.network.begin_round(self.rounds + 1)
        self.inject_delete(nid)
        return self._drain()

    # -- insertions ------------------------------------------------------
    def insert(self, nid: int, attach_to: int) -> RoundStats:
        """A new node joins under live ``attach_to`` (churn model): a
        batch wave of one (:meth:`insert_batch`).  Node ids are never
        reused, matching the sequential engines."""
        return self.insert_batch([(nid, attach_to)])

    def insert_batch(self, joiners) -> RoundStats:
        """A wave of nodes joins in one round (batch INSERT handshake).

        Mirrors the sequential engines' ``insert_batch`` semantics:
        ``joiners`` is an ordered sequence of ``(nid, attach_to)``
        pairs, attachment points must be alive before the wave (a joiner
        cannot attach to a same-wave joiner), and ids are never reused.
        The per-node message tallies cross-check against the sequential
        engine's merged batch report exactly.
        """
        wave = self._check_wave(joiners)
        self.network.begin_round(self.rounds + 1)
        self._join(wave)
        return self._drain()

    def inject_insert_batch(self, joiners) -> None:
        """Register a wave's joiners and send their requests *without*
        draining (the async-transport half of :meth:`insert_batch`).
        The caller must have opened an accounting window."""
        self._join(self._check_wave(joiners))

    def _check_wave(self, joiners) -> List[Tuple[int, int]]:
        """Validate a wave.  Runs *before* any accounting window opens:
        a rejected wave must leave no partial state, and on the async
        transport an exception after ``begin_round`` would leave the
        injection context dangling."""
        return normalize_wave(joiners, known_ids=self._ever, alive=self.network)

    def _join(self, wave: Wave) -> None:
        self.rounds += 1
        self.network.trace_instant(f"{self.tag}:insert-wave", joiners=len(wave))
        for nid, attach_to in wave:
            self._ever.add(nid)
            self.original_degree[nid] = 1
            self.original_degree[attach_to] += 1
        self._inject_wave(wave)

    # -- quiescence and integrity ----------------------------------------
    def _drain(self) -> RoundStats:
        stats = self.network.run_round(self.rounds)
        self._check_quiescent()
        return stats

    def _check_quiescent(self) -> None:
        for nid, node in self.network.nodes.items():
            if node.pending:
                raise ProtocolError(
                    f"node {nid} still awaiting {sorted(node.pending)}"
                )

    def integrity_violations(self) -> List[Tuple[str, int, str]]:
        """The tolerant corruption scan the repair pass runs.

        Unlike :meth:`_check_quiescent` / ``image_edges`` (which *raise*
        at the first illegality), this enumerates everything wrong with
        the current overlay: heals frozen halfway (pending obligations
        that will never clear because the messages died with a crashed
        sender) and dangling pointers — any of a node's
        ``pointer_refs()`` naming a node that no longer exists.  Returns
        ``(kind, node, detail)`` tuples in the
        :data:`repro.faults.VIOLATION_KINDS` taxonomy.
        """
        out: List[Tuple[str, int, str]] = []
        nodes = self.network.nodes
        for nid, node in nodes.items():
            if node.pending:
                out.append(
                    ("half-applied-heal", nid, f"awaiting {sorted(node.pending)}")
                )
            for where, ref in node.pointer_refs():
                if ref != nid and ref not in nodes:
                    out.append(
                        ("dangling-pointer", nid, f"{where} names dead node {ref}")
                    )
        return out

    # -- the image, from both endpoints' local state ----------------------
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
