"""Synchronous message-passing network simulator.

The model (Section 2): after each deletion, the neighbors of the deleted
vertex are informed; nodes then communicate asynchronously in parallel with
immediate neighbors (messages may carry names of other vertices, and a node
may then insert edges joining it to those named nodes).  We simulate this
with *sub-rounds*: all messages sent in sub-round t are delivered at
sub-round t+1.  The recovery latency of a heal round is its number of
sub-rounds, which Theorem 1.3 bounds by O(1).

The network counts, per heal round and per node, messages sent, messages
received, and id-bits carried — the quantities of success metrics 3 and 4
of Model 2.1.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple, TYPE_CHECKING

from ..core.errors import ProtocolError
from .messages import Message

if TYPE_CHECKING:  # pragma: no cover
    from .node import ProtocolNode


@dataclass
class RoundStats:
    """Communication accounting for one heal round.

    ``dead_drops`` counts messages whose recipient was gone at delivery
    time (deleted this round, or crashed without announcing) — dropped
    permanently, but never silently: the reliable-delivery layer of the
    async kernel retransmits *lost* messages, and this tally is how it
    (and the tests) distinguish "recipient dead" from "message lost".
    """

    round: int
    sub_rounds: int = 0
    sent: Dict[int, int] = field(default_factory=dict)
    received: Dict[int, int] = field(default_factory=dict)
    bits: int = 0
    dead_drops: int = 0

    @property
    def total_messages(self) -> int:
        return sum(self.sent.values())

    @property
    def max_sent_per_node(self) -> int:
        return max(self.sent.values(), default=0)

    @property
    def max_received_per_node(self) -> int:
        return max(self.received.values(), default=0)


class Network:
    """Routes messages between protocol nodes in synchronous sub-rounds."""

    def __init__(self, max_sub_rounds: int = 64):
        self.nodes: Dict[int, "ProtocolNode"] = {}
        self._outbox: deque = deque()
        self.max_sub_rounds = max_sub_rounds
        self.stats_history: List[RoundStats] = []
        self._current: Optional[RoundStats] = None
        self._id_bits = 1
        # The image as of the last image_edges(), each node's claims as
        # read then, and the nodes whose local state may have moved
        # since (see image_edges).
        self._image: Set[Tuple[int, int]] = set()
        self._claims: Dict[int, Set[int]] = {}
        self._touched: Set[int] = set()

    # -- membership -------------------------------------------------------
    def register(self, node: "ProtocolNode") -> None:
        self.nodes[node.nid] = node
        node.network = self
        self._touched.add(node.nid)
        self._id_bits = max(1, math.ceil(math.log2(max(len(self.nodes), 2))))

    def remove(self, nid: int) -> "ProtocolNode":
        self._departed(nid)
        return self.nodes.pop(nid)

    def _departed(self, nid: int) -> None:
        """``nid`` is leaving: the claims kept for it are re-decided by
        the next image.  With none kept (it joined after the last image,
        or nobody ever asked for one) there is nothing of it to re-read,
        so a network churned between images — or never imaged — does not
        collect its dead: ``_touched`` stays within the nodes alive now
        plus those alive at the last image."""
        if nid in self._claims:
            self._touched.add(nid)
        else:
            self._touched.discard(nid)

    def __contains__(self, nid: int) -> bool:
        return nid in self.nodes

    def __len__(self) -> int:
        return len(self.nodes)

    # -- observability ----------------------------------------------------
    def trace_instant(self, name: str, **args) -> None:
        """Driver-level trace mark.  The synchronous network records no
        trace (there is no virtual clock to stamp it with); the async
        kernel overrides this to feed the attached tracer, so the
        protocol drivers can emit marks transport-agnostically."""

    # -- messaging --------------------------------------------------------
    def send(self, message: Message) -> None:
        """Queue a message for the next sub-round."""
        if self._current is not None:
            self._current.sent[message.sender] = (
                self._current.sent.get(message.sender, 0) + 1
            )
            self._current.bits += message.id_count() * self._id_bits + 8
        self._outbox.append(message)

    def run_round(self, round_no: int) -> RoundStats:
        """Deliver queued messages until quiescence; return the stats."""
        stats = self._current or RoundStats(round=round_no)
        stats.round = round_no
        self._current = stats
        while self._outbox:
            stats.sub_rounds += 1
            if stats.sub_rounds > self.max_sub_rounds:
                raise ProtocolError(
                    f"round {round_no}: no quiescence after "
                    f"{self.max_sub_rounds} sub-rounds"
                )
            batch = list(self._outbox)
            self._outbox.clear()
            for message in batch:
                node = self.nodes.get(message.recipient)
                if node is None:
                    # Recipient died this round; the drop is counted,
                    # never silent (see RoundStats.dead_drops).
                    stats.dead_drops += 1
                    continue
                stats.received[message.recipient] = (
                    stats.received.get(message.recipient, 0) + 1
                )
                self._touched.add(message.recipient)
                node.handle(message)
        self._current = None
        self.stats_history.append(stats)
        return stats

    def begin_round(self, round_no: int) -> None:
        """Open an accounting window before injecting notifications."""
        self._current = RoundStats(round=round_no)

    # -- derived global views (used by tests and validation only) ---------
    def image_edges(self) -> Set[Tuple[int, int]]:
        """Edge set derived from both endpoints' local state.

        Strict symmetry: an edge counts only if *both* sides claim it; an
        edge claimed by a single side raises, catching protocol bugs.

        The image is kept between calls.  In this model a node's local
        state moves only when the node joins, leaves, or is handed a
        message, and the network sees all three; it marks those nodes
        *touched*, and a call re-reads the claims of the touched nodes
        only, re-deciding — by the rule above — every edge that either
        their old or their new claims name.  The first call, and the
        first after :meth:`forget_image`, finds every node marked: that
        *is* the from-scratch derivation, by the same code.  An
        asymmetric edge leaves both its ends marked, so the next call
        raises again.  The returned set is the caller's own: one
        C-level O(|E|) copy per call, next to O(touched) Python-level
        reads.
        """
        claims, image, nodes = self._claims, self._image, self.nodes
        keys = set()
        for nid in self._touched:
            named = claims.pop(nid, ())
            node = nodes.get(nid)
            if node is not None:
                now = claims[nid] = node.neighbor_claims()
                now.discard(nid)
                named = now.union(named)
            for other in named:
                keys.add((nid, other) if nid < other else (other, nid))
        self._touched.clear()
        lone = []
        for key in keys:
            u, v = key
            ends = (v in claims.get(u, ())) + (u in claims.get(v, ()))
            if ends == 2:
                image.add(key)
            else:
                image.discard(key)
                if ends:
                    lone.append(key)
                    self._touched.update(key)
        if lone:
            u, v = key = min(lone)
            one = u if v in claims.get(u, ()) else v
            raise ProtocolError(f"asymmetric edge {key}: only {one} claims it")
        return set(image)

    def forget_image(self) -> None:
        """Drop the kept image: the next :meth:`image_edges` re-reads
        every node (a membership transplant; the mirror's end-of-campaign
        check that keeping the image changed nothing)."""
        self._image.clear()
        self._claims.clear()
        self._touched = set(self.nodes)
