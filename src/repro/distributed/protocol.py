"""Driver for the distributed Forgiving Tree (binary protocol).

Builds the per-node states from an initial tree, distributes the initial
wills and leaf wills as real messages (the O(1)-per-tree-edge setup cost),
and then heals deletions round by round, returning the network's
communication statistics.  All healing decisions are made inside
:class:`~repro.distributed.node.ProtocolNode` handlers from local state.

Only what is Forgiving Tree protocol lives here — the setup round, the
``Deleted`` fan-out and the ``final``-flagged insert wave; membership,
validation, the inject/drain wrappers, the integrity scan and the
read-outs are :class:`~repro.distributed.driver.ProtocolDriver`'s.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..core.flat_tree import tree_shape
from ..core.slot_tree import ObjectWills, SlotTree
from .driver import ProtocolDriver, Wave
from .messages import REAL, Deleted, InsertRequest
from .network import Network
from .node import ProtocolNode


class DistributedForgivingTree(ProtocolDriver):
    """Message-passing Forgiving Tree over an initial tree (binary case).

    The public surface (the shared driver shell) mirrors the sequential
    engine where it matters for validation: ``alive``, ``delete`` /
    ``insert`` / ``insert_batch``, ``edges``/``adjacency``, ``degree`` /
    ``max_degree_increase`` — plus the per-round
    :class:`~repro.distributed.network.RoundStats` (Theorem 1.3 metrics).
    """

    tag = "ft"

    def __init__(
        self, tree, root: Optional[int] = None, network: Optional[Network] = None
    ):
        shape = tree_shape(tree, root)
        self.root_id = shape.root
        super().__init__(shape.degrees(), Network() if network is None else network)
        # Every node's will, in one store; each node holds its view.
        self._wills = ObjectWills(branching=2)
        children = dict(shape.families())
        for nid in shape.order:
            self.network.register(self._node(nid, children[nid]))
        nodes = self.network.nodes
        for nid, kids in children.items():
            nodes[nid].slot_kind = dict.fromkeys(kids, REAL)
            for kid in kids:
                nodes[kid].parent_ref = (nid, REAL)

        # Setup phase: wills and leaf wills travel as counted messages.
        self.network.begin_round(0)
        for nid in shape.order:
            node = nodes[nid]
            node.refresh_portions()
            node._maybe_deposit_leaf_will()
        self.setup_stats = self.network.run_round(0)

    def _node(self, nid: int, kids: Sequence[int]) -> ProtocolNode:
        """A fresh node holding its view of its new will over ``kids``."""
        self._wills.build(nid, kids)
        return ProtocolNode(nid, SlotTree.of(self._wills, nid))

    # ------------------------------------------------------------------
    def _fan_out(self, victim: int, claims: List[int]) -> None:
        self._wills.discard(victim)
        for neighbor in claims:
            self.network.send(
                Deleted(sender=victim, recipient=neighbor, victim=victim)
            )

    def _inject_wave(self, wave: Wave) -> None:
        """Requests for the same attachment point are flagged so the
        adoptee coalesces its will-portion retransmissions into one pass
        for the whole wave (``InsertRequest.final``).  The handshake is
        real counted messages: request, (optional leaf-will retraction
        by the attachment point), ack + O(1) will-portion refreshes, and
        the joiner's leaf-will deposit."""
        groups: Dict[int, List[int]] = {}
        for nid, attach_to in wave:
            groups.setdefault(attach_to, []).append(nid)
            self.network.register(self._node(nid, ()))
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
