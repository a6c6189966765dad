"""Per-node state and handlers of the distributed Forgiving Tree protocol.

Each :class:`ProtocolNode` owns exactly the fields of the paper's Table 1 —
current fields (``parent``, ``children``/will), helper fields
(``hparent``/``hchildren``), reconstruction fields (the stored
:class:`Portion` of its parent's will), flags, plus deposited leaf wills —
and acts **only** on this local state and incoming messages.  The global
picture (the virtual tree) is never consulted: integration tests recover it
by running the sequential engine side by side and comparing image graphs.

Protocol summary (binary case, Algorithms 3.1-3.9, with the gaps the
paper leaves filled as the sequential engine fills them):

* A will owner keeps a :class:`~repro.core.slot_tree.SlotTree` over its
  child *stand-ins* and (re)transmits changed portions (``MakeWill``).
  The tree is the node's view of its driver's one
  :class:`~repro.core.slot_tree.ObjectWills`: the protocol maintains its
  wills with the same will text the sequential engines run, and reads
  only its own will through the view.
* On ``Deleted(v)``, stand-ins of v deploy their portions (``makeRT`` /
  ``MakeHelper``): ready heirs bypass themselves and broker their anchor,
  non-heirs spin up internal helpers, the heir inherits v's helper role or
  interposes the ready heir and *claims* v's slot at the parent
  (``ReplaceChild``).
* Leaf deaths are healed by the parent-position holder using the deposited
  leaf will (``MakeLeafWill`` / ``FixLeafDeletion``): short-circuit the
  redundant helper, inherit the orphaned one, notify affected neighbors
  with O(1) ``SimChange`` messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Set, Tuple, TYPE_CHECKING

from ..core.errors import ProtocolError
from ..core.slot_tree import AddDelta, SlotTree
from .messages import (
    REAL,
    HELPER,
    AnchorIs,
    ChildHello,
    Deleted,
    InsertAck,
    InsertRequest,
    LeafWillMsg,
    LeafWillRetract,
    Message,
    Ref,
    RemoveHChild,
    ReparentTo,
    ReplaceChild,
    SimChange,
    WillPortionMsg,
)

if TYPE_CHECKING:  # pragma: no cover
    from .network import Network


@dataclass(frozen=True)
class Portion:
    """One child's slice of its parent's will (Figure 2).

    ``next_parent`` — where the child's real position re-attaches
    (``None``: at the top, i.e. the dead parent's own parent).
    ``next_hparent`` / ``next_hchildren`` — the helper role to assume
    (for the heir: the inherited role when ``inherits_role``).
    ``top_parent`` — the dead node's parent reference (claim target).
    ``iam_rv`` — this stand-in simulates the SubRT root and must claim the
    dead node's slot itself (the ``nexthparent(rv) <- p`` case).
    """

    will_parent: int
    is_heir: bool
    inherits_role: bool
    next_parent: Optional[Ref]
    next_hparent: Optional[Ref]
    next_hchildren: Tuple[Ref, ...]
    top_parent: Optional[Ref]
    iam_rv: bool
    root_sim: Optional[int] = None  # sim of the SubRT root helper (d > 1)


@dataclass
class Role:
    """The helper node this real node currently simulates."""

    hparent: Optional[Ref]  # None: the helper is the virtual root
    hchildren: List[Ref] = field(default_factory=list)

    @property
    def is_ready_heir(self) -> bool:
        return len(self.hchildren) == 1


@dataclass
class LeafWill:
    """A leaf's deposited will: its helper links (empty if roleless)."""

    hparent: Optional[Ref] = None
    hchildren: Tuple[Ref, ...] = ()

    @property
    def has_role(self) -> bool:
        return bool(self.hchildren) or self.hparent is not None


class ProtocolNode:
    """One processor running the Forgiving Tree protocol (see module doc)."""

    def __init__(self, nid: int, will: SlotTree):
        self.nid = nid
        self.network: Optional["Network"] = None
        # current fields -------------------------------------------------
        self.parent_ref: Optional[Ref] = None  # upward link of my real position
        self.will = will  # my children stand-ins: my view of the driver's wills
        self.slot_kind: Dict[int, str] = {}  # stand-in -> REAL | HELPER
        # helper fields ----------------------------------------------------
        self.role: Optional[Role] = None
        # reconstruction fields ---------------------------------------------
        self.portion: Optional[Portion] = None
        # deposits ----------------------------------------------------------
        self.leaf_wills: Dict[int, LeafWill] = {}  # child/hchild -> its will
        # round bookkeeping --------------------------------------------------
        self.pending: Set[Tuple[int, str]] = set()
        self._leafwill_sent_to: Optional[Tuple[Optional[Ref], str]] = None
        self._leafwill_holder: Optional[int] = None
        # batch insert waves: touched stand-ins accumulated across the
        # wave's non-final requests, flushed by the final one.
        self._wave_touched: Set[int] = set()

    # ------------------------------------------------------------------
    # local views
    # ------------------------------------------------------------------
    @property
    def is_tree_leaf(self) -> bool:
        return not self.will

    @property
    def ishelper(self) -> bool:
        return self.role is not None

    @property
    def isreadyheir(self) -> bool:
        return self.role is not None and self.role.is_ready_heir

    def neighbor_claims(self) -> Set[int]:
        """Real nodes I currently hold an edge to (both endpoints claim)."""
        out: Set[int] = set()
        if self.parent_ref is not None and self.parent_ref[0] != self.nid:
            out.add(self.parent_ref[0])
        for s in self.will.stand_ins:
            if s != self.nid:
                out.add(s)
        if self.role is not None:
            if self.role.hparent is not None and self.role.hparent[0] != self.nid:
                out.add(self.role.hparent[0])
            for sim, _kind in self.role.hchildren:
                if sim != self.nid:
                    out.add(sim)
        return out

    def pointer_refs(self) -> List[Tuple[str, int]]:
        """Every ``(field, node id)`` this node's local state names —
        real position, will stand-ins, helper role, deposited leaf wills
        — for the driver's dangling-pointer scan."""
        refs: List[Tuple[str, int]] = []
        if self.parent_ref is not None:
            refs.append(("parent_ref", self.parent_ref[0]))
        refs.extend(("will", s) for s in self.will.stand_ins)
        if self.role is not None:
            if self.role.hparent is not None:
                refs.append(("role.hparent", self.role.hparent[0]))
            refs.extend(("role.hchild", c[0]) for c in self.role.hchildren)
        refs.extend(("leaf_will", holder) for holder in self.leaf_wills)
        return refs

    # ------------------------------------------------------------------
    # sending helpers
    # ------------------------------------------------------------------
    def _send(self, message: Message) -> None:
        assert self.network is not None
        self.network.send(message)

    def _maybe_deposit_leaf_will(self) -> None:
        """Leaves (re)deposit their leaf will whenever it changed."""
        if not self.is_tree_leaf:
            return
        holder: Optional[int] = None
        if self.parent_ref is not None and self.parent_ref[0] != self.nid:
            holder = self.parent_ref[0]
        elif self.role is not None:
            # My parent is my own helper (or absent): the will goes to the
            # nearest distinct ancestor (the paper's "parent(v) =
            # hparent(v) = p") — or, when my helper is the virtual root,
            # *down* to the surviving sibling, which applies it when I die
            # (a gap the paper leaves; the sequential engine's
            # ``_leaf_will_holder`` fills it the same way).
            if self.role.hparent is not None and self.role.hparent[0] != self.nid:
                holder = self.role.hparent[0]
            else:
                others = [c for c in self.role.hchildren if c[0] != self.nid]
                if others:
                    holder = others[0][0]
        if holder is None:
            # My deposit location vanished (e.g. my own helper became the
            # virtual root): retract the stale copy so the tracked holder
            # always matches the state-derived rule.
            if self._leafwill_holder is not None:
                self._send(
                    LeafWillRetract(
                        sender=self.nid, recipient=self._leafwill_holder
                    )
                )
                self._leafwill_holder = None
                self._leafwill_sent_to = None
            return
        role = self.role
        lw_state = (
            self.parent_ref,
            repr((role.hparent, tuple(role.hchildren)) if role else None),
        )
        if self._leafwill_sent_to == lw_state:
            return
        self._leafwill_sent_to = lw_state
        self._leafwill_holder = holder
        self._send(
            LeafWillMsg(
                sender=self.nid,
                recipient=holder,
                hparent=role.hparent if role else None,
                hchildren=tuple(role.hchildren) if role else (),
            )
        )

    # ------------------------------------------------------------------
    # will (owner side)
    # ------------------------------------------------------------------
    def make_portion(self, s: int) -> Portion:
        """Compute stand-in ``s``'s slice of my will (Algorithm 3.6)."""
        will = self.will
        heir = will.heir
        # One slot exactly when the root is the heir's own leaf: the heir
        # never simulates an internal position.
        rv = will.root_sim()
        single_slot = rv == heir
        att = will.attachment_sim(s)
        is_heir = s == heir
        iam_rv = False
        # Does my own real position sit below my own helper?  (Then my
        # slot is inside the helper my heir will inherit, and the claim
        # resolves locally at the heir.)
        own_slot = self.role is not None and self.parent_ref == self.role.hparent
        if not is_heir:
            ihp = will.internal_parent_sim(s)
            if ihp is not None:
                next_hparent: Optional[Ref] = (ihp, HELPER)
            elif self.role is not None:
                if own_slot:
                    assert heir is not None
                    next_hparent = (heir, HELPER)  # inside the inherited helper
                else:
                    next_hparent = self.parent_ref  # rv attaches to my parent
                    iam_rv = True
            else:
                assert heir is not None
                next_hparent = (heir, HELPER)  # rv hangs below the ready heir
            if att is not None:
                next_parent: Optional[Ref] = (att, HELPER)
            else:
                # My leaf sits directly under the SubRT root (my own
                # helper): it attaches wherever the root's parent goes.
                next_parent = next_hparent
            next_hchildren = tuple(
                (x, REAL) if kind == "leaf" else (x, HELPER)
                for kind, x in will.internal_children_refs(s)
            )
            inherits = False
        else:
            next_parent = (att, HELPER) if att is not None else None
            inherits = self.role is not None
            if inherits:
                assert self.role is not None
                next_hparent = self.role.hparent
                next_hchildren = tuple(self.role.hchildren)
            else:
                next_hparent = None
                if not single_slot:
                    next_hchildren = ((rv, HELPER),)
                else:
                    next_hchildren = ()  # vacuous ready heir: skipped
        return Portion(
            will_parent=self.nid,
            is_heir=is_heir,
            inherits_role=inherits,
            next_parent=next_parent,
            next_hparent=next_hparent,
            next_hchildren=next_hchildren,
            top_parent=self.parent_ref,
            iam_rv=iam_rv,
            root_sim=None if single_slot else rv,
        )

    def refresh_portions(self, only: Optional[Set[int]] = None) -> None:
        """(Re)send will portions (MakeWill); ``only`` limits recipients."""
        targets = self.will.stand_ins if only is None else [s for s in only if s in self.will]
        for s in targets:
            self._send(
                WillPortionMsg(
                    sender=self.nid, recipient=s, portion=self.make_portion(s)
                )
            )

    def refresh_all_dependents(self) -> None:
        """My role/parent changed: the heir's and rv's portions depend on
        them; resend those two (O(1))."""
        if not self.will:
            self._maybe_deposit_leaf_will()
            return
        affected = {self.will.heir, self.will.root_sim()}
        self.refresh_portions(only={s for s in affected if s is not None})

    def _refresh_after_will_change(self, delta) -> None:
        """Retransmit the portions a will mutation invalidated.

        Besides the slot tree's own touched set, the heir's and the SubRT
        root's portions embed cross-references (the ready-heir child, the
        rv attachment), so they always refresh — still O(1) messages.
        """
        touched = set(delta.touched)
        if self.will:
            if self.will.heir is not None:
                touched.add(self.will.heir)
            touched.add(self.will.root_sim())
        self.refresh_portions(only=touched)

    # ------------------------------------------------------------------
    # message dispatch
    # ------------------------------------------------------------------
    def handle(self, message: Message) -> None:
        before = (self.parent_ref, repr(self.role))
        self._dispatch(message)
        after = (self.parent_ref, repr(self.role))
        if before != after and self.will:
            # My parent/role feed the heir's and the SubRT root's portions
            # of my own will: refresh them (O(1) messages).
            self.refresh_all_dependents()
        self._maybe_deposit_leaf_will()

    def _dispatch(self, message: Message) -> None:
        if isinstance(message, Deleted):
            self._on_deleted(message.victim)
        elif isinstance(message, WillPortionMsg):
            self.portion = message.portion  # type: ignore[assignment]
        elif isinstance(message, LeafWillMsg):
            self.leaf_wills[message.sender] = LeafWill(
                hparent=message.hparent, hchildren=message.hchildren
            )
        elif isinstance(message, ReplaceChild):
            self._on_replace_child(message)
        elif isinstance(message, SimChange):
            self._on_sim_change(message)
        elif isinstance(message, ReparentTo):
            self._on_reparent(message)
        elif isinstance(message, AnchorIs):
            self._on_anchor_is(message)
        elif isinstance(message, RemoveHChild):
            self._on_remove_hchild(message)
        elif isinstance(message, ChildHello):
            pass  # edge establishment; both sides already know from wills
        elif isinstance(message, InsertRequest):
            self._on_insert_request(message)
        elif isinstance(message, InsertAck):
            self.parent_ref = message.parent_ref
        elif isinstance(message, LeafWillRetract):
            self.leaf_wills.pop(message.sender, None)
        else:  # pragma: no cover - defensive
            raise ProtocolError(f"{self.nid}: unknown message {message!r}")

    # ------------------------------------------------------------------
    # insertion handling (churn model)
    # ------------------------------------------------------------------
    def _on_insert_request(self, msg: InsertRequest) -> None:
        """Adopt the joining node as a fresh child slot of my will.

        I stop being a tree leaf, so any deposited leaf will is retracted
        first; the joiner gets an ack carrying its parent link, and the
        O(1) will portions the new slot touched are retransmitted.  For a
        batch wave (``final=False``) the retransmission is deferred: the
        touched stand-ins accumulate and the wave's final request flushes
        them in one coalesced pass."""
        new = msg.child_ref[0]
        if new in self.will:
            raise ProtocolError(f"{self.nid}: duplicate insert of {new}")
        if self.is_tree_leaf and self._leafwill_holder is not None:
            self._send(
                LeafWillRetract(sender=self.nid, recipient=self._leafwill_holder)
            )
            self._leafwill_holder = None
            self._leafwill_sent_to = None
        delta = self.will.add(new)
        self.slot_kind[new] = msg.child_ref[1]
        self._send(
            InsertAck(sender=self.nid, recipient=new, parent_ref=(self.nid, REAL))
        )
        self._wave_touched.update(delta.touched)
        if msg.final:
            touched = self._wave_touched
            self._wave_touched = set()
            self._refresh_after_will_change(AddDelta(touched=tuple(touched)))

    # ------------------------------------------------------------------
    # deletion handling
    # ------------------------------------------------------------------
    def _on_deleted(self, v: int) -> None:
        # 0. v simulated the virtual root helper with me below it and left
        #    me its (downward-deposited) will: apply it.
        self._orphaned_root_check(v)
        # 1. I am a stand-in of v's will: deploy my portion (makeRT).
        if self.portion is not None and self.portion.will_parent == v:
            self._deploy(v)
        # 2. v stood in my will (it was my child slot).
        if v in self.will:
            self._child_slot_died(v)
        # 3. v is adjacent to my helper node.
        if self.role is not None:
            self._helper_neighbor_died(v)
        # 4. my real-position parent was v's real node (not via will: only
        #    possible when I had no portion — the root's child corner) —
        #    covered by (1) in every reachable state.

    def _orphaned_root_check(self, v: int) -> None:
        lw = self.leaf_wills.get(v)
        if lw is None or (v, REAL) not in lw.hchildren:
            return
        if lw.hparent is not None:
            return  # not the root-helper case: the normal flows apply
        dead_ref = (v, HELPER)
        applied = False
        if self.parent_ref == dead_ref:
            self.parent_ref = lw.hparent
            applied = True
        if self.role is not None and self.role.hparent == dead_ref:
            self.role.hparent = lw.hparent
            applied = True
        if applied:
            self.leaf_wills.pop(v, None)

    # -- (1) stand-in deployment ----------------------------------------
    def _deploy(self, v: int) -> None:
        portion = self.portion
        assert portion is not None
        self.portion = None
        role = self.role
        bypassing = (
            role is not None
            and role.hparent is not None
            and role.hparent == (v, REAL)
            and role.is_ready_heir
        )
        anchor: Optional[Ref] = None
        bypassed_vacuous = False
        if bypassing:
            # I was a ready heir standing in for a previously healed slot:
            # bypass my helper; its child is the slot's real occupant.
            assert role is not None
            anchor = role.hchildren[0]
            self.role = None
            if anchor == (self.nid, REAL):
                # Vacuous ready heir (its only child was my own real
                # position): nothing to broker — re-attach normally and
                # fall through to the direct-claim flows below.
                anchor = None
                bypassed_vacuous = True
                if portion.next_parent is not None:
                    self.parent_ref = portion.next_parent
                else:
                    self.parent_ref = portion.top_parent
        else:
            # My real position re-attaches (nextparent).
            if portion.next_parent is not None:
                self.parent_ref = portion.next_parent
                self._send(
                    ChildHello(
                        sender=self.nid,
                        recipient=portion.next_parent[0],
                        child_ref=(self.nid, REAL),
                        target_kind=portion.next_parent[1],
                    )
                )
            else:
                # Top attachment (heir with d == 1, or heir inheriting).
                self.parent_ref = portion.top_parent

        # Assume helper duties (MakeHelper).
        if not portion.is_heir:
            self.role = Role(
                hparent=portion.next_hparent,
                hchildren=list(portion.next_hchildren),
            )
            if portion.iam_rv and portion.top_parent is not None:
                # nexthparent(rv) <- p: I take v's place below its parent.
                self._send(
                    ReplaceChild(
                        sender=self.nid,
                        recipient=portion.top_parent[0],
                        old=v,
                        new_ref=(self.nid, HELPER),
                    )
                )
        else:
            if portion.inherits_role:
                # The inherited helper may hold v's own real position as a
                # child — its occupant is now the root of my SubRT (d > 1),
                # my own real position (d == 1), or my bypassed anchor.
                if portion.root_sim is not None:
                    rv_ref: Ref = (portion.root_sim, HELPER)
                elif bypassing and anchor is not None:
                    rv_ref = anchor
                else:
                    rv_ref = (self.nid, REAL)
                substituted = any(ref == (v, REAL) for ref in portion.next_hchildren)
                inherited = [
                    rv_ref if ref == (v, REAL) else ref
                    for ref in portion.next_hchildren
                ]
                self.role = Role(
                    hparent=portion.next_hparent,
                    hchildren=inherited,
                )
                if self.parent_ref == (v, HELPER):
                    # v's real position hung below its own helper
                    # (own-helper-skip) and I inherited that helper with
                    # my real position below it: my parent link mirrors
                    # the inherited hparent, as everywhere else.
                    self.parent_ref = portion.next_hparent
                if (
                    not substituted
                    and portion.root_sim is None
                    and (not bypassing or bypassed_vacuous)
                    and portion.top_parent is not None
                ):
                    # d == 1 and v's real position sat elsewhere: my real
                    # position takes its slot — claim it.  (A vacuously
                    # bypassed heir reduces to this case: its real
                    # position moved up into its dissolved helper's spot.)
                    self._send(
                        ReplaceChild(
                            sender=self.nid,
                            recipient=portion.top_parent[0],
                            old=v,
                            new_ref=(self.nid, REAL),
                        )
                    )
                self._announce_sim_change(old=v, role=self.role)
            elif portion.next_hchildren or (bypassing and anchor is not None):
                # Become the ready heir.  With a bypassed one-slot will the
                # child list is filled with the anchor below.
                self.role = Role(
                    hparent=portion.top_parent,
                    hchildren=list(portion.next_hchildren),
                )
                if portion.top_parent is not None:
                    self._send(
                        ReplaceChild(
                            sender=self.nid,
                            recipient=portion.top_parent[0],
                            old=v,
                            new_ref=(self.nid, HELPER),
                        )
                    )
            else:
                # d == 1: no ready heir needed; my real position took the
                # slot directly — claim it.
                self.role = None
                if portion.top_parent is not None:
                    self._send(
                        ReplaceChild(
                            sender=self.nid,
                            recipient=portion.top_parent[0],
                            old=v,
                            new_ref=(self.nid, REAL),
                        )
                    )
        if bypassing and anchor is not None:
            # Broker the anchor into my leaf slot (the bypass intros).
            target = portion.next_parent
            if target is None:
                # I was the heir of a 1-slot will: the anchor is the whole
                # SubRT; route it per my new duties.
                if portion.inherits_role:
                    if any(ref == (v, REAL) for ref in portion.next_hchildren):
                        pass  # consumed locally as the inherited rv_ref
                    elif portion.top_parent is not None:
                        self._send(
                            ReplaceChild(
                                sender=self.nid,
                                recipient=portion.top_parent[0],
                                old=v,
                                new_ref=anchor,
                            )
                        )
                        self._send(
                            ReparentTo(
                                sender=self.nid,
                                recipient=anchor[0],
                                target=portion.top_parent,
                                relation="real-parent" if anchor[1] == REAL else "hparent",
                            )
                        )
                elif self.role is not None and portion.is_heir:
                    self.role.hchildren = [anchor]
                    self._send(
                        ReparentTo(
                            sender=self.nid,
                            recipient=anchor[0],
                            target=(self.nid, HELPER),
                            relation="real-parent" if anchor[1] == REAL else "hparent",
                        )
                    )
                elif portion.top_parent is not None:
                    # Claimed directly: hand the slot to the anchor instead.
                    self._send(
                        ReplaceChild(
                            sender=self.nid,
                            recipient=portion.top_parent[0],
                            old=self.nid,
                            new_ref=anchor,
                        )
                    )
                    self._send(
                        ReparentTo(
                            sender=self.nid,
                            recipient=anchor[0],
                            target=portion.top_parent,
                            relation="real-parent" if anchor[1] == REAL else "hparent",
                        )
                    )
            elif (
                self.role is not None
                and (self.nid, REAL) in self.role.hchildren
            ):
                # My leaf slot sits under my *own* new internal helper
                # (the own-helper-skip case): apply the anchor locally.
                idx = self.role.hchildren.index((self.nid, REAL))
                self.role.hchildren[idx] = anchor
                self._send(
                    ReparentTo(
                        sender=self.nid,
                        recipient=anchor[0],
                        target=(self.nid, HELPER),
                        relation="real-parent" if anchor[1] == REAL else "hparent",
                    )
                )
            else:
                self._send(
                    AnchorIs(
                        sender=self.nid,
                        recipient=target[0],
                        slot_standin=self.nid,
                        anchor=anchor,
                    )
                )
                self._send(
                    ReparentTo(
                        sender=self.nid,
                        recipient=anchor[0],
                        target=(target[0], HELPER),
                        relation="real-parent" if anchor[1] == REAL else "hparent",
                    )
                )

    def _announce_sim_change(self, old: int, role: Role) -> None:
        """I took over a helper formerly simulated by ``old``: notify its
        neighbors so their fields follow (O(1) messages)."""
        if role.hparent is not None and role.hparent[0] != self.nid:
            self._send(
                SimChange(
                    sender=self.nid,
                    recipient=role.hparent[0],
                    old=old,
                    new=self.nid,
                    relation="your-hchild",
                )
            )
        for sim, kind in role.hchildren:
            if sim == self.nid:
                continue
            self._send(
                SimChange(
                    sender=self.nid,
                    recipient=sim,
                    old=old,
                    new=self.nid,
                    relation="your-parent" if kind == REAL else "your-hparent",
                )
            )

    # -- (2) a will slot died --------------------------------------------
    def _child_slot_died(self, v: int) -> None:
        kind = self.slot_kind.get(v, REAL)
        lw = self.leaf_wills.pop(v, None)
        if kind == REAL and lw is not None and not lw.has_role:
            # A roleless leaf child: heal locally (FixLeafDeletion, simple
            # case): splice the will and retransmit changed portions.
            self._will_remove_slot(v)
            return
        if kind == REAL and lw is None:
            # An internal child: its heir will claim the slot.
            self.pending.add((v, "slot-claim"))
            return
        if kind == REAL and lw is not None and lw.has_role:
            # A leaf child of mine with helper duties: only possible when I
            # am its will parent AND hold the leaf will — inherit per
            # Algorithm 3.7/3.4 cannot occur for plain slots in the binary
            # protocol (invariant I4): treat as protocol error.
            raise ProtocolError(
                f"{self.nid}: plain child {v} died holding a role (I4)"
            )
        # kind == HELPER: the slot is v's ready-heir helper.
        if lw is not None:
            # v died as a leaf *directly below its own slot helper*: the
            # helper dissolves; its surviving child (if any) takes the slot.
            survivors = [c for c in lw.hchildren if c[0] != v]
            if not survivors:
                self._will_remove_slot(v)
            else:
                s_ref = survivors[0]
                delta = self.will.replace(v, s_ref[0])
                self.slot_kind.pop(v, None)
                self.slot_kind[s_ref[0]] = s_ref[1]
                self._send(
                    ReparentTo(
                        sender=self.nid,
                        recipient=s_ref[0],
                        target=(self.nid, REAL),
                        relation="real-parent" if s_ref[1] == REAL else "hparent",
                    )
                )
                self._refresh_after_will_change(delta)
            return
        # Otherwise v died elsewhere (leaf inheritance: SimChange arrives)
        # or internally (the heir/rv re-claims the slot: ReplaceChild).
        self.pending.add((v, "slot-claim"))

    def _will_remove_slot(self, v: int) -> None:
        delta = self.will.remove(v)
        self.slot_kind.pop(v, None)
        self.leaf_wills.pop(v, None)
        if not delta.emptied:
            self._refresh_after_will_change(delta)
        self._maybe_deposit_leaf_will()

    # -- (3) my helper lost/changed a neighbor -----------------------------
    def _helper_neighbor_died(self, v: int) -> None:
        role = self.role
        assert role is not None
        # my helper's parent died: the dead node's will machinery renames
        # or re-attaches me — handled by incoming messages; nothing local.
        matches = [ref for ref in role.hchildren if ref[0] == v]
        if not matches:
            return
        ref = matches[0]
        lw = self.leaf_wills.pop(v, None)
        if ref[1] == HELPER:
            if lw is not None:
                # v's own helper was my hchild and v died as a leaf: the
                # helper dissolves; its surviving child connects to me
                # (the paper's "remove v from hchildren and add itself").
                survivors = [c for c in lw.hchildren if c[0] != v]
                role.hchildren.remove(ref)
                if survivors:
                    # A replacement, not a loss: the helper keeps its arity.
                    role.hchildren.append(survivors[0])
                    if survivors[0][0] == self.nid:
                        if survivors[0][1] == REAL:
                            self.parent_ref = (self.nid, HELPER)
                    else:
                        self._send(
                            ReparentTo(
                                sender=self.nid,
                                recipient=survivors[0][0],
                                target=(self.nid, HELPER),
                                relation=(
                                    "real-parent" if survivors[0][1] == REAL else "hparent"
                                ),
                            )
                        )
                else:
                    self._after_hchild_loss()
            else:
                # v died internally: its heir inherits the helper and sends
                # SimChange; or the slot is re-claimed (ReplaceChild).
                self.pending.add((v, "hchild-claim"))
            return
        # ref kind == REAL: v's real position hung below my helper.
        if lw is None:
            # v was internal: await the heir's claim.
            self.pending.add((v, "hchild-claim"))
            return
        # v was a leaf below my helper (FixLeafDeletion at a helper parent).
        role.hchildren.remove(ref)
        freed = self._after_hchild_loss()
        if lw.has_role:
            # Algorithm 3.4 lines 7-16: I short-circuited my helper (which
            # freed me) and now inherit v's helper duties.
            if freed is None:
                raise ProtocolError(
                    f"{self.nid}: leaf {v} had a role but my helper was not freed"
                )
            survivor, old_hparent = freed
            my_old = (self.nid, HELPER)
            new_hparent = lw.hparent
            if new_hparent == my_old:
                new_hparent = old_hparent
            new_children = [
                survivor if (ref2 == my_old and survivor is not None) else ref2
                for ref2 in lw.hchildren
            ]
            new_role = Role(hparent=new_hparent, hchildren=new_children)
            self.role = new_role
            # If my real position hung below the inherited helper, my
            # parent reference follows the own-helper-skip convention.
            if self.parent_ref == (v, HELPER):
                self.parent_ref = new_hparent
            self._announce_sim_change(old=v, role=new_role)

    def _after_hchild_loss(self):
        """My helper lost a child: short-circuit it if redundant.

        Returns ``None`` when the helper survives; otherwise the pair
        ``(survivor_ref, old_hparent)`` of the dissolved helper (the
        survivor is ``None`` when the helper was already childless).
        """
        role = self.role
        assert role is not None
        remaining = len(role.hchildren)
        if remaining >= 2:
            return None
        old_hparent = role.hparent
        survivor = None
        if remaining == 1:
            # Redundant virtual node: bypass (connect child to parent).
            other = role.hchildren[0]
            survivor = other
            if role.hparent is not None:
                self._send(
                    ReplaceChild(
                        sender=self.nid,
                        recipient=role.hparent[0],
                        old=self.nid,
                        new_ref=other,
                    )
                )
            if other[0] == self.nid:
                # My own real position moves up: apply synchronously so a
                # same-round takeover sees the final state.
                if other[1] == REAL:
                    self.parent_ref = role.hparent
            else:
                self._send(
                    ReparentTo(
                        sender=self.nid,
                        recipient=other[0],
                        target=role.hparent,  # type: ignore[arg-type]
                        relation="real-parent" if other[1] == REAL else "hparent",
                    )
                )
        else:
            # Childless helper: vanish and cascade upward.
            if role.hparent is not None:
                self._send(
                    RemoveHChild(
                        sender=self.nid,
                        recipient=role.hparent[0],
                        gone=(self.nid, HELPER),
                    )
                )
        self.role = None
        return (survivor, old_hparent)

    # ------------------------------------------------------------------
    # field-update handlers
    # ------------------------------------------------------------------
    def _on_replace_child(self, msg: ReplaceChild) -> None:
        old, new_ref = msg.old, msg.new_ref
        self.pending.discard((old, "slot-claim"))
        self.pending.discard((old, "hchild-claim"))
        if old in self.will:
            if new_ref[0] == old:
                # Same stand-in, new endpoint kind (e.g. a bypassed helper
                # replaced by its simulator's own real position).
                self.slot_kind[old] = new_ref[1]
                return
            if new_ref[0] in self.will:
                raise ProtocolError(
                    f"{self.nid}: stand-in collision {new_ref[0]} in will"
                )
            delta = self.will.replace(old, new_ref[0])
            self.slot_kind.pop(old, None)
            self.slot_kind[new_ref[0]] = new_ref[1]
            self.leaf_wills.pop(old, None)
            self._refresh_after_will_change(delta)
            return
        if self.role is not None:
            for i, (sim, kind) in enumerate(self.role.hchildren):
                if sim == old:
                    self.role.hchildren[i] = new_ref
                    return
        # A claim for something I no longer track (e.g. concurrent splice):
        # protocol error in the binary protocol.
        raise ProtocolError(f"{self.nid}: unmatched ReplaceChild({old})")

    def _on_sim_change(self, msg: SimChange) -> None:
        old, new = msg.old, msg.new
        self.pending.discard((old, "slot-claim"))
        self.pending.discard((old, "hchild-claim"))
        if msg.relation == "your-hchild":
            if old in self.will:
                delta = self.will.replace(old, new)
                self.slot_kind[new] = self.slot_kind.pop(old, HELPER)
                lw = self.leaf_wills.pop(old, None)
                if lw is not None:
                    self.leaf_wills[new] = lw
                self._refresh_after_will_change(delta)
                return
            if self.role is not None:
                for i, (sim, kind) in enumerate(self.role.hchildren):
                    if sim == old:
                        self.role.hchildren[i] = (new, kind)
                        return
            raise ProtocolError(f"{self.nid}: unmatched SimChange hchild {old}->{new}")
        if msg.relation == "your-hparent":
            if self.role is not None:
                old_ref = self.role.hparent
                self.role.hparent = (new, HELPER)
                # Own-helper-skip encoding: when my real position sits under
                # my own helper, my parent_ref mirrors my role's hparent.
                if old_ref is not None and self.parent_ref == old_ref:
                    self.parent_ref = (new, HELPER)
            return
        if msg.relation == "your-parent":
            old_pref = self.parent_ref
            self.parent_ref = (new, HELPER)
            if (
                self.role is not None
                and old_pref is not None
                and self.role.hparent == old_pref
            ):
                self.role.hparent = (new, HELPER)
            return
        raise ProtocolError(f"{self.nid}: unknown SimChange relation {msg.relation}")

    def _on_reparent(self, msg: ReparentTo) -> None:
        if msg.relation == "real-parent":
            old_pref = self.parent_ref
            self.parent_ref = msg.target
            if (
                self.role is not None
                and old_pref is not None
                and self.role.hparent == old_pref
            ):
                self.role.hparent = msg.target
        elif msg.relation == "hparent":
            if self.role is None:
                raise ProtocolError(f"{self.nid}: ReparentTo(hparent) without a role")
            old_ref = self.role.hparent
            self.role.hparent = msg.target
            # Own-helper-skip: my leaf may attach through my own helper.
            if old_ref is not None and self.parent_ref == old_ref:
                self.parent_ref = msg.target
        else:  # pragma: no cover - defensive
            raise ProtocolError(f"{self.nid}: unknown relation {msg.relation}")

    def _on_anchor_is(self, msg: AnchorIs) -> None:
        if self.role is None:
            raise ProtocolError(f"{self.nid}: AnchorIs without a role")
        for i, (sim, kind) in enumerate(self.role.hchildren):
            if sim == msg.slot_standin and kind == REAL:
                self.role.hchildren[i] = msg.anchor
                return
        raise ProtocolError(
            f"{self.nid}: AnchorIs for unknown slot {msg.slot_standin}"
        )

    def _on_remove_hchild(self, msg: RemoveHChild) -> None:
        gone = msg.gone
        if gone[0] in self.will and self.slot_kind.get(gone[0]) == HELPER:
            self._will_remove_slot(gone[0])
            return
        if self.role is not None:
            for ref in list(self.role.hchildren):
                if ref == gone:
                    self.role.hchildren.remove(ref)
                    self._after_hchild_loss()
                    return
        raise ProtocolError(f"{self.nid}: unmatched RemoveHChild({gone})")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ProtocolNode({self.nid}, parent={self.parent_ref}, "
            f"slots={self.will.stand_ins}, role={self.role})"
        )
