"""Flat struct-of-arrays storage for the Forgiving Tree hot path.

The object stores (:class:`~repro.core.virtual_tree.VirtualTree`,
:class:`~repro.core.slot_tree.ObjectWills`) keep dict columns and Python
child lists.  That is the right shape for reading the paper but the wrong
shape for sustained-churn campaigns: at n = 10^6 per-node dict entries and
lists cost gigabytes, and the sampling query the churn ladder needs is
O(n log n) per event there.

This module stores the same two structures in preallocated parallel arrays
(``array('q')`` — C longs, no per-node objects):

``FlatCore`` — the virtual tree::

    slot:   0    1    2    ...          (int handle, recycled via free list)
    kind  [ R  | R  | H  | ... ]        free / real / helper
    ident [ nid| nid| hid| ... ]        real id or helper id
    sim   [ -1 | -1 | nid| ... ]        simulator (helpers only)
    parent[ .. | .. | .. | ... ]        parent slot or -1
    head/tail/next/prev/nchild          intrusive doubly-linked child lists
    role  [ .. | -1 | -- | ... ]        helper slot simulated by this real
    imgdeg/inc                          image degree & degree increase

``FlatWills`` — every node's will (SubRT blueprint) in one shared arena::

    pos:    0     1     2    ...        (int handle, per-arena free list)
    wkind [ L   | I   | L  | ... ]      free / leaf / internal
    wval  [ s_i | sim | s_i| ... ]      stand-in (leaf) or simulator (internal)
    wparent/whead/wtail/wnext/wprev/wnchild

Both are stores only: the tree rules ``FlatCore`` runs are
:class:`~repro.core.virtual_tree.TreeText`'s, the same text
``VirtualTree`` runs, and the will rules ``FlatWills`` runs are
:class:`~repro.core.slot_tree.WillText`'s, the same text ``ObjectWills``
runs.

Three contracts make the flat layer a drop-in replacement:

* **ids are never reused** at the API boundary: slots recycle, node ids do
  not (``FlatForgivingTree`` keeps the ``_ever`` set exactly like the object
  engine).  Virtual-tree slots freed during an event enter a *limbo* list
  and only rejoin the free list when the next event starts, so within one
  healing round a slot names one node — the algorithm's ``==`` on
  handles means the same thing here as on the object store's
  never-recycled handles, without aliasing.
* **orderings are preserved**: child lists are doubly linked (append,
  unlink and positional swap are O(1)), helper iteration is
  hid-ascending, and both stores run the one tree text and the one will
  text — so event logs, message tallies and donor choices are
  bit-identical to the object engine (asserted by the object-vs-flat
  parity wall in ``tests/test_flatcore.py``).
* **hot queries are O(1)**: ``alive`` is a :class:`AliveView` (a live
  ``collections.abc.Set`` over the id map — no per-event set copy) and
  uniform victim sampling indexes a compact alive list; image degrees and
  the degree-increase maximum are the text's maintained counters, on
  either store.
"""

from __future__ import annotations

from collections.abc import Set as AbstractSet
from array import array
from typing import Callable, Collection, Dict, Iterator, List, Optional, Sequence, Tuple

from .errors import EmptyStructureError, InvariantViolationError
from .slot_tree import NIL, W_FREE, W_INTERNAL, W_LEAF, WillText
from .virtual_tree import KIND_FREE, KIND_REAL, TreeText

#: The 12 parallel columns of :class:`FlatCore`, in serialization order.
CORE_COLUMNS = (
    "kind", "ident", "sim", "parent", "head", "tail",
    "next", "prev", "nchild", "role", "imgdeg", "inc",
)

#: The 8 parallel columns of :class:`FlatWills`, in serialization order.
WILL_COLUMNS = (
    "wkind", "wval", "wparent", "whead",
    "wtail", "wnext", "wprev", "wnchild",
)


class AliveView(AbstractSet):
    """Zero-copy live view of the surviving node ids.

    The object engine's ``alive`` property returns ``set(self._reals)`` — an
    O(n) copy per call, paid on every churn event by the harness's liveness
    check and the adversary's victim pick.  This view supports the same set
    algebra (``==``, ``in``, ``<=``, ``|``, ``-``, ``sorted``) through
    :class:`collections.abc.Set` without materializing anything; binary
    operations return plain ``set`` objects.
    """

    __slots__ = ("_reals",)

    def __init__(self, reals: Collection[int]):
        """``reals``: the owner's live container of ids — the flat
        core's ``id -> slot`` dict, the Forgiving Graph's alive set."""
        self._reals = reals

    def __contains__(self, nid: object) -> bool:
        return nid in self._reals

    def __iter__(self) -> Iterator[int]:
        return iter(self._reals)

    def __len__(self) -> int:
        return len(self._reals)

    @classmethod
    def _from_iterable(cls, it) -> set:
        return set(it)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"AliveView({set(self._reals)!r})"


class FlatCore(TreeText):
    """The virtual tree on parallel arrays (see module docstring).

    A store of :class:`~repro.core.virtual_tree.TreeText`: handles are
    integer *slots*, every rule — the structural operations, the image
    refcount and degree accounting, ``check``, ``render`` — is the text's,
    the same function objects :class:`~repro.core.virtual_tree.VirtualTree`
    runs.  What is here is storage only: the arrays, the free and limbo
    lists, the intrusive child links (``tail`` / ``next`` / ``prev``), the
    compact alive list behind :meth:`sample_alive`, and checkpointing.
    """

    def __init__(self, recorder: Optional[Callable[[object], None]] = None):
        super().__init__(recorder)
        self.kind = array("q")
        self.ident = array("q")  # nid for reals, hid for helpers
        self.sim = array("q")  # helpers: simulator nid; reals: NIL
        self.parent = array("q")
        self.head = array("q")  # first child slot
        self.tail = array("q")  # last child slot
        self.next = array("q")  # next sibling slot
        self.prev = array("q")  # previous sibling slot
        self.nchild = array("q")
        self.role = array("q")  # reals: slot of the helper they simulate
        self.imgdeg = array("q")  # reals: degree in the image graph
        self.inc = array("q")  # reals: imgdeg - original degree

        self._free: List[int] = []
        self._limbo: List[int] = []  # freed this event; recycled next event

        # Compact alive list for O(1) uniform sampling (swap-pop removal).
        self._alive_list: List[int] = []
        self._alive_idx: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # arena management
    # ------------------------------------------------------------------
    def reserve(self, capacity: int) -> None:
        """Preallocate slot capacity (bulk zero-extend, for big builds)."""
        extra = capacity - len(self.kind)
        if extra <= 0:
            return
        zeros = array("q", bytes(8 * extra))
        for name in CORE_COLUMNS:
            getattr(self, name).extend(zeros)
        # Newly minted slots are free, highest last so low slots pop first.
        self._free.extend(range(capacity - 1, len(self.kind) - extra - 1, -1))

    def begin_event(self) -> None:
        """Start a new healing round: recycle the previous round's slots.

        Quarantining frees for one event preserves within-event identity
        semantics (the engine compares slot handles taken at different
        points of one repair).
        """
        if self._limbo:
            self._free.extend(self._limbo)
            self._limbo.clear()

    def _alloc(self, kind: int, ident: int) -> int:
        if self._free:
            slot = self._free.pop()
        else:
            slot = len(self.kind)
            for name in CORE_COLUMNS:
                getattr(self, name).append(0)
        self.kind[slot] = kind
        self.ident[slot] = ident
        self.tail[slot] = NIL
        self.next[slot] = NIL
        self.prev[slot] = NIL
        if kind == KIND_REAL:
            self._alive_idx[ident] = len(self._alive_list)
            self._alive_list.append(ident)
        return slot

    def _release(self, slot: int) -> None:
        if self.kind[slot] == KIND_REAL:
            nid = self.ident[slot]
            idx = self._alive_idx.pop(nid)
            last = self._alive_list.pop()
            if last != nid:
                self._alive_list[idx] = last
                self._alive_idx[last] = idx
        self.kind[slot] = KIND_FREE
        self._limbo.append(slot)

    # ------------------------------------------------------------------
    # the tree text's store port: intrusive doubly-linked child lists
    # ------------------------------------------------------------------
    def children(self, slot: int) -> List[int]:
        """Child slots in order (a fresh list — safe to mutate under it)."""
        out: List[int] = []
        nxt = self.next
        c = self.head[slot]
        while c != NIL:
            out.append(c)
            c = nxt[c]
        return out

    def _append(self, parent: int, child: int) -> None:
        last = self.tail[parent]
        if last == NIL:
            self.head[parent] = child
        else:
            self.next[last] = child
        self.prev[child] = last
        self.next[child] = NIL
        self.tail[parent] = child

    def _unlink(self, parent: int, child: int) -> None:
        prv, nxt = self.prev[child], self.next[child]
        if prv == NIL:
            self.head[parent] = nxt
        else:
            self.next[prv] = nxt
        if nxt == NIL:
            self.tail[parent] = prv
        else:
            self.prev[nxt] = prv
        self.prev[child] = NIL
        self.next[child] = NIL

    def _swap(self, parent: int, old: int, new: int) -> None:
        prv, nxt = self.prev[old], self.next[old]
        self.prev[new] = prv
        self.next[new] = nxt
        if prv == NIL:
            self.head[parent] = new
        else:
            self.next[prv] = new
        if nxt == NIL:
            self.tail[parent] = new
        else:
            self.prev[nxt] = new
        self.prev[old] = NIL
        self.next[old] = NIL

    def _check_links(self) -> None:
        """Back links and tails, the alive list, the free lists."""
        for slot in (*self._reals.values(), *self._helpers.values()):
            prev = NIL
            for child in self.children(slot):
                if self.prev[child] != prev:
                    raise InvariantViolationError("flat-sib-links", f"slot {slot}")
                prev = child
            if self.tail[slot] != prev:
                raise InvariantViolationError("flat-tail", f"slot {slot}")
        if sorted(self._alive_list) != sorted(self._reals):
            raise InvariantViolationError("flat-alive-list", "alive list diverged")
        for nid, idx in self._alive_idx.items():
            if self._alive_list[idx] != nid:
                raise InvariantViolationError("flat-alive-idx", str(nid))
        used = set(self._reals.values()) | set(self._helpers.values())
        spare = set(self._free) | set(self._limbo)
        if used & spare:
            raise InvariantViolationError("flat-free-list", "live slot on free list")
        if len(spare) != len(self._free) + len(self._limbo):
            raise InvariantViolationError("flat-free-list", "duplicate free slot")
        for slot in spare:
            if self.kind[slot] != KIND_FREE:
                raise InvariantViolationError("flat-free-kind", str(slot))

    def sample_alive(self, rng) -> int:
        """Uniform surviving node in O(1) (the ladder's victim picker)."""
        if not self._alive_list:
            raise EmptyStructureError("sample from an empty network")
        return self._alive_list[rng.randrange(len(self._alive_list))]

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Dict[str, object]:
        """Full state as ``{"meta": {...}, "arrays": {name: array('q')}}``.

        Every sequence — including dict key/value columns — is an
        ``array('q')`` so the checkpoint codec can write raw bytes.  Dict
        columns keep *insertion order*: ``_reals`` iterates by node age
        and ``_helpers`` hid-ascending, and both orders are load-bearing
        for bit-identical replay (donor scans, helper steals).  The
        free/limbo lists are LIFO stacks whose order decides future slot
        assignment, so they serialize verbatim too.
        """
        arrays: Dict[str, array] = {
            name: array("q", getattr(self, name)) for name in CORE_COLUMNS
        }
        arrays["reals_k"] = array("q", self._reals.keys())
        arrays["reals_v"] = array("q", self._reals.values())
        arrays["helpers_k"] = array("q", self._helpers.keys())
        arrays["helpers_v"] = array("q", self._helpers.values())
        image = array("q")
        for (u, v), mult in self._image.items():
            image.append(u)
            image.append(v)
            image.append(mult)
        arrays["image"] = image
        arrays["free"] = array("q", self._free)
        arrays["limbo"] = array("q", self._limbo)
        arrays["inc_k"] = array("q", self._inc_count.keys())
        arrays["inc_v"] = array("q", self._inc_count.values())
        arrays["alive"] = array("q", self._alive_list)
        meta = {
            "root": self._root,
            "hid_counter": self._hid_counter,
            "inc_max": self._inc_max,
            "inc_dirty": int(self._inc_dirty),
        }
        return {"meta": meta, "arrays": arrays}

    @classmethod
    def restore_state(cls, state: Dict[str, object]) -> "FlatCore":
        """Rebuild a core from :meth:`snapshot_state` output (exact)."""
        meta = state["meta"]
        arrays = state["arrays"]
        self = cls(recorder=None)
        for name in CORE_COLUMNS:
            setattr(self, name, array("q", arrays[name]))
        self._reals = dict(zip(arrays["reals_k"], arrays["reals_v"]))
        self._helpers = dict(zip(arrays["helpers_k"], arrays["helpers_v"]))
        img = arrays["image"]
        self._image = {
            (img[i], img[i + 1]): img[i + 2] for i in range(0, len(img), 3)
        }
        self._free = list(arrays["free"])
        self._limbo = list(arrays["limbo"])
        self._inc_count = dict(zip(arrays["inc_k"], arrays["inc_v"]))
        self._alive_list = list(arrays["alive"])
        self._alive_idx = {nid: i for i, nid in enumerate(self._alive_list)}
        self._root = int(meta["root"])
        self._hid_counter = int(meta["hid_counter"])
        self._inc_max = int(meta["inc_max"])
        self._inc_dirty = bool(meta["inc_dirty"])
        return self


class FlatWills(WillText):
    """Every node's will (SubRT blueprint) in one shared flat arena.

    A store of :class:`~repro.core.slot_tree.WillText`: all wills share
    eight parallel arrays plus the global position indexes keyed by
    ``(owner, stand_in)``, and the will rules — placement, re-keying, pool
    order, the reported deltas — are the text's, the same function
    objects :class:`~repro.core.slot_tree.ObjectWills` runs.  What is
    here is storage only: the arena, its free list, the intrusive child
    links, and checkpointing.

    Positions free eagerly (the engine never holds position handles across
    operations, so no limbo list is needed here).
    """

    def __init__(self, branching: int = 2):
        if branching < 2:
            raise ValueError(f"branching must be >= 2, got {branching}")
        self.branching = branching
        self.wkind = array("q")
        self.wval = array("q")  # stand-in (leaf) or simulator (internal)
        self.wparent = array("q")
        self.whead = array("q")
        self.wtail = array("q")
        self.wnext = array("q")
        self.wprev = array("q")
        self.wnchild = array("q")
        self._free: List[int] = []

        self._root: Dict[int, int] = {}  # owner -> root pos (NIL when empty);
        #                                  key existence == will existence
        self._heir: Dict[int, int] = {}  # owner -> heir stand-in (NIL none)
        self._leafpos: Dict[Tuple[int, int], int] = {}
        self._intpos: Dict[Tuple[int, int], int] = {}

    # ------------------------------------------------------------------
    # arena management
    # ------------------------------------------------------------------
    def reserve(self, capacity: int) -> None:
        extra = capacity - len(self.wkind)
        if extra <= 0:
            return
        zeros = array("q", bytes(8 * extra))
        for arr in (
            self.wkind, self.wval, self.wparent, self.whead,
            self.wtail, self.wnext, self.wprev, self.wnchild,
        ):
            arr.extend(zeros)
        self._free.extend(range(capacity - 1, len(self.wkind) - extra - 1, -1))

    def _alloc(self) -> int:
        if self._free:
            return self._free.pop()
        pos = len(self.wkind)
        for arr in (
            self.wkind, self.wval, self.wparent, self.whead,
            self.wtail, self.wnext, self.wprev, self.wnchild,
        ):
            arr.append(0)
        return pos

    def _release(self, pos: int) -> None:
        self.wkind[pos] = W_FREE
        self._free.append(pos)

    # ------------------------------------------------------------------
    # the will text's store port
    # ------------------------------------------------------------------
    def _mk_leaf(self, owner: int, stand_in: int) -> int:
        pos = self._alloc()
        self.wkind[pos] = W_LEAF
        self.wval[pos] = stand_in
        self.wparent[pos] = NIL
        self.whead[pos] = NIL
        self.wtail[pos] = NIL
        self.wnext[pos] = NIL
        self.wprev[pos] = NIL
        self.wnchild[pos] = 0
        self._leafpos[(owner, stand_in)] = pos
        return pos

    def _mk_internal(self, owner: int, sim: int, children: Sequence[int]) -> int:
        pos = self._alloc()
        self.wkind[pos] = W_INTERNAL
        self.wval[pos] = sim
        self.wparent[pos] = NIL
        self.whead[pos] = NIL
        self.wnext[pos] = NIL
        self.wprev[pos] = NIL
        self.wnchild[pos] = len(children)
        prev = NIL
        for child in children:
            self.wparent[child] = pos
            self.wprev[child] = prev
            if prev == NIL:
                self.whead[pos] = child
            else:
                self.wnext[prev] = child
            prev = child
        if prev != NIL:
            self.wnext[prev] = NIL
        self.wtail[pos] = prev
        self._intpos[(owner, sim)] = pos
        return pos

    def _children(self, pos: int) -> List[int]:
        out: List[int] = []
        nxt = self.wnext
        c = self.whead[pos]
        while c != NIL:
            out.append(c)
            c = nxt[c]
        return out

    def _append(self, parent: int, child: int) -> None:
        last = self.wtail[parent]
        if last == NIL:
            self.whead[parent] = child
        else:
            self.wnext[last] = child
        self.wprev[child] = last
        self.wnext[child] = NIL
        self.wtail[parent] = child
        self.wparent[child] = parent
        self.wnchild[parent] += 1

    def _unlink(self, parent: int, child: int) -> None:
        prv, nxt = self.wprev[child], self.wnext[child]
        if prv == NIL:
            self.whead[parent] = nxt
        else:
            self.wnext[prv] = nxt
        if nxt == NIL:
            self.wtail[parent] = prv
        else:
            self.wprev[nxt] = prv
        self.wprev[child] = NIL
        self.wnext[child] = NIL
        self.wparent[child] = NIL
        self.wnchild[parent] -= 1

    def _graft(self, owner: int, old: int, new: int) -> None:
        """Put ``new`` exactly where ``old`` sits (links + parent + root)."""
        grand = self.wparent[old]
        prv, nxt = self.wprev[old], self.wnext[old]
        self.wprev[new] = prv
        self.wnext[new] = nxt
        self.wparent[new] = grand
        if grand == NIL:
            self._root[owner] = new
        else:
            if prv == NIL:
                self.whead[grand] = new
            else:
                self.wnext[prv] = new
            if nxt == NIL:
                self.wtail[grand] = new
            else:
                self.wprev[nxt] = new
        self.wprev[old] = NIL
        self.wnext[old] = NIL
        self.wparent[old] = NIL

    def _retag(self, pos: int, val: int) -> None:
        self.wval[pos] = val

    def _check_links(self, pos: int, kids: List[int]) -> None:
        """The intrusive list agrees with the count, back links and tail."""
        sim = self.wval[pos]
        if len(kids) != self.wnchild[pos]:
            raise InvariantViolationError("flat-will-nchild", str(sim))
        prev = NIL
        for child in kids:
            if self.wprev[child] != prev:
                raise InvariantViolationError("flat-will-sib-links", str(sim))
            prev = child
        if self.wtail[pos] != prev:
            raise InvariantViolationError("flat-will-tail", str(sim))

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Dict[str, object]:
        """Full arena state (same ``meta``/``arrays`` shape as FlatCore).

        The ``_root`` map's key *existence* encodes will existence and its
        insertion order tracks will creation order; the free list is the
        LIFO allocation stack.  Both serialize verbatim so a restored
        arena hands out positions in the same sequence the unbroken run
        would have.
        """
        arrays: Dict[str, array] = {
            name: array("q", getattr(self, name)) for name in WILL_COLUMNS
        }
        arrays["free"] = array("q", self._free)
        arrays["root_k"] = array("q", self._root.keys())
        arrays["root_v"] = array("q", self._root.values())
        arrays["heir_k"] = array("q", self._heir.keys())
        arrays["heir_v"] = array("q", self._heir.values())
        leafpos = array("q")
        for (owner, stand_in), pos in self._leafpos.items():
            leafpos.append(owner)
            leafpos.append(stand_in)
            leafpos.append(pos)
        arrays["leafpos"] = leafpos
        intpos = array("q")
        for (owner, sim), pos in self._intpos.items():
            intpos.append(owner)
            intpos.append(sim)
            intpos.append(pos)
        arrays["intpos"] = intpos
        return {"meta": {"branching": self.branching}, "arrays": arrays}

    @classmethod
    def restore_state(cls, state: Dict[str, object]) -> "FlatWills":
        """Rebuild a will arena from :meth:`snapshot_state` output."""
        meta = state["meta"]
        arrays = state["arrays"]
        self = cls(branching=int(meta["branching"]))
        for name in WILL_COLUMNS:
            setattr(self, name, array("q", arrays[name]))
        self._free = list(arrays["free"])
        self._root = dict(zip(arrays["root_k"], arrays["root_v"]))
        self._heir = dict(zip(arrays["heir_k"], arrays["heir_v"]))
        lp = arrays["leafpos"]
        self._leafpos = {
            (lp[i], lp[i + 1]): lp[i + 2] for i in range(0, len(lp), 3)
        }
        ip = arrays["intpos"]
        self._intpos = {
            (ip[i], ip[i + 1]): ip[i + 2] for i in range(0, len(ip), 3)
        }
        return self
