"""Typed, versioned records of the kernel's causal event log.

The async kernel (:class:`repro.simnet.AsyncNetwork`) pins its
determinism artifact as a causal event log.  This module is that log's
schema:

* one frozen dataclass per record kind — :class:`SendRecord`,
  :class:`DeliverRecord`, :class:`DropRecord`, :class:`DupRecord`,
  :class:`DupSuppressedRecord`, :class:`DeadDropRecord`,
  :class:`CrashRecord`, :class:`ControlRecord` — carrying the message
  type, heal id, causal layer, and link endpoints as named fields (send
  records additionally carry the kernel's global send sequence number
  and the message's id count, the quantities the budget and
  happens-before certificates need);
* a versioned JSONL dialect (``"v": 1`` on every line) via
  :func:`write_jsonl` / :func:`load_jsonl` /
  :func:`record_from_dict`, the interchange format of the
  ``python -m repro.audit.query`` CLI and the certificate checker.

The kernel emits these records directly (see
``AsyncNetwork.event_log``); nothing in this module imports the kernel,
the engines, or the mirror — the schema is the telemetry boundary.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, fields
from typing import Dict, Iterable, Iterator, Tuple, Type

#: Version stamped on every JSONL line; bump on any field change.
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class LogRecord:
    """Base record: when, which heal, which causal layer, which link.

    ``t`` is the kernel's virtual clock (rounded to 9 decimals);
    ``heal`` the kernel heal id (or a control ``ref`` — see
    :class:`ControlRecord`); ``depth`` the causal layer (``-1`` where
    layering does not apply); ``src``/``dst`` the link endpoints (``-1``
    where absent).
    """

    t: float
    heal: int
    depth: int
    src: int
    dst: int

    kind = "record"

    def tag(self) -> str:
        """One-word label: ``<kind>:<MsgType>``, the bare message type for
        deliveries, the transition name for control entries."""
        raise NotImplementedError

    def to_dict(self) -> Dict[str, object]:
        d: Dict[str, object] = {"v": SCHEMA_VERSION, "kind": self.kind}
        for f in fields(self):
            d[f.name] = getattr(self, f.name)
        return d


@dataclass(frozen=True)
class _MessageRecord(LogRecord):
    """Shared shape of the per-message kinds: the message type name."""

    msg: str = ""

    def tag(self) -> str:
        return f"{self.kind}:{self.msg}"


@dataclass(frozen=True)
class SendRecord(_MessageRecord):
    """One logical protocol send, logged at send time.

    ``seq`` is the kernel's global envelope sequence number (the same
    number delivery records carry, so a delivery is matched to its send
    exactly); ``ids`` the message's id count
    (:meth:`~repro.distributed.messages.Message.id_count`), the quantity
    the FT's and the FG's O(1)-id budgets bound.
    """

    seq: int = -1
    ids: int = -1

    kind = "send"


@dataclass(frozen=True)
class DeliverRecord(_MessageRecord):
    """A handled delivery (the recipient's handler ran)."""

    seq: int = -1

    kind = "deliver"

    def tag(self) -> str:
        return self.msg


@dataclass(frozen=True)
class DropRecord(_MessageRecord):
    """One lost transmission attempt, absorbed by the retransmit layer.

    ``seq`` is the sequence number of the logical send whose attempt was
    lost (the envelope that eventually delivers, late).
    """

    seq: int = -1

    kind = "drop"


@dataclass(frozen=True)
class DupRecord(_MessageRecord):
    """A network-injected duplicate copy, logged at send time.

    ``seq`` is the duplicate envelope's *own* sequence number: together
    with :class:`SendRecord` this makes every delivered envelope's
    origin addressable, duplicate copies included.
    """

    seq: int = -1

    kind = "dup"


@dataclass(frozen=True)
class DupSuppressedRecord(_MessageRecord):
    """An arrival discarded by the recipient's seen-window."""

    seq: int = -1

    kind = "dup-suppressed"


@dataclass(frozen=True)
class DeadDropRecord(_MessageRecord):
    """An arrival at a dead (departed or crashed) recipient."""

    seq: int = -1

    kind = "dead"


@dataclass(frozen=True)
class CrashRecord(LogRecord):
    """A silent crash-during-heal: ``src`` is the victim."""

    kind = "crash"

    def tag(self) -> str:
        return "crash"

    @property
    def victim(self) -> int:
        return self.src


@dataclass(frozen=True)
class ControlRecord(LogRecord):
    """A control-plane transition (lease grant/defer/resume/release,
    escalation, repair pass) interleaved on the delivery timeline.

    ``heal`` holds the entry's ``ref`` — a kernel heal id for
    post-injection tags (``lease-grant``/``lease-release``), an
    admission-layer event id for pre-injection ones (``lease-defer``/
    ``lease-resume``/``lease-escalate-*``); the tag names which id
    space applies (see :meth:`AsyncNetwork.log_control`).
    """

    ctl: str = ""

    kind = "control"

    def tag(self) -> str:
        return self.ctl

    @property
    def ref(self) -> int:
        return self.heal


#: Every record class, by kind string.
RECORD_TYPES: Dict[str, Type[LogRecord]] = {
    cls.kind: cls
    for cls in (
        SendRecord,
        DeliverRecord,
        DropRecord,
        DupRecord,
        DupSuppressedRecord,
        DeadDropRecord,
        CrashRecord,
        ControlRecord,
    )
}


def record_from_dict(d: Dict[str, object]) -> LogRecord:
    """Rebuild a record from its :meth:`LogRecord.to_dict` form."""
    if d.get("v") != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported log schema version {d.get('v')!r} "
            f"(this reader speaks v{SCHEMA_VERSION})"
        )
    kind = d.get("kind")
    cls = RECORD_TYPES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown record kind {kind!r}")
    kwargs = {
        f.name: d[f.name] for f in fields(cls) if f.name in d
    }
    missing = {f.name for f in fields(cls)} - set(kwargs)
    if missing:
        raise ValueError(f"record missing fields {sorted(missing)}: {d!r}")
    return cls(**kwargs)  # type: ignore[arg-type]


def write_jsonl(records: Iterable[LogRecord], path: str) -> int:
    """Export a log as versioned JSONL; returns the line count."""
    n = 0
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_dict()))
            fh.write("\n")
            n += 1
    return n


def load_jsonl(path: str) -> Iterator[LogRecord]:
    """Stream records back from a :func:`write_jsonl` export."""
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield record_from_dict(json.loads(line))


# ---------------------------------------------------------------------------
# HealReport deltas — the oracle-side telemetry the certificates consume.
# ---------------------------------------------------------------------------

def _norm(u: int, v: int) -> Tuple[int, int]:
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class HealDelta:
    """The exported summary of one oracle event, as the auditor sees it.

    Extracted from a :class:`~repro.core.events.HealReport` by duck
    typing (this module never imports the engines): what kind of event,
    which ids it named, and every edge it touched — the *net* adds and
    removals plus every transient mid-heal edge from the raw event
    stream, which is exactly the universe the locality certificate
    replays.  ``region`` is every node the oracle named (edge endpoints,
    victim, joiners): heal-introduced traffic must stay inside it.
    ``hafts`` / ``fresh`` are what a Forgiving Graph delete merged (0
    for everything else): the exact per-node budget's two terms.
    """

    kind: str  # "delete" | "insert"
    victim: int = -1
    joiners: Tuple[Tuple[int, int], ...] = ()
    added: Tuple[Tuple[int, int], ...] = ()
    removed: Tuple[Tuple[int, int], ...] = ()
    touched: Tuple[Tuple[int, int], ...] = ()
    hafts: int = 0
    fresh: int = 0

    @functools.cached_property
    def region(self) -> frozenset:
        # cached_property writes straight into __dict__, which a frozen
        # (non-slots) dataclass still has — the auditor reads this on
        # every exclusion/locality pass.
        nodes = set()
        for u, v in self.touched:
            nodes.add(u)
            nodes.add(v)
        if self.victim >= 0:
            nodes.add(self.victim)
        for nid, attach_to in self.joiners:
            nodes.add(nid)
            nodes.add(attach_to)
        return frozenset(nodes)

    @classmethod
    def from_report(cls, report) -> "HealDelta":
        """Extract the delta from a heal report (duck-typed)."""
        touched = set()
        for u, v in report.edges_added:
            touched.add(_norm(u, v))
        for u, v in report.edges_removed:
            touched.add(_norm(u, v))
        for event in report.events:
            u = getattr(event, "u", None)
            v = getattr(event, "v", None)
            if isinstance(u, int) and isinstance(v, int):
                touched.add(_norm(u, v))
        added, removed = report.net_edge_deltas()
        joiners: Tuple[Tuple[int, int], ...] = ()
        if report.inserted_batch:
            joiners = tuple(report.inserted_batch)
        elif report.inserted is not None and report.attached_to is not None:
            joiners = ((report.inserted, report.attached_to),)
        return cls(
            kind="insert" if report.is_insertion else "delete",
            victim=report.deleted if report.deleted >= 0 else -1,
            joiners=joiners,
            added=tuple(sorted(_norm(u, v) for u, v in added)),
            removed=tuple(sorted(_norm(u, v) for u, v in removed)),
            touched=tuple(sorted(touched)),
            hafts=getattr(report, "hafts", 0),
            fresh=getattr(report, "fresh", 0),
        )


def normalize_edges(graph_or_edges) -> frozenset:
    """Normalize an adjacency mapping or edge iterable to ``u <= v``
    pairs (the locality certificate's initial-overlay input)."""
    edges = set()
    if hasattr(graph_or_edges, "items"):
        for u, vs in graph_or_edges.items():
            for v in vs:
                edges.add(_norm(u, v))
    else:
        for u, v in graph_or_edges:
            edges.add(_norm(u, v))
    return frozenset(edges)
