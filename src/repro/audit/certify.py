"""Per-heal certificates checked from exported telemetry alone.

:func:`certify_campaign` re-proves the protocol guarantees the mirror
normally vouches for, using only what a campaign exports — the typed
causal event log, per-heal :class:`HealStats` tallies, control-track
entries, oracle :class:`~repro.audit.schema.HealDelta` summaries and
the campaign :class:`FaultSummary`.  It imports nothing from the
kernel, the engines, or the mirror; every input is duck-typed.

Five certificate classes (:data:`CERTIFICATE_KINDS`):

``budget``
    Message budgets.  FT: per-node sends stay under the Theorem 1.3
    constant (scaled by wave size for batch inserts) and every message
    carries at most :attr:`AuditParams.ft_msg_ids` node ids.  FG: every
    node but the victim sends at most
    :func:`~repro.guarantees.fg_node_message_budget` messages (``n`` the
    alive count, the hafts merged and fresh neighbours bounded by the
    victim's own fan-out; the wave size for batch inserts) and every
    message carries at most :attr:`AuditParams.fg_msg_ids` node ids —
    O(1)-id portions, no member lists.
``locality``
    Every payload travels a current-overlay or heal-introduced edge —
    the overlay universe is reconstructed by replaying the oracle edge
    deltas in order — or stays inside the heal's own region (the nodes
    its delta names; FG report/portion traffic is coordinator-direct by
    design, the documented deviation).
``exclusion``
    Lease mutual exclusion: heals whose control-track
    ``lease-grant``/``lease-release`` intervals overlap in virtual time
    must have disjoint *write regions* (the nodes their oracle delta
    names).  Read-only bystanders — will/weight refresh recipients
    whose adjacency arose between a heal's admission and its deferred
    injection — may be shared.
``causality``
    Happens-before well-formedness: the log's clock is monotone, every
    arrival (delivery, suppressed duplicate, dead drop) matches an
    earlier send/dup record with the same envelope sequence, endpoints
    and message type, per-heal delivery layers are monotone, and every
    delivery lands inside the heal's ``[injected_at, quiesced_at]``
    window.
``accounting``
    Fault accounting: drop records == retransmissions == the heal's
    ``dropped`` tally, dup records == ``duplicated``, suppressed
    arrivals == ``dup_suppressed``, dead arrivals == ``dead_drops``,
    per-node send/receive counts match the kernel's ``sent`` /
    ``received`` dicts node-for-node, and the campaign totals match the
    :class:`FaultSummary`.

Violations name the certificate, the heal, and the event-id window
(indices into the log) so the flight recorder and a human land on the
offending records directly.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.errors import ReproError
from .. import guarantees
from .schema import ControlRecord, HealDelta, LogRecord, SendRecord, normalize_edges

#: The certificate classes, in reporting order.
CERTIFICATE_KINDS = ("budget", "locality", "exclusion", "causality", "accounting")

_ARRIVAL_KINDS = ("deliver", "dup-suppressed", "dead")


class AuditError(ReproError):
    """A certificate failed: the log contradicts a proven guarantee."""


@dataclass(frozen=True)
class AuditParams:
    """The checkable constants behind the certificates.

    The budgets default to the ones :mod:`repro.guarantees` states (and
    justifies): ``ft_node_budget`` is the Theorem 1.3 per-node send
    envelope per delete heal, scaled by the wave size for batch inserts;
    ``ft_msg_ids`` the FT word budget, ``fg_msg_ids`` the FG's; the FG
    per-node budget is :func:`~repro.guarantees.fg_node_message_budget`
    over the alive node set the delta replay tracks.
    """

    ft_node_budget: int = guarantees.FT_NODE_MESSAGE_BUDGET
    ft_msg_ids: int = guarantees.FT_MESSAGE_ID_BUDGET
    fg_msg_ids: int = guarantees.FG_MESSAGE_ID_BUDGET
    clock_eps: float = 1e-6


@dataclass(frozen=True)
class Violation:
    """One certificate failure, pinned to its evidence.

    ``window`` is the inclusive ``(first, last)`` event-log index range
    implicated — the slice to replay, dump, or hand the flight
    recorder.  ``heal`` is the kernel heal id (``-1`` for campaign-wide
    checks such as global clock monotonicity or the fault-summary
    cross-check).
    """

    cert: str
    heal: int
    window: Tuple[int, int]
    detail: str

    def __str__(self) -> str:
        where = f"heal {self.heal}" if self.heal >= 0 else "campaign"
        return (
            f"[{self.cert}] {where} events {self.window[0]}..{self.window[1]}: "
            f"{self.detail}"
        )


@dataclass
class HealCertificate:
    """The audit verdict for one heal."""

    heal: int
    label: str
    checked: Tuple[str, ...] = ()
    skipped: Tuple[str, ...] = ()
    violations: List[Violation] = field(default_factory=list)
    window: Tuple[int, int] = (-1, -1)

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class AuditReport:
    """Everything :func:`certify_campaign` proved (or could not).

    ``campaign_violations`` are the checks that belong to no single heal
    (clock monotonicity, lease overlap pairs, fault-summary totals);
    per-heal failures live on their :class:`HealCertificate`.
    """

    protocol: str
    certificates: List[HealCertificate] = field(default_factory=list)
    campaign_violations: List[Violation] = field(default_factory=list)
    records: int = 0

    @property
    def violations(self) -> List[Violation]:
        out = list(self.campaign_violations)
        for cert in self.certificates:
            out.extend(cert.violations)
        return out

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> Dict[str, object]:
        by_cert: Counter = Counter(v.cert for v in self.violations)
        checked: Counter = Counter()
        for cert in self.certificates:
            checked.update(cert.checked)
        return {
            "ok": self.ok,
            "protocol": self.protocol,
            "records": self.records,
            "heals": len(self.certificates),
            "checks": dict(checked),
            "violations": len(self.violations),
            "violations_by_cert": dict(by_cert),
            "first_violation": str(self.violations[0]) if self.violations else None,
        }

    def raise_on_violation(self) -> "AuditReport":
        if not self.ok:
            head = [str(v) for v in self.violations[:5]]
            more = len(self.violations) - len(head)
            if more > 0:
                head.append(f"... and {more} more")
            raise AuditError(
                "audit certificates failed "
                f"({len(self.violations)} violation(s)):\n  " + "\n  ".join(head)
            )
        return self


@dataclass
class AuditInputs:
    """One campaign's exported telemetry, bundled for (re-)certification.

    The harness builds this after the final barrier; the mutation
    self-test (:mod:`repro.audit.mutate`) re-certifies corrupted copies
    of ``records`` against the same sidecar telemetry to prove each
    certificate class actually bites.
    """

    records: Sequence[LogRecord]
    heal_stats: Sequence
    deltas: Sequence[HealDelta] = ()
    initial_edges: frozenset = frozenset()
    protocol: str = "ft"
    fault_summary: object = None
    params: Optional[AuditParams] = None

    def certify(self, records: Optional[Sequence[LogRecord]] = None) -> AuditReport:
        """Run the certificates — over ``records`` if given (the
        mutation hook), else over the campaign's own log."""
        return certify_campaign(
            self.records if records is None else records,
            self.heal_stats,
            deltas=self.deltas,
            initial_edges=self.initial_edges,
            protocol=self.protocol,
            fault_summary=self.fault_summary,
            params=self.params,
        )


def _delta_key(delta: HealDelta) -> Optional[str]:
    """The heal label a delta should match (labels embed the unique id)."""
    if delta.kind == "delete" and delta.victim >= 0:
        return f"delete-{delta.victim}"
    if delta.kind == "insert" and delta.joiners:
        return f"insert-{delta.joiners[0][0]}"
    return None


def certify_campaign(
    records: Sequence[LogRecord],
    heal_stats: Sequence,
    deltas: Sequence[HealDelta] = (),
    initial_edges: Iterable = (),
    protocol: str = "ft",
    fault_summary=None,
    params: Optional[AuditParams] = None,
) -> AuditReport:
    """Check every certificate over one campaign's exported telemetry.

    ``heal_stats`` are the kernel's per-heal tallies (duck-typed
    ``HealStats``: ``hid``/``label``/``sent``/``received`` plus the
    fault fields), ``deltas`` the oracle's :class:`HealDelta` summaries
    in oracle-event order, ``initial_edges`` the overlay before the
    first event.  Setup heals (label ``round-*``) and heals without a
    matching delta (crash catch-up replays) keep their causality and
    accounting certificates but skip budget/locality — there is no
    oracle region to check against.
    """
    params = params or AuditParams()
    report = AuditReport(protocol=protocol)

    # One fused linear pass: campaign-wide clock monotonicity and
    # bucketing by heal (control rows feed exclusion).  Certification
    # rides every audited campaign, so this pass is the auditor's hot
    # loop — see EXP-AUDIT-OVERHEAD.
    log: List[LogRecord] = list(records)  # accepts a load_jsonl stream
    by_heal: Dict[int, List[Tuple[int, LogRecord]]] = {}
    controls: List[Tuple[int, ControlRecord]] = []
    crashed_hids: Set[int] = set()
    # Per-heal accounting tallies (kind counts, sends/receives per node)
    # accumulate here so _check_accounting never re-walks the records.
    tallies: Dict[int, _Tally] = {}
    regression = params.clock_eps
    prev_t = float("-inf")
    for i, rec in enumerate(log):
        if rec.t < prev_t - regression:
            report.campaign_violations.append(
                Violation(
                    "causality",
                    -1,
                    (i - 1, i),
                    f"clock regressed {prev_t} -> {rec.t}",
                )
            )
        prev_t = rec.t
        kind = rec.kind
        if kind == "control":
            controls.append((i, rec))
            continue
        hid = rec.heal
        if kind == "crash":
            crashed_hids.add(hid)
        bucket = by_heal.get(hid)
        if bucket is None:
            bucket = by_heal[hid] = []
            tally = tallies[hid] = _Tally()
        else:
            tally = tallies[hid]
        bucket.append((i, rec))
        kinds = tally.kinds
        kinds[kind] = kinds.get(kind, 0) + 1
        if kind == "send":
            per = tally.sends_per_node
            per[rec.src] = per.get(rec.src, 0) + 1
        elif kind == "deliver":
            per = tally.recv_per_node
            per[rec.dst] = per.get(rec.dst, 0) + 1
    report.records = len(log)

    # Match heals to oracle deltas by label (ids are never reused, so
    # delete-<victim> / insert-<first joiner> labels are unique).
    delta_index: Dict[str, int] = {}
    for i, delta in enumerate(deltas):
        key = _delta_key(delta)
        if key is not None and key not in delta_index:
            delta_index[key] = i

    stats_by_hid = {s.hid: s for s in heal_stats}

    # Replay the oracle deltas once: the cumulative edge universe and
    # alive-node count at every delta index (locality + FG budget).
    alive: Set[int] = set()
    for u, v in normalize_edges(initial_edges):
        alive.add(u)
        alive.add(v)
    universe: Set[Tuple[int, int]] = set(normalize_edges(initial_edges))
    # Heals are certified in delta order so the universe can grow
    # incrementally; collect (delta_idx, hid) pairs first.
    ordered: List[Tuple[int, int]] = []
    certificates: Dict[int, HealCertificate] = {}

    for stats in heal_stats:
        hid = stats.hid
        recs = by_heal.get(hid, [])
        window = (recs[0][0], recs[-1][0]) if recs else (-1, -1)
        cert = HealCertificate(heal=hid, label=stats.label, window=window)
        certificates[hid] = cert

        is_setup = stats.label.startswith("round-")
        didx = delta_index.get(stats.label)
        if is_setup or didx is None:
            cert.skipped = ("budget", "locality")
        else:
            ordered.append((didx, hid))

        _check_causality(cert, recs, stats, params, hid in crashed_hids)
        _check_accounting(cert, tallies.get(hid) or _Tally(), stats)
        cert.checked = ("causality", "accounting")

    # Budget + locality, replaying deltas in oracle order.
    ordered.sort()
    next_delta = 0
    for didx, hid in ordered:
        while next_delta <= didx and next_delta < len(deltas):
            d = deltas[next_delta]
            universe.update(d.touched)
            if d.kind == "delete" and d.victim >= 0:
                alive.discard(d.victim)
            else:
                for nid, _ in d.joiners:
                    alive.add(nid)
            next_delta += 1
        cert = certificates[hid]
        delta = deltas[didx]
        recs = by_heal.get(hid, [])
        _check_budget(cert, recs, delta, protocol, len(alive), params)
        _check_locality(cert, recs, delta, universe)
        cert.checked = cert.checked + ("budget", "locality")

    _check_exclusion(report, certificates, controls, by_heal, deltas, delta_index, stats_by_hid)
    _check_fault_summary(report, log, fault_summary)

    report.certificates = [certificates[s.hid] for s in heal_stats]
    return report


# ---------------------------------------------------------------------------
# Individual certificates.
# ---------------------------------------------------------------------------

def _check_causality(
    cert: HealCertificate,
    recs: List[Tuple[int, LogRecord]],
    stats,
    params: AuditParams,
    crashed: bool,
) -> None:
    hid = cert.heal
    eps = params.clock_eps
    # Delivery window bounds.  Crash-corrupted heals are finalized by
    # the recovery path, not by quiescence, so the upper bound is not
    # meaningful there.
    t0 = stats.injected_at - eps
    t1 = stats.quiesced_at + eps
    closed = stats.quiesced_at >= stats.injected_at and not crashed

    # One pass over the heal's records (this function rides every
    # audited campaign — see EXP-AUDIT-OVERHEAD).  Sends and dups are
    # logged at send time, so every arrival's origin record precedes it
    # in the stream and ``origins`` accumulates as the loop walks.
    origins: Dict[int, Tuple[int, LogRecord]] = {}
    last_depth = -1
    last_idx = -1
    for i, rec in recs:
        kind = rec.kind
        if kind == "send" or kind == "dup":
            if rec.seq >= 0:
                origins[rec.seq] = (i, rec)
            continue
        if kind == "deliver":
            # Delivery layers are monotone: the kernel may not hand
            # layer d+1 to a handler while layer d is still undelivered.
            if rec.depth < last_depth:
                cert.violations.append(
                    Violation(
                        "causality",
                        hid,
                        (last_idx, i),
                        f"layer regressed {last_depth} -> {rec.depth}",
                    )
                )
            last_depth, last_idx = rec.depth, i
            # Deliveries land inside the injection..quiescence window.
            if rec.t < t0 or (closed and rec.t > t1):
                cert.violations.append(
                    Violation(
                        "causality", hid, (i, i),
                        f"delivery at {rec.t} outside heal window "
                        f"[{stats.injected_at}, {stats.quiesced_at}]",
                    )
                )
        elif kind not in _ARRIVAL_KINDS:
            continue
        if rec.seq < 0:
            continue
        origin = origins.get(rec.seq)
        if origin is None:
            cert.violations.append(
                Violation(
                    "causality", hid, (i, i),
                    f"{kind} of seq {rec.seq} has no send record",
                )
            )
            continue
        oi, orec = origin
        if orec.src != rec.src or orec.dst != rec.dst or orec.msg != rec.msg:
            cert.violations.append(
                Violation(
                    "causality", hid, (oi, i),
                    f"arrival {rec.src}->{rec.dst} {rec.msg} does not match "
                    f"its send {orec.src}->{orec.dst} {orec.msg} (seq {rec.seq})",
                )
            )
        if rec.t < orec.t - eps:
            cert.violations.append(
                Violation(
                    "causality", hid, (oi, i),
                    f"deliver-before-send: seq {rec.seq} arrived at {rec.t} "
                    f"but was sent at {orec.t}",
                )
            )


class _Tally:
    """One heal's accounting counters, filled by the fused log pass."""

    __slots__ = ("kinds", "sends_per_node", "recv_per_node")

    def __init__(self) -> None:
        self.kinds: Dict[str, int] = {}
        self.sends_per_node: Dict[int, int] = {}
        self.recv_per_node: Dict[int, int] = {}


def _check_accounting(
    cert: HealCertificate,
    tally: _Tally,
    stats,
) -> None:
    hid = cert.heal
    window = cert.window
    kinds = tally.kinds
    sends_per_node = tally.sends_per_node
    recv_per_node = tally.recv_per_node

    def mismatch(what: str, got: int, want: int) -> None:
        cert.violations.append(
            Violation(
                "accounting", hid, window,
                f"{what}: log says {got}, kernel tallies say {want}",
            )
        )

    drops = kinds.get("drop", 0)
    if drops != stats.dropped:
        mismatch("drops", drops, stats.dropped)
    retrans = sum(stats.retransmitted.values())
    if drops != retrans:
        mismatch("retransmissions != drops", drops, retrans)
    if kinds.get("dup", 0) != stats.duplicated:
        mismatch("duplicates", kinds.get("dup", 0), stats.duplicated)
    if kinds.get("dup-suppressed", 0) != stats.dup_suppressed:
        mismatch(
            "dup_suppressed", kinds.get("dup-suppressed", 0),
            stats.dup_suppressed,
        )
    if kinds.get("dead", 0) != stats.dead_drops:
        mismatch("dead_drops", kinds.get("dead", 0), stats.dead_drops)
    if recv_per_node != {n: c for n, c in stats.received.items() if c}:
        mismatch("received per node", sum(recv_per_node.values()),
                 sum(stats.received.values()))
    if sends_per_node != {n: c for n, c in stats.sent.items() if c}:
        mismatch("sent per node", sum(sends_per_node.values()),
                 sum(stats.sent.values()))


def _check_budget(
    cert: HealCertificate,
    recs: List[Tuple[int, LogRecord]],
    delta: HealDelta,
    protocol: str,
    alive_count: int,
    params: AuditParams,
) -> None:
    hid = cert.heal
    sends = [(i, rec) for i, rec in recs if isinstance(rec, SendRecord)]
    if not sends and any(rec.kind in _ARRIVAL_KINDS for _, rec in recs):
        # Arrivals without a single send record: the log cannot bound
        # what the heal sent, so the budget is unproven, not vacuous.
        cert.violations.append(
            Violation(
                "budget", hid, cert.window,
                "messages arrived but the log holds no send record to bound",
            )
        )
    wave = max(1, len(delta.joiners)) if delta.kind == "insert" else 1
    per_node: Counter = Counter(rec.src for _, rec in sends)
    if protocol == "ft":
        budget, why = params.ft_node_budget * wave, "Theorem 1.3 budget"
        id_budget = params.ft_msg_ids
    else:
        # The victim's fan-out is its own; the others are charged for the
        # hafts and fresh neighbours the oracle says the heal merged.  An
        # insert wave merges nothing.
        if delta.kind == "delete":
            per_node.pop(delta.victim, 0)
            budget = guarantees.fg_node_message_budget(
                alive_count, delta.fresh, delta.hafts
            )
        else:
            budget = guarantees.fg_node_message_budget(alive_count, wave, 0)
        why = "FG node budget"
        id_budget = params.fg_msg_ids
    for node, count in sorted(per_node.items()):
        if count > budget:
            idxs = [i for i, rec in sends if rec.src == node]
            cert.violations.append(
                Violation(
                    "budget", hid, (idxs[0], idxs[-1]),
                    f"node {node} sent {count} messages ({why} {budget})",
                )
            )
    for i, rec in sends:
        if rec.ids >= 0 and rec.ids > id_budget:
            cert.violations.append(
                Violation(
                    "budget", hid, (i, i),
                    f"{rec.msg} {rec.src}->{rec.dst} carries {rec.ids} ids "
                    f"(budget {id_budget})",
                )
            )


def _check_locality(
    cert: HealCertificate,
    recs: List[Tuple[int, LogRecord]],
    delta: HealDelta,
    universe: Set[Tuple[int, int]],
) -> None:
    hid = cert.heal
    region = delta.region
    for i, rec in recs:
        if rec.kind != "send":
            continue
        edge = (rec.src, rec.dst) if rec.src <= rec.dst else (rec.dst, rec.src)
        if edge in universe:
            continue
        if rec.src in region and rec.dst in region:
            continue  # intra-region traffic (FG coordinator-direct, FT relays)
        cert.violations.append(
            Violation(
                "locality", hid, (i, i),
                f"{rec.msg} {rec.src}->{rec.dst} rides no overlay or "
                f"heal-introduced edge and leaves the heal region",
            )
        )


def _check_exclusion(
    report: AuditReport,
    certificates: Dict[int, HealCertificate],
    controls: List[Tuple[int, ControlRecord]],
    by_heal: Dict[int, List[Tuple[int, LogRecord]]],
    deltas: Sequence[HealDelta],
    delta_index: Dict[str, int],
    stats_by_hid: Dict[int, object],
) -> None:
    grants: Dict[int, Tuple[int, float]] = {}
    intervals: Dict[int, Tuple[float, float, int, int]] = {}  # hid -> (g, r, gi, ri)
    for i, rec in controls:
        if rec.ctl == "lease-grant":
            grants[rec.ref] = (i, rec.t)
        elif rec.ctl == "lease-release" and rec.ref in grants:
            gi, gt = grants.pop(rec.ref)
            intervals[rec.ref] = (gt, rec.t, gi, i)
    # A heal granted but never released holds its leases to the end.
    for hid, (gi, gt) in grants.items():
        intervals[hid] = (gt, float("inf"), gi, gi)
    if not intervals:
        return  # not a lease campaign

    def write_region(hid: int) -> Set[int]:
        # The exclusion guarantee is *write* exclusion: concurrently
        # granted heals hold disjoint structural regions (the nodes
        # their oracle delta names).  Message endpoints are deliberately
        # NOT included — a node can legitimately receive will/weight
        # refreshes from two concurrent heals when its adjacency arose
        # between a heal's admission and its (deferred) injection; those
        # are read-only bystanders, outside the leased footprint.
        stats = stats_by_hid.get(hid)
        if stats is not None:
            didx = delta_index.get(stats.label)
            if didx is not None:
                return set(deltas[didx].region)
        return set()

    parts = {hid: write_region(hid) for hid in intervals}
    # Sweep by grant time: a grant can overlap only the heals still
    # holding their leases (a heap keyed by release time), so the scan
    # meets the overlapping pairs, not every pair.
    holding: List[Tuple[float, int]] = []
    clashes: List[Tuple[int, int]] = []
    for hid in sorted(intervals, key=lambda h: intervals[h][0]):
        granted, released = intervals[hid][:2]
        while holding and holding[0][0] <= granted:
            heapq.heappop(holding)
        for _, other in holding:
            a, b = min(hid, other), max(hid, other)
            ga, ra = intervals[a][:2]
            gb, rb = intervals[b][:2]
            # strict overlap in virtual time, on a shared write region
            if ga < rb and gb < ra and parts[a] & parts[b]:
                clashes.append((a, b))
        heapq.heappush(holding, (released, hid))
    for a, b in sorted(clashes):  # reported in (a, b) order
        gia, gib = intervals[a][2], intervals[b][2]
        violation = Violation(
            "exclusion",
            b,
            (min(gia, gib), max(gia, gib)),
            f"heals {a} and {b} held overlapping lease intervals "
            f"but their write regions share nodes "
            f"{sorted(parts[a] & parts[b])[:8]}",
        )
        target = certificates.get(b) or certificates.get(a)
        if target is not None:
            target.violations.append(violation)
        else:
            report.campaign_violations.append(violation)
    for hid in sorted(intervals):
        cert = certificates.get(hid)
        if cert is not None and "exclusion" not in cert.checked:
            cert.checked = cert.checked + ("exclusion",)


def _check_fault_summary(
    report: AuditReport, log: List[LogRecord], fault_summary
) -> None:
    if fault_summary is None:
        return
    kinds = Counter(rec.kind for rec in log)
    window = (0, max(len(log) - 1, 0))
    for what, got, want in (
        ("drops", kinds["drop"], fault_summary.drops),
        ("retransmissions", kinds["drop"], fault_summary.retransmissions),
        ("duplicates", kinds["dup"], fault_summary.duplicates),
        ("dup_suppressed", kinds["dup-suppressed"], fault_summary.dup_suppressed),
        ("dead_drops", kinds["dead"], fault_summary.dead_drops),
        ("crashes", kinds["crash"], fault_summary.crashes),
    ):
        if got != want:
            report.campaign_violations.append(
                Violation(
                    "accounting", -1, window,
                    f"campaign {what}: log says {got}, FaultSummary says {want}",
                )
            )
