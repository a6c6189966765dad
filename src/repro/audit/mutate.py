"""Mutation self-test: prove every certificate class actually bites.

A checker that never fires is indistinguishable from a checker that
checks nothing.  This module seeds one corruption per certificate class
into a *clean* campaign's exported log and re-certifies
(:meth:`AuditInputs.certify` takes the substituted records), asserting
the corruption is caught by the expected certificate with the offending
heal and event-id window named:

=====================  ============  =========================================
corruption             certificate   seeded defect
=====================  ============  =========================================
``dropped-delivery``   accounting    a :class:`DeliverRecord` silently removed
``forged-sender``      locality      a send's ``src`` rewritten to an alien id
``budget-overflow``    budget        a send claiming 99999 carried node ids
``deliver-before-send``  causality   a delivery timestamped before its send
``lease-overlap``      exclusion     a ``lease-release`` deleted, extending the
                                     grant over a region-sharing later heal
``phantom-drop``       accounting    a :class:`DropRecord` duplicated
``strip-sends``        budget        every :class:`SendRecord` removed (an
                                     arrival-only log proves no budget)
``fg-member-list``     budget        one Forgiving Graph portion re-inflated
                                     to carry its haft's member list
``fg-over-budget``     budget        one Forgiving Graph node's sends
                                     repeated past its per-node budget
``fg-exact-budget``    budget        one Forgiving Graph node's sends
                                     repeated one past the budget of the
                                     hafts its heal merged, inside the
                                     victim-fan-out bound
=====================  ============  =========================================

:func:`run_self_test` drives the whole table over seeded lease +
drop/dup campaigns — the ``fg-*`` rows over a Forgiving Graph one
(their :attr:`CorruptionCase.protocol`), the rest over a Forgiving Tree one;
``python -m repro.audit.mutate`` is the CLI
the ``audit-smoke`` CI job runs.  The campaign harness is imported
lazily so :mod:`repro.audit` itself stays importable from telemetry
alone.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from .. import guarantees
from .certify import AuditError, AuditInputs, Violation, _delta_key
from .schema import (
    ControlRecord,
    DeliverRecord,
    DropRecord,
    LogRecord,
    SendRecord,
)

#: A corruption takes the log + its sidecar inputs and returns
#: the mutated log, or ``None`` when the campaign has nothing to corrupt
#: (e.g. no drops recorded) — the self-test treats ``None`` as an error,
#: since its campaign is chosen to exercise every class.
Corruption = Callable[[List[LogRecord], AuditInputs], Optional[List[LogRecord]]]


def _heal_of(rec: LogRecord, inputs: AuditInputs) -> bool:
    """True when ``rec`` belongs to a heal with a matched oracle delta
    (budget/locality only run there)."""
    for stats in inputs.heal_stats:
        if stats.hid == rec.heal:
            return any(
                _delta_key(d) == stats.label for d in inputs.deltas
            )
    return False


def corrupt_dropped_delivery(
    log: List[LogRecord], inputs: AuditInputs
) -> Optional[List[LogRecord]]:
    for i, rec in enumerate(log):
        if isinstance(rec, DeliverRecord):
            return log[:i] + log[i + 1:]
    return None


def corrupt_forged_sender(
    log: List[LogRecord], inputs: AuditInputs
) -> Optional[List[LogRecord]]:
    alien = max(
        max((rec.src for rec in log), default=0),
        max((rec.dst for rec in log), default=0),
    ) + 1000
    for i, rec in enumerate(log):
        if isinstance(rec, SendRecord) and _heal_of(rec, inputs):
            return log[:i] + [replace(rec, src=alien)] + log[i + 1:]
    return None


def corrupt_budget_overflow(
    log: List[LogRecord], inputs: AuditInputs
) -> Optional[List[LogRecord]]:
    for i, rec in enumerate(log):
        if isinstance(rec, SendRecord) and _heal_of(rec, inputs):
            return log[:i] + [replace(rec, ids=99999)] + log[i + 1:]
    return None


def corrupt_deliver_before_send(
    log: List[LogRecord], inputs: AuditInputs
) -> Optional[List[LogRecord]]:
    sends = {
        (rec.heal, rec.seq): rec.t
        for rec in log
        if isinstance(rec, SendRecord) and rec.seq >= 0
    }
    for i, rec in enumerate(log):
        if not isinstance(rec, DeliverRecord) or rec.seq < 0:
            continue
        sent_at = sends.get((rec.heal, rec.seq))
        if sent_at is not None:
            return log[:i] + [replace(rec, t=sent_at - 10.0)] + log[i + 1:]
    return None


def corrupt_lease_overlap(
    log: List[LogRecord], inputs: AuditInputs
) -> Optional[List[LogRecord]]:
    """Delete the ``lease-release`` of an earlier heal whose write
    region intersects a heal granted only *after* that release — the
    earlier grant then reads as held forever, a forged overlap."""
    grants: Dict[int, float] = {}
    releases: Dict[int, Tuple[int, float]] = {}
    for i, rec in enumerate(log):
        if not isinstance(rec, ControlRecord):
            continue
        if rec.ctl == "lease-grant" and rec.ref not in grants:
            grants[rec.ref] = rec.t
        elif rec.ctl == "lease-release" and rec.ref not in releases:
            releases[rec.ref] = (i, rec.t)
    regions: Dict[int, frozenset] = {}
    for stats in inputs.heal_stats:
        for d in inputs.deltas:
            if _delta_key(d) == stats.label:
                regions[stats.hid] = d.region
                break
    for a, (ri, released_at) in sorted(releases.items()):
        for b, granted_at in sorted(grants.items()):
            if b == a or granted_at < released_at:
                continue
            if regions.get(a, frozenset()) & regions.get(b, frozenset()):
                return log[:ri] + log[ri + 1:]
    return None


def corrupt_phantom_drop(
    log: List[LogRecord], inputs: AuditInputs
) -> Optional[List[LogRecord]]:
    for i, rec in enumerate(log):
        if isinstance(rec, DropRecord):
            return log[: i + 1] + [rec] + log[i + 1:]
    return None


def corrupt_fg_member_list(
    log: List[LogRecord], inputs: AuditInputs
) -> Optional[List[LogRecord]]:
    """One portion carries the member list it shipped before portions
    were O(1) ids: one more id per node of the campaign."""
    nodes = {u for edge in inputs.initial_edges for u in edge}
    for i, rec in enumerate(log):
        if isinstance(rec, SendRecord) and rec.msg == "FGPortion" and _heal_of(rec, inputs):
            return log[:i] + [replace(rec, ids=rec.ids + len(nodes))] + log[i + 1:]
    return None


def corrupt_fg_over_budget(
    log: List[LogRecord], inputs: AuditInputs
) -> Optional[List[LogRecord]]:
    """One report is sent again and again: its sender, a notified
    neighbour, exceeds any per-node budget the campaign's size allows
    (every node id it logs alive, every one a merged haft)."""
    ids = {u for r in log if isinstance(r, SendRecord) for u in (r.src, r.dst)}
    repeat = guarantees.fg_node_message_budget(len(ids), len(ids), len(ids))
    for i, rec in enumerate(log):
        if isinstance(rec, SendRecord) and rec.msg == "FGReport" and _heal_of(rec, inputs):
            return log[: i + 1] + [rec] * repeat + log[i + 1:]
    return None


def corrupt_fg_exact_budget(
    log: List[LogRecord], inputs: AuditInputs
) -> Optional[List[LogRecord]]:
    """One notified neighbour's send is repeated until the node is one
    past the exact budget of what its heal merged, yet still inside the
    bound that charges the victim's whole fan-out as merged hafts."""
    alive = {u for edge in inputs.initial_edges for u in edge}
    hid_of = {stats.label: stats.hid for stats in inputs.heal_stats}
    for d in inputs.deltas:  # replayed as the auditor does, for its n
        alive.discard(d.victim)
        alive.update(nid for nid, _ in d.joiners)
        hid = hid_of.get(_delta_key(d)) if d.kind == "delete" else None
        sends = [
            (i, rec) for i, rec in enumerate(log)
            if isinstance(rec, SendRecord) and rec.heal == hid
        ]
        per_node = Counter(rec.src for _, rec in sends)
        fanout = per_node.pop(d.victim, 0)
        exact = guarantees.fg_node_message_budget(len(alive), d.fresh, d.hafts)
        loose = guarantees.fg_node_message_budget(len(alive), 0, fanout + 1)
        for i, rec in sends:
            if per_node.get(rec.src, exact + 1) <= exact < loose:
                repeat = exact + 1 - per_node[rec.src]
                return log[: i + 1] + [rec] * repeat + log[i + 1:]
    return None


def corrupt_strip_sends(
    log: List[LogRecord], inputs: AuditInputs
) -> Optional[List[LogRecord]]:
    """An arrival-only log: with nothing to bound or to match arrivals
    against, the budget and causality certificates must fail, not pass
    vacuously."""
    stripped = [rec for rec in log if not isinstance(rec, SendRecord)]
    return stripped if len(stripped) < len(log) else None


class CorruptionCase(NamedTuple):
    """The certificate class expected to catch a corruption, its
    mutator, and the protocol whose campaign it is seeded into."""

    cert: str
    mutate: Corruption
    protocol: str = "ft"


#: corruption name -> its case.
CORRUPTIONS: Dict[str, CorruptionCase] = {
    "dropped-delivery": CorruptionCase("accounting", corrupt_dropped_delivery),
    "forged-sender": CorruptionCase("locality", corrupt_forged_sender),
    "budget-overflow": CorruptionCase("budget", corrupt_budget_overflow),
    "deliver-before-send": CorruptionCase("causality", corrupt_deliver_before_send),
    "lease-overlap": CorruptionCase("exclusion", corrupt_lease_overlap),
    "phantom-drop": CorruptionCase("accounting", corrupt_phantom_drop),
    "strip-sends": CorruptionCase("budget", corrupt_strip_sends),
    "fg-member-list": CorruptionCase("budget", corrupt_fg_member_list, "fg"),
    "fg-over-budget": CorruptionCase("budget", corrupt_fg_over_budget, "fg"),
    "fg-exact-budget": CorruptionCase("budget", corrupt_fg_exact_budget, "fg"),
}


def _self_test_inputs(seed: int = 11, protocol: str = "ft") -> AuditInputs:
    """One clean lease + drop/dup campaign's telemetry bundle: the
    Forgiving Tree over a random tree, or (``protocol="fg"``) the
    Forgiving Graph over a scale-free graph.

    Harness imports live here (not at module top) so the audit package
    itself never depends on the engines it audits.
    """
    from ..adversaries.churn import RandomChurnAdversary
    from ..baselines.forgiving import ForgivingTreeHealer
    from ..faults.plan import FaultPlan
    from ..fgraph.healer import ForgivingGraphHealer
    from ..graphs import generators
    from ..harness.experiment import run_churn_campaign
    from ..simnet.transport import TransportSpec

    if protocol == "fg":
        healer = ForgivingGraphHealer(generators.preferential_attachment(40, 2, seed))
    else:
        healer = ForgivingTreeHealer(
            {k: set(v) for k, v in generators.random_tree(24, seed).items()}
        )
    result = run_churn_campaign(
        healer,
        RandomChurnAdversary(p_insert=0.3, seed=seed),
        events=16,
        seed=seed,
        transport=TransportSpec(
            mode="async",
            overlap="lease",
            seed=seed,
            faults=FaultPlan(drop=0.15, dup=0.1, seed=7),
        ),
        obs="audit",
    )
    assert result.audit is not None and result.audit.ok
    assert result.audit_inputs is not None
    return result.audit_inputs


def check_corruption(
    inputs: AuditInputs, name: str
) -> Tuple[bool, str, Optional[Violation]]:
    """Apply one corruption and re-certify.

    Returns ``(caught, detail, violation)`` — caught means the expected
    certificate fired *and* its violation names a real heal (or the
    campaign, for campaign-scoped accounting) with a non-empty event-id
    window.
    """
    expected, mutate, _protocol = CORRUPTIONS[name]
    mutated = mutate(list(inputs.records), inputs)
    if mutated is None:
        return False, "corruption not applicable to this campaign", None
    report = inputs.certify(mutated)
    matches = [
        v for v in report.violations
        if v.cert == expected and v.window[1] >= 0
    ]
    # Prefer the heal-scoped violation — the acceptance bar is that the
    # auditor names the offending heal, not just "somewhere on campaign".
    matches.sort(key=lambda v: v.heal < 0)
    if matches:
        return True, str(matches[0]), matches[0]
    got = sorted({v.cert for v in report.violations})
    return (
        False,
        f"expected a {expected!r} violation, got {got or 'a clean report'}",
        None,
    )


def run_self_test(seed: int = 11) -> Dict[str, str]:
    """Run every corruption; raise :class:`AuditError` on any escape."""
    inputs: Dict[str, AuditInputs] = {}
    outcomes: Dict[str, str] = {}
    escaped: List[str] = []
    for name, case in CORRUPTIONS.items():
        protocol = case.protocol
        if protocol not in inputs:
            inputs[protocol] = _self_test_inputs(seed, protocol)
        caught, detail, _ = check_corruption(inputs[protocol], name)
        outcomes[name] = detail
        if not caught:
            escaped.append(f"{name}: {detail}")
    if escaped:
        raise AuditError(
            "mutation self-test: corruptions escaped the auditor:\n  "
            + "\n  ".join(escaped)
        )
    return outcomes


def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.audit.mutate",
        description="Prove each audit certificate catches its seeded corruption.",
    )
    parser.add_argument("--seed", type=int, default=11)
    opts = parser.parse_args(argv)
    try:
        outcomes = run_self_test(seed=opts.seed)
    except AuditError as exc:
        print(exc)
        return 1
    width = max(len(name) for name in outcomes)
    for name, detail in outcomes.items():
        print(f"caught  {name:<{width}}  {detail}")
    print(f"{len(outcomes)}/{len(CORRUPTIONS)} corruptions caught")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
