"""Admission: when may a mirrored event inject while heals are in flight?

The async transport mirrors each oracle event onto a network where
earlier heals are still flying.  Whether the event may inject now is
decided from its **heal footprint** (:func:`heal_footprint`): the set of
nodes the repair reads or writes, extracted from the oracle's
:class:`~repro.core.events.HealReport` (every participant either sends a
message, is an endpoint of a changed image edge, or is named by a heal
event — the node-for-node tally parity between the sequential engines
and the distributed runtimes is what makes the report a sound oracle).
Two heals with disjoint footprints exchange no messages with any common
node, so their deliveries commute and any legal interleaving converges
to the sequential composition.  What happens when footprints *intersect*
is the overlap policy, one object each:

* :class:`SerializeAdmission` (``overlap="serialize"``) — an event whose
  footprint intersects an in-flight heal waits behind a global quiesce
  barrier; the whole network drains, even repairs nowhere near it.
* :class:`LeaseAdmission` (``overlap="lease"``) — the event acquires
  per-node region leases (:class:`~repro.regions.leases.LeaseManager`);
  on conflict it is *delegated* to the blocking heal's coordinator and
  resumed the instant the blocking lease releases, while every disjoint
  repair keeps flying and later disjoint events keep injecting (the
  handoff state machine of :mod:`repro.regions.handoff`).  Handoff that
  would be unsafe — the event kills a coordinator, a lease cycle is
  detected, the wait convoy exceeds ``max_wait_chain``, a crash is
  planned on it — **escalates** to the global quiesce barrier, counted
  per reason and reported in the summary, never silent.

Both expose the same four entry points — ``admit``, ``admit_alone``
(the crash path: the doomed heal flies alone), ``drain`` (the
policy's half of a barrier) and ``fill`` (its block of the campaign
summary) — and drive the transport through a narrow *port*, which
:class:`~repro.simnet.TransportMirror` is: ``net`` (the kernel),
``spec.gap`` / ``spec.max_wait_chain``, ``inject(report,
requested_at=None, arm=None) -> heal id``, ``barrier()``,
``coordinator(report)`` and the obs instruments (``tracer``,
``profiler``, ``metrics``, ``recorder``).  Nothing here imports
``simnet``.

Both policies are still **centralized oracles**: the footprint is read
off the sequential engine's report of a heal that has not run yet, and
the lease table is one object every event consults for free (the
honest-deviation entries of ``docs/ASYNC.md`` / ``docs/LEASES.md``).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Set, Tuple

from ..core.events import HealReport
from .handoff import DELEGATED, GRANTED, HandoffLedger
from .leases import LeaseError, LeaseManager

#: A crash to arm on a heal: ``(layer, victim)``.
Arm = Tuple[int, int]
#: Elects it (``None``: nobody to kill).  ``admit_alone`` calls this only
#: once every earlier event has settled.
PickArm = Callable[[], Optional[Arm]]


def heal_footprint(report: HealReport, graph=None) -> Set[int]:
    """Every node the heal read or wrote, from the oracle's report.

    Union of: the victim / the joiners and their attachment points, every
    node that sent a message (tally keys), every endpoint of a touched
    image edge (including mid-heal transient edges, via the raw event
    log, and the edges a Forgiving Graph probe walk travels, which its
    report relists), every node named by a heal event (portion and
    leaf-will recipients, helper simulators and transfer targets) — and, when the
    post-event image ``graph`` is given, the image neighbors of every
    sender.  That last closure covers *receive-only* participants (a
    ``ReplaceChild`` holder whose will changes without retransmissions):
    every protocol message travels along an image edge, so each receiver
    is adjacent to its sender in the pre-, mid- (transient, evented) or
    post-heal image, and the first two are already covered by the event
    endpoints.
    """
    fp: Set[int] = set()
    if report.deleted >= 0:
        fp.add(report.deleted)
    if report.inserted is not None:
        fp.add(report.inserted)
    if report.attached_to is not None:
        fp.add(report.attached_to)
    for nid, attach_to in report.inserted_batch:
        fp.add(nid)
        fp.add(attach_to)
    fp.update(report.messages_per_node)
    for u, v in report.edges_added:
        fp.add(u)
        fp.add(v)
    for u, v in report.edges_removed:
        fp.add(u)
        fp.add(v)
    for event in report.events:
        for attr in (
            "u",
            "v",
            "nid",
            "attached_to",
            "sim",
            "owner",
            "recipient",
            "old_sim",
            "new_sim",
        ):
            value = getattr(event, attr, None)
            if isinstance(value, int):
                fp.add(value)
    if graph is not None:
        for sender in list(report.messages_per_node):
            fp.update(graph.get(sender, ()))
    return fp


class SerializeAdmission:
    """Intersecting footprints serialize behind a global quiesce barrier."""

    def __init__(self, port) -> None:
        self.port = port
        self.conflict_barriers = 0
        self._inflight: Dict[int, Set[int]] = {}  # kernel heal id -> footprint

    def admit(self, eid: int, report: HealReport, footprint: Set[int]) -> None:
        net = self.port.net
        self._inflight = {
            hid: fp for hid, fp in self._inflight.items() if net.heal_pending(hid)
        }
        if any(footprint & other for other in self._inflight.values()):
            # The event touches a region still healing: serialize it
            # behind the conflicting repair (quiesce barrier).
            self.conflict_barriers += 1
            self.port.barrier()
        else:
            # The event arrives mid-flight: advance virtual time by the
            # inter-arrival gap, delivering whatever legally lands.
            net.run_until(net.clock + self.port.spec.gap)
        self._track(self.port.inject(report), footprint)

    def admit_alone(
        self, eid: int, report: HealReport, footprint: Set[int], pick_arm: PickArm
    ) -> Optional[Arm]:
        """Containment barrier, *then* elect the crash victim from the
        settled state, then inject with the crash armed and drain with
        it landed.  ``pick_arm() is None`` (nobody to kill): the event
        injects unarmed, an ordinary heal.  Returns the arm used."""
        self.port.barrier()
        arm = pick_arm()
        hid = self.port.inject(report, arm=arm)
        if arm is None:
            self._track(hid, footprint)
        else:
            self.port.net.quiesce()
        return arm

    def drain(self) -> None:
        self.port.net.quiesce()
        self._inflight.clear()

    def fill(self, summary) -> None:
        summary.conflict_barriers = self.conflict_barriers

    def _track(self, hid: int, footprint: Set[int]) -> None:
        if self.port.net.heal_pending(hid):
            self._inflight[hid] = footprint


class LeaseAdmission:
    """Intersecting footprints queue on region leases (see module doc).

    Owns the lease table, the per-event handoff ledger, the reports of
    the parked delegated events and the kernel-heal-id -> event-id map
    of the injected heals whose leases are still held."""

    def __init__(self, port) -> None:
        self.port = port
        self.leases = LeaseManager(profiler=port.profiler, metrics=port.metrics)
        self.ledger = HandoffLedger(tracer=port.tracer)
        self._parked: Dict[int, HealReport] = {}
        self._live: Dict[int, int] = {}

    def admit(self, eid: int, report: HealReport, footprint: Set[int]) -> None:
        """Intersecting events are delegated and resumed instead of
        forcing a global drain; only unsafe handoff (coordinator death,
        a lease cycle, an over-deep wait convoy) escalates."""
        net = self.port.net
        self._pump()
        now = net.clock
        self.ledger.request(eid, now)
        if not report.is_insertion and report.deleted in self.leases.coordinators():
            # The event kills a node anchoring an in-flight heal or a
            # handoff queue: delegation would die with it.
            self._escalate(eid, "coordinator-death", report, footprint)
            return
        decision = self.leases.acquire(eid, footprint, (now, eid))
        if decision.granted:
            self.ledger.granted(eid, now)
            # The event arrives mid-flight: advance virtual time by the
            # inter-arrival gap, delivering whatever legally lands.
            net.run_until(net.clock + self.port.spec.gap)
            self._pump()
            self._inject(eid, report)
            return
        self._parked[eid] = report
        self.ledger.delegated(eid, now, decision.delegated_to)
        net.log_control("lease-defer", eid)
        if self.leases.find_cycle() is not None:
            self._escalate(eid, "lease-cycle", report, footprint)
            return
        if self.leases.wait_chain_depth() > self.port.spec.max_wait_chain:
            self._escalate(eid, "wait-chain", report, footprint)
            return
        # Time still flows while the event queues on the coordinator.
        net.run_until(net.clock + self.port.spec.gap)
        self._pump()

    def admit_alone(
        self, eid: int, report: HealReport, footprint: Set[int], pick_arm: PickArm
    ) -> Optional[Arm]:
        """Escalate (``reason="crash"``: delegation to a node that is
        about to die is structurally unsafe) — the flushing barrier runs,
        *then* the crash victim is elected from the settled state, then
        the heal injects armed and drains with the crash landed.
        ``pick_arm() is None`` (nobody to kill): the event stays an
        ordinary escalated heal.  Returns the arm used."""
        self.ledger.request(eid, self.port.net.clock)
        arm = self._escalate(eid, "crash", report, footprint, pick_arm)
        if arm is not None:
            self.port.net.quiesce()
            self._pump()
        return arm

    def drain(self) -> None:
        """Drain, release, and inject every delegated event in priority
        order until the network is empty and no lease is held or queued,
        so the image a barrier verifies includes every event mirrored.

        The drain is targeted (``drain_heals`` on the live lease heals)
        rather than a blanket quiesce, so the loop's progress is
        attributable heal by heal; the closing quiesce is a safety net
        for traffic outside the lease bookkeeping (there should be none)
        and the cheap no-op that proves it.
        """
        net = self.port.net
        while self._live or self._parked:
            before = (len(self._live), len(self._parked))
            net.drain_heals(list(self._live))
            self._pump()
            if (len(self._live), len(self._parked)) == before and not self._live:
                raise LeaseError(  # pragma: no cover - defensive
                    f"flush stalled with deferred events "
                    f"{sorted(self._parked)} and no live heal to release"
                )
        net.quiesce()
        self.ledger.check_drained()

    def fill(self, summary) -> None:
        summary.lease_grants = self.ledger.immediate_grants
        summary.lease_waits = self.ledger.lease_waits
        summary.lease_wait_times = list(self.ledger.wait_times)
        summary.peak_deferred = self.ledger.peak_deferred
        summary.escalations = dict(self.ledger.escalations)

    def _escalate(
        self,
        eid: int,
        reason: str,
        report: HealReport,
        footprint: Set[int],
        pick_arm: Optional[PickArm] = None,
    ) -> Optional[Arm]:
        """Unsafe handoff: fall back to the global quiesce barrier.

        The escalating event is withdrawn from the handoff queue (if it
        was already delegated), the barrier flushes every *other*
        delegated event in priority order and cross-validates — the
        escalating event is the oracle's newest, so the verified image
        correctly excludes it — and the event is then admitted against
        the empty lease table and injected.

        ``pick_arm`` (the crash path) elects the crash to arm on the
        escalating event's own heal.  It runs only *after* the barrier:
        the deferred events the barrier flushes may delete the node a
        mid-heal state would have named, and their heals must not
        inherit the crash.
        """
        port = self.port
        now = port.net.clock  # no time has passed since the request
        if eid in self._parked:
            del self._parked[eid]
            # Nothing can wait on the newest request, so the withdraw
            # cascade is structurally empty — but honor any grants it
            # returns rather than strand them.
            self._resume(self.leases.withdraw(eid))
        self.ledger.escalated(eid, now, reason)
        port.net.log_control(f"lease-escalate-{reason}", eid)
        if port.recorder is not None:
            port.recorder.record("escalate", clock=now, eid=eid, reason=reason)
        if port.metrics is not None:
            port.metrics.counter(f"lease.escalations.{reason}").inc()
        port.barrier()
        decision = self.leases.acquire(eid, footprint, (now, eid))
        assert decision.granted  # the table is empty after a barrier
        arm = pick_arm() if pick_arm is not None else None
        self._inject(eid, report, arm)
        return arm

    def _inject(self, eid: int, report: HealReport, arm: Optional[Arm] = None) -> None:
        """Inject a lease-admitted event, with the handoff bookkeeping."""
        net = self.port.net
        handoff = self.ledger[eid]
        waited = handoff.state != GRANTED
        # Read *before* injection: a victim's removal consumes its local
        # neighbor claims.
        coordinator = self.port.coordinator(report)
        hid = self.port.inject(
            report, requested_at=handoff.requested_at if waited else None, arm=arm
        )
        self.leases.set_coordinator(eid, coordinator)
        self.ledger.injected(eid, net.clock)
        # Grant rows carry the *kernel heal id*, correlating the
        # admission decision with the heal's delivery rows.
        net.log_control("lease-grant", hid)
        if net.heal_pending(hid):
            self._live[hid] = eid
        else:
            self._release(eid, hid)

    def _pump(self) -> None:
        """Release leases of quiesced heals; resume what unblocks."""
        net = self.port.net
        done = [
            (hid, eid) for hid, eid in self._live.items() if net.heal_pending(hid) == 0
        ]
        for hid, eid in done:
            del self._live[hid]
            self._release(eid, hid)

    def _release(self, eid: int, hid: int) -> None:
        """Lease release is a causal event: grants cascade in priority
        order, and every resumed event injects immediately (its leases
        are already held)."""
        net = self.port.net
        self.ledger.released(eid, net.clock)
        net.log_control("lease-release", hid)
        self._resume(self.leases.release(eid))

    def _resume(self, resumed_eids: Sequence[int]) -> None:
        """Inject newly granted deferred events, in the given order."""
        port = self.port
        now = port.net.clock
        for resumed in resumed_eids:
            report = self._parked.pop(resumed)
            if self.ledger[resumed].state == DELEGATED:
                self.ledger.resumed(resumed, now)
                port.net.log_control("lease-resume", resumed)
                if port.metrics is not None:
                    port.metrics.histogram("lease.wait").observe(
                        self.ledger[resumed].lease_wait
                    )
            self._inject(resumed, report)


#: ``TransportSpec.overlap`` value -> the admission class that runs it.
ADMISSION_POLICIES = {"serialize": SerializeAdmission, "lease": LeaseAdmission}
