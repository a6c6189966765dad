"""Coordinator handoff: the life of a heal through the lease protocol.

When a churn event lands inside an in-flight heal's leased region, its
repair is not started — it is **delegated**: queued on the owning heal's
coordinator (the node anchoring that repair) and resumed the moment the
blocking lease is released.  This module is the state machine that
tracks every event through that protocol, mirrored after the transport's
centralized implementation of it (see the honest-deviations section of
``docs/LEASES.md``).

States and legal transitions::

            acquire
    REQUESTED ──────────────► GRANTED ───────► INJECTED ───► RELEASED
        │                                         ▲
        │ conflict                                │ lease release
        └─────────► DELEGATED ────────► RESUMED ──┘
                        │
                        │ lease cycle / coordinator death / wait chain
                        └─────────► ESCALATED ───► INJECTED (behind a
                                                   global barrier)

* ``GRANTED`` — leases acquired immediately; the heal injects now.
* ``DELEGATED`` — blocked; queued on the blocking heal's coordinator.
* ``RESUMED`` — the blocking lease released; leases now held.
* ``ESCALATED`` — handoff was unsafe; the transport fell back to the
  PR 4 global quiesce barrier (the reason is recorded and counted,
  never silent).
* ``RELEASED`` — the heal quiesced and its leases are free.

An illegal transition raises :class:`HandoffError` — the ledger is how
the tests pin that the transport walks the state machine exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.errors import ReproError
from ..obs.trace import CONTROL_TRACK, NO_TRACE

#: Escalation reasons the transport may record (ISSUE-mandated triggers).
#: ``"crash"`` is the hostile-network one: a :class:`repro.faults`
#: crash-during-heal kills an in-flight coordinator, so delegation is
#: impossible and the event escalates to the global barrier (the heal
#: then injects with the crash armed and the repair pass re-converges).
ESCALATION_REASONS = ("coordinator-death", "lease-cycle", "wait-chain", "crash")

REQUESTED = "requested"
GRANTED = "granted"
DELEGATED = "delegated"
RESUMED = "resumed"
ESCALATED = "escalated"
INJECTED = "injected"
RELEASED = "released"

_TRANSITIONS = {
    REQUESTED: {GRANTED, DELEGATED, ESCALATED},
    GRANTED: {INJECTED},
    DELEGATED: {RESUMED, ESCALATED},
    RESUMED: {INJECTED},
    ESCALATED: {INJECTED},
    INJECTED: {RELEASED},
    RELEASED: set(),
}


class HandoffError(ReproError):
    """An illegal handoff state transition."""


@dataclass
class HealHandoff:
    """One event's walk through the handoff state machine."""

    eid: int
    state: str = REQUESTED
    requested_at: float = 0.0
    granted_at: Optional[float] = None
    delegated_to: Optional[int] = None
    escalation: Optional[str] = None
    history: List[Tuple[str, float]] = field(default_factory=list)

    @property
    def lease_wait(self) -> float:
        """Virtual time spent between request and lease grant."""
        if self.granted_at is None:
            return 0.0
        return self.granted_at - self.requested_at

    def advance(self, state: str, clock: float) -> None:
        if state not in _TRANSITIONS[self.state]:
            raise HandoffError(
                f"event {self.eid}: illegal handoff {self.state} -> {state}"
            )
        self.state = state
        self.history.append((state, clock))


class HandoffLedger:
    """Tracks every event's handoff state + the campaign-level counters."""

    def __init__(self, tracer=NO_TRACE) -> None:
        self._heals: Dict[int, HealHandoff] = {}
        self.escalations: Dict[str, int] = {}
        self.wait_times: List[float] = []
        self.immediate_grants = 0
        self.peak_deferred = 0
        self._deferred_now = 0
        # Optional causal tracer (repro.obs): every state transition
        # becomes an instant on the control-plane track, so a Perfetto
        # view shows grant/defer/resume/escalate against the heal spans.
        self.tracer = tracer

    def _mark(self, state: str, eid: int, clock: float, **extra) -> None:
        if self.tracer.enabled:
            self.tracer.instant(
                f"handoff:{state}",
                "handoff",
                clock,
                CONTROL_TRACK,
                args=dict(eid=eid, **extra),
            )

    def __getitem__(self, eid: int) -> HealHandoff:
        return self._heals[eid]

    def __len__(self) -> int:
        return len(self._heals)

    @property
    def lease_waits(self) -> int:
        """Events that waited for a lease and were resumed by a release
        (escalated waits are counted under :attr:`escalations` instead,
        so ``immediate_grants + lease_waits + total_escalations`` equals
        the number of events mirrored)."""
        return len(self.wait_times)

    @property
    def total_escalations(self) -> int:
        return sum(self.escalations.values())

    def request(self, eid: int, clock: float) -> HealHandoff:
        if eid in self._heals:
            raise HandoffError(f"event {eid} already in the ledger")
        h = HealHandoff(eid=eid, requested_at=clock)
        h.history.append((REQUESTED, clock))
        self._heals[eid] = h
        self._mark(REQUESTED, eid, clock)
        return h

    def granted(self, eid: int, clock: float) -> None:
        h = self._heals[eid]
        h.advance(GRANTED, clock)
        h.granted_at = clock
        self.immediate_grants += 1
        self._mark(GRANTED, eid, clock)

    def delegated(self, eid: int, clock: float, to: Optional[int]) -> None:
        h = self._heals[eid]
        h.advance(DELEGATED, clock)
        h.delegated_to = to
        self._deferred_now += 1
        self.peak_deferred = max(self.peak_deferred, self._deferred_now)
        self._mark(DELEGATED, eid, clock, to=to)

    def resumed(self, eid: int, clock: float) -> None:
        h = self._heals[eid]
        h.advance(RESUMED, clock)
        h.granted_at = clock
        self._deferred_now -= 1
        self.wait_times.append(h.lease_wait)
        self._mark(RESUMED, eid, clock, waited=h.lease_wait)

    def escalated(self, eid: int, clock: float, reason: str) -> None:
        if reason not in ESCALATION_REASONS:
            raise HandoffError(f"unknown escalation reason {reason!r}")
        h = self._heals[eid]
        if h.state == DELEGATED:
            self._deferred_now -= 1
        h.advance(ESCALATED, clock)
        h.escalation = reason
        self.escalations[reason] = self.escalations.get(reason, 0) + 1
        self._mark(ESCALATED, eid, clock, reason=reason)

    def injected(self, eid: int, clock: float) -> None:
        self._heals[eid].advance(INJECTED, clock)
        self._mark(INJECTED, eid, clock)

    def released(self, eid: int, clock: float) -> None:
        self._heals[eid].advance(RELEASED, clock)
        self._mark(RELEASED, eid, clock)

    def check_drained(self) -> None:
        """After a global barrier every heal must be terminal.

        ``ESCALATED`` is the one admissible non-terminal state: an
        escalating event runs its barrier *before* injecting (the
        barrier is what makes its admission safe), so during that
        barrier the event itself is still awaiting injection."""
        stuck = [
            e
            for e, h in self._heals.items()
            if h.state not in (RELEASED, ESCALATED)
        ]
        if stuck:
            raise HandoffError(f"heals not released after barrier: {stuck[:6]}")
