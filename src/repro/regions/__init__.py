"""regions — admission control for overlapping heals.

One admission object per overlap policy decides when a mirrored event
may inject (:mod:`repro.regions.admission`): behind a global quiesce
barrier (:class:`SerializeAdmission`), or — the layer that lets events
with *intersecting* heal footprints make progress concurrently — through
a deterministic per-node lease table (:class:`LeaseManager`), the
handoff state machine every event walks (:mod:`repro.regions.handoff`),
and counted escalation back to the barrier when handoff is unsafe
(:class:`LeaseAdmission`).  Wired into campaigns through
``TransportSpec(overlap=...)`` — see ``docs/LEASES.md``.
"""

from .admission import LeaseAdmission, SerializeAdmission

from .handoff import (
    DELEGATED,
    ESCALATED,
    ESCALATION_REASONS,
    GRANTED,
    INJECTED,
    RELEASED,
    REQUESTED,
    RESUMED,
    HandoffError,
    HandoffLedger,
    HealHandoff,
)
from .leases import (
    LeaseDecision,
    LeaseError,
    LeaseManager,
    Priority,
)

__all__ = [
    "DELEGATED",
    "ESCALATED",
    "ESCALATION_REASONS",
    "GRANTED",
    "INJECTED",
    "RELEASED",
    "REQUESTED",
    "RESUMED",
    "HandoffError",
    "HandoffLedger",
    "HealHandoff",
    "LeaseAdmission",
    "LeaseDecision",
    "LeaseError",
    "LeaseManager",
    "Priority",
    "SerializeAdmission",
]
