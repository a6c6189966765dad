"""audit — the independent, trace-driven correctness observer.

Everything in this package consumes **exported telemetry only** — the
kernel's typed causal event log (:mod:`repro.audit.schema`), per-heal
``HealStats`` tallies, control-track entries, and the oracle's
:class:`~repro.core.events.HealReport` *deltas* — never the oracle
mirror itself.  That independence is the point: once the clairvoyant
mirror and the centralized lease table go away (the ROADMAP's
decentralization items), the event log is the only place the papers'
guarantees can still be proven, and this package is the machinery that
proves them.

* :mod:`repro.audit.schema` — typed, versioned log records (send /
  deliver / drop / dup / dup-suppressed / dead / crash / control)
  emitted by the async kernel, with a versioned JSONL dialect.
* :mod:`repro.audit.query` — composable streaming operators
  (filter / join / group / window) over log records, plus the
  ``python -m repro.audit.query`` CLI (per-heal message flows,
  per-link traffic tables, queue-depth timelines from a JSONL export).
* :mod:`repro.audit.certify` — per-heal certificates: message budgets
  (Theorem 1.3 for the FT, the per-node and O(1)-id budgets for the FG),
  payload locality, lease mutual exclusion, happens-before
  well-formedness, and fault accounting — recomputed from the log and
  cross-checked against the kernel tallies.
* :mod:`repro.audit.mutate` — seeded log corruptions and the mutation
  self-test proving each certificate class catches its corruption
  (``python -m repro.audit.mutate``).

Wired into campaigns through ``obs="audit"`` — see
``docs/OBSERVABILITY.md`` and :attr:`CampaignResult.audit`.
"""

from .certify import (
    CERTIFICATE_KINDS,
    AuditError,
    AuditInputs,
    AuditParams,
    AuditReport,
    HealCertificate,
    Violation,
    certify_campaign,
)
from .mutate import CORRUPTIONS, check_corruption, run_self_test
from .query import LogQuery, heal_flows, link_table, queue_timeline
from .schema import (
    SCHEMA_VERSION,
    ControlRecord,
    CrashRecord,
    DeadDropRecord,
    DeliverRecord,
    DropRecord,
    DupRecord,
    DupSuppressedRecord,
    HealDelta,
    LogRecord,
    SendRecord,
    load_jsonl,
    record_from_dict,
    write_jsonl,
)

__all__ = [
    "CERTIFICATE_KINDS",
    "CORRUPTIONS",
    "SCHEMA_VERSION",
    "AuditError",
    "AuditInputs",
    "AuditParams",
    "AuditReport",
    "ControlRecord",
    "CrashRecord",
    "DeadDropRecord",
    "DeliverRecord",
    "DropRecord",
    "DupRecord",
    "DupSuppressedRecord",
    "HealCertificate",
    "HealDelta",
    "LogQuery",
    "LogRecord",
    "SendRecord",
    "Violation",
    "certify_campaign",
    "check_corruption",
    "heal_flows",
    "link_table",
    "load_jsonl",
    "queue_timeline",
    "record_from_dict",
    "run_self_test",
    "write_jsonl",
]
