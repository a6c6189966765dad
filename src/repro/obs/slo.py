"""Declarative SLO watchdogs over windowed campaign telemetry.

A soak is only as good as the alarm that wakes you: the point of
running 500k events overnight is a *structured, replayable* record of
the first window where an invariant budget was blown — not a log line
scrolled out of the terminal.  An :class:`SloSpec` names one budget as
data (a dotted metric path into the window record, a comparison, a
threshold); the :class:`SloWatchdog` evaluates every spec against every
window record the soak service produces and, on breach:

* emits an :class:`SloAlert` (JSON-able; the service writes it to the
  telemetry sink under kind ``"alert"``),
* dumps the campaign's :class:`~repro.obs.recorder.FlightRecorder`
  ring **once** (first breach only — the ring covers the events leading
  into the breach; later dumps would cover later, less interesting
  windows), naming a replayable event-id window, and
* arms the :class:`~repro.obs.stream.SamplingTracer` (when one is
  attached) to force-keep the next heals, pinning the post-breach
  behavior into the trace regardless of the sampling rate.

The paper's guarantees make natural budgets — degree increase is a
*theorem* (≤ 3 for binary wills), so its spec breaching means a bug,
not load; :func:`default_slos` encodes those plus the operational
floors (heal p99 message cost, diameter stretch, lease escalation
rate, events/sec throughput).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..guarantees import degree_increase_bound
from .recorder import FlightRecorder

#: Comparison operators an :class:`SloSpec` may use: the observed value
#: must satisfy ``observed OP threshold`` or the window breaches.
SLO_OPS = {
    "<=": lambda v, t: v <= t,
    ">=": lambda v, t: v >= t,
    "<": lambda v, t: v < t,
    ">": lambda v, t: v > t,
}


@dataclass(frozen=True)
class SloSpec:
    """One budget: ``metric OP threshold`` must hold every window.

    ``metric`` is a dotted path into the window record
    (``"peak_degree_increase"``, ``"messages.p99"``,
    ``"op.events_per_sec"``); windows where the path is absent are
    skipped, so one default spec set serves campaigns with and without
    leases attached.  ``min_events`` skips windows too small to judge
    (a 3-event tail window's p99 is noise).
    """

    name: str
    metric: str
    op: str
    threshold: float
    min_events: int = 1
    description: str = ""

    def __post_init__(self) -> None:
        if self.op not in SLO_OPS:
            raise ValueError(
                f"slo {self.name!r}: unknown op {self.op!r} "
                f"(one of {sorted(SLO_OPS)})"
            )
        if self.min_events < 0:
            raise ValueError(f"slo {self.name!r}: min_events must be >= 0")

    def resolve(self, record: dict) -> Optional[float]:
        """The metric value in ``record``, or None when absent."""
        node: object = record
        for part in self.metric.split("."):
            if not isinstance(node, dict) or part not in node:
                return None
            node = node[part]
        return node if isinstance(node, (int, float)) else None


@dataclass
class SloAlert:
    """One breach, structured for the telemetry sink and the summary."""

    slo: str
    metric: str
    op: str
    threshold: float
    observed: float
    window: int
    first_event: int
    last_event: int
    description: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


class SloWatchdog:
    """Evaluate every spec against every window; escalate on breach.

    ``recorder``/``tracer`` are optional escalation targets: the first
    breach dumps the flight-recorder ring to ``dump_dir`` (path kept on
    :attr:`dump_path` and in the alert's window record) and arms the
    sampling tracer to force-keep the next ``keep_on_breach`` heals.
    """

    def __init__(
        self,
        slos: Sequence[SloSpec],
        recorder: Optional[FlightRecorder] = None,
        tracer=None,
        keep_on_breach: int = 8,
        dump_dir: Optional[str] = None,
    ):
        self.slos = tuple(slos)
        self.recorder = recorder
        self.tracer = tracer
        self.keep_on_breach = keep_on_breach
        self.dump_dir = dump_dir
        self.alerts: List[SloAlert] = []
        self.windows_evaluated = 0
        self.dump_path: Optional[str] = None

    @property
    def breached(self) -> bool:
        return bool(self.alerts)

    def evaluate(self, record: dict) -> List[SloAlert]:
        """Judge one window record; returns (and keeps) new alerts."""
        self.windows_evaluated += 1
        window = int(record.get("window", self.windows_evaluated - 1))
        events = record.get("events")
        new: List[SloAlert] = []
        for spec in self.slos:
            if events is not None and events < spec.min_events:
                continue
            observed = spec.resolve(record)
            if observed is None:
                continue
            if SLO_OPS[spec.op](observed, spec.threshold):
                continue
            new.append(
                SloAlert(
                    slo=spec.name,
                    metric=spec.metric,
                    op=spec.op,
                    threshold=spec.threshold,
                    observed=float(observed),
                    window=window,
                    first_event=int(record.get("first_event", -1)),
                    last_event=int(record.get("last_event", -1)),
                    description=spec.description,
                )
            )
        if new:
            self._escalate()
            self.alerts.extend(new)
        return new

    def _escalate(self) -> None:
        """First-breach side effects: recorder dump + tracer arming."""
        if self.tracer is not None and hasattr(self.tracer, "force_keep"):
            self.tracer.force_keep(self.keep_on_breach)
        if self.recorder is not None and self.dump_path is None:
            path = None
            if self.dump_dir is not None:
                rng = self.recorder.id_range or (0, -1)
                path = f"{self.dump_dir}/slo-breach-{rng[0]}-{rng[1]}.jsonl"
            self.dump_path = self.recorder.dump(path, label="slo-breach")


def default_slos(
    branching: int = 2,
    p99_messages: float = 200.0,
    max_stretch: float = 64.0,
    escalation_rate: float = 0.5,
    min_events_per_sec: float = 0.0,
) -> Tuple[SloSpec, ...]:
    """The standard budget set for Forgiving Tree soaks.

    The degree budget is Theorem 1.1's: heals may raise a node's degree
    by at most 3 with binary wills (``branching + 1`` in the
    generalized engine), so that spec breaching is a *correctness* bug.
    The rest are operational: heal message p99, diameter stretch versus
    the campaign baseline, lease escalations per event (skipped when no
    lease runtime is attached), and an events/sec floor (default 0 =
    disabled — throughput is machine-dependent; set it per rig).
    """
    return (
        SloSpec(
            name="degree-budget",
            metric="peak_degree_increase",
            op="<=",
            threshold=degree_increase_bound(branching),
            description="Theorem 1.1: heal degree increase is bounded",
        ),
        SloSpec(
            name="heal-p99-messages",
            metric="messages.p99",
            op="<=",
            threshold=p99_messages,
            min_events=20,
            description="per-heal message cost stays flat under churn",
        ),
        SloSpec(
            name="stretch-certificate",
            metric="peak_stretch",
            op="<=",
            threshold=max_stretch,
            description="diameter stretch vs the campaign baseline",
        ),
        SloSpec(
            name="lease-escalation-rate",
            metric="op.lease_escalations_per_event",
            op="<=",
            threshold=escalation_rate,
            min_events=20,
            description="overlapping-heal admission stays mostly granted",
        ),
        SloSpec(
            name="events-per-sec-floor",
            metric="op.events_per_sec",
            op=">=",
            threshold=min_events_per_sec,
            description="throughput floor (machine-dependent; 0 = off)",
        ),
    )


def fault_slos(
    retransmissions_per_event: float = 8.0,
) -> Tuple[SloSpec, ...]:
    """Budgets for hostile-network (``faults=``) campaigns.

    Evaluated against :meth:`repro.faults.FaultSummary.window_record`
    (the soak/CI fault-smoke path feeds one record per campaign).  Two
    of the three are *correctness* budgets with zero headroom: every
    loss must have been retransmitted (``retransmit_deficit == 0``) and
    every network duplicate suppressed (``dup_leak == 0``) — a breach
    means the reliable-delivery layer leaked, not that the network was
    unlucky.  Unrepaired violations breaching means a repair pass left
    the overlay corrupt, which the transport mirror should already have
    raised on; the SLO is the independent alarm.  The retransmission
    rate is the one operational budget (tune it to the plan's drop
    probability: expected re-sends/event ≈ messages/event · p/(1-p)).
    """
    return (
        SloSpec(
            name="retransmit-parity",
            metric="faults.retransmit_deficit",
            op="<=",
            threshold=0,
            description="every lost attempt was retransmitted",
        ),
        SloSpec(
            name="dup-suppression",
            metric="faults.dup_leak",
            op="<=",
            threshold=0,
            description="every network duplicate was suppressed",
        ),
        SloSpec(
            name="repair-convergence",
            metric="faults.unrepaired_violations",
            op="<=",
            threshold=0,
            description="repair passes left no residual violations",
        ),
        SloSpec(
            name="retransmit-rate",
            metric="faults.retransmissions_per_event",
            op="<=",
            threshold=retransmissions_per_event,
            min_events=10,
            description="retransmission overhead stays budgeted",
        ),
    )
