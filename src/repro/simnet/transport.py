"""Concurrent-churn transport mirrors for campaign runners.

The harness plays every campaign against a *sequential* healer (the
oracle).  A :class:`TransportMirror` additionally drives the matching
**distributed runtime** — the Forgiving Tree protocol for
``forgiving-tree`` healers, the Forgiving Graph protocol for
``forgiving-graph`` ones — over a transport selected by a
:class:`TransportSpec`:

* ``mode="sync"`` — the classic synchronous sub-round network, one
  event at a time, quiescing per event (per-event cross-validation of
  the protocols inside any campaign).
* ``mode="async"`` — the discrete-event :class:`~repro.simnet.AsyncNetwork`
  with **concurrent churn**: each oracle event is injected while earlier
  heals are still in flight, overlapping repairs in virtual time.

The mirror is three things: the **driver builder** (which runtime, on
which network — :meth:`TransportMirror._build_driver`), the **parity
checker** (:meth:`~TransportMirror.barrier` / ``verify`` / ``finish``)
and the **crash-recovery** façade (``recover_from_crash``).  *When* a
mirrored event may inject while earlier heals are in flight is not its
decision: an async mirror builds one admission object for its
``overlap=`` policy (:mod:`repro.regions.admission` — ``"serialize"``,
the default: intersecting heal footprints wait behind a global quiesce
barrier; ``"lease"``: they queue on per-node region leases, are resumed
by the blocking heal's release, and escalate to the barrier, counted per
reason, when handoff is unsafe) and asks it: ``admit`` per event,
``admit_alone`` for the event a planned crash rides on, ``drain`` inside
every barrier, ``fill`` for the summary.  The admission object drives
the mirror back through the narrow port the mirror is (``net``,
``spec``, :meth:`~TransportMirror.inject`, ``barrier``,
:meth:`~TransportMirror.coordinator`, the obs instruments).  A
``mode="sync"`` mirror builds none.

At every barrier — conflict-forced or escalated, cadence
(``barrier_every``), or final — the mirror has the admission object
drain the network (under leases: every delegated event injects in
priority order first), asserts protocol quiescence, and cross-validates
the distributed image against the oracle's healed graph node-for-node,
raising :class:`TransportDivergence` on any mismatch.  The distributed
image is the one the network keeps from the nodes that moved since the
last barrier (:meth:`~repro.distributed.network.Network.image_edges`);
:meth:`TransportMirror.finish` derives it once more from every node and
requires the same answer.
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..core import WILL_SPLICE
from ..core.errors import ProtocolError, ReproError
from ..core.events import HealReport
from ..distributed.network import Network
from ..faults.plan import FaultPlan, FaultSummary
from ..faults.repair import RepairPass, RepairReport
from ..obs.histogram import LogHistogram
from ..obs.spec import ObsState
from ..obs.trace import NO_TRACE
from ..regions.admission import ADMISSION_POLICIES, Arm, heal_footprint
from ..audit.schema import LogRecord
from .kernel import AsyncNetwork, HealStats
from .latency import LatencySpec
from .scheduler import SchedulerSpec

#: ``transport=`` modes for the campaign runners (mirrors ``metrics=``).
#: ``"lease"`` is shorthand for async transport with ``overlap="lease"``.
TRANSPORT_MODES = ("none", "sync", "async", "lease")

#: What to do when a new event's heal footprint intersects an in-flight
#: repair: serialize behind a global quiesce barrier (PR 4 behavior) or
#: admit through the region-lease / coordinator-handoff protocol.
OVERLAP_POLICIES = tuple(ADMISSION_POLICIES)


class TransportDivergence(ReproError, AssertionError):
    """The distributed mirror's healed image diverged from the oracle."""


@dataclass
class TransportSpec:
    """Configuration of a campaign's transport mirror.

    ``seed=None`` inherits the campaign seed, so one seed reproduces the
    whole run — adversary, metrics, latency draws and scheduler choices.
    ``gap`` is the virtual inter-arrival time between injected events
    (smaller gap = more heals in flight); ``barrier_every`` is the
    quiesce/cross-validate cadence in events (0 = only conflict-forced
    and final barriers).  ``overlap`` picks the policy for intersecting
    heal footprints (:data:`OVERLAP_POLICIES`); under ``"lease"``,
    ``max_wait_chain`` bounds the delegation convoy before the mirror
    escalates back to a global barrier.  ``faults`` attaches a
    :class:`~repro.faults.FaultPlan` (hostile network: loss,
    duplication, crash-during-heal — async mode only); ``record_log``
    keeps the kernel's per-delivery event log (the determinism tests'
    pinned artifact, surfaced on :attr:`TransportSummary.event_log`).
    """

    mode: str = "async"
    latency: LatencySpec = "uniform"
    scheduler: SchedulerSpec = "latency"
    seed: Optional[int] = None
    gap: float = 0.25
    barrier_every: int = 8
    max_depth: int = 4096
    record_samples: bool = False
    overlap: str = "serialize"
    max_wait_chain: int = 32
    faults: Optional[FaultPlan] = None
    record_log: bool = False

    def __post_init__(self) -> None:
        if self.mode not in ("sync", "async"):
            raise ValueError(f"unknown transport mode {self.mode!r}")
        if self.gap < 0:
            raise ValueError("gap must be >= 0")
        if self.barrier_every < 0:
            raise ValueError("barrier_every must be >= 0")
        if self.overlap not in OVERLAP_POLICIES:
            raise ValueError(
                f"unknown overlap policy {self.overlap!r} "
                f"(one of {OVERLAP_POLICIES})"
            )
        if self.overlap == "lease" and self.mode != "async":
            raise ValueError("overlap='lease' needs the async transport")
        if self.max_wait_chain < 1:
            raise ValueError("max_wait_chain must be >= 1")
        if self.faults is not None and self.mode != "async":
            raise ValueError("faults= needs the async transport")


TransportInput = Union[None, str, TransportSpec]


def resolve_transport(
    transport: TransportInput, seed: int = 0
) -> Optional[TransportSpec]:
    """Normalize the ``transport=`` knob into a spec (or None = off)."""
    if transport is None or transport == "none":
        return None
    if isinstance(transport, TransportSpec):
        return (
            transport if transport.seed is not None else replace(transport, seed=seed)
        )
    if transport in ("sync", "async"):
        return TransportSpec(mode=transport, seed=seed)
    if transport == "lease":
        return TransportSpec(mode="async", overlap="lease", seed=seed)
    raise ValueError(
        f"unknown transport {transport!r} (one of {TRANSPORT_MODES} or a TransportSpec)"
    )


@dataclass
class TransportSummary:
    """What a campaign's transport mirror observed (per campaign).

    The lease block (``overlap="lease"`` campaigns) reports the handoff
    protocol's behavior: how many events waited for a lease (and for how
    much virtual time), how many were admitted without conflict, the
    deepest delegation queue, and every escalation back to the global
    barrier broken down by reason — the honest record of how often the
    overlap protocol could *not* keep intersecting heals concurrent.

    Percentiles come from the shared
    :class:`~repro.obs.histogram.LogHistogram` primitive (the one
    quantile implementation in the repo — the benches and the skype
    example report these exact numbers).
    """

    mode: str
    latency: str
    scheduler: str
    seed: int
    events: int = 0
    barriers: int = 0
    conflict_barriers: int = 0
    peak_in_flight_heals: int = 0
    peak_queue_depth: int = 0
    makespan: float = 0.0
    messages_delivered: int = 0
    heal_latencies: List[float] = field(default_factory=list)
    peak_sub_rounds: int = 0
    overlap: str = "serialize"
    lease_grants: int = 0
    lease_waits: int = 0
    lease_wait_times: List[float] = field(default_factory=list)
    peak_deferred: int = 0
    escalations: Dict[str, int] = field(default_factory=dict)
    #: Hostile-network tallies (``faults=`` campaigns only).
    faults: Optional[FaultSummary] = None
    #: The kernel's pinned determinism artifact (``record_log`` only):
    #: typed :class:`~repro.audit.schema.LogRecord` entries.
    event_log: Optional[List["LogRecord"]] = None
    #: Per-heal kernel tallies in quiescence order (``record_log``
    #: only) — the audit layer joins them to the log by ``hid``.
    heal_stats: Optional[List["HealStats"]] = None

    @property
    def heal_latency_hist(self) -> LogHistogram:
        return LogHistogram.from_values(self.heal_latencies)

    @property
    def lease_wait_hist(self) -> LogHistogram:
        return LogHistogram.from_values(self.lease_wait_times)

    @property
    def heal_latency_percentiles(self) -> Dict[str, float]:
        return self.heal_latency_hist.summary()

    @property
    def lease_wait_percentiles(self) -> Dict[str, float]:
        """Distribution of the delegated events' virtual wait times."""
        return self.lease_wait_hist.summary()

    @property
    def total_escalations(self) -> int:
        return sum(self.escalations.values())


class TransportMirror:
    """Replays a campaign's event stream on a distributed runtime.

    Built from the campaign's healer (see module docstring);
    :meth:`apply` consumes each oracle :class:`HealReport` right after
    the sequential healer produced it, :meth:`finish` drains, validates
    and returns the :class:`TransportSummary`.
    """

    def __init__(
        self, healer, spec: TransportSpec, obs: Optional[ObsState] = None
    ):
        self.spec = spec
        self.seed = spec.seed if spec.seed is not None else 0
        # The observability instruments (repro.obs) this mirror and its
        # kernel write into.  ``obs=None`` keeps every hook a single
        # attribute/None check on the hot paths.
        self.obs = obs
        self.tracer = obs.tracer if obs is not None else NO_TRACE
        self.profiler = obs.profiler if obs is not None else None
        self.metrics = obs.metrics if obs is not None else None
        self.recorder = obs.recorder if obs is not None else None
        self._recorder_dir = obs.spec.recorder_dir if obs is not None else None
        self._flight_path: Optional[str] = None
        self.net: Optional[AsyncNetwork] = None
        if spec.mode == "async":
            self.net = AsyncNetwork(
                latency=spec.latency,
                scheduler=spec.scheduler,
                seed=self.seed,
                max_depth=spec.max_depth,
                record_samples=spec.record_samples,
                record_log=spec.record_log,
                tracer=self.tracer,
                profiler=self.profiler,
                metrics=self.metrics,
                faults=spec.faults,
            )
        # Hostile-network state: the healer handle and oracle-order
        # report history feed the repair pass's reset-replay (kept only
        # when a crash is actually planned — the history is O(events));
        # ``pending_crash`` hands the victim to the campaign loop, which
        # applies the death to the oracle and calls
        # :meth:`recover_from_crash`.
        self._healer = healer
        self._keep_history = spec.faults is not None and bool(spec.faults.crashes)
        self._history: List[HealReport] = []
        self.pending_crash: Optional[int] = None
        self.repairs: List[RepairReport] = []
        self.driver, self._oracle_edges = self._build_driver(healer, self.net)
        if self.net is not None:
            # The setup round (FT will distribution) floods the queue
            # once before any churn; reset the peaks so the summary
            # reports campaign concurrency, not setup fan-out.
            self.net.peak_open_heals = 0
            self.net.peak_queue_depth = 0
            self.net.samples.clear()
        # The expected image is maintained from the mirrored reports'
        # exact edge deltas: a conflict barrier fires *before* the
        # triggering event is injected, at which point the live oracle is
        # one event ahead of the mirror.  (``finish`` still closes the
        # loop against the live oracle.)
        self._expected: Set[Tuple[int, int]] = self._oracle_edges()
        self.events = 0
        self.barriers = 0
        self._since_barrier = 0
        # Event count at the network's last from-scratch image (its
        # first, or the first after a repair pass's node transplant).
        self._image_scratch_at = 0
        # Who decides when an event may inject while heals are in flight
        # (async only; a sync mirror quiesces per event and asks nobody).
        self.admission = (
            ADMISSION_POLICIES[spec.overlap](self) if self.net is not None else None
        )

    # ------------------------------------------------------------------
    def _build_driver(self, healer, network):
        """Instantiate the distributed runtime matching the healer, on
        ``network`` (the mirror's kernel, or a throwaway synchronous
        network during the repair pass's reset-replay).  The dispatch
        also names the mirrored protocol (:attr:`protocol`: ``"ft"`` or
        ``"fg"``), which selects the audit certificates' budgets."""
        from ..baselines.forgiving import ForgivingTreeHealer
        from ..fgraph.healer import ForgivingGraphHealer

        if isinstance(healer, ForgivingTreeHealer):
            engine = healer.engine
            if engine.branching != 2 or engine.will_mode != WILL_SPLICE:
                raise ValueError(
                    "transport mirroring needs the binary splice-mode "
                    "Forgiving Tree (the distributed FT protocol is binary)"
                )
            from ..distributed.protocol import DistributedForgivingTree

            driver = DistributedForgivingTree(
                healer.spanning_tree(), network=network
            )
            # The FT healer carries surviving non-tree edges alongside the
            # protocol's tree overlay; the mirror validates the overlay.
            # Footprints read the maintained tree view every event; the
            # parity closure materialises the image afresh from the engine.
            self.protocol = "ft"
            self._oracle_graph = healer.tree_view
            return driver, lambda: _edge_set(healer.tree_overlay())
        if isinstance(healer, ForgivingGraphHealer):
            from ..fgraph.distributed import DistributedForgivingGraph

            driver = DistributedForgivingGraph(
                healer.initial_graph, network=network
            )
            self.protocol = "fg"
            self._oracle_graph = healer.view
            return driver, lambda: _edge_set(healer.graph())
        raise ValueError(
            f"transport mirroring supports the forgiving-tree and "
            f"forgiving-graph healers, not {healer.name!r}"
        )

    # ------------------------------------------------------------------
    def apply(self, report: HealReport) -> None:
        """Mirror one oracle event onto the distributed runtime."""
        if self.pending_crash is not None:
            raise ProtocolError(
                f"event applied while node {self.pending_crash}'s crash "
                "awaits recovery (call recover_from_crash first)"
            )
        if self.recorder is not None:
            self.recorder.record(
                "event",
                clock=self.net.clock if self.net is not None else 0.0,
                eid=self.events,
                what="insert" if report.is_insertion else f"delete-{report.deleted}",
            )
        if self.metrics is not None:
            self.metrics.counter("mirror.events").inc()
        if self._keep_history:
            self._history.append(report)
        crash = (
            self.spec.faults.crash_for(self.events)
            if self.spec.faults is not None
            else None
        )
        if self.admission is None:
            self._apply_now(report)
        else:
            footprint = self._footprint(report)
            if crash is None:
                self.admission.admit(self.events, report, footprint)
            else:
                # The doomed heal flies alone: the admission object runs
                # its barrier first and only then asks whom to kill, so
                # the victim is elected from settled state.
                arm = self.admission.admit_alone(
                    self.events,
                    report,
                    footprint,
                    lambda: self._crash_arm(report, crash, footprint),
                )
                if arm is not None:
                    # The kernel drained with the crash landed, the image
                    # is corrupt: hand the victim to the campaign loop.
                    self.pending_crash = arm[1]
        self.events += 1
        # Net deltas replayed from the raw chronological edge events,
        # not the report's disjointified summary sets: an edge that
        # toggles an odd number of times inside one heal (removed,
        # re-added, removed again) vanishes from both summary sets and
        # under-reports the net change.  (FT reports may also remove
        # non-tree extras the mirror never carried: discard semantics.)
        added, removed = report.net_edge_deltas()
        self._expected -= removed
        self._expected |= added
        self._since_barrier += 1
        if self.pending_crash is not None:
            # The image is corrupt until the repair pass re-converges
            # it; no barrier may fire in between (the campaign loop
            # calls recover_from_crash before the next event).
            self._since_barrier = 0
            return
        if self.spec.barrier_every and self._since_barrier >= self.spec.barrier_every:
            self.barrier()

    def _apply_now(self, report: HealReport) -> None:
        if report.is_insertion:
            self.driver.insert_batch(self._wave(report))
        else:
            self.driver.delete(report.deleted)

    def _footprint(self, report: HealReport) -> Set[int]:
        """Extract the heal footprint, timed when profiling is on."""
        if self.profiler is None:
            return heal_footprint(report, graph=self._oracle_graph())
        t0 = time.perf_counter_ns()
        fp = heal_footprint(report, graph=self._oracle_graph())
        self.profiler.add("mirror:footprint", time.perf_counter_ns() - t0)
        return fp

    def inject(
        self,
        report: HealReport,
        requested_at: Optional[float] = None,
        arm: Optional[Arm] = None,
    ) -> int:
        """Open a kernel heal, inject the event, close the window.

        The one injection path every admission policy shares; returns
        the kernel heal id.  ``requested_at`` back-dates the lease wait;
        ``arm`` is a ``(layer, victim)`` crash to arm on this heal."""
        assert self.net is not None
        # Labels embed the event's unique id (node ids are never
        # reused), so a heal is joinable to its oracle report even when
        # lease admission reorders injections.
        hid = self.net.open_heal(
            label=(
                f"insert-{self._wave(report)[0][0]}"
                if report.is_insertion
                else f"delete-{report.deleted}"
            ),
            requested_at=requested_at,
        )
        if arm is not None:
            self.net.arm_crash(hid, *arm)
        if report.is_insertion:
            self.driver.inject_insert_batch(self._wave(report))
        else:
            self.driver.inject_delete(report.deleted)
        self.net.close_injection()
        return hid

    def coordinator(self, report: HealReport) -> Optional[int]:
        """The heal's handoff anchor, from live local state: the first
        wave attachment point for insertions, the driver's
        ``heal_coordinator`` for deletions (read it *before* injecting —
        the victim's removal consumes its neighbor claims)."""
        if report.is_insertion:
            return self._wave(report)[0][1]
        return self.driver.heal_coordinator(report.deleted)

    # -- the crash-during-heal fault plane ------------------------------
    def _crash_arm(
        self, report: HealReport, crash, footprint: Set[int]
    ) -> Optional[Arm]:
        """Pick the node the :class:`CrashDuringHeal` kills.

        Called by ``admit_alone`` *after* its barrier, so every earlier
        event — in flight or lease-deferred — has settled: claims name
        live nodes only, and a victim's own join has landed.
        ``"coordinator"`` is the heal's :meth:`coordinator`;
        ``"participant"`` is the largest-id *other* live footprint
        member, falling back to the coordinator when the heal has no
        other participant.  ``None`` (degenerate heal with no live
        coordinator): nobody to kill, the planned crash is skipped.
        """
        victim = self.coordinator(report)
        if crash.target != "coordinator" and victim is not None:
            others = footprint - {victim, report.deleted}
            victim = max((n for n in others if n in self.driver), default=victim)
        return None if victim is None else (crash.layer, victim)

    def recover_from_crash(self, report: HealReport) -> RepairReport:
        """Run the self-stabilizing repair pass after a planned crash.

        ``report`` is the oracle's heal of the crash victim (the
        campaign loop applies ``healer.delete(victim)`` as an extra
        oracle event first, then calls this).  The pass scans the
        corrupted overlay, re-converges it by reset-replay — a fresh
        driver rebuilt from the initial graph replaying the full oracle
        report history (crash included) on a throwaway synchronous
        network, then transplanted into the drained kernel — rescans,
        and barriers: the repaired image must match the oracle
        node-for-node or the mirror fails loudly.
        """
        if self.pending_crash is None:
            raise ProtocolError("no crash pending recovery")
        victim = self.pending_crash
        self.pending_crash = None
        if self._keep_history:
            self._history.append(report)
        self.events += 1
        rep = RepairPass(self.driver).run(self._rebuild_driver, victim=victim)
        self.repairs.append(rep)
        if self.net is not None:
            self.net.log_control("repair-pass", victim)
        if self.recorder is not None:
            self.recorder.record(
                "repair",
                clock=self.net.clock if self.net is not None else 0.0,
                victim=victim,
                violations=len(rep.violations),
            )
        if self.metrics is not None:
            self.metrics.counter("faults.repairs").inc()
        if not rep.repaired:
            self._fail(
                TransportDivergence(
                    f"repair pass after crash of {victim} left "
                    f"{len(rep.residual)} violation(s): "
                    f"{[f'{v.kind}@{v.node}' for v in rep.residual[:6]]}"
                )
            )
        self._expected = self._oracle_edges()
        self.barrier()
        return rep

    def _rebuild_driver(self):
        """Reset-replay: the repair pass's re-convergence primitive.

        Rebuilding from the oracle *image* alone would break future
        parity (FT heal outcomes depend on will/helper history), so the
        fresh driver replays the oracle's full report history — in
        oracle order, on a throwaway synchronous network — and its nodes
        are then transplanted into the drained kernel.  (Safe ordering:
        ``admit_alone`` runs a flushing barrier first, so every
        lease-deferred event was injected before any crash.)
        """
        fresh_net = Network(max_sub_rounds=self.spec.max_depth)
        driver, oracle_edges = self._build_driver(self._healer, fresh_net)
        for rep in self._history:
            if rep.is_insertion:
                driver.insert_batch(self._wave(rep))
            else:
                driver.delete(rep.deleted)
        assert self.net is not None
        self.net.adopt(list(fresh_net.nodes.values()))
        self._image_scratch_at = self.events
        driver.network = self.net
        self.driver = driver
        self._oracle_edges = oracle_edges
        return driver

    @staticmethod
    def _wave(report: HealReport) -> Sequence[Tuple[int, int]]:
        if report.inserted_batch:
            return report.inserted_batch
        assert report.inserted is not None and report.attached_to is not None
        return ((report.inserted, report.attached_to),)

    # ------------------------------------------------------------------
    def barrier(self) -> None:
        """Quiesce, assert protocol quiescence, cross-validate images.

        The quiesce is the admission object's ``drain()``: under leases
        it first *flushes* the handoff queue — every delegated event
        injects in priority order as its blockers drain — so the
        verified image always includes every oracle event mirrored so
        far."""
        clock_before = self.net.clock if self.net is not None else 0.0
        t0 = time.perf_counter_ns() if self.profiler is not None else 0
        try:
            if self.admission is not None:
                self.admission.drain()
            self.driver._check_quiescent()
            self.verify()
        except ReproError as exc:
            self._fail(exc)
        self.barriers += 1
        self._since_barrier = 0
        if self.profiler is not None:
            self.profiler.add("mirror:barrier", time.perf_counter_ns() - t0)
            if self.net is not None:
                self.profiler.add_virtual(
                    "mirror:barrier", self.net.clock - clock_before
                )
        if self.recorder is not None:
            self.recorder.record(
                "barrier",
                clock=self.net.clock if self.net is not None else 0.0,
                events=self.events,
            )
        if self.metrics is not None:
            self.metrics.counter("mirror.barriers").inc()

    def _fail(self, exc: ReproError) -> None:
        """Invariant/cross-validation failure: dump the flight recorder.

        The dump lands as JSONL next to the failure (``recorder_dir`` or
        the system temp dir), and the re-raised exception names the
        event-id range it holds so the bisection starts from the dump,
        not from a re-run.  Idempotent: a failure that unwinds through
        nested barriers dumps once and keeps citing the same file.
        """
        if self.recorder is not None and self.recorder.recorded:
            if self._flight_path is None:
                first, last = self.recorder.id_range
                directory = self._recorder_dir or tempfile.gettempdir()
                self._flight_path = os.path.join(
                    directory, f"flight-seed{self.seed}-ev{first}-{last}.jsonl"
                )
                self.recorder.dump(self._flight_path)
            first, last = self.recorder.id_range
            note = (
                f"flight recorder: events {first}..{last} "
                f"dumped to {self._flight_path}"
            )
            exc.args = (
                (f"{exc.args[0]}\n{note}",) + exc.args[1:]
                if exc.args
                else (note,)
            )
        raise exc

    def verify(self, expected: Optional[Set[Tuple[int, int]]] = None) -> None:
        """Node-for-node healed-image comparison against the oracle."""
        mirror_edges = self.driver.edges()
        if expected is None:
            expected = self._expected
        if mirror_edges != expected:
            missing = sorted(expected - mirror_edges)[:6]
            extra = sorted(mirror_edges - expected)[:6]
            raise TransportDivergence(
                f"after {self.events} events: mirror image diverged "
                f"(missing {missing}, extra {extra})"
            )

    def _check_kept_image(self) -> None:
        """Every barrier read an image the network kept from the nodes
        that joined, left or were handed a message
        (:meth:`~repro.distributed.network.Network.image_edges`); derive
        it once more from every node and require the same answer."""
        kept = self.driver.edges()
        self.driver.network.forget_image()
        derived = self.driver.edges()
        if kept != derived:
            raise TransportDivergence(
                f"events {self._image_scratch_at}..{self.events}: the image "
                f"kept across barriers differs from one derived from every "
                f"node (kept only {sorted(kept - derived)[:6]}, derived only "
                f"{sorted(derived - kept)[:6]}) - a node's claims moved "
                "without a join, a leave or a delivery"
            )

    def finish(self) -> TransportSummary:
        """Final barrier + summary (call once, at campaign end)."""
        self.barrier()
        # The mirror is now caught up with the oracle: close the loop
        # against the live healer, not just the accumulated deltas.
        try:
            self.verify(expected=self._oracle_edges())
            self._check_kept_image()
        except ReproError as exc:
            self._fail(exc)
        spec = self.spec
        summary = TransportSummary(
            mode=spec.mode,
            latency=getattr(spec.latency, "name", str(spec.latency)),
            scheduler=getattr(spec.scheduler, "name", str(spec.scheduler)),
            seed=self.seed,
            events=self.events,
            barriers=self.barriers,
            overlap=spec.overlap,  # "serialize" on a sync mirror (the spec checks)
        )
        if self.admission is not None:
            self.admission.fill(summary)
        history = self.driver.network.stats_history[1:]  # skip setup
        summary.peak_sub_rounds = max((s.sub_rounds for s in history), default=0)
        if self.net is not None:
            summary.peak_in_flight_heals = self.net.peak_open_heals
            summary.peak_queue_depth = self.net.peak_queue_depth
            summary.makespan = self.net.clock
            summary.messages_delivered = self.net.delivered
            summary.heal_latencies = [
                s.heal_latency for s in history if hasattr(s, "heal_latency")
            ]
            if spec.faults is not None:
                fs = FaultSummary()
                for s in self.net.stats_history:
                    fs.drops += getattr(s, "dropped", 0)
                    fs.retransmissions += getattr(s, "total_retransmissions", 0)
                    fs.duplicates += getattr(s, "duplicated", 0)
                    fs.dup_suppressed += getattr(s, "dup_suppressed", 0)
                    fs.handler_faults += getattr(s, "handler_faults", 0)
                    fs.dead_drops += s.dead_drops
                fs.crashes = len(self.net.crashed)
                fs.repairs = len(self.repairs)
                fs.violations = sum(len(r.violations) for r in self.repairs)
                fs.unrepaired_violations = sum(
                    len(r.residual) for r in self.repairs
                )
                summary.faults = fs
            if self.net.record_log:
                summary.event_log = list(self.net.event_log)
                summary.heal_stats = list(self.net.stats_history)
        return summary


def _edge_set(graph) -> Set[Tuple[int, int]]:
    out: Set[Tuple[int, int]] = set()
    for u, vs in graph.items():
        for v in vs:
            if u < v:
                out.add((u, v))
    return out
