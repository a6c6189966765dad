"""The discrete-event simulation kernel: an async transport for the
distributed protocols.

:class:`AsyncNetwork` is a drop-in replacement for the synchronous
:class:`~repro.distributed.network.Network`: it exposes the same
membership, ``send``/``begin_round``/``run_round`` and ``image_edges``
surface, so both distributed runtimes (the Forgiving Tree's and the
Forgiving Graph's) run on it *unmodified*.  Underneath, messages are not
delivered in lock-step sub-rounds but by a priority-queue scheduler with
per-link latencies (:mod:`repro.simnet.latency`) and a pluggable
delivery-order policy (:mod:`repro.simnet.scheduler`), and — the point
of the exercise — several *heals may be in flight at once*: a new churn
event can be injected while earlier repairs are still exchanging
messages.

Concurrency semantics (documented at length in ``docs/ASYNC.md``):

* Every message belongs to the *heal* (churn event) whose handling
  caused it, and carries its causal **depth** — hops from the event's
  injected notifications (depth 0).  Injection happens between
  :meth:`AsyncNetwork.open_heal` and :meth:`AsyncNetwork.close_injection`;
  messages sent while a delivery is being handled inherit its heal and
  ``depth + 1``.
* **Within one heal, delivery is layered**: a depth-``d+1`` message is
  only deliverable once every depth-``d`` message of the same heal has
  landed.  This is exactly the sub-round causality of the papers'
  synchronous model (Section 2: nodes communicate "asynchronously in
  parallel" but the algorithms are stated in rounds); the protocol
  handlers assume it, so the kernel preserves it *per heal*.
* **Across heals there is no ordering at all** — deliveries from
  different heals interleave freely, governed only by arrival times and
  the scheduler policy.  This is the concurrency the synchronous network
  forbids by quiescing after every event.
* A message is *deliverable* once the layering rule admits it and the
  clock can reach its arrival time.  Whenever several messages are
  deliverable, the :class:`~repro.simnet.scheduler.SchedulerPolicy`
  (including the adversarial one) picks which lands next — the legal
  interleavings of the model.

The event queue.  A heal's layers are stored as per-recipient FIFOs, and
the only envelopes that can ever be deliverable are the **frontier**:
the FIFO head of every recipient in the front (shallowest non-empty)
layer of every open heal.  The frontier changes at exactly three
moments — a send that starts a recipient's FIFO in the front layer, a
delivery (the recipient's next envelope surfaces, or, when it emptied
the layer, every head of the next one), and a heal's quiescence — so it
is kept, not recomputed.  An *ordered* policy (one that states its order
as :meth:`~repro.simnet.scheduler.SchedulerPolicy.key`) is served from
two heaps: frontier heads by arrival time, and — once the horizon
reaches them — arrived heads by policy key; a delivery costs
O(log frontier).  A *positional* policy (``random``, or any subclass
that overrides ``pick``) is handed the arrived heads as a list ordered
by (heal id, send order), built from the front layers alone.

Determinism: given the construction seed, the whole run — clock values,
delivery order, the per-message :attr:`event_log` — is a pure function
of the injected events.  Tests pin this by comparing event logs.
"""

from __future__ import annotations

import math
import random
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from operator import attrgetter
from typing import Deque, Dict, List, Optional, Set, Tuple

from ..audit.schema import (
    ControlRecord,
    CrashRecord,
    DeadDropRecord,
    DeliverRecord,
    DropRecord,
    DupRecord,
    DupSuppressedRecord,
    LogRecord,
    SendRecord,
)
from ..core.errors import ProtocolError
from ..distributed.messages import Message
from ..distributed.network import Network, RoundStats
from ..faults.plan import FaultPlan
from ..obs.metrics import MetricsRegistry
from ..obs.profile import PhaseProfiler
from ..obs.trace import CONTROL_TRACK, NO_TRACE, PID_PROTOCOL
from .latency import LatencySpec, resolve_latency
from .scheduler import SchedulerPolicy, SchedulerSpec, resolve_scheduler

_send_order = attrgetter("seq")


@dataclass(eq=False)
class Envelope:
    """One queued message: arrival time, send order, and causal tag.

    ``send_seq`` is the reliable-delivery layer's per-sender sequence
    number (``-1`` when no fault plan is attached): duplicate copies of
    one logical send share it, and recipients suppress the later copy
    by remembering ``(sender, send_seq)`` pairs in their seen-window.
    """

    deliver_at: float
    seq: int
    message: Message
    heal: int
    depth: int
    send_seq: int = -1


@dataclass
class HealStats(RoundStats):
    """Per-heal communication stats plus the async timing quantities.

    Extends the synchronous :class:`RoundStats` — ``sub_rounds`` is the
    heal's causal depth (number of delivery layers), directly comparable
    to the synchronous network's sub-round count — with virtual-time
    bookkeeping: ``heal_latency`` is how long the repair stayed in
    flight, the quantity EXP-ASYNC-THROUGHPUT measures.  Under the
    region-lease overlap policy a heal may be *requested* before it can
    inject (its footprint was leased to an in-flight repair);
    ``requested_at`` records that moment and ``lease_wait`` the time the
    event spent queued on the blocking coordinator.  ``hid`` is the
    kernel heal id — ``round`` may carry a caller-supplied round number
    instead, so this is the field that joins a heal's tallies to its
    event-log records (the audit layer keys on it).

    The fault tallies (all zero on a reliable network) count the
    hostile-network traffic *separately* from the base ``sent`` /
    ``received`` dicts, which keep exact parity with the sequential
    oracle's per-node tallies: ``dropped`` lost transmission attempts,
    ``retransmitted`` the per-sender re-sends that recovered them
    (equal in total, by construction), ``duplicated`` network-injected
    copies and ``dup_suppressed`` the seen-window discards that cancel
    them, ``handler_faults`` protocol errors swallowed inside a heal
    whose coordinator crashed (the repair pass owns that state).
    """

    hid: int = -1
    injected_at: float = 0.0
    quiesced_at: float = 0.0
    label: str = ""
    requested_at: Optional[float] = None
    dropped: int = 0
    retransmitted: Dict[int, int] = field(default_factory=dict)
    duplicated: int = 0
    dup_suppressed: int = 0
    handler_faults: int = 0

    @property
    def heal_latency(self) -> float:
        return self.quiesced_at - self.injected_at

    @property
    def lease_wait(self) -> float:
        """Virtual time spent waiting for the footprint's leases."""
        if self.requested_at is None:
            return 0.0
        return self.injected_at - self.requested_at

    @property
    def total_retransmissions(self) -> int:
        return sum(self.retransmitted.values())


class AsyncNetwork(Network):
    """Discrete-event message transport (see module docstring).

    Parameters
    ----------
    latency:
        Per-link delay model (name, instance, or ``(name, kwargs)``).
    scheduler:
        Delivery-order policy among legally deliverable messages.  Fixed
        at construction (a read-only attribute): whether it is ordered
        or positional — decided here, from the ``pick`` this very
        object answers with — is how the frontier is indexed.
    seed:
        Master seed; the latency and scheduler RNG streams are derived
        from it (disjointly), so one seed fixes the whole run.
    max_depth:
        Livelock guard: a heal deeper than this many causal layers
        raises (the synchronous network's ``max_sub_rounds``).
    record_samples:
        Keep the full ``(clock, open_heals, queued)`` time series (the
        benchmark's in-flight depth trace); peaks are always tracked.
    record_log:
        Keep the per-delivery event log (the determinism tests' pinned
        artifact).  Off by default: long campaigns deliver hundreds of
        thousands of messages and the log is pure overhead when nothing
        reads it.
    tracer:
        An :class:`~repro.obs.Tracer` to feed with causal spans: one
        span per heal, nested layer spans per causal depth, an instant
        per delivered message, control entries on the control track.
        Defaults to the shared no-op (one ``.enabled`` test per hook).
    profiler:
        A :class:`~repro.obs.PhaseProfiler`; when set, every delivered
        message's handler is wall-timed under ``deliver:<MessageType>``
        (the portion walks and RT rebuilds run inside those handlers).
    metrics:
        A :class:`~repro.obs.MetricsRegistry`; the kernel streams
        per-heal latency/depth histograms and delivery counters into it
        (O(1) memory however long the campaign runs).
    faults:
        A :class:`~repro.faults.FaultPlan` turning the network hostile:
        per-link loss (absorbed by the timeout/retransmit layer as
        virtual-time delay plus ``retransmitted`` tallies), duplication
        (cancelled by per-recipient seen-windows), and armed
        crash-during-heal kills (:meth:`arm_crash`).  The fault RNG is
        its own seeded stream (``2*seed+3`` unless the plan pins one),
        disjoint from the latency and scheduler streams, so a fault
        plan never perturbs the reliable part of the run.
    """

    def __init__(
        self,
        latency: LatencySpec = "uniform",
        scheduler: SchedulerSpec = "latency",
        seed: int = 0,
        max_depth: int = 4096,
        record_samples: bool = False,
        record_log: bool = False,
        tracer=NO_TRACE,
        profiler: Optional[PhaseProfiler] = None,
        metrics: Optional[MetricsRegistry] = None,
        faults: Optional[FaultPlan] = None,
    ):
        super().__init__(max_sub_rounds=max_depth)
        self.seed = seed
        self.tracer = tracer
        self.profiler = profiler
        self.metrics = metrics
        self.faults = faults if faults is not None and faults.active else None
        self._fault_rng = random.Random(
            faults.seed if faults is not None and faults.seed is not None
            else 2 * seed + 3
        )
        self.latency = resolve_latency(latency, seed=2 * seed + 1)
        self._scheduler = resolve_scheduler(scheduler, seed=2 * seed + 2)
        self.clock = 0.0
        self.delivered = 0
        self.event_log: List[LogRecord] = []
        self.record_samples = record_samples
        self.record_log = record_log
        self.samples: List[Tuple[float, int, int]] = []
        self.peak_open_heals = 0
        self.peak_queue_depth = 0
        self._seq = 0
        self._next_hid = 0
        # The event queue (module docstring): heal -> depth -> recipient
        # -> FIFO of envelopes in send order; a heal's front layer is
        # ``min`` of its (at most two) non-empty depths.  ``_waiting``
        # and ``_ready`` hold each frontier head exactly once, and only
        # for ordered policies; ``_queued``/``_open`` count what
        # ``_pending`` (per heal) would sum to.
        self._layers: Dict[int, Dict[int, Dict[int, Deque[Envelope]]]] = {}
        self._pending: Dict[int, int] = {}
        self._queued = 0
        self._open = 0
        self._ordered = (
            getattr(self._scheduler.pick, "__func__", None) is SchedulerPolicy.pick
        )
        self._waiting: List[Tuple[float, int, Envelope]] = []
        self._ready: List[Tuple[object, int, int, Envelope]] = []
        self._depth_seen: Dict[int, int] = {}
        self._heal_stats: Dict[int, HealStats] = {}
        self._ctx: Optional[Tuple[int, int]] = None
        self._compat_hid: Optional[int] = None
        # Tracing state: heal span ids, the open layer span per heal
        # (depth, span id), and the clock of each heal's last delivery
        # (layer spans close at their own last delivery, not at the next
        # layer's first — honest durations on the heal's own track).
        self._heal_span: Dict[int, int] = {}
        self._layer_span: Dict[int, Tuple[int, int]] = {}
        self._layer_last: Dict[int, float] = {}
        # Fault-plane state: per-sender reliable-delivery sequence
        # numbers, per-recipient seen-windows (dup suppression), the
        # armed crash (heal id, layer, victim), the crash record, and
        # the heals whose protocol invariants a crash voided (handler
        # errors inside them are counted, not raised — the repair pass
        # owns that state).
        self._send_seq: Dict[int, int] = {}
        self._seen: Dict[int, "OrderedDict[Tuple[int, int], None]"] = {}
        self._crash_armed: Optional[Tuple[int, int, int]] = None
        self._crashed_heals: Set[int] = set()
        self.crashed: List[Tuple[int, int]] = []

    @property
    def scheduler(self) -> SchedulerPolicy:
        """The delivery-order policy (fixed at construction)."""
        return self._scheduler

    # -- heal lifecycle ----------------------------------------------------
    def open_heal(
        self,
        label: str = "",
        round_no: Optional[int] = None,
        requested_at: Optional[float] = None,
    ) -> int:
        """Open an injection window: subsequent sends are this heal's
        depth-0 notifications.  Returns the heal id.

        ``requested_at`` back-dates the heal's request time for the
        lease-wait accounting: a heal deferred by the region-lease
        admission was *requested* when its churn event fired, even
        though it only injects now (see :attr:`HealStats.lease_wait`).
        """
        if self._ctx is not None:
            raise ProtocolError("open_heal while another context is active")
        hid = self._next_hid
        self._next_hid += 1
        self._heal_stats[hid] = HealStats(
            round=hid if round_no is None else round_no,
            hid=hid,
            injected_at=self.clock,
            label=label,
            requested_at=requested_at,
        )
        self._layers[hid] = {}
        self._pending[hid] = 0
        self._depth_seen[hid] = -1
        self._ctx = (hid, -1)
        if self.tracer.enabled:
            track = (PID_PROTOCOL, hid)
            self.tracer.meta(
                "thread_name", f"heal {hid}" + (f" ({label})" if label else ""),
                track,
            )
            self._heal_span[hid] = self.tracer.begin(
                f"heal:{label}" if label else f"heal:{hid}",
                "heal",
                self.clock,
                track,
                args={"hid": hid},
            )
        return hid

    def close_injection(self) -> int:
        """End the injection window (the heal then drains on its own)."""
        if self._ctx is None or self._ctx[1] != -1:
            raise ProtocolError("close_injection without an open injection")
        hid = self._ctx[0]
        self._ctx = None
        if self._pending[hid] == 0:
            self._finalize(hid)
        return hid

    def heal_pending(self, hid: int) -> int:
        """Messages of heal ``hid`` still queued (0 = quiesced)."""
        return self._pending.get(hid, 0)

    def open_heals(self) -> List[int]:
        """Heals currently in flight (injected, not yet quiesced)."""
        return sorted(self._pending)

    def heal_stats(self, hid: int) -> HealStats:
        return self._heal_stats[hid]

    def _finalize(self, hid: int) -> None:
        if self._crash_armed is not None and self._crash_armed[0] == hid:
            # The heal quiesced before reaching the armed layer: the
            # crash still lands, at the heal's last delivery.
            self._fire_crash()
        stats = self._heal_stats[hid]
        stats.quiesced_at = self.clock
        stats.sub_rounds = self._depth_seen.pop(hid) + 1
        del self._layers[hid]
        del self._pending[hid]
        self.stats_history.append(stats)
        if self.tracer.enabled:
            layer = self._layer_span.pop(hid, None)
            if layer is not None:
                self.tracer.end(layer[1], self._layer_last.pop(hid))
            self.tracer.end(
                self._heal_span.pop(hid),
                self.clock,
                # Exact floats, so a trace reader can rebuild the
                # summary's latency histogram bit-for-bit.
                args={
                    "heal_latency": stats.heal_latency,
                    "lease_wait": stats.lease_wait,
                    "sub_rounds": stats.sub_rounds,
                },
            )
        if self.metrics is not None:
            self.metrics.counter("kernel.heals").inc()
            self.metrics.histogram("kernel.heal_latency").observe(
                stats.heal_latency
            )
            self.metrics.histogram("kernel.heal_depth").observe(
                float(stats.sub_rounds)
            )

    # -- transport ---------------------------------------------------------
    def send(self, message: Message) -> None:
        """Queue a message; its heal/depth tag comes from the context."""
        if self._ctx is None:
            raise ProtocolError(
                "send outside a heal context (open_heal/begin_round first)"
            )
        hid, parent_depth = self._ctx
        depth = parent_depth + 1
        if depth > self.max_sub_rounds:
            raise ProtocolError(
                f"heal {hid}: no quiescence after {self.max_sub_rounds} layers"
            )
        layers = self._layers[hid]
        if layers and depth < min(layers):
            # Only an injection interleaved with deliveries gets here: the
            # heal's deeper messages have started landing, so queueing a
            # shallower one now would reorder across the layering rule.
            raise ProtocolError(
                f"heal {hid}: depth-{depth} send while its front layer is "
                f"{min(layers)} (deliveries ran inside the injection window)"
            )
        stats = self._heal_stats[hid]
        stats.sent[message.sender] = stats.sent.get(message.sender, 0) + 1
        stats.bits += message.id_count() * self._id_bits + 8
        extra_delay = 0.0
        send_seq = -1
        lost = 0
        dup_seq = -1
        if self.faults is not None:
            extra_delay, send_seq, lost, dup_seq = self._apply_link_faults(
                message, hid, depth, stats
            )
        delay = self.latency.sample(message.sender, message.recipient)
        env = Envelope(
            self.clock + extra_delay + delay,
            self._seq,
            message,
            hid,
            depth,
            send_seq=send_seq,
        )
        self._seq += 1
        self._enqueue(env)
        if self.record_log:
            # One typed record per logical event, all stamped with the
            # envelope sequence numbers delivery records echo back — the
            # happens-before join key of the audit layer.
            t = round(self.clock, 9)
            name = type(message).__name__
            sender, recipient = message.sender, message.recipient
            self.event_log.append(
                SendRecord(
                    t, hid, depth, sender, recipient,
                    msg=name, seq=env.seq, ids=message.id_count(),
                )
            )
            for _ in range(lost):
                self.event_log.append(
                    DropRecord(t, hid, depth, sender, recipient,
                               msg=name, seq=env.seq)
                )
            if dup_seq >= 0:
                self.event_log.append(
                    DupRecord(t, hid, depth, sender, recipient,
                              msg=name, seq=dup_seq)
                )
        self._sample()

    def _apply_link_faults(
        self, message: Message, hid: int, depth: int, stats: HealStats
    ) -> Tuple[float, int, int, int]:
        """Draw this send's losses and duplication from the fault RNG.

        Loss is absorbed by the timeout/retransmit layer at send time:
        the number of consecutively lost attempts is drawn up front
        (per-attempt Bernoulli, capped at ``max_attempts - 1`` so the
        final attempt always delivers) and realized as the sum of the
        exponentially backed-off timeouts — one *delivered* envelope,
        arriving late, with the losses and re-sends tallied.  This keeps
        the heal's causal layering exact (a retransmitted message is
        still a depth-``d`` message, just a slower one) and the fault
        RNG stream consumption independent of delivery order.
        Duplication enqueues a second envelope sharing the send's
        reliable-delivery sequence number; the recipient's seen-window
        cancels it.

        Returns ``(extra_delay, send_seq, lost, dup_seq)`` — the caller
        (:meth:`send`) writes the event-log records, because the
        logical send's own envelope sequence number does not exist yet
        here (the duplicate envelope is allocated first, on purpose:
        envelope sequence numbers drive per-recipient FIFO and the
        scheduler tie-breaks, and the pinned determinism artifacts
        depend on that allocation order).  ``dup_seq`` is the duplicate
        envelope's sequence number, ``-1`` when no duplicate was drawn.
        """
        assert self.faults is not None
        plan = self.faults
        sender, recipient = message.sender, message.recipient
        p_drop, p_dup = plan.link(sender, recipient)
        send_seq = self._send_seq.get(sender, 0)
        self._send_seq[sender] = send_seq + 1
        lost = 0
        while (
            p_drop > 0.0
            and lost + 1 < plan.max_attempts
            and self._fault_rng.random() < p_drop
        ):
            lost += 1
        extra_delay = 0.0
        if lost:
            stats.dropped += lost
            stats.retransmitted[sender] = (
                stats.retransmitted.get(sender, 0) + lost
            )
            extra_delay = plan.retransmit_delay(lost)
            if self.tracer.enabled:
                self.tracer.instant(
                    "fault:drop",
                    "fault",
                    self.clock,
                    (PID_PROTOCOL, hid),
                    args={"s": sender, "r": recipient, "lost": lost},
                )
            if self.metrics is not None:
                self.metrics.counter("faults.drops").inc(lost)
                self.metrics.counter("faults.retransmissions").inc(lost)
        dup_seq = -1
        if p_dup > 0.0 and self._fault_rng.random() < p_dup:
            stats.duplicated += 1
            dup_delay = self.latency.sample(sender, recipient)
            dup = Envelope(
                self.clock + extra_delay + dup_delay,
                self._seq,
                message,
                hid,
                depth,
                send_seq=send_seq,
            )
            dup_seq = dup.seq
            self._seq += 1
            self._enqueue(dup)
            if self.tracer.enabled:
                self.tracer.instant(
                    "fault:dup",
                    "fault",
                    self.clock,
                    (PID_PROTOCOL, hid),
                    args={"s": sender, "r": recipient},
                )
            if self.metrics is not None:
                self.metrics.counter("faults.duplicates").inc()
        return extra_delay, send_seq, lost, dup_seq

    # -- the event queue ----------------------------------------------------
    def _enqueue(self, env: Envelope) -> None:
        """File ``env`` under (heal, depth, recipient); it joins the
        frontier iff it starts a FIFO in its heal's front layer."""
        hid = env.heal
        layers = self._layers[hid]
        layer = layers.get(env.depth)
        if layer is None:
            layer = layers[env.depth] = {}
        recipient = env.message.recipient
        fifo = layer.get(recipient)
        if fifo is None:
            fifo = layer[recipient] = deque()
        fifo.append(env)
        if len(fifo) == 1 and env.depth == min(layers):
            self._expose(env)
        queued = self._pending[hid]
        self._pending[hid] = queued + 1
        self._queued += 1
        if not queued:
            self._open += 1

    def _expose(self, env: Envelope) -> None:
        """``env`` just became a frontier head."""
        if self._ordered:
            heappush(self._waiting, (env.deliver_at, env.seq, env))

    def _arrived_heads(self, horizon: float) -> List[Envelope]:
        """The legal set as a list, for positional policies: front layer
        per heal, per-recipient FIFO head, arrived within the horizon —
        ordered by (heal id, send order)."""
        out: List[Envelope] = []
        for layers in self._layers.values():  # opened, so keyed, in heal-id order
            if layers:
                heads = [fifo[0] for fifo in layers[min(layers)].values()]
                heads.sort(key=_send_order)
                out.extend(e for e in heads if e.deliver_at <= horizon)
        return out

    def _next(self, horizon: float) -> Optional[Envelope]:
        """The envelope the policy lands next among those legal to
        deliver by ``horizon`` (``None``: nothing is).

        Legal means: front layer of its heal, head of its recipient's
        FIFO within that layer, arrived within the horizon.  The second
        rule mirrors the synchronous model, which hands each node its
        sub-round messages as one send-ordered sequence; the Forgiving
        Tree handlers rely on that per-inbox order (e.g. a bypass
        brokerage intro and the matching hello must land in order), so a
        reordering across it is not a *legal* interleaving.  Everything
        else — across recipients, across heals — is fair game for the
        scheduler.
        """
        if not self._ordered:
            heads = self._arrived_heads(horizon)
            return self._scheduler.pick(heads) if heads else None
        waiting, ready, key = self._waiting, self._ready, self._scheduler.key
        while True:
            while waiting and waiting[0][0] <= horizon:
                env = heappop(waiting)[2]
                # Ties in a policy's key fall to (heal id, send order),
                # as ``min`` over the positional list would break them.
                heappush(ready, (key(env), env.heal, env.seq, env))
            if not ready:
                return None
            env = heappop(ready)[3]
            if env.deliver_at <= horizon:
                return env
            # Readied by an unbounded drain that stopped early; this
            # (finite) horizon does not reach it yet.
            heappush(waiting, (env.deliver_at, env.seq, env))

    def _deliver(self, env: Envelope) -> None:
        hid = env.heal
        recipient = env.message.recipient
        try:
            layers = self._layers[hid]
            layer = layers[env.depth]
            fifo = layer[recipient]
        except KeyError:  # a closed heal, an emptied layer or inbox
            fifo = None
        if not fifo or fifo[0] is not env or env.depth != min(layers):
            # Checked before anything is popped or counted: a bad pick
            # leaves the queue exactly as it was.
            raise ProtocolError(
                f"scheduler {self.scheduler.name!r} picked an envelope "
                "outside the deliverable set"
            )
        fifo.popleft()
        if fifo:
            self._expose(fifo[0])
        else:
            del layer[recipient]
            if not layer:
                del layers[env.depth]
                if layers:  # the next layer opens: all its heads surface
                    for opened in layers[min(layers)].values():
                        self._expose(opened[0])
        queued = self._pending[hid] - 1
        self._pending[hid] = queued
        self._queued -= 1
        if not queued:
            self._open -= 1
        self.clock = max(self.clock, env.deliver_at)
        self._depth_seen[env.heal] = max(self._depth_seen[env.heal], env.depth)
        if (
            self._crash_armed is not None
            and env.heal == self._crash_armed[0]
            and env.depth > self._crash_armed[1]
        ):
            self._fire_crash()
        msg = env.message
        if self.tracer.enabled:
            self._trace_delivery(env, msg)
        stats = self._heal_stats[env.heal]
        node = self.nodes.get(msg.recipient)
        # Duplicate suppression runs *before* the liveness check (and
        # dead-dropped copies still record their seen-window key), so
        # exactly one envelope of every duplicated send is suppressed —
        # ``duplicated == dup_suppressed`` holds even when the other
        # copy landed on a dead recipient.
        if env.send_seq >= 0 and self._is_duplicate(env):
            # The seen-window already holds this (sender, seq): a
            # network-duplicated copy whose original landed.  Suppress —
            # the handler never runs, ``received`` parity is preserved.
            stats.dup_suppressed += 1
            if self.record_log:
                # Exactly one record per arrival, written *after*
                # classification: a suppressed copy is not a delivery,
                # so the log's deliver records match ``received``
                # node-for-node (the audit accounting certificate).
                self.event_log.append(
                    DupSuppressedRecord(
                        round(self.clock, 9), env.heal, env.depth,
                        msg.sender, msg.recipient,
                        msg=type(msg).__name__, seq=env.seq,
                    )
                )
            if self.metrics is not None:
                self.metrics.counter("faults.dup_suppressed").inc()
        elif node is None:
            # Recipient died (deleted, or crashed without announcing):
            # the message is dropped *permanently* — the retransmit
            # layer re-sends lost messages, not messages to the dead —
            # and the drop is counted, never silent.
            stats.dead_drops += 1
            if self.record_log:
                self.event_log.append(
                    DeadDropRecord(
                        round(self.clock, 9), env.heal, env.depth,
                        msg.sender, msg.recipient,
                        msg=type(msg).__name__, seq=env.seq,
                    )
                )
            if self.metrics is not None:
                self.metrics.counter("kernel.dead_drops").inc()
        else:
            stats.received[msg.recipient] = (
                stats.received.get(msg.recipient, 0) + 1
            )
            if self.record_log:
                self.event_log.append(
                    DeliverRecord(
                        round(self.clock, 9), env.heal, env.depth,
                        msg.sender, msg.recipient,
                        msg=type(msg).__name__, seq=env.seq,
                    )
                )
            prev = self._ctx
            self._ctx = (env.heal, env.depth)
            self._touched.add(msg.recipient)
            try:
                if self.profiler is None:
                    node.handle(msg)
                else:
                    t0 = time.perf_counter_ns()
                    node.handle(msg)
                    self.profiler.add(
                        "deliver:" + type(msg).__name__,
                        time.perf_counter_ns() - t0,
                    )
            except ProtocolError:
                # Inside a heal whose coordinator crashed, the protocol
                # invariants are already void (that is what the crash
                # *means*); count the handler's complaint and let the
                # repair pass restore legality.  Any other heal's error
                # is a real bug and propagates.
                if env.heal not in self._crashed_heals:
                    raise
                stats.handler_faults += 1
                if self.metrics is not None:
                    self.metrics.counter("faults.handler_faults").inc()
            finally:
                self._ctx = prev
        self.delivered += 1
        if self.metrics is not None:
            self.metrics.counter("kernel.delivered").inc()
        if self._pending[env.heal] == 0:
            self._finalize(env.heal)
        self._sample()

    def _is_duplicate(self, env: Envelope) -> bool:
        """Check-and-record against the recipient's seen-window."""
        assert self.faults is not None
        window = self._seen.setdefault(env.message.recipient, OrderedDict())
        key = (env.message.sender, env.send_seq)
        if key in window:
            return True
        window[key] = None
        while len(window) > self.faults.seen_window:
            window.popitem(last=False)
        return False

    def _trace_delivery(self, env: Envelope, msg: Message) -> None:
        """Span bookkeeping for one delivery: roll the heal's layer span
        when the causal depth advances, mark the delivery itself."""
        hid = env.heal
        track = (PID_PROTOCOL, hid)
        layer = self._layer_span.get(hid)
        if layer is None or layer[0] != env.depth:
            if layer is not None:
                self.tracer.end(layer[1], self._layer_last[hid])
            sid = self.tracer.begin(
                f"layer-{env.depth}",
                "layer",
                self.clock,
                track,
                args={"depth": env.depth},
                parent=self._heal_span[hid],
            )
            self._layer_span[hid] = (env.depth, sid)
        self._layer_last[hid] = self.clock
        self.tracer.instant(
            "deliver:" + type(msg).__name__,
            "msg",
            self.clock,
            track,
            args={
                "s": msg.sender,
                "r": msg.recipient,
                "depth": env.depth,
                "dropped": msg.recipient not in self.nodes,
            },
        )

    # -- fault plane -------------------------------------------------------
    def arm_crash(self, hid: int, layer: int, victim: int) -> None:
        """Arm a crash-during-heal: kill ``victim`` at heal ``hid``'s
        first delivery deeper than ``layer`` (between delivery layers),
        or at the heal's quiescence if it never gets that deep.

        The victim dies *silently* — no ``Deleted`` notification, unlike
        the model's announced departures: queued messages **to** it
        become counted dead-recipient drops, messages already sent
        **by** it still deliver (they were in flight), and its
        neighbors' state dangles until a :class:`~repro.faults.RepairPass`
        re-converges the overlay.
        """
        if victim not in self.nodes:
            raise ProtocolError(f"crash victim {victim} is not alive")
        if self._crash_armed is not None:
            raise ProtocolError("a crash is already armed")
        self._crash_armed = (hid, layer, victim)

    def _fire_crash(self) -> None:
        assert self._crash_armed is not None
        hid, _layer, victim = self._crash_armed
        self._crash_armed = None
        self._departed(victim)
        self.nodes.pop(victim, None)
        # The victim's seen-window outlives it on purpose: a duplicate
        # racing the crash must still find its original's key, keeping
        # ``duplicated == dup_suppressed`` exact.  (:meth:`adopt` clears
        # the windows once the kernel is drained.)
        self._crashed_heals.add(hid)
        self.crashed.append((hid, victim))
        if self.record_log:
            self.event_log.append(
                CrashRecord(round(self.clock, 9), hid, -1, victim, -1)
            )
        if self.tracer.enabled:
            self.tracer.instant(
                "fault:crash",
                "fault",
                self.clock,
                (PID_PROTOCOL, hid),
                args={"victim": victim},
            )
        if self.metrics is not None:
            self.metrics.counter("faults.crashes").inc()

    def adopt(self, nodes) -> None:
        """Replace the membership wholesale (the repair pass's node
        transplant): the kernel must be fully drained — no envelope may
        reference a node about to be discarded.  Seen-windows and the
        kept image reset with the nodes; sequence numbers keep counting
        (stale-window dups are impossible across a reset, duplicate
        seqnos would not be)."""
        if self._queued:
            raise ProtocolError("adopt on a kernel with messages in flight")
        self.nodes.clear()
        self._seen.clear()
        self.forget_image()
        for node in nodes:
            self.register(node)

    def run_until(self, horizon: float) -> None:
        """Deliver every message that can legally land by ``horizon``
        (new sends included, as long as they arrive in time)."""
        while (env := self._next(horizon)) is not None:
            self._deliver(env)
        if horizon != math.inf:
            self.clock = max(self.clock, horizon)

    def quiesce(self) -> None:
        """Drain the queue completely (the epoch barrier primitive)."""
        self.run_until(math.inf)

    def drain_heals(self, hids) -> None:
        """Deliver until every heal in ``hids`` has quiesced.

        The targeted-drain primitive of the region-lease path: unlike
        :meth:`quiesce` it stops as soon as the named heals are done, so
        unrelated in-flight repairs keep their queued messages (and the
        clock only advances as far as the deliveries actually made).
        Deliveries are still scheduler-picked among *all* deliverable
        messages — stopping early narrows the drain, never the legality
        of the interleaving.
        """
        targets = {h for h in hids if self._pending.get(h, 0) > 0}
        while targets:
            env = self._next(math.inf)
            if env is None:  # pragma: no cover - defensive
                raise ProtocolError(
                    f"heals {sorted(targets)} pending but nothing deliverable"
                )
            self._deliver(env)
            if not self._pending.get(env.heal):  # it quiesced just now
                targets.discard(env.heal)

    def log_control(self, tag: str, ref: int) -> None:
        """Record a control transition (lease grant/release, handoff,
        escalation) as a first-class entry in the causal event log.

        Control entries are :class:`~repro.audit.schema.ControlRecord`
        rows (sender/recipient/depth of ``-1``), so the pinned
        determinism artifacts interleave protocol traffic and admission
        decisions on one timeline.  ``ref`` is a *kernel heal id* for
        post-injection entries (``lease-grant``/``lease-release`` —
        these correlate directly with the heal's delivery rows) and an
        *admission-layer event id* for pre-injection entries
        (``lease-defer``/``lease-resume``/``lease-escalate-*``, whose
        heal does not exist yet); the tag says which id space applies.
        Also mirrored onto the tracer's control track (lease grant /
        defer / resume / escalate as span events) when tracing is on;
        otherwise a no-op unless ``record_log``.
        """
        if self.record_log:
            self.event_log.append(
                ControlRecord(round(self.clock, 9), ref, -1, -1, -1, ctl=tag)
            )
        if self.tracer.enabled:
            self.tracer.instant(
                tag, "control", self.clock, CONTROL_TRACK, args={"ref": ref}
            )

    def trace_instant(self, name: str, **args) -> None:
        """Driver-level trace mark (overrides the sync network's no-op):
        stamped with the virtual clock, on the current heal's track when
        a heal context is open, else on the control track."""
        if self.tracer.enabled:
            track = (
                (PID_PROTOCOL, self._ctx[0]) if self._ctx is not None
                else CONTROL_TRACK
            )
            self.tracer.instant(name, "driver", self.clock, track, args=args)

    # -- instrumentation ---------------------------------------------------
    def _sample(self) -> None:
        open_heals, queued = self._open, self._queued
        if open_heals > self.peak_open_heals:
            self.peak_open_heals = open_heals
        if queued > self.peak_queue_depth:
            self.peak_queue_depth = queued
        if self.record_samples:
            self.samples.append((self.clock, open_heals, queued))
        if self.tracer.enabled:
            self.tracer.counter(
                "in-flight",
                self.clock,
                {"heals": open_heals, "queued": queued},
            )

    def in_flight(self) -> Tuple[int, int]:
        """Current ``(open heals, queued messages)``."""
        return self._open, self._queued

    # -- synchronous-Network compatibility ---------------------------------
    # The drivers' own delete()/insert()/setup paths call
    # begin_round/run_round; on this transport each such round is one heal
    # injected and immediately drained (per-event quiescence, but with
    # latency-ordered delivery).  Concurrent operation goes through
    # open_heal/close_injection + run_until/quiesce instead.
    def begin_round(self, round_no: int) -> None:
        self._compat_hid = self.open_heal(
            label=f"round-{round_no}", round_no=round_no
        )

    def run_round(self, round_no: int) -> RoundStats:
        if self._ctx is not None:
            self.close_injection()
        self.quiesce()
        assert self._compat_hid is not None
        stats = self._heal_stats[self._compat_hid]
        self._compat_hid = None
        return stats
