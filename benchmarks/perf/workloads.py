"""The seven seeded workloads and what one repetition of each observes.

Every workload is a closed loop with one client: the adversary sees the
healed graph before its next move.  Inputs (graph, adversary, transport
spec, fault plan, soak config) are generated here from ``--seed``; the
program under test only ever receives those generated inputs, through
its production entry points (``run_churn_campaign``, ``run_campaign``,
``SoakService.run``).

Sizes are the largest that keep three repetitions inside one
``run_seconds`` window of ``BENCHMARK.json`` (see README "Sizes"): the
issue's event counts were cut, never ``n`` and never a workload.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.adversaries import (
    GrowthThenMassacreAdversary,
    MaxDegreeAdversary,
    OverlapChurnAdversary,
    RandomChurnAdversary,
)
from repro.baselines.forgiving import ForgivingTreeHealer
from repro.core.errors import ReproError
from repro.faults.plan import CrashDuringHeal, FaultPlan
from repro.fgraph.healer import ForgivingGraphHealer
from repro.graphs.adjacency import Graph
from repro.graphs.generators import preferential_attachment, random_tree
from repro.harness import run_campaign, run_churn_campaign
from repro.obs.spec import ObsSpec
from repro.simnet.transport import TransportSpec
from repro.soak import SoakConfig, SoakService

_now = time.perf_counter_ns

#: Scratch space for the soak's checkpoints and any flight-recorder dump
#: (inside the checkout: the benchmark writes nowhere else).
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def derive(seed: int, label: str) -> int:
    """A sub-seed for one component; every input derives from ``--seed``."""
    return random.Random(f"{seed}/{label}").getrandbits(31)


class Probe:
    """What the benchmark sees from outside a runner, tracing on or off:
    the first ``adversary.reset()`` (end of the setup phase) and the
    instant of every ``on_round`` callback."""

    def __init__(self, tracer=None, shims=()) -> None:
        self.tracer = tracer
        self.shims = shims
        self.reset_ns: Optional[int] = None
        self.stamps: List[int] = []

    @contextmanager
    def root(self):
        """The measured region of one repetition (traced: the root span,
        with the layer shims installed for exactly its duration)."""
        if self.tracer is None:
            yield
            return
        with self.tracer.installed(self.shims):
            with self.tracer.span("harness.run", "harness"):
                yield

    def watch_reset(self, adversary) -> None:
        inner = adversary.reset

        def reset() -> None:
            if self.reset_ns is None:
                self.reset_ns = _now()
            inner()

        adversary.reset = reset

    def on_round(self, record, healer) -> None:
        self.stamps.append(_now())
        if self.tracer is not None:
            self.tracer.event += 1


@dataclass
class Outcome:
    """One repetition of one workload."""

    attempted: int
    completed: int = 0
    setup_s: float = 0.0
    run_s: float = 0.0
    #: Host time per event, ms (soak: per-window means, see README).
    event_ms: List[float] = field(default_factory=list)
    #: Simulated metrics — functions of the seed, must repeat exactly.
    sim: Dict[str, float] = field(default_factory=dict)
    #: Per-layer counts read off the runner's own result objects
    #: (deterministic: folded into ``sim_digest``).
    counts: Dict[str, float] = field(default_factory=dict)
    #: Per-layer numbers that depend on the host (not digested).
    host: Dict[str, float] = field(default_factory=dict)
    #: Further deterministic tallies folded into ``sim_digest``.
    tallies: Dict[str, object] = field(default_factory=dict)
    checks: List[Tuple[str, bool]] = field(default_factory=list)
    error: Optional[str] = None

    def check(self, name: str, ok: bool) -> None:
        self.checks.append((name, bool(ok)))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    run: Callable[..., Outcome]
    #: Keyword sizes for ``run``: the measured scale, and the smoke test's.
    full: Dict[str, int]
    quick: Dict[str, int]


# -- campaigns ---------------------------------------------------------------
def _campaign(
    runner, healer_cls, graph, adversary, attempted: int, probe: Probe, **kwargs
) -> Outcome:
    """Build the healer, play the campaign, read the result."""
    out = Outcome(attempted=attempted)
    probe.watch_reset(adversary)
    result = None
    with probe.root():
        t0 = _now()
        try:
            healer = healer_cls(graph)
            result = runner(healer, adversary, on_round=probe.on_round, **kwargs)
        except ReproError as exc:  # counted, never fatal: the suite keeps going
            out.error = f"{type(exc).__name__}: {exc}"
        t_end = _now()
    reset_ns = probe.reset_ns if probe.reset_ns is not None else t_end
    out.setup_s = (reset_ns - t0) / 1e9
    out.run_s = (t_end - reset_ns) / 1e9
    stamps = probe.stamps
    out.event_ms = [
        (b - a) / 1e6 for a, b in zip([reset_ns] + stamps[:-1], stamps)
    ]
    if result is None:
        out.completed = len(stamps)
        out.check("completed", False)
        return out
    out.completed = result.n_inserts + result.n_deletes
    out.check("completed", out.completed == attempted)
    out.check("degree_increase<=3", result.peak_degree_increase <= 3)
    out.check("stayed_connected", result.stayed_connected)
    out.sim["sim.peak_degree_increase"] = result.peak_degree_increase
    out.sim["sim.peak_msgs_per_node"] = result.peak_messages_per_node
    out.sim["sim.final_alive"] = result.final_alive
    if result.initial_diameter:
        out.sim["sim.peak_stretch"] = result.peak_stretch
    _read_transport(out, result)
    return out


def _read_transport(out: Outcome, result) -> None:
    t = result.transport
    if t is None:
        return
    c = out.counts
    c["simnet.barriers"] = t.barriers
    c["simnet.peak_queue_depth"] = t.peak_queue_depth
    c["simnet.peak_in_flight_heals"] = t.peak_in_flight_heals
    c["distributed.msgs_delivered"] = t.messages_delivered
    c["distributed.peak_sub_rounds"] = t.peak_sub_rounds
    c["regions.conflict_barriers"] = t.conflict_barriers
    if t.mode == "async":
        heal = t.heal_latency_percentiles
        out.sim["sim.msgs_per_event"] = t.messages_delivered / max(1, t.events)
        out.sim["sim.heal_vt_p50"] = heal["p50"]
        out.sim["sim.heal_vt_p99"] = heal["p99"]
        out.sim["sim.makespan_vt"] = t.makespan
        wait = t.lease_wait_percentiles
        c["regions.lease_grants"] = t.lease_grants
        c["regions.lease_waits"] = t.lease_waits
        c["regions.escalations"] = t.total_escalations
        c["regions.wait_vt_p50"] = wait["p50"]
        c["regions.wait_vt_p99"] = wait["p99"]
        c["regions.grant_ratio"] = t.lease_grants / max(1, t.events)
        out.tallies["escalations"] = dict(sorted(t.escalations.items()))
    f = t.faults
    if f is not None:
        for key in ("drops", "retransmissions", "duplicates", "dup_suppressed",
                    "dead_drops", "crashes", "unrepaired_violations"):
            c[f"faults.{key}"] = getattr(f, key)
        c["faults.msg_overhead_pct"] = (
            100.0 * (f.retransmissions + f.duplicates) / max(1, t.messages_delivered)
        )
        out.tallies["faults"] = f.to_dict()
        out.check("retransmissions==drops", f.retransmissions == f.drops)
        out.check("dup_suppressed==duplicates", f.dup_suppressed == f.duplicates)
        out.check("unrepaired_violations==0", f.unrepaired_violations == 0)
    if t.event_log is not None:
        c["obs.log_records"] = len(t.event_log)
    audit = result.audit
    if audit is not None:
        c["audit.heals_certified"] = len(audit.certificates)
        c["audit.violations"] = len(audit.violations)
        out.check("audit.ok", audit.ok)


def deep_random_tree(n: int, seed: int, window: int = 256) -> Graph:
    """A random tree of *concentrated* depth: node ``i`` hangs under a
    uniform choice among the ``window`` nodes before it.

    Degrees are Poisson-like, as in the uniform random tree, but the
    depth of node ``i`` is a sum of ``~2i/window`` independent steps, so
    the diameter (about 1000-1120 at n = 100k) barely moves with the
    seed.  A uniform random tree's depth is Rayleigh-distributed
    (diameter 916-1664 over six seeds), which moved the tracker workload
    by +-30 % from seed to seed — more than any admissible bound.
    """
    rng = random.Random(seed)
    graph: Graph = {i: set() for i in range(n)}
    for i in range(1, n):
        parent = i - 1 - rng.randrange(min(i, window))
        graph[i].add(parent)
        graph[parent].add(i)
    return graph


def _churn_inputs(seed: int, n: int):
    """``churn_tree`` and ``churn_tracked`` share tree, adversary and
    stream prefix: the tracker is the only difference between them."""
    graph = deep_random_tree(n, seed=derive(seed, "tree"))
    adversary = RandomChurnAdversary(
        p_insert=0.5, seed=derive(seed, "adversary"), fast_sample=True
    )
    return graph, adversary


def churn_tree(seed: int, probe: Probe, n: int, events: int) -> Outcome:
    graph, adversary = _churn_inputs(seed, n)
    return _campaign(
        run_churn_campaign, ForgivingTreeHealer, graph, adversary, events, probe,
        events=events, metrics="none", keep_rounds=False,
        seed=derive(seed, "campaign"),
    )


def churn_tracked(seed: int, probe: Probe, n: int, events: int) -> Outcome:
    graph, adversary = _churn_inputs(seed, n)
    return _campaign(
        run_churn_campaign, ForgivingTreeHealer, graph, adversary, events, probe,
        events=events, metrics="incremental", keep_rounds=False,
        seed=derive(seed, "campaign"),
    )


def deletion_game(seed: int, probe: Probe, n: int, events: int) -> Outcome:
    graph = preferential_attachment(n, 2, seed=derive(seed, "graph"))
    return _campaign(
        run_campaign, ForgivingTreeHealer, graph, MaxDegreeAdversary(), events,
        probe, rounds=events, transport="sync", seed=derive(seed, "campaign"),
    )


class JoinAtAdversary(OverlapChurnAdversary):
    """The overlap-seeking adversary, except that the events at the
    given indices are joins.

    ``hostile_audit`` aims its planned crashes at those events: a join's
    coordinator is its attachment point, alive in the oracle and
    therefore in the mirror once earlier events are flushed.  A
    deletion's coordinator is read from the mirror *before* the
    escalation barrier flushes the lease-deferred events, one of which
    may kill it (``ProtocolError: crash victim ... is not alive``, README
    finding d) — an input on which an operation fails is not a benchmark
    input.
    """

    def __init__(self, join_at=(), **kwargs) -> None:
        super().__init__(**kwargs)
        self.join_at = frozenset(join_at)
        self._index = 0

    def next_event(self, healer):
        p_insert = self.p_insert
        if self._index in self.join_at:
            self.p_insert = 1.0
        try:
            return super().next_event(healer)
        finally:
            self.p_insert = p_insert
            self._index += 1

    def reset(self) -> None:
        super().reset()
        self._index = 0


def _async_inputs(seed: int, n: int, join_at=()):
    graph = random_tree(n, seed=derive(seed, "tree"))
    adversary = JoinAtAdversary(
        join_at, p_insert=0.4, p_overlap=0.5, p_coordinator=0.02,
        seed=derive(seed, "adversary"),
    )
    spec = TransportSpec(
        mode="async", overlap="lease", latency="heavy-tail", gap=0.05,
        barrier_every=64, seed=derive(seed, "transport"),
    )
    return graph, adversary, spec


def async_lease(seed: int, probe: Probe, n: int, events: int) -> Outcome:
    graph, adversary, spec = _async_inputs(seed, n)
    return _campaign(
        run_churn_campaign, ForgivingTreeHealer, graph, adversary, events, probe,
        events=events, metrics="none", transport=spec,
        seed=derive(seed, "campaign"),
    )


#: Mirror event indices of ``hostile_audit``'s two planned crashes.  Early:
#: recovery replays the oracle history into a fresh driver and fails once
#: that history holds a dangling leaf-will pointer, which appears anywhere
#: from event ~90 on depending on the seed (README findings a, b); at 8
#: and 24 none of 200 seeds tripped.
CRASH_EVENTS = (8, 24)


def hostile_audit(seed: int, probe: Probe, n: int, events: int) -> Outcome:
    crash_a, crash_b = CRASH_EVENTS
    # The mirror counts the first crash's recovery as an event of its
    # own, so its event ``crash_b`` is the adversary's ``crash_b - 1``.
    graph, adversary, spec = _async_inputs(seed, n, join_at=(crash_a, crash_b - 1))
    plan = FaultPlan(
        drop=0.05, dup=0.02,
        crashes=(CrashDuringHeal(crash_a), CrashDuringHeal(crash_b)),
    )
    # obs="audit" with the flight recorder's failure dump kept in-tree.
    obs = ObsSpec(audit=True, recorder=512, recorder_dir=OUT_DIR)
    os.makedirs(OUT_DIR, exist_ok=True)
    out = _campaign(
        run_churn_campaign, ForgivingTreeHealer, graph, adversary, events, probe,
        events=events, metrics="none", transport=spec, faults=plan, obs=obs,
        seed=derive(seed, "campaign"),
    )
    if out.error is None:
        out.check("crashes_fired", out.counts.get("faults.crashes") == len(CRASH_EVENTS))
        out.check("audited", "audit.heals_certified" in out.counts)
    return out


def fg_massacre(seed: int, probe: Probe, n: int, events: int, growth: int) -> Outcome:
    graph = preferential_attachment(n, 2, seed=derive(seed, "graph"))
    adversary = GrowthThenMassacreAdversary(
        growth=growth, seed=derive(seed, "adversary")
    )
    return _campaign(
        run_churn_campaign, ForgivingGraphHealer, graph, adversary, events, probe,
        events=events, seed=derive(seed, "campaign"),
    )


# -- the soak service --------------------------------------------------------
def soak(
    seed: int, probe: Probe, n: int, events: int, window: int, checkpoint_every: int
) -> Outcome:
    out = Outcome(attempted=events)
    os.makedirs(OUT_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix="soak-", dir=OUT_DIR)
    try:
        config = SoakConfig(
            out_dir=work, n0=n, events=events, seed=derive(seed, "soak"),
            window=window, checkpoint_every=checkpoint_every, crossval=0,
            sample_every=max(1, window // 5),
        )
        try:
            with probe.root():
                t0 = _now()
                summary = SoakService(config).run()
                wall_s = (_now() - t0) / 1e9
        except ReproError as exc:
            out.error = f"{type(exc).__name__}: {exc}"
            out.check("completed", False)
            return out
        det, op = summary["deterministic"], summary["op"]
        windows = _read_telemetry(out, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out.completed = det["segment_events"]
    out.run_s = op["wall_s"]
    out.setup_s = wall_s - op["wall_s"]
    # The service owns on_round, so per-event gaps are not observable
    # from outside: the samples are its own windows' mean event times.
    out.event_ms = [1e3 * w["op"]["wall_s"] / w["events"] for w in windows]
    n_windows = math.ceil(events / window)
    n_checkpoints = math.ceil(n_windows / checkpoint_every)
    out.check("completed", out.completed == events)
    out.check("degree_increase<=3", det["peak_degree_increase"] <= 3)
    out.check("windows", det["windows"] == n_windows == len(windows))
    out.check("checkpoints", det["checkpoints"] == n_checkpoints)
    out.sim["sim.peak_degree_increase"] = det["peak_degree_increase"]
    out.sim["sim.peak_stretch"] = det["peak_stretch"]
    out.sim["sim.final_alive"] = det["final_alive"]
    out.tallies["soak"] = {
        k: v for k, v in det.items() if k not in ("recorder_dump",)
    }
    rates = sorted(w["op"]["events_per_sec"] for w in windows)
    out.counts["soak.checkpoints"] = det["checkpoints"]
    out.host["soak.window_evps_p50"] = rates[len(rates) // 2]
    out.host["soak.window_evps_min"] = rates[0]
    out.counts["obs.window_records"] = len(windows)
    return out


def _read_telemetry(out: Outcome, work: str) -> List[dict]:
    path = os.path.join(work, "telemetry.jsonl")
    out.host["obs.telemetry_bytes"] = os.path.getsize(path)
    with open(path) as fh:
        records = [json.loads(line) for line in fh]
    return [r for r in records if r["kind"] == "window" and "op" in r]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "churn_tree",
            "Flat core + harness loop do all the work on a deep 100k-node tree; "
            "tracker, transport, obs, audit idle - the bypass workload for "
            "every other layer.",
            churn_tree,
            {"n": 100_000, "events": 25_000},
            {"n": 300, "events": 200},
        ),
        Workload(
            "churn_tracked",
            "Same tree, adversary and stream prefix as churn_tree plus the "
            "incremental diameter tracker on a deep tree: O(depth) bubbling "
            "dominates.",
            churn_tracked,
            {"n": 100_000, "events": 2_500},
            {"n": 300, "events": 200},
        ),
        Workload(
            "deletion_game",
            "The paper's own game: hub-killing deletions on a general graph, "
            "sync message rounds, O(n) graph()/degree-scan/BFS-sweep paths "
            "per round.",
            deletion_game,
            {"n": 3_000, "events": 400},
            {"n": 300, "events": 100},
        ),
        Workload(
            "async_lease",
            "simnet kernel + distributed drivers + region leases dominate "
            "(overlap-seeking churn, heavy-tail latency); faults and audit "
            "off.",
            async_lease,
            {"n": 2_000, "events": 1_500},
            {"n": 300, "events": 200},
        ),
        Workload(
            "hostile_audit",
            "async_lease plus 5% loss, 2% duplication, two early "
            "crash-during-heal kills and audit certification: only faults, "
            "obs log and audit are added.",
            hostile_audit,
            {"n": 2_000, "events": 1_500},
            {"n": 300, "events": 200},
        ),
        Workload(
            "fg_massacre",
            "Forgiving Graph hot path: merged-region RT rebuilds under a hub "
            "massacre after a growth wave, on a general graph.",
            fg_massacre,
            {"n": 1_200, "events": 350, "growth": 100},
            {"n": 200, "events": 100, "growth": 30},
        ),
        Workload(
            "soak",
            "Top of the stack as users run it: generator workload on a "
            "shallow tree, tracker, streaming telemetry, SLO watchdog, "
            "fsynced FTSNAP1 checkpoints.",
            soak,
            {"n": 50_000, "events": 15_000, "window": 1_500, "checkpoint_every": 4},
            {"n": 300, "events": 200, "window": 40, "checkpoint_every": 2},
        ),
    )
}
