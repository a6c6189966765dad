"""Tests for the hostile-network subsystem (repro.faults).

The walls the ISSUE demands: seeded fault determinism (same seed + same
FaultPlan => byte-identical causal event logs and retransmit counts,
across every latency model x scheduler, for FT and FG), exact
retransmit/duplicate parity invariants, counted dead-recipient drops on
both transports, the crash-during-heal acceptance campaign (drop +
duplication + a coordinator killed mid-heal converging to the oracle
image node-for-node, twice, identically), and the repair pass restoring
a deliberately corrupted overlay fixture.
"""

from collections import Counter

import pytest

from repro.adversaries.churn import (
    CHURN_ADVERSARY_CATALOG,
    HostileChurnAdversary,
    OverlapChurnAdversary,
    RandomChurnAdversary,
)
from repro.baselines.forgiving import ForgivingTreeHealer
from repro.core.errors import ProtocolError
from repro.distributed import DistributedForgivingTree
from repro.distributed.messages import Deleted
from repro.distributed.network import Network
from repro.faults import (
    CRASH_TARGETS,
    VIOLATION_KINDS,
    CrashDuringHeal,
    FaultPlan,
    LinkFaults,
    RepairPass,
    resolve_faults,
)
from repro.fgraph import DistributedForgivingGraph
from repro.fgraph.healer import ForgivingGraphHealer
from repro.graphs import generators
from repro.harness import run_campaign, run_churn_campaign
from repro.obs.slo import SloWatchdog, fault_slos
from repro.simnet import (
    LATENCY_CATALOG,
    SCHEDULER_CATALOG,
    AsyncNetwork,
    TransportSpec,
)

HEALERS = ((ForgivingTreeHealer, "ft"), (ForgivingGraphHealer, "fg"))


def _tree_graph(n, seed):
    return {k: set(v) for k, v in generators.random_tree(n, seed).items()}


def _faulted_run(
    healer_cls,
    plan,
    latency="uniform",
    scheduler="latency",
    overlap="serialize",
    seed=11,
    n=24,
    events=16,
    record_log=True,
    adversary=None,
):
    healer = healer_cls(_tree_graph(n, seed))
    spec = TransportSpec(
        mode="async",
        latency=latency,
        scheduler=scheduler,
        overlap=overlap,
        seed=seed,
        faults=plan,
        record_log=record_log,
    )
    adv = adversary or RandomChurnAdversary(p_insert=0.3, seed=seed)
    return run_churn_campaign(healer, adv, events=events, transport=spec, seed=seed)


# ----------------------------------------------------------------------
# the plan: validation, resolution, retransmit math
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(drop=1.0)  # needs headroom for the retransmit cap
        with pytest.raises(ValueError):
            FaultPlan(dup=1.5)
        with pytest.raises(ValueError):
            FaultPlan(rto=0.0)
        with pytest.raises(ValueError):
            FaultPlan(backoff=0.5)
        with pytest.raises(ValueError):
            FaultPlan(max_attempts=0)
        with pytest.raises(ValueError):
            FaultPlan(seen_window=0)
        with pytest.raises(ValueError):
            CrashDuringHeal(event=-1)
        with pytest.raises(ValueError):
            CrashDuringHeal(event=0, target="bystander")
        with pytest.raises(ValueError):
            FaultPlan(
                crashes=(CrashDuringHeal(event=2), CrashDuringHeal(event=2))
            )
        with pytest.raises(ValueError):
            FaultPlan(links={(0, 1): 0.5})  # values must be LinkFaults

    def test_active_and_links(self):
        assert not FaultPlan().active
        assert FaultPlan(drop=0.1).active
        assert FaultPlan(crashes=(CrashDuringHeal(event=0),)).active
        plan = FaultPlan(drop=0.1, links={(1, 2): LinkFaults(drop=0.5, dup=0.25)})
        assert plan.link(1, 2) == (0.5, 0.25)
        assert plan.link(2, 1) == (0.1, 0.0)  # overrides are directed
        assert plan.crash_for(0) is None
        crash = CrashDuringHeal(event=3, layer=2, target="participant")
        assert crash.target in CRASH_TARGETS
        plan = FaultPlan(crashes=(crash,))
        assert plan.crash_for(3) is crash

    def test_retransmit_delay_is_exponential_backoff(self):
        plan = FaultPlan(drop=0.1, rto=1.0, backoff=2.0)
        assert plan.retransmit_delay(0) == 0.0
        assert plan.retransmit_delay(1) == 1.0
        assert plan.retransmit_delay(3) == 1.0 + 2.0 + 4.0

    def test_resolve(self):
        assert resolve_faults(None) is None
        plan = FaultPlan(drop=0.2)
        assert resolve_faults(plan) is plan
        assert resolve_faults({"drop": 0.2, "dup": 0.1}) == FaultPlan(
            drop=0.2, dup=0.1
        )
        with pytest.raises(ValueError):
            resolve_faults(0.5)

    def test_faults_need_async_transport(self):
        with pytest.raises(ValueError):
            TransportSpec(mode="sync", faults=FaultPlan(drop=0.1))
        healer = ForgivingTreeHealer(_tree_graph(8, 1))
        with pytest.raises(ValueError):
            run_churn_campaign(
                healer,
                RandomChurnAdversary(seed=1),
                events=2,
                transport="sync",
                faults={"drop": 0.1},
            )


# ----------------------------------------------------------------------
# timeout/retransmit determinism: the pinned-artifact wall
# ----------------------------------------------------------------------
class TestFaultDeterminism:
    @pytest.mark.parametrize("scheduler", sorted(SCHEDULER_CATALOG))
    @pytest.mark.parametrize("latency", sorted(LATENCY_CATALOG))
    @pytest.mark.parametrize("healer_cls,tag", HEALERS)
    def test_same_seed_same_plan_identical_logs(
        self, healer_cls, tag, latency, scheduler
    ):
        plan = FaultPlan(drop=0.08, dup=0.04)
        runs = [
            _faulted_run(
                healer_cls, plan, latency=latency, scheduler=scheduler
            )
            for _ in range(2)
        ]
        a, b = (r.transport for r in runs)
        assert a.event_log == b.event_log and a.event_log
        assert a.faults.to_dict() == b.faults.to_dict()
        assert a.makespan == b.makespan

    def test_different_fault_seed_different_faults(self):
        base = FaultPlan(drop=0.15, dup=0.05, seed=1)
        other = FaultPlan(drop=0.15, dup=0.05, seed=2)
        a = _faulted_run(ForgivingTreeHealer, base).transport
        b = _faulted_run(ForgivingTreeHealer, other).transport
        assert a.event_log != b.event_log

    def test_oracle_stream_is_fault_invariant(self):
        """Faults live in the transport mirror only: the oracle's round
        records are identical across fault plans (bench comparability)."""
        clean = _faulted_run(ForgivingTreeHealer, None)
        lossy = _faulted_run(ForgivingTreeHealer, FaultPlan(drop=0.2, dup=0.1))
        assert [r.total_messages for r in clean.rounds] == [
            r.total_messages for r in lossy.rounds
        ]
        assert [r.deleted for r in clean.rounds] == [
            r.deleted for r in lossy.rounds
        ]


# ----------------------------------------------------------------------
# parity invariants: loss absorbed, duplicates cancelled, dead counted
# ----------------------------------------------------------------------
class TestReliableDeliveryParity:
    @pytest.mark.parametrize("healer_cls,tag", HEALERS)
    def test_exact_fault_accounting(self, healer_cls, tag):
        res = _faulted_run(
            healer_cls, FaultPlan(drop=0.15, dup=0.08), events=24, seed=5
        )
        fs = res.faults
        assert fs.drops > 0 and fs.duplicates > 0
        # Every lost attempt was retransmitted; every duplicate copy
        # suppressed — exact, not statistical.
        assert fs.retransmissions == fs.drops
        assert fs.dup_suppressed == fs.duplicates
        assert fs.unrepaired_violations == 0
        # Fault rows land in the causal log, as typed records.
        kinds = {rec.kind for rec in res.transport.event_log}
        assert "drop" in kinds and "dup" in kinds and "dup-suppressed" in kinds

    def test_delivered_counts_base_plus_duplicates(self):
        res = _faulted_run(
            ForgivingTreeHealer, FaultPlan(drop=0.1, dup=0.1), events=24, seed=5
        )
        log = res.transport.event_log
        fs = res.faults
        # Exactly one typed record per arrival, classified: handled
        # deliveries, suppressed duplicates, and dead drops partition
        # the kernel's delivered count.
        kinds = Counter(rec.kind for rec in log)
        assert (
            kinds["deliver"] + kinds["dup-suppressed"] + kinds["dead"]
            == res.transport.messages_delivered
        )
        assert kinds["dup-suppressed"] == fs.dup_suppressed
        assert kinds["dead"] == fs.dead_drops

    def test_max_attempts_caps_consecutive_losses(self):
        # With drop=0.9 and max_attempts=3, no send may record more than
        # 2 lost attempts; the final attempt always delivers.
        plan = FaultPlan(drop=0.9, max_attempts=3)
        res = _faulted_run(ForgivingTreeHealer, plan, events=8, seed=3, n=12)
        fs = res.faults
        assert fs.drops == fs.retransmissions > 0
        assert res.stayed_connected

    def test_sync_network_counts_dead_recipient_drops(self):
        net = Network()

        class _Stub:
            def __init__(self, nid):
                self.nid = nid
                self.network = None

            def handle(self, message):  # pragma: no cover - never called
                raise AssertionError("stub should not receive")

        net.register(_Stub(0))
        net.begin_round(1)
        net.send(Deleted(sender=0, recipient=99, victim=7))
        stats = net.run_round(1)
        assert stats.dead_drops == 1
        assert stats.received == {}

    def test_async_network_counts_dead_recipient_drops(self):
        res = _faulted_run(
            ForgivingTreeHealer,
            FaultPlan(dup=0.0, drop=0.0, crashes=(CrashDuringHeal(event=4),)),
            events=12,
            seed=7,
        )
        # The crash victim's in-flight mail is dead-dropped and counted.
        assert res.faults.crashes == 1
        assert any(rec.kind == "crash" for rec in res.transport.event_log)


# ----------------------------------------------------------------------
# crash-during-heal + repair pass: the acceptance campaign
# ----------------------------------------------------------------------
class TestCrashAndRepair:
    @pytest.mark.parametrize("overlap", ["serialize", "lease"])
    @pytest.mark.parametrize("healer_cls,tag", HEALERS)
    def test_acceptance_campaign_converges_deterministically(
        self, healer_cls, tag, overlap
    ):
        """Drop p=0.05, dup p=0.02, a coordinator crash mid-heal: the
        campaign converges to the oracle image node-for-node (every
        barrier cross-validates, finish() closes against the live
        oracle) and two runs are byte-identical."""
        plan = FaultPlan(
            drop=0.05,
            dup=0.02,
            crashes=(CrashDuringHeal(event=6, layer=1, target="coordinator"),),
        )
        runs = [
            _faulted_run(
                healer_cls, plan, overlap=overlap, seed=7, n=48, events=30
            )
            for _ in range(2)
        ]
        a, b = runs
        assert a.faults.crashes == 1
        assert a.faults.repairs == 1
        assert a.faults.violations > 0
        assert a.faults.unrepaired_violations == 0
        assert a.stayed_connected
        assert sum(1 for r in a.rounds if r.event == "crash") == 1
        assert a.transport.event_log == b.transport.event_log
        assert a.faults.to_dict() == b.faults.to_dict()

    def test_participant_crash(self):
        plan = FaultPlan(
            crashes=(CrashDuringHeal(event=5, layer=0, target="participant"),)
        )
        res = _faulted_run(ForgivingTreeHealer, plan, seed=9, n=32, events=20)
        assert res.faults.crashes == 1
        assert res.faults.unrepaired_violations == 0

    def test_lease_mode_crash_escalates(self):
        plan = FaultPlan(crashes=(CrashDuringHeal(event=6),))
        res = _faulted_run(
            ForgivingGraphHealer, plan, overlap="lease", seed=7, n=48, events=24
        )
        assert res.transport.escalations.get("crash") == 1
        assert res.faults.repairs == 1

    @pytest.mark.parametrize(
        "overlap,seed,target",
        [
            # At the parent of ISSUE 22 the victim was elected *before*
            # the containment / escalation barrier, from mid-heal state:
            ("serialize", 25, "coordinator"),  # "crash victim 2 is not alive"
            ("lease", 10, "coordinator"),  # "crash victim 0 is not alive"
            # ... or about a deletion victim whose own lease-deferred join
            # had not injected: "node 24 not found (heal_coordinator)".
            ("lease", 16, "participant"),
        ],
    )
    def test_victim_is_elected_from_settled_state(self, overlap, seed, target):
        """perf-README finding (d) / ROADMAP 1(v): the barrier runs
        first, the victim is picked only then."""
        res = run_churn_campaign(
            ForgivingGraphHealer(generators.preferential_attachment(24, 2, seed=seed)),
            RandomChurnAdversary(p_insert=0.3, seed=seed),
            events=6,
            metrics="none",
            seed=seed,
            faults=FaultPlan(crashes=(CrashDuringHeal(3, target=target),)),
            transport=TransportSpec(
                mode="async", overlap=overlap, latency="heavy-tail", gap=0.05,
                barrier_every=64, seed=seed,
            ),
        )
        assert res.faults.crashes == 1 and res.faults.unrepaired_violations == 0
        assert sum(1 for r in res.rounds if r.event == "crash") == 1

    def test_crash_on_the_event_after_an_in_flight_deletion(self):
        """The case the kernel-frontier wall's comment cited for staying
        at event 0: under ``serialize`` too, a crash at event 1 named a
        node event 0's still-flying heal had already removed."""
        seed = 11901
        res = run_churn_campaign(
            ForgivingGraphHealer(generators.random_tree(24, seed % 97)),
            OverlapChurnAdversary(p_insert=0.3, seed=seed),
            events=36,
            metrics="none",
            seed=seed,
            transport=TransportSpec(
                mode="async", overlap="serialize", latency="heavy-tail", gap=0.1,
                barrier_every=5,
                faults=FaultPlan(
                    drop=0.08, dup=0.05,
                    crashes=(CrashDuringHeal(event=1, layer=seed % 3),),
                ),
            ),
        )
        assert res.faults.crashes == 1 and res.faults.unrepaired_violations == 0

    def test_repair_pass_log_line(self):
        plan = FaultPlan(crashes=(CrashDuringHeal(event=4),))
        res = _faulted_run(ForgivingTreeHealer, plan, seed=3, n=32, events=16)
        tags = [rec.tag() for rec in res.transport.event_log]
        assert "crash" in tags and "repair-pass" in tags
        assert tags.index("crash") < tags.index("repair-pass")

    def test_post_repair_heals_keep_parity(self):
        """Events after the recovery still cross-validate exactly — the
        reset-replay rebuild preserves will/helper history, not just the
        image (barrier_every=1 checks every single event)."""
        plan = FaultPlan(crashes=(CrashDuringHeal(event=3),))
        healer = ForgivingTreeHealer(_tree_graph(32, 13))
        spec = TransportSpec(
            mode="async", seed=13, faults=plan, barrier_every=1
        )
        res = run_churn_campaign(
            healer,
            RandomChurnAdversary(p_insert=0.3, seed=13),
            events=20,
            transport=spec,
            seed=13,
        )
        assert res.faults.crashes == 1 and res.faults.unrepaired_violations == 0

    def test_classic_deletion_campaign_supports_faults(self):
        from repro.adversaries import RandomAdversary

        healer = ForgivingTreeHealer(_tree_graph(32, 5))
        res = run_campaign(
            healer,
            RandomAdversary(seed=5),
            rounds=16,
            transport="async",
            seed=5,
            faults={"drop": 0.1, "crashes": (CrashDuringHeal(event=5),)},
        )
        assert res.faults.crashes == 1
        assert res.faults.retransmissions == res.faults.drops


class TestRepairPass:
    def _corrupt(self, n=18, seed=4, kill=None):
        dist = DistributedForgivingTree(generators.random_tree(n, seed))
        victim = kill if kill is not None else max(dist.alive)
        dist.network.remove(victim)  # silent death: no Deleted fan-out
        return dist, victim

    def test_scan_finds_dangling_pointers(self):
        dist, victim = self._corrupt()
        found = RepairPass(dist).scan()
        assert found, "silent node removal must scan dirty"
        kinds = {v.kind for v in found}
        assert kinds <= set(VIOLATION_KINDS)
        assert "dangling-pointer" in kinds
        assert any(str(victim) in v.detail for v in found)

    def test_scan_clean_on_legal_overlay(self):
        dist = DistributedForgivingTree(generators.random_tree(12, 2))
        assert RepairPass(dist).scan() == []
        dist.delete(max(dist.alive))  # a *protocol* heal stays legal
        assert RepairPass(dist).scan() == []

    def test_fg_scan_finds_corruption(self):
        g = _tree_graph(14, 6)
        dist = DistributedForgivingGraph(g)
        dist.network.remove(max(dist.alive))
        assert RepairPass(dist).scan()

    def test_run_restores_corrupted_fixture(self):
        """The acceptance fixture: a deliberately corrupted overlay is
        restored to a valid state that the driver's own check surface
        (image_edges' symmetry validation) accepts again."""
        dist, victim = self._corrupt(n=18, seed=4)
        with pytest.raises(ProtocolError):
            dist.edges()  # the corruption trips the strict check

        def rebuild():
            # Reset-replay in miniature: fresh driver over the oracle's
            # post-crash tree (initial tree minus the victim, re-healed
            # by the sequential engine).
            from repro.core.forgiving_tree import ForgivingTree

            oracle = ForgivingTree(generators.random_tree(18, 4))
            oracle.delete(victim)
            return DistributedForgivingTree(oracle.adjacency())

        report = RepairPass(dist).run(rebuild, victim=victim)
        assert report.victim == victim
        assert report.violations and report.repaired
        assert report.residual == ()
        assert "dangling-pointer" in report.counts()

    def test_failed_repair_is_honest(self):
        dist, victim = self._corrupt()
        report = RepairPass(dist).run(lambda: None, victim=victim)
        assert not report.repaired
        assert report.residual == report.violations


# ----------------------------------------------------------------------
# kernel fault plane, used directly
# ----------------------------------------------------------------------
class TestKernelFaultPlane:
    def test_arm_crash_validates(self):
        net = AsyncNetwork(seed=1)
        with pytest.raises(ProtocolError):
            net.arm_crash(0, 1, victim=42)  # not alive

    def test_adopt_requires_drained_kernel(self):
        dist = DistributedForgivingTree(
            generators.random_tree(8, 1), network=AsyncNetwork(seed=1)
        )
        net = dist.network
        net.open_heal(label="x")
        dist.inject_delete(max(dist.alive))
        with pytest.raises(ProtocolError):
            net.adopt([])
        net.close_injection()
        net.quiesce()
        net.adopt(list(dist.network.nodes.values()))


# ----------------------------------------------------------------------
# SLO budgets + the hostile adversary
# ----------------------------------------------------------------------
class TestFaultSlos:
    def test_converged_campaign_passes_budgets(self):
        res = _faulted_run(
            ForgivingTreeHealer,
            FaultPlan(drop=0.05, dup=0.02, crashes=(CrashDuringHeal(event=5),)),
            seed=7,
            n=48,
            events=24,
        )
        dog = SloWatchdog(fault_slos())
        record = res.faults.window_record(res.transport.events)
        assert dog.evaluate(record) == []
        assert not dog.breached

    def test_leak_breaches(self):
        dog = SloWatchdog(fault_slos())
        record = {
            "events": 100,
            "faults": {
                "retransmit_deficit": 3,
                "dup_leak": 0,
                "unrepaired_violations": 0,
                "retransmissions_per_event": 0.5,
            },
        }
        alerts = dog.evaluate(record)
        assert [a.slo for a in alerts] == ["retransmit-parity"]


class TestHostileChurnAdversary:
    def test_registered_and_deterministic(self):
        assert CHURN_ADVERSARY_CATALOG["hostile-churn"] is HostileChurnAdversary
        healer = ForgivingTreeHealer(_tree_graph(24, 3))
        adv = HostileChurnAdversary(seed=3)
        first = [type(adv.next_event(healer)).__name__ for _ in range(6)]
        adv.reset()
        again = [type(adv.next_event(healer)).__name__ for _ in range(6)]
        assert first == again

    def test_deletion_heavy_faulted_campaign(self):
        res = _faulted_run(
            ForgivingTreeHealer,
            FaultPlan(drop=0.1, dup=0.05, crashes=(CrashDuringHeal(event=7),)),
            seed=9,
            n=48,
            events=30,
            adversary=HostileChurnAdversary(seed=9),
        )
        assert res.adversary_name == "hostile-churn"
        assert res.n_deletes > res.n_inserts
        assert res.faults.unrepaired_violations == 0
        assert res.stayed_connected
