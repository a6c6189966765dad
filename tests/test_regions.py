"""Test wall for the region-lease subsystem (overlapping-heal handoff).

What the ISSUE demands pinned: deterministic, seed-stable conflict
resolution (priority = virtual time of the triggering event, tie-broken
by event id); Hypothesis fuzz over grant/release interleavings (no
deadlock, deterministic winner under a fixed seed); every escalation
path reached *and cross-validated* (the campaign barriers inside assert
node-for-node image parity); and seq-vs-async convergence campaigns
with ``overlap="lease"`` across all latency models and schedulers for
both the Forgiving Tree and the Forgiving Graph.
"""

import ast
import inspect
import itertools
import pathlib

import pytest

import repro.regions
from hypothesis import given, settings, strategies as st

from repro.adversaries import (
    CHURN_ADVERSARY_CATALOG,
    OverlapChurnAdversary,
    RandomChurnAdversary,
    ScatterChurnAdversary,
    region_ball,
)
from repro.baselines.forgiving import ForgivingTreeHealer
from repro.core.errors import NodeNotFoundError, ProtocolError
from repro.distributed import DistributedForgivingTree
from repro.fgraph import DistributedForgivingGraph
from repro.fgraph.distributed import FGDeleted
from repro.fgraph.healer import ForgivingGraphHealer
from repro.graphs import generators
from repro.harness import run_churn_campaign
from repro.regions import (
    DELEGATED,
    ESCALATION_REASONS,
    HandoffError,
    HandoffLedger,
    LeaseAdmission,
    LeaseError,
    LeaseManager,
    SerializeAdmission,
)
from repro.simnet import (
    LATENCY_CATALOG,
    OVERLAP_POLICIES,
    SCHEDULER_CATALOG,
    AsyncNetwork,
    TransportMirror,
    TransportSpec,
)

HEALERS = ((ForgivingTreeHealer, "ft"), (ForgivingGraphHealer, "fg"))


def _tree_graph(n, seed):
    return {k: set(v) for k, v in generators.random_tree(n, seed).items()}


# ----------------------------------------------------------------------
# the lease table
# ----------------------------------------------------------------------
class TestLeaseManager:
    def test_disjoint_requests_grant_immediately(self):
        mgr = LeaseManager()
        assert mgr.acquire(0, {1, 2}, (0.0, 0), coordinator=1).granted
        assert mgr.acquire(1, {3, 4}, (0.5, 1), coordinator=3).granted
        assert mgr.holders() == [0, 1]
        assert mgr.waiters() == []
        assert mgr.held_nodes() == {1, 2, 3, 4}
        mgr.check()

    def test_conflict_defers_and_release_resumes(self):
        mgr = LeaseManager()
        mgr.acquire(0, {1, 2}, (0.0, 0), coordinator=1)
        decision = mgr.acquire(1, {2, 3}, (1.0, 1))
        assert not decision.granted
        assert decision.blockers == (0,)
        assert decision.delegated_to == 1  # the blocking heal's coordinator
        assert mgr.blockers_of(1) == (0,)
        mgr.check()
        assert mgr.release(0) == [1]
        assert mgr.holders() == [1]
        assert mgr.waiters() == []
        mgr.check()

    def test_priority_order_is_deterministic(self):
        """Conflicting waiters resume in (time, event id) order no matter
        the release order of their disjoint blockers."""
        mgr = LeaseManager()
        mgr.acquire(0, {1}, (0.0, 0))
        mgr.acquire(1, {2}, (0.5, 1))
        # two waiters on different holders, plus one on both
        assert not mgr.acquire(2, {1, 9}, (1.0, 2)).granted
        assert not mgr.acquire(3, {2, 8}, (1.5, 3)).granted
        assert not mgr.acquire(4, {9, 8}, (2.0, 4)).granted  # waits on 2 and 3
        assert mgr.blockers_of(4) == (2, 3)
        assert mgr.release(1) == [3]
        assert mgr.release(0) == [2]
        assert mgr.release(3) == []  # 4 still blocked by 2
        assert mgr.release(2) == [4]
        mgr.check()

    def test_tie_broken_by_event_id(self):
        """Equal virtual times (gap=0 campaigns) resolve by event id."""
        mgr = LeaseManager()
        mgr.acquire(0, {1, 2}, (0.0, 0))
        assert not mgr.acquire(2, {2}, (1.0, 2)).granted
        assert not mgr.acquire(1, {1}, (1.0, 1)).granted  # same time, lower id
        assert mgr.waiters() == [1, 2]  # priority order, not arrival order
        assert mgr.release(0) == [1, 2]

    def test_out_of_order_acquire_never_grants_conflicting_leases(self):
        """Monotone priorities are the transport's invariant, not the
        table's: even a direct API user acquiring out of priority order
        must never end with two conflicting holders."""
        mgr = LeaseManager()
        mgr.acquire(0, {1}, (0.0, 0))
        assert not mgr.acquire(5, {1, 2}, (1.0, 5)).granted
        # earlier priority arrives *after* the waiter it conflicts with:
        # the waiter never captured it as a blocker
        assert mgr.acquire(3, {2, 9}, (1.0, 3)).granted
        granted = mgr.release(0)  # 5's stored blockers empty out...
        assert granted == []  # ...but 3 still holds node 2: refilled, not granted
        assert mgr.blockers_of(5) == (3,)
        mgr.check()
        assert mgr.release(3) == [5]

    def test_later_waiter_never_jumps_earlier_conflicting_one(self):
        mgr = LeaseManager()
        mgr.acquire(0, {1}, (0.0, 0))
        assert not mgr.acquire(1, {1, 2}, (1.0, 1)).granted
        # event 2 is disjoint from the *holder* but overlaps waiter 1:
        # granting it would reorder conflicting events vs the oracle.
        decision = mgr.acquire(2, {2, 3}, (2.0, 2))
        assert not decision.granted
        assert decision.blockers == (1,)
        granted = mgr.release(0)
        assert granted == [1]  # 2 stays queued behind 1
        assert mgr.waiters() == [2]
        assert mgr.release(1) == [2]

    def test_stats_and_errors(self):
        mgr = LeaseManager()
        mgr.acquire(0, {1}, (0.0, 0))
        mgr.acquire(1, {1}, (1.0, 1))
        assert mgr.holders() == [0] and mgr.waiters() == [1]
        with pytest.raises(LeaseError):
            mgr.acquire(0, {5}, (2.0, 5))  # id already active
        with pytest.raises(LeaseError):
            mgr.acquire(1, {5}, (2.0, 5))  # queued id already active
        with pytest.raises(LeaseError):
            mgr.release(1)  # not held (still waiting)
        with pytest.raises(LeaseError):
            mgr.set_coordinator(1, 7)
        with pytest.raises(LeaseError):
            mgr.blockers_of(99)
        with pytest.raises(LeaseError):
            mgr.coordinator_of(99)

    def test_wait_chain_depth(self):
        mgr = LeaseManager()
        mgr.acquire(0, {1}, (0.0, 0))
        mgr.acquire(1, {1, 2}, (1.0, 1))
        mgr.acquire(2, {2, 3}, (2.0, 2))
        mgr.acquire(3, {3, 4}, (3.0, 3))
        assert mgr.wait_chain_depth() == 3  # 1 <- 2 <- 3 convoy
        mgr.acquire(4, {9}, (4.0, 4))
        assert mgr.wait_chain_depth() == 3  # disjoint grant doesn't deepen

    def test_find_cycle_detects_corrupted_state(self):
        """A waits-for cycle is structurally unreachable; corrupt the
        stored blocker edges directly and the audit must catch it."""
        mgr = LeaseManager()
        mgr.acquire(0, {1}, (0.0, 0))
        mgr.acquire(1, {1, 2}, (1.0, 1))
        mgr.acquire(2, {2, 3}, (2.0, 2))
        assert mgr.find_cycle() is None
        mgr.check()
        # forge a back edge: waiter 1 suddenly "waits" on waiter 2
        next(w for w in mgr._waiting if w.eid == 1).blockers.add(2)
        cycle = mgr.find_cycle()
        assert cycle is not None and set(cycle) >= {1, 2}
        with pytest.raises(LeaseError):
            mgr.check()

    def test_withdraw_runs_the_grant_cascade(self):
        """Withdrawing a waiter that others (transitively) waited on must
        grant them, not strand them queued with empty blocker sets."""
        mgr = LeaseManager()
        mgr.acquire(0, {1}, (0.0, 0))
        assert not mgr.acquire(1, {1, 2}, (1.0, 1)).granted
        assert not mgr.acquire(2, {2}, (2.0, 2)).granted  # waits only on 1
        assert mgr.withdraw(1) == [2]  # 2 is granted, not stranded
        assert mgr.holders() == [0, 2]
        assert mgr.waiters() == []
        mgr.check()
        with pytest.raises(LeaseError):
            mgr.withdraw(1)  # no longer waiting

    def test_clear_resets_everything(self):
        mgr = LeaseManager()
        mgr.acquire(0, {1}, (0.0, 0))
        mgr.acquire(1, {1}, (1.0, 1))
        mgr.clear()
        assert mgr.holders() == [] and mgr.waiters() == []
        assert mgr.held_nodes() == set()
        mgr.check()

    def test_coordinators_view(self):
        mgr = LeaseManager()
        mgr.acquire(0, {1, 2}, (0.0, 0), coordinator=2)
        assert not mgr.acquire(1, {2, 3}, (1.0, 1)).granted
        assert mgr.coordinator_of(0) == 2
        assert mgr.coordinator_of(1) == 2  # delegated to 0's coordinator
        assert mgr.coordinators() == {2}


# ----------------------------------------------------------------------
# Hypothesis: fuzz over grant/release interleavings
# ----------------------------------------------------------------------
class TestLeaseFuzz:
    @settings(max_examples=60, deadline=None)
    @given(
        footprints=st.lists(
            st.frozensets(st.integers(min_value=0, max_value=12), min_size=1, max_size=4),
            min_size=1,
            max_size=14,
        ),
        release_seed=st.integers(min_value=0, max_value=10**6),
    )
    def test_no_deadlock_any_interleaving(self, footprints, release_seed):
        """Acquire everything in order, release holders in an arbitrary
        (seeded) order: every event is granted exactly once, conflicting
        grants never coexist, and the table drains empty — no deadlock,
        no lost waiter, invariants audited at every step."""
        import random as _random

        rng = _random.Random(release_seed)
        mgr = LeaseManager()
        granted = set()
        for eid, fp in enumerate(footprints):
            if mgr.acquire(eid, fp, (float(eid), eid)).granted:
                granted.add(eid)
            mgr.check()
        while mgr.holders():
            victim = rng.choice(mgr.holders())
            for resumed in mgr.release(victim):
                assert resumed not in granted
                granted.add(resumed)
            mgr.check()
            # pairwise disjointness of everything currently held
            held = [mgr._held[eid] for eid in mgr.holders()]
            for i, fa in enumerate(held):
                for fb in held[i + 1:]:
                    assert not (fa & fb)
        assert granted == set(range(len(footprints)))
        assert mgr.waiters() == []

    @settings(max_examples=30, deadline=None)
    @given(
        footprints=st.lists(
            st.frozensets(st.integers(min_value=0, max_value=8), min_size=1, max_size=3),
            min_size=2,
            max_size=10,
        ),
    )
    def test_deterministic_winner(self, footprints):
        """Two identical acquire/release traces make identical decisions
        (the seed-stability the transport's determinism rests on)."""
        def trace():
            mgr = LeaseManager()
            log = []
            for eid, fp in enumerate(footprints):
                d = mgr.acquire(eid, fp, (float(eid), eid))
                log.append((eid, d.granted, d.blockers, d.delegated_to))
            while mgr.holders():
                head = mgr.holders()[0]
                log.append(("release", head, tuple(mgr.release(head))))
            return log

        assert trace() == trace()


# ----------------------------------------------------------------------
# the handoff state machine
# ----------------------------------------------------------------------
class TestHandoffLedger:
    def test_granted_walk(self):
        led = HandoffLedger()
        led.request(0, 0.0)
        led.granted(0, 0.0)
        led.injected(0, 0.1)
        led.released(0, 2.0)
        assert led[0].state == "released"
        assert led[0].lease_wait == 0.0
        led.check_drained()

    def test_delegated_walk_measures_wait(self):
        led = HandoffLedger()
        led.request(7, 1.0)
        led.delegated(7, 1.0, to=3)
        assert led.peak_deferred == 1
        led.resumed(7, 4.5)
        led.injected(7, 4.5)
        led.released(7, 9.0)
        assert led.lease_waits == 1
        assert led.wait_times == [3.5]
        assert led[7].delegated_to == 3

    def test_escalated_walks(self):
        led = HandoffLedger()
        led.request(0, 0.0)
        led.escalated(0, 0.0, "coordinator-death")  # pre-acquire
        led.injected(0, 1.0)
        led.released(0, 2.0)
        led.request(1, 3.0)
        led.delegated(1, 3.0, to=5)
        led.escalated(1, 4.0, "wait-chain")  # mid-wait
        led.injected(1, 5.0)
        led.released(1, 6.0)
        assert led.escalations == {"coordinator-death": 1, "wait-chain": 1}
        assert led.total_escalations == 2
        # escalated waits count as escalations, not lease waits: the
        # three categories partition the mirrored events
        assert led.wait_times == [] and led.lease_waits == 0
        led.check_drained()

    def test_illegal_transitions_raise(self):
        led = HandoffLedger()
        led.request(0, 0.0)
        with pytest.raises(HandoffError):
            led.injected(0, 0.0)  # must be granted/resumed/escalated first
        led.granted(0, 0.0)
        with pytest.raises(HandoffError):
            led.resumed(0, 0.0)  # granted events never waited
        with pytest.raises(HandoffError):
            led.request(0, 0.0)  # duplicate
        with pytest.raises(HandoffError):
            led.escalated(0, 0.0, "sunspots")  # unknown reason
        led.injected(0, 0.0)
        with pytest.raises(HandoffError):
            led.check_drained()  # still in flight
        assert set(ESCALATION_REASONS) == {
            "coordinator-death", "lease-cycle", "wait-chain", "crash",
        }


# ----------------------------------------------------------------------
# driver surface: coordinators and the mid-heal guard
# ----------------------------------------------------------------------
class TestHealCoordinators:
    def test_ft_coordinator_is_smallest_notified_neighbor(self):
        dist = DistributedForgivingTree({0: [1, 2], 1: [0], 2: [0]})
        assert dist.heal_coordinator(0) in dist.alive
        assert dist.heal_coordinator(0) == 1
        with pytest.raises(NodeNotFoundError):
            dist.heal_coordinator(99)

    def test_fg_coordinator_matches_fanout_election(self):
        g = _tree_graph(12, 3)
        dist = DistributedForgivingGraph(g)
        for nid in list(sorted(dist.alive))[:4]:
            coord = dist.heal_coordinator(nid)
            claims = sorted(dist.network.nodes[nid].neighbor_claims())
            assert coord == (claims[0] if claims else None)
        with pytest.raises(NodeNotFoundError):
            dist.heal_coordinator(99)

    def test_fg_lone_node_has_no_coordinator(self):
        dist = DistributedForgivingGraph({0: {1}, 1: {0}})
        dist.delete(0)
        assert dist.heal_coordinator(1) is None

    def test_fg_coordinator_busy_guard_is_loud(self):
        """A second FGDeleted naming a mid-gather coordinator must fail
        loudly instead of silently clobbering the report tally."""
        dist = DistributedForgivingGraph(_tree_graph(8, 1))
        nid = dist.heal_coordinator(min(dist.alive))
        node = dist.network.nodes[nid]
        node._victim = 99  # simulate an in-progress coordination
        node._await_reports = 2
        with pytest.raises(ProtocolError, match="lease"):
            node.handle(
                FGDeleted(
                    sender=98, recipient=nid, victim=98,
                    coordinator=nid, n_reports=1,
                )
            )


# ----------------------------------------------------------------------
# kernel primitives the lease path added
# ----------------------------------------------------------------------
class TestKernelLeasePrimitives:
    def test_drain_heals_is_targeted(self):
        net = AsyncNetwork(latency="uniform", seed=4)
        dist = DistributedForgivingTree(generators.random_tree(40, 2), network=net)
        h1 = net.open_heal(label="delete-a")
        dist.inject_delete(0)
        net.close_injection()
        h2 = net.open_heal(label="delete-b")
        dist.inject_delete(39)
        net.close_injection()
        net.drain_heals([h1])
        assert net.heal_pending(h1) == 0
        net.quiesce()
        assert net.heal_pending(h2) == 0

    def test_lease_wait_backdating(self):
        net = AsyncNetwork(latency="constant", seed=0)
        DistributedForgivingTree({0: [1], 1: [0]}, network=net)
        net.run_until(5.0)
        hid = net.open_heal(label="x", requested_at=2.0)
        net.close_injection()
        stats = net.heal_stats(hid)
        assert stats.requested_at == 2.0
        assert stats.lease_wait == 3.0
        hid2 = net.open_heal(label="y")
        net.close_injection()
        assert net.heal_stats(hid2).lease_wait == 0.0

    def test_log_control_entries_are_causal_events(self):
        net = AsyncNetwork(latency="constant", seed=0, record_log=True)
        DistributedForgivingTree({0: [1], 1: [0]}, network=net)
        before = len(net.event_log)
        net.log_control("lease-grant", 7)
        entry = net.event_log[-1]
        assert entry.kind == "control" and entry.ref == 7
        assert (entry.t, entry.depth, entry.src, entry.dst, entry.ctl) == (
            round(net.clock, 9), -1, -1, -1, "lease-grant"
        )
        assert len(net.event_log) == before + 1
        quiet = AsyncNetwork()
        quiet.log_control("lease-grant", 1)  # record_log off: no-op
        assert quiet.event_log == []


# ----------------------------------------------------------------------
# lease campaigns: convergence, determinism, escalations (the tentpole)
# ----------------------------------------------------------------------
class TestLeaseCampaigns:
    """Every barrier inside cross-validates the distributed image
    node-for-node against the sequential oracle (TransportDivergence on
    mismatch), which is the ISSUE's parity bar; these tests additionally
    pin that the lease path was actually *exercised*."""

    @pytest.mark.parametrize(
        "factory,latency,scheduler",
        [
            (f, lat, sched)
            for (f, _n) in HEALERS
            for lat, sched in zip(
                sorted(LATENCY_CATALOG) * 2,
                itertools.cycle(sorted(SCHEDULER_CATALOG)),
            )
        ],
    )
    def test_lease_campaign_converges(self, factory, latency, scheduler):
        healer = factory(_tree_graph(70, 21))
        res = run_churn_campaign(
            healer,
            RandomChurnAdversary(p_insert=0.3, seed=6),
            events=45,
            seed=6,
            transport=TransportSpec(
                mode="async",
                overlap="lease",
                latency=latency,
                scheduler=scheduler,
                gap=0.08,
                barrier_every=8,
            ),
        )
        t = res.transport
        assert t.events == 45
        assert t.overlap == "lease"
        assert t.conflict_barriers == 0  # conflicts defer, they never barrier
        assert t.lease_grants + t.lease_waits + t.total_escalations == 45

    @pytest.mark.parametrize("factory,name", HEALERS)
    def test_overlap_heavy_campaign_waits_and_converges(self, factory, name):
        healer = factory(_tree_graph(150, 11))
        res = run_churn_campaign(
            healer,
            OverlapChurnAdversary(seed=3, p_coordinator=0.0),
            events=60,
            seed=3,
            transport=TransportSpec(
                mode="async", overlap="lease", gap=0.05, barrier_every=10
            ),
        )
        t = res.transport
        assert t.lease_waits > 0, name  # intersecting footprints interleaved
        assert t.peak_deferred >= 1
        assert all(w >= 0 for w in t.lease_wait_times)
        assert t.lease_wait_percentiles["max"] >= t.lease_wait_percentiles["p50"]

    @pytest.mark.parametrize("factory,name", HEALERS)
    def test_coordinator_death_escalation_reached(self, factory, name):
        healer = factory(_tree_graph(150, 7))
        res = run_churn_campaign(
            healer,
            OverlapChurnAdversary(seed=5, p_coordinator=0.5, p_overlap=0.8),
            events=70,
            seed=5,
            transport=TransportSpec(
                mode="async", overlap="lease", gap=0.04, barrier_every=0
            ),
        )
        t = res.transport
        assert t.escalations.get("coordinator-death", 0) > 0, name
        assert t.events == 70  # ... and the campaign still cross-validated

    @pytest.mark.parametrize("factory,name", HEALERS)
    def test_wait_chain_escalation_reached(self, factory, name):
        healer = factory(_tree_graph(120, 9))
        res = run_churn_campaign(
            healer,
            OverlapChurnAdversary(seed=2, p_coordinator=0.0, p_overlap=0.9),
            events=60,
            seed=2,
            transport=TransportSpec(
                mode="async",
                overlap="lease",
                gap=0.0,  # no time flows between events: convoys build
                barrier_every=0,
                max_wait_chain=2,
            ),
        )
        t = res.transport
        assert t.escalations.get("wait-chain", 0) > 0, name

    def test_summary_is_deterministic(self):
        def run():
            healer = ForgivingGraphHealer(_tree_graph(90, 13))
            res = run_churn_campaign(
                healer,
                OverlapChurnAdversary(seed=4),
                events=50,
                seed=4,
                transport=TransportSpec(
                    mode="async", overlap="lease", latency="heavy-tail",
                    scheduler="random", gap=0.06,
                ),
            )
            t = res.transport
            return (
                t.events,
                t.lease_grants,
                t.lease_waits,
                tuple(t.lease_wait_times),
                tuple(sorted(t.escalations.items())),
                t.makespan,
            )

        assert run() == run()

    def test_lease_beats_serialize_on_overlap_heavy_makespan(self):
        """The acceptance criterion, pinned at a fixed seed: intersecting
        events interleaved via leases finish the same campaign in less
        virtual time than the PR 4 serialize-whole policy."""
        makespans = {}
        for overlap in ("serialize", "lease"):
            healer = ForgivingTreeHealer(_tree_graph(250, 11))
            res = run_churn_campaign(
                healer,
                OverlapChurnAdversary(seed=3, p_coordinator=0.0, p_overlap=0.75),
                events=80,
                seed=3,
                transport=TransportSpec(
                    mode="async", overlap=overlap, latency="heavy-tail",
                    gap=0.05, barrier_every=0,
                ),
            )
            makespans[overlap] = res.transport.makespan
        assert makespans["lease"] < makespans["serialize"]

    def test_wave_churn_through_leases(self):
        from repro.adversaries import WaveChurnAdversary

        healer = ForgivingTreeHealer(_tree_graph(90, 9))
        res = run_churn_campaign(
            healer,
            WaveChurnAdversary(wave=5, p_wave=0.4, seed=3),
            events=40,
            seed=3,
            transport="lease",
        )
        assert res.transport.events == 40
        assert res.transport.overlap == "lease"

    def test_full_deletion_campaign_through_leases(self):
        from repro.adversaries import RandomAdversary
        from repro.harness import run_campaign

        healer = ForgivingGraphHealer(_tree_graph(50, 12))
        res = run_campaign(
            healer,
            RandomAdversary(seed=2),
            seed=2,
            transport=TransportSpec(mode="async", overlap="lease", gap=0.1),
        )
        assert len(res.rounds) == 49  # down to a single survivor


# ----------------------------------------------------------------------
# the admission seam: one object per overlap policy behind the mirror
# ----------------------------------------------------------------------
class TestAdmissionSeam:
    ENTRY_POINTS = ("admit", "admit_alone", "drain", "fill")

    def test_both_policies_expose_the_same_four_entry_points(self):
        for name in self.ENTRY_POINTS:
            serialize = inspect.signature(getattr(SerializeAdmission, name))
            lease = inspect.signature(getattr(LeaseAdmission, name))
            assert list(serialize.parameters) == list(lease.parameters), name
        for cls in (SerializeAdmission, LeaseAdmission):
            public = {n for n in vars(cls) if not n.startswith("_")}
            assert public == set(self.ENTRY_POINTS), cls.__name__

    def test_the_mirror_never_asks_which_policy_it_runs(self):
        assert "overlap ==" not in inspect.getsource(TransportMirror)

    def test_regions_imports_nothing_from_simnet(self):
        """Admission drives the transport through the port it is handed."""
        for path in sorted(pathlib.Path(repro.regions.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom):
                    assert "simnet" not in (node.module or ""), path.name
                elif isinstance(node, ast.Import):
                    assert all("simnet" not in a.name for a in node.names), path.name

    @pytest.mark.parametrize("factory,name", HEALERS)
    def test_one_object_picked_from_the_overlap_value(self, factory, name):
        classes = {"serialize": SerializeAdmission, "lease": LeaseAdmission}
        assert tuple(classes) == OVERLAP_POLICIES
        for overlap, cls in classes.items():
            spec = TransportSpec(mode="async", overlap=overlap, seed=1)
            mirror = TransportMirror(factory(_tree_graph(12, 1)), spec)
            assert type(mirror.admission) is cls and mirror.admission.port is mirror
        sync = TransportMirror(factory(_tree_graph(12, 1)), TransportSpec(mode="sync", seed=1))
        assert sync.admission is None  # no lease table, no ledger, nobody to ask

    @pytest.mark.parametrize(
        "factory,overlap,expected",
        [
            # Recorded at the commit before admission moved behind the seam;
            # the FG rows again when in-place haft merges replaced the
            # region rebuild (other hafts, other images, other picks), and
            # once more when the probe walk replaced the member lists: on
            # this tree's small hafts the walk's probes and answers deliver
            # more messages than shipping every member did (516 -> 666).
            (ForgivingTreeHealer, "serialize", (39, 38, 0, 0, 0, {}, 701)),
            (ForgivingTreeHealer, "lease", (11, 0, 19, 33, 9, {"coordinator-death": 8}, 701)),
            (ForgivingGraphHealer, "serialize", (31, 30, 0, 0, 0, {}, 666)),
            (ForgivingGraphHealer, "lease", (11, 0, 21, 31, 6, {"coordinator-death": 8}, 666)),
        ],
    )
    def test_summaries_read_what_they_read_before_the_seam(
        self, factory, overlap, expected
    ):
        t = run_churn_campaign(
            factory(_tree_graph(150, 11)),
            OverlapChurnAdversary(seed=3, p_coordinator=0.3),
            events=60,
            seed=3,
            transport=TransportSpec(
                mode="async", overlap=overlap, gap=0.05, barrier_every=10
            ),
        ).transport
        assert (
            t.barriers, t.conflict_barriers, t.lease_grants, t.lease_waits,
            t.peak_deferred, t.escalations, t.messages_delivered,
        ) == expected
        assert t.overlap == overlap and t.events == 60
        if overlap == "lease":
            assert t.lease_grants + t.lease_waits + t.total_escalations == t.events
            assert len(t.lease_wait_times) == t.lease_waits


# ----------------------------------------------------------------------
# the overlap adversary
# ----------------------------------------------------------------------
class TestOverlapAdversary:
    def test_registered_in_catalog(self):
        assert CHURN_ADVERSARY_CATALOG["overlap-churn"] is OverlapChurnAdversary
        assert CHURN_ADVERSARY_CATALOG["scatter-churn"] is ScatterChurnAdversary

    def test_region_ball_shared_helper(self):
        graph = {k: set(v) for k, v in generators.path(7).items()}
        assert region_ball(graph, [3], 1) == {2, 3, 4}
        assert region_ball(graph, [0, 6], 1) == {0, 1, 5, 6}
        assert region_ball(graph, [99], 2) == set()  # dead center
        assert region_ball(graph, [], 2) == set()

    def test_overlap_picks_inside_recent_regions(self):
        healer = ForgivingTreeHealer(_tree_graph(200, 5))
        adv = OverlapChurnAdversary(
            seed=1, p_insert=0.0, p_overlap=1.0, p_coordinator=0.0, radius=2
        )
        adv.reset()
        first = adv.next_event(healer)
        healer.delete(first.nid)
        inside = 0
        for _ in range(15):
            ball = region_ball(healer.graph(), adv._anchors(), adv.radius)
            ev = adv.next_event(healer)
            if ev.nid in ball:
                inside += 1
            healer.delete(ev.nid)
        assert inside >= 12  # overwhelmingly in-region (ball may shrink)

    def test_validation_and_reset(self):
        with pytest.raises(ValueError):
            OverlapChurnAdversary(p_overlap=1.5)
        with pytest.raises(ValueError):
            OverlapChurnAdversary(p_coordinator=-0.1)
        with pytest.raises(ValueError):
            OverlapChurnAdversary(spread=0)
        events = []
        g = _tree_graph(60, 4)
        for _ in range(2):
            healer = ForgivingTreeHealer({k: set(v) for k, v in g.items()})
            adv = OverlapChurnAdversary(seed=9)
            adv.reset()
            events.append(
                [type(adv.next_event(healer)).__name__ for _ in range(6)]
            )
        assert events[0] == events[1]

    def test_scatter_still_scatters_after_refactor(self):
        healer = ForgivingTreeHealer(_tree_graph(80, 3))
        adv = ScatterChurnAdversary(p_insert=0.3, spread=5, radius=2, seed=1)
        res = run_churn_campaign(healer, adv, events=30, seed=1)
        assert len(res.rounds) == 30
