"""Tests for the simnet subsystem: the discrete-event async transport.

The wall the ISSUE demands: seeded determinism (same seed => identical
event log), sequential-vs-async healed-image convergence at every
quiesce barrier over mixed FT+FG campaigns under all three latency
models and every scheduler (including the adversarial one), Hypothesis
fuzzing over scheduler interleavings, and the >= 4 concurrent in-flight
heals acceptance criterion.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.adversaries import RandomAdversary
from repro.adversaries.churn import (
    RandomChurnAdversary,
    ScatterChurnAdversary,
    WaveChurnAdversary,
)
from repro.baselines.forgiving import ForgivingTreeHealer
from repro.baselines.naive import NoRepairHealer
from repro.core.errors import ProtocolError
from repro.core.forgiving_tree import ForgivingTree
from repro.distributed import DistributedForgivingTree
from repro.fgraph import DistributedForgivingGraph, ForgivingGraph
from repro.fgraph.healer import ForgivingGraphHealer
from repro.graphs import generators
from repro.harness import TRANSPORT_MODES, run_campaign, run_churn_campaign
from repro.simnet import (
    LATENCY_CATALOG,
    SCHEDULER_CATALOG,
    AsyncNetwork,
    ConstantLatency,
    HeavyTailLatency,
    TransportDivergence,
    TransportSpec,
    UniformLatency,
    heal_footprint,
    resolve_latency,
    resolve_scheduler,
    resolve_transport,
)
from tests.conftest import examples

HEALERS = ((ForgivingTreeHealer, "ft"), (ForgivingGraphHealer, "fg"))


def _tree_graph(n, seed):
    return {k: set(v) for k, v in generators.random_tree(n, seed).items()}


# ----------------------------------------------------------------------
# latency models and schedulers
# ----------------------------------------------------------------------
class TestLatencyModels:
    def test_constant(self):
        model = ConstantLatency(2.5, seed=1)
        assert model.sample(0, 1) == 2.5

    def test_uniform_bounds(self):
        model = UniformLatency(0.5, 1.5, seed=3)
        draws = [model.sample(0, 1) for _ in range(200)]
        assert all(0.5 <= d <= 1.5 for d in draws)
        assert len(set(draws)) > 1

    def test_heavy_tail_floor_and_cap(self):
        model = HeavyTailLatency(scale=0.5, alpha=1.5, cap=10.0, seed=5)
        draws = [model.sample(0, 1) for _ in range(500)]
        assert all(0.5 <= d <= 10.0 for d in draws)

    def test_heavy_tail_uncapped(self):
        model = HeavyTailLatency(scale=1.0, alpha=1.1, cap=None, seed=5)
        assert max(model.sample(0, 1) for _ in range(50)) >= 1.0

    def test_seeded_reproducibility(self):
        a = resolve_latency("uniform", seed=9)
        b = resolve_latency("uniform", seed=9)
        assert [a.sample(0, 1) for _ in range(20)] == [
            b.sample(0, 1) for _ in range(20)
        ]

    def test_resolve_forms(self):
        assert resolve_latency("constant", 0).name == "constant"
        assert resolve_latency(("uniform", {"low": 1, "high": 2}), 0).high == 2
        inst = ConstantLatency(3.0)
        assert resolve_latency(inst, seed=4) is inst
        with pytest.raises(ValueError):
            resolve_latency("wormhole")

    def test_validation(self):
        with pytest.raises(ValueError):
            ConstantLatency(0)
        with pytest.raises(ValueError):
            UniformLatency(2.0, 1.0)
        with pytest.raises(ValueError):
            HeavyTailLatency(scale=2.0, cap=1.0)
        assert set(LATENCY_CATALOG) == {"constant", "uniform", "heavy-tail"}


class TestSchedulers:
    def test_catalog(self):
        assert set(SCHEDULER_CATALOG) == {
            "latency",
            "fifo",
            "adversarial",
            "random",
        }
        with pytest.raises(ValueError):
            resolve_scheduler("chaos-monkey")

    def test_policies_pick_legally(self):
        class Env:
            def __init__(self, deliver_at, seq):
                self.deliver_at = deliver_at
                self.seq = seq

        envs = [Env(5.0, 2), Env(1.0, 7), Env(3.0, 0)]
        assert resolve_scheduler("latency").pick(envs).seq == 7
        assert resolve_scheduler("fifo").pick(envs).seq == 0
        assert resolve_scheduler("adversarial").pick(envs).seq == 7
        assert resolve_scheduler("random", seed=3).pick(envs) in envs


# ----------------------------------------------------------------------
# the kernel as a drop-in transport (protocols unmodified)
# ----------------------------------------------------------------------
class TestAsyncNetworkDropIn:
    @pytest.mark.parametrize("latency", sorted(LATENCY_CATALOG))
    def test_ft_protocol_matches_sequential(self, latency):
        tree = generators.random_tree(24, 7)
        dist = DistributedForgivingTree(
            tree, network=AsyncNetwork(latency=latency, seed=11)
        )
        seq = ForgivingTree(tree)
        order = sorted(tree)
        random.Random(5).shuffle(order)
        for nid in order:
            dist.delete(nid)
            seq.delete(nid)
            assert dist.edges() == seq.edges()

    @pytest.mark.parametrize("scheduler", sorted(SCHEDULER_CATALOG))
    def test_fg_protocol_matches_sequential(self, scheduler):
        g = _tree_graph(20, 3)
        dist = DistributedForgivingGraph(
            g, network=AsyncNetwork(scheduler=scheduler, seed=2)
        )
        seq = ForgivingGraph(g, strict=True)
        order = sorted(g)
        random.Random(8).shuffle(order)
        nxt = 1000
        for nid in order[:14]:
            dist.delete(nid)
            seq.delete(nid)
            target = min(seq.alive)
            dist.insert(nxt, target)
            seq.insert(nxt, target)
            nxt += 1
            dist_edges = dist.edges()
            seq_edges = {
                (u, v) for u, vs in seq.graph().items() for v in vs if u < v
            }
            assert dist_edges == seq_edges

    def test_rejects_non_empty_network(self):
        net = AsyncNetwork()
        DistributedForgivingTree({0: [1]}, network=net)
        with pytest.raises(ProtocolError):
            DistributedForgivingTree({0: [1]}, network=net)

    def test_send_requires_context(self):
        from repro.distributed.messages import Message

        net = AsyncNetwork()
        with pytest.raises(ProtocolError):
            net.send(Message(sender=0, recipient=1))

    def test_heal_stats_surface(self):
        net = AsyncNetwork(latency="constant", seed=0)
        dist = DistributedForgivingTree(generators.random_tree(10, 1), network=net)
        stats = dist.delete(3)
        assert stats.quiesced_at >= stats.injected_at
        assert stats.heal_latency == stats.quiesced_at - stats.injected_at
        assert stats.sub_rounds >= 1
        assert net.delivered > 0

    def test_injection_window_discipline(self):
        net = AsyncNetwork()
        net.open_heal(label="one")
        with pytest.raises(ProtocolError):
            net.open_heal(label="two")
        net.close_injection()
        with pytest.raises(ProtocolError):
            net.close_injection()

    def test_open_heals_and_in_flight(self):
        net = AsyncNetwork(latency="constant", seed=0, record_samples=True)
        dist = DistributedForgivingTree(generators.random_tree(12, 2), network=net)
        assert net.open_heals() == []
        hid = net.open_heal(label="delete-0")
        dist.inject_delete(0)
        net.close_injection()
        assert net.open_heals() == [hid]
        heals, queued = net.in_flight()
        assert heals == 1 and queued == net.heal_pending(hid) > 0
        net.quiesce()
        assert net.open_heals() == []
        assert net.heal_pending(hid) == 0
        assert net.heal_stats(hid).quiesced_at >= 0
        assert net.samples  # record_samples keeps the time series

    def test_depth_guard_trips_and_network_survives(self):
        """A heal deeper than max_depth raises instead of livelocking,
        leaves no member half-applied, and the network stays usable
        afterwards."""
        from repro.fgraph import DistributedForgivingGraph

        g = {0: {1, 2, 3}, 1: {0}, 2: {0}, 3: {0}}
        net = AsyncNetwork(max_depth=1)
        dfg = DistributedForgivingGraph(g, network=net)
        # fan-out, then reports and portions: two layers below the injection
        with pytest.raises(ProtocolError, match="no quiescence after 1 layers"):
            dfg.delete(0)
        # The coordinator (node 1) ships before it applies its own
        # portion, so the refused portions leave the heal lost, not
        # half-applied: nothing pending, every claim symmetric.
        assert dfg.integrity_violations() == []
        assert dfg.edges() == set()
        # A two-message handshake fits in one layer, and so does the heal
        # of a leaf hung off the tripped coordinator or off node 3.
        for leaf, anchor in ((50, 1), (51, 3)):
            dfg.insert(leaf, anchor)
            dfg.delete(leaf)
        assert dfg.alive == {1, 2, 3}
        # A follow-up heal through node 1 that needs portions trips just
        # as cleanly ...
        dfg.insert_batch([(52, 1), (53, 1)])
        with pytest.raises(ProtocolError, match="no quiescence after 1 layers"):
            dfg.delete(1)
        assert dfg.integrity_violations() == []
        assert dfg.edges() == set()
        # ... and heals run in full once the guard allows their depth.
        net.max_sub_rounds = 8
        dfg.insert_batch([(54, 2), (55, 2), (56, 2)])
        dfg.delete(2)
        assert dfg.alive == {3, 52, 53, 54, 55, 56}
        assert dfg.edges() == {(54, 55), (55, 56)}
        assert dfg.integrity_violations() == []

    def test_insert_batch_accepts_one_shot_iterables(self):
        """Waves may arrive as generators; validation must not consume
        the iterable before injection does."""
        from repro.fgraph import DistributedForgivingGraph

        dist = DistributedForgivingTree(
            generators.random_tree(6, 1), network=AsyncNetwork()
        )
        dist.insert_batch((nid, 0) for nid in (100, 101))
        assert 100 in dist.alive and 101 in dist.alive
        dfg = DistributedForgivingGraph({0: {1}, 1: {0}})
        dfg.insert_batch((nid, 0) for nid in (100, 101))
        assert 100 in dfg.alive and 101 in dfg.alive


# ----------------------------------------------------------------------
# seeded determinism
# ----------------------------------------------------------------------
class TestDeterminism:
    def _run(self, seed):
        g = _tree_graph(80, 17)
        healer = ForgivingTreeHealer(g)
        res = run_churn_campaign(
            healer,
            RandomChurnAdversary(p_insert=0.3, seed=4),
            events=60,
            seed=seed,
            transport=TransportSpec(
                mode="async", latency="heavy-tail", scheduler="random", gap=0.1
            ),
        )
        # reach inside: the mirror's network is gone, so capture the log
        # via a fresh mirror-driving run below instead.
        return res

    def test_same_seed_same_event_log(self):
        logs = []
        for _ in range(2):
            net = AsyncNetwork(
                latency="heavy-tail",
                scheduler="random",
                seed=21,
                record_log=True,
            )
            dist = DistributedForgivingTree(
                generators.random_tree(40, 13), network=net
            )
            order = sorted(range(40))
            random.Random(6).shuffle(order)
            for nid in order[:25]:
                dist.delete(nid)
            logs.append(list(net.event_log))
        assert logs[0] == logs[1]
        assert len(logs[0]) > 100

    def test_different_seed_different_schedule(self):
        logs = []
        for seed in (1, 2):
            net = AsyncNetwork(latency="uniform", seed=seed, record_log=True)
            dist = DistributedForgivingTree(
                generators.random_tree(30, 13), network=net
            )
            for nid in range(10):
                dist.delete(nid)
            logs.append(list(net.event_log))
        assert logs[0] != logs[1]

    def test_campaign_transport_summary_deterministic(self):
        summaries = []
        for _ in range(2):
            res = self._run(seed=5)
            t = res.transport
            summaries.append(
                (t.events, t.barriers, t.makespan, tuple(t.heal_latencies))
            )
        assert summaries[0] == summaries[1]


# ----------------------------------------------------------------------
# seq-vs-async convergence at every quiesce barrier (the tentpole wall)
# ----------------------------------------------------------------------
class TestConvergence:
    """>= 10 mixed FT+FG campaigns; every barrier cross-validates the
    healed image node-for-node inside TransportMirror.verify (any
    divergence raises), and finish() closes the loop vs the live oracle."""

    CAMPAIGNS = [
        # (healer_idx, n, tree_seed, adv_seed, latency, scheduler)
        (0, 120, 1, 1, "constant", "latency"),
        (1, 120, 1, 1, "constant", "latency"),
        (0, 90, 2, 2, "uniform", "fifo"),
        (1, 90, 2, 2, "uniform", "fifo"),
        (0, 150, 3, 3, "heavy-tail", "adversarial"),
        (1, 150, 3, 3, "heavy-tail", "adversarial"),
        (0, 70, 4, 4, "uniform", "random"),
        (1, 70, 4, 4, "uniform", "random"),
        (0, 110, 5, 5, "heavy-tail", "random"),
        (1, 110, 5, 5, "heavy-tail", "latency"),
        (0, 60, 6, 6, "constant", "adversarial"),
        (1, 60, 6, 6, "uniform", "adversarial"),
    ]

    @pytest.mark.parametrize("case", CAMPAIGNS)
    def test_mixed_campaign_converges(self, case):
        healer_idx, n, tree_seed, adv_seed, latency, scheduler = case
        factory = HEALERS[healer_idx][0]
        healer = factory(_tree_graph(n, tree_seed))
        res = run_churn_campaign(
            healer,
            RandomChurnAdversary(p_insert=0.35, seed=adv_seed),
            events=70,
            seed=adv_seed,
            transport=TransportSpec(
                mode="async", latency=latency, scheduler=scheduler, gap=0.15
            ),
        )
        t = res.transport
        assert t.events == 70
        assert t.barriers >= 1
        assert t.makespan > 0

    @pytest.mark.parametrize("factory,name", HEALERS)
    def test_wave_churn_converges(self, factory, name):
        healer = factory(_tree_graph(100, 9))
        res = run_churn_campaign(
            healer,
            WaveChurnAdversary(wave=6, p_wave=0.4, seed=3),
            events=50,
            seed=3,
            transport="async",
        )
        assert res.transport.events == 50

    @pytest.mark.parametrize("factory,name", HEALERS)
    def test_full_deletion_campaign_converges(self, factory, name):
        healer = factory(_tree_graph(50, 12))
        res = run_campaign(
            healer,
            RandomAdversary(seed=2),
            seed=2,
            transport=TransportSpec(
                mode="async", latency="heavy-tail", scheduler="adversarial"
            ),
        )
        assert len(res.rounds) == 49  # down to a single survivor

    @pytest.mark.parametrize("factory,name", HEALERS)
    def test_sync_transport_mirrors_per_event(self, factory, name):
        healer = factory(_tree_graph(60, 8))
        res = run_churn_campaign(
            healer,
            RandomChurnAdversary(p_insert=0.3, seed=1),
            events=40,
            seed=1,
            transport="sync",
        )
        t = res.transport
        assert t.mode == "sync"
        assert t.peak_sub_rounds >= 1
        assert t.heal_latencies == []

    def test_acceptance_concurrency_floor(self):
        """The ISSUE's acceptance bar: >= 4 concurrent in-flight churn
        events, converging at every barrier, for both healers, under
        all three latency models."""
        for factory, _name in HEALERS:
            for latency in sorted(LATENCY_CATALOG):
                healer = factory(_tree_graph(250, 42))
                res = run_churn_campaign(
                    healer,
                    ScatterChurnAdversary(p_insert=0.25, seed=7),
                    events=90,
                    seed=11,
                    transport=TransportSpec(
                        mode="async", latency=latency, gap=0.05, barrier_every=16
                    ),
                )
                assert res.transport.peak_in_flight_heals >= 4, (
                    _name,
                    latency,
                    res.transport.peak_in_flight_heals,
                )

    def test_conflicting_events_serialize(self):
        """Hammering one small region must force conflict barriers —
        and still converge."""
        healer = ForgivingGraphHealer(_tree_graph(30, 5))
        res = run_churn_campaign(
            healer,
            RandomChurnAdversary(p_insert=0.4, seed=9),
            events=60,
            seed=9,
            transport=TransportSpec(mode="async", gap=0.01, barrier_every=0),
        )
        assert res.transport.conflict_barriers > 0


# ----------------------------------------------------------------------
# Hypothesis: fuzz over scheduler interleavings
# ----------------------------------------------------------------------
class TestInterleavingFuzz:
    @settings(max_examples=examples(25), deadline=None)
    @given(
        sched_seed=st.integers(min_value=0, max_value=10**6),
        adv_seed=st.integers(min_value=0, max_value=10**6),
        healer_idx=st.integers(min_value=0, max_value=1),
    )
    def test_any_interleaving_converges(self, sched_seed, adv_seed, healer_idx):
        """Each RandomScheduler seed is one legal interleaving; the
        mirror's barriers assert convergence for every sampled one."""
        factory = HEALERS[healer_idx][0]
        healer = factory(_tree_graph(60, 31))
        res = run_churn_campaign(
            healer,
            RandomChurnAdversary(p_insert=0.3, seed=adv_seed),
            events=35,
            seed=sched_seed,
            transport=TransportSpec(
                mode="async",
                latency="uniform",
                scheduler="random",
                gap=0.1,
                barrier_every=5,
            ),
        )
        assert res.transport.events == 35


# ----------------------------------------------------------------------
# transport plumbing
# ----------------------------------------------------------------------
class TestTransportPlumbing:
    def test_transport_modes(self):
        assert TRANSPORT_MODES == ("none", "sync", "async", "lease")
        assert resolve_transport(None) is None
        assert resolve_transport("none") is None
        assert resolve_transport("sync", seed=3).mode == "sync"
        spec = resolve_transport("async", seed=3)
        assert spec.mode == "async" and spec.seed == 3
        assert spec.overlap == "serialize"  # PR 4 behavior is the default
        lease = resolve_transport("lease", seed=5)
        assert lease.mode == "async" and lease.overlap == "lease"
        assert lease.seed == 5
        # an explicit spec seed wins over the campaign seed
        assert resolve_transport(TransportSpec(seed=9), seed=3).seed == 9
        assert resolve_transport(TransportSpec(), seed=3).seed == 3
        with pytest.raises(ValueError):
            resolve_transport("carrier-pigeon")
        with pytest.raises(ValueError):
            TransportSpec(mode="quantum")
        with pytest.raises(ValueError):
            TransportSpec(overlap="optimistic")
        with pytest.raises(ValueError):
            TransportSpec(mode="sync", overlap="lease")
        with pytest.raises(ValueError):
            TransportSpec(overlap="lease", max_wait_chain=0)

    def test_unsupported_healer_raises(self):
        healer = NoRepairHealer(_tree_graph(10, 1))
        with pytest.raises(ValueError):
            run_campaign(
                healer, RandomAdversary(seed=0), rounds=2, transport="async"
            )

    def test_nonbinary_ft_raises(self):
        healer = ForgivingTreeHealer(_tree_graph(10, 1), branching=3)
        with pytest.raises(ValueError):
            run_campaign(
                healer, RandomAdversary(seed=0), rounds=2, transport="sync"
            )

    def test_footprint_contents(self):
        healer = ForgivingGraphHealer(_tree_graph(20, 2))
        report = healer.delete(7)
        fp = heal_footprint(report, graph=healer.graph())
        assert 7 in fp
        assert set(report.messages_per_node) <= fp
        for u, v in report.edges_added | report.edges_removed:
            assert u in fp and v in fp

    def test_divergence_error_is_loud(self):
        from repro.simnet.transport import TransportMirror

        healer = ForgivingGraphHealer(_tree_graph(12, 3))
        mirror = TransportMirror(healer, resolve_transport("async", seed=1))
        report = healer.delete(4)
        mirror.apply(report)
        # sabotage the expected image: the barrier must now blow up
        mirror._expected.add((997, 998))
        with pytest.raises(TransportDivergence):
            mirror.barrier()

    def test_heal_latency_percentiles(self):
        from repro.simnet.transport import TransportSummary

        s = TransportSummary(
            mode="async",
            latency="uniform",
            scheduler="latency",
            seed=0,
            heal_latencies=[1.0, 2.0, 3.0, 4.0],
        )
        pct = s.heal_latency_percentiles
        assert pct["max"] == 4.0
        assert pct["mean"] == 2.5
        assert pct["p50"] in (2.0, 3.0)
        assert TransportSummary(
            mode="async", latency="u", scheduler="l", seed=0
        ).heal_latency_percentiles["p99"] == 0.0

    def test_run_until_advances_clock(self):
        net = AsyncNetwork()
        net.run_until(5.0)
        assert net.clock == 5.0
        net.quiesce()
        assert net.clock == 5.0  # inf horizon never rewinds the clock
        assert not math.isinf(net.clock)


class TestScatterAdversary:
    def test_scatters_and_validates(self):
        healer = ForgivingTreeHealer(_tree_graph(80, 3))
        adv = ScatterChurnAdversary(p_insert=0.3, spread=5, radius=2, seed=1)
        res = run_churn_campaign(healer, adv, events=40, seed=1)
        assert len(res.rounds) == 40
        assert res.n_inserts > 0 and res.n_deletes > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ScatterChurnAdversary(p_insert=1.5)
        with pytest.raises(ValueError):
            ScatterChurnAdversary(spread=-1)

    def test_reset_replays(self):
        g = _tree_graph(40, 4)
        events = []
        for _ in range(2):
            healer = ForgivingTreeHealer({k: set(v) for k, v in g.items()})
            adv = ScatterChurnAdversary(seed=3)
            adv.reset()
            events.append(
                [type(adv.next_event(healer)).__name__ for _ in range(5)]
            )
        assert events[0] == events[1]
