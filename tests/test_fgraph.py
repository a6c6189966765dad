"""The Forgiving Graph subsystem test wall.

Four layers, mirroring the subsystem's structure, and frozen streams:

* **ReconstructionTree** — the haft: removals, merges and fresh leaves
  applied in place equal the haft built from scratch over the resulting
  in-order sequence (property-tested, with each operation's journal
  naming exactly the helpers it changed), and every removal from every
  haft of up to 64 leaves keeps the ``floor(log2 L) + 1`` depth bound,
  injective simulators and one free member.
* **ForgivingGraph engine** — the paper's two theorems pinned per round
  over seeded churn traces and arbitrary Hypothesis interleavings:
  additive degree increase <= 3, empirical stretch within the
  ``2 log2 n + 2`` envelope against the ideal graph (dead nodes
  routable), connectivity, the full structural ``check()``, and heal
  work and heal messages flat in the region size.
* **Healer integration** — the catalog, every churn adversary and both
  campaign runners driving ``forgiving-graph`` unmodified, batch wave
  semantics, and the incremental-metrics fast path.
* **Sequential-vs-distributed parity** — the counted-message runtime
  produces byte-identical image graphs and *node-for-node* identical
  message tallies across randomized mixed campaigns and a hub massacre
  whose probe walks span large hafts.
* **Report pins** — every report, tally and final image of four
  campaigns equals the stream recorded in
  ``tests/data/fgraph_report_pins.json``.
"""

import json
import math
import os
import random

import pytest

from tests.conftest import *  # noqa: F401,F403 - shared fixtures

from repro import guarantees
from repro.adversaries import (
    GrowthThenMassacreAdversary,
    MaxDegreeAdversary,
    OscillatingChurnAdversary,
    RandomAdversary,
    RandomChurnAdversary,
    SurrogateKillerAdversary,
    TraceReplayAdversary,
    WaveChurnAdversary,
)
from repro.baselines import ForgivingGraphHealer, ForgivingTreeHealer, healer_catalog
from repro.churn import synthetic_skype_outage
from repro.churn.events import Insert, InsertWave
from repro.audit import HealDelta
from repro.core.events import WillPortionSent
from repro.core.errors import (
    DuplicateNodeError,
    InvariantViolationError,
    NodeNotFoundError,
    ReproError,
)
from repro.fgraph import DistributedForgivingGraph, ForgivingGraph, ReconstructionTree
from repro.distributed.network import Network
from repro.graphs import generators
from repro.graphs.adjacency import bfs_distances, edges as edge_set, is_connected
from repro.graphs.view import max_degree_nodes, min_degree_nodes, sorted_nodes
from repro.harness import churn_duel, run_campaign, run_churn_campaign
from repro.regions.admission import heal_footprint
from tests import fgraph_report_pins

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402


# ---------------------------------------------------------------------------
# ReconstructionTree
# ---------------------------------------------------------------------------
def _fields(haft):
    """Everything a haft is: links, simulators, depths and image."""
    return (
        haft.members, haft.trees, haft.port_parent, haft.helper_links,
        dict(haft.walk()), haft.image_edges(),
    )


def _changed(before, after):
    """Helpers whose simulator or links differ between two link maps."""
    return {s for s in before.keys() | after.keys() if before.get(s) != after.get(s)}


def _snapshot(hafts):
    links = {}
    for haft in hafts:
        links.update(haft.helper_links)
    return links


class TestReconstructionTree:
    @settings(max_examples=examples(60), deadline=None)
    @given(
        first=st.integers(1, 40),
        script=st.lists(
            st.tuples(
                st.sampled_from(["remove", "merge", "fresh"]),
                st.integers(0, 10**6),
                st.integers(0, 40),
            ),
            max_size=30,
        ),
    )
    @example(first=1, script=[("fresh", 0, 1)])
    @example(first=32, script=[("remove", 0, 0), ("merge", 0, 31)])
    def test_incremental_hafts_equal_the_from_scratch_build(self, first, script):
        """Removals, merges with other hafts and fresh leaves, applied in
        place, leave exactly the haft built from the resulting in-order
        sequence, and each operation's journal names exactly the helpers
        it dissolved, created or relinked."""
        nxt = iter(range(10**7))
        haft = ReconstructionTree.build([next(nxt) for _ in range(first)])
        for op, pick, size in script:
            members = sorted(haft.members)
            if op == "remove" and len(members) < 2:
                op = "fresh"
            others = []
            if op == "merge":
                other = [next(nxt) for _ in range(size + 1)]
                others = [ReconstructionTree.build(other)]
            fresh = [next(nxt) for _ in range(size % 4)] if op != "remove" else []
            before = _snapshot([haft] + others)
            journal = {}
            if op == "remove":
                # The rightmost leaf takes the removed member's slot.
                expect = list(haft.sequence())
                gone = members[pick % len(members)]
                expect[expect.index(gone)] = expect[-1]
                expect.pop()
                haft.remove(gone, journal)
                assert haft.sequence() == tuple(expect)
            else:
                haft = ReconstructionTree.merge([haft] + others, fresh, journal)
            links = haft.helper_links
            changed = {s for s, old in journal.items() if old != links.get(s)}
            assert changed == _changed(before, links)
            assert _fields(haft) == _fields(ReconstructionTree.build(haft.sequence()))
            if len(haft.members) >= 2:
                haft.check()

    def test_every_removal_up_to_64_leaves(self):
        """Exhaustive: every L <= 64, every removal position keeps the
        depth bound, injective simulators and exactly one free member,
        and changes O(log L) helpers."""
        for size in range(3, 65):
            for pos in range(size):
                haft = ReconstructionTree.build(range(size))
                before = dict(haft.helper_links)
                haft.remove(pos, {})
                # canonical shape; the walk reaches each helper once
                # (injective simulators)
                haft.check()
                left = size - 1
                assert max(d for _, d in haft.walk()) <= left.bit_length()
                assert len(haft.helper_links) == left - 1
                assert len(haft.members - haft.helper_links.keys()) == 1
                changed = _changed(before, haft.helper_links)
                assert len(changed) <= 2 * size.bit_length() + 1

    def test_two_leaves(self):
        rt = ReconstructionTree.build([5, 9])
        rt.check()
        assert rt.n_helpers == 1
        assert rt.members == {5, 9}
        # The lone helper is simulated by its in-order predecessor, 5;
        # the image collapses to the single surviving real-real edge.
        assert rt.helper_links == {5: (None, (5, "real"), (9, "real"))}
        assert rt.image_edges() == {(5, 9)}

    def test_haft_is_a_row_of_complete_trees(self):
        # 11 = 8 + 2 + 1: three complete trees, largest first, on a spine.
        rt = ReconstructionTree.build(range(11))
        rt.check()
        assert [(h, last) for h, _root, last in rt.trees] == [(3, 7), (1, 9), (0, 10)]
        depth = dict(rt.walk())
        assert {depth[m] for m in range(8)} == {4}
        assert (depth[8], depth[9], depth[10]) == (3, 3, 2)
        assert rt.root == (7, "helper")  # the spine head: tree 0's last leaf
        assert rt.sequence() == tuple(range(11))

    def test_check_rejects_degenerate_hafts(self):
        with pytest.raises(InvariantViolationError, match="fewer than two"):
            ReconstructionTree.build([1]).check()
        with pytest.raises(InvariantViolationError):
            ReconstructionTree.build([1, 2, 1]).check()

    def test_merge_order_is_computed_from_contents(self):
        def parts():
            return [
                ReconstructionTree.build([4, 1, 7]),
                ReconstructionTree.build([9, 3]),
                ReconstructionTree.build([2, 8, 6]),
            ]

        a = ReconstructionTree.merge(parts(), [5, 0], {})
        b = ReconstructionTree.merge(parts()[::-1], [5, 0], {})
        assert _fields(a) == _fields(b)
        a.check()

    @settings(max_examples=60, deadline=None)
    @given(size=st.integers(min_value=2, max_value=40))
    def test_image_is_connected_and_sparse(self, size):
        rt = ReconstructionTree.build(range(size))
        img = {n: set() for n in rt.members}
        for u, v in rt.image_edges():
            img[u].add(v)
            img[v].add(u)
        assert is_connected(img)
        # Degree discipline: port (1) + a simulated helper (<= 3).
        assert all(len(s) <= 4 for s in img.values())


# ---------------------------------------------------------------------------
# the sequential engine
# ---------------------------------------------------------------------------
def _stretch_ok(engine: ForgivingGraph, sample: int = 6, seed: int = 0) -> None:
    """Healed distances stay inside the 2·log2(n)+2 per-crossing envelope
    relative to the ideal graph with dead nodes routable."""
    alive = sorted(engine.alive)
    if len(alive) < 2:
        return
    ideal = engine.ideal_graph(include_dead=True)
    image = engine.graph()
    bound = guarantees.fg_stretch_envelope(len(ideal))
    rng = random.Random(seed)
    sources = rng.sample(alive, min(sample, len(alive)))
    for u in sources:
        di = bfs_distances(ideal, u)
        dh = bfs_distances(image, u)
        for v in alive:
            d0 = di.get(v)
            if v == u or d0 in (None, 0):
                continue
            assert dh.get(v) is not None, f"{u}->{v} unreachable in the image"
            assert dh[v] <= max(d0, bound * d0), (
                f"stretch blown: d_H({u},{v})={dh[v]} vs d_G={d0}, n={len(ideal)}"
            )


def _play_engine(engine: ForgivingGraph, rng: random.Random, steps: int) -> None:
    nxt = 10_000
    for _ in range(steps):
        alive = sorted(engine.alive)
        if not alive:
            break
        if len(alive) > 1 and rng.random() < 0.55:
            engine.delete(rng.choice(alive))
        else:
            engine.insert(nxt, rng.choice(alive))
            nxt += 1
        assert engine.max_degree_increase() <= 3
        assert is_connected(engine.graph())


class TestForgivingGraphEngine:
    @pytest.mark.parametrize("seed", range(8))
    def test_churn_trace_keeps_both_theorems(self, seed):
        g = (
            generators.random_tree(18, seed=seed)
            if seed % 2
            else generators.random_connected_gnp(16, 0.25, seed=seed)
        )
        engine = ForgivingGraph(g, strict=True)  # check() every event
        _play_engine(engine, random.Random(seed), steps=40)
        _stretch_ok(engine, seed=seed)

    def test_general_graphs_are_first_class(self):
        g = generators.random_connected_gnp(30, 0.2, seed=5)
        engine = ForgivingGraph(g, strict=True)
        rng = random.Random(5)
        for _ in range(20):
            engine.delete(rng.choice(sorted(engine.alive)))
        assert engine.max_degree_increase() <= 3
        assert is_connected(engine.graph())
        _stretch_ok(engine, seed=5)

    def test_one_haft_per_node_after_region_merges(self):
        # A path: the single-port rule merges hafts through shared
        # surviving members as soon as a node would acquire a second
        # port, so walking deletions down the path keeps ONE haft.
        engine = ForgivingGraph(generators.path(11), strict=True)
        engine.delete(1)
        assert len(engine.hafts) == 1
        assert engine.hafts[0].members == {0, 2}
        for v in (3, 5, 7, 9):
            engine.delete(v)  # survivor 2 (4, 6, 8) would get 2 ports
        assert len(engine.hafts) == 1
        assert engine.hafts[0].members == {0, 2, 4, 6, 8, 10}
        for v in (2, 4, 6, 8):
            engine.delete(v)
        # One connected dead region -> one haft over the two survivors.
        assert len(engine.hafts) == 1
        assert engine.hafts[0].members == {0, 10}
        assert is_connected(engine.graph())

    def test_separated_regions_keep_separate_hafts(self):
        engine = ForgivingGraph(generators.path(9), strict=True)
        engine.delete(1)
        engine.delete(7)  # far from the first hole: no shared member
        assert len(engine.hafts) == 2
        assert engine.hafts[0].members == {0, 2}
        assert engine.hafts[1].members == {6, 8}

    def test_heir_promotion_dissolves_one_leaf_regions(self):
        engine = ForgivingGraph(generators.path(3), strict=True)
        engine.delete(1)  # haft over {0, 2}
        assert len(engine.hafts) == 1
        engine.delete(2)  # lone leaf 0 promoted; region dissolves
        assert engine.hafts == []
        assert engine.graph() == {0: set()}

    def test_insert_is_the_two_message_handshake(self):
        engine = ForgivingGraph(generators.star(3), strict=True)
        engine.insert(10, 1)
        engine.insert(11, 10)
        report = engine.insert(12, 11)
        assert report.messages_per_node == {12: 1, 11: 1}  # request + ack
        assert report.edges_added == {(11, 12)}

    @pytest.mark.parametrize(
        "n,min_region", [(500, 300), (5_000, 3_000), (30_000, 20_000)]
    )
    def test_heal_work_is_flat_in_region_size(self, n, min_region):
        """Per delete, helpers created + destroyed + net image edge
        changes stay within 4 * (alive degree + ceil(log2 L) + 1) while
        the hub massacre grows one region to L ~ n * 3/4 leaves.  (This
        drives the structural half; the messages have their own ladder
        below.)"""
        g = generators.preferential_attachment(n, 2, seed=3)
        engine = ForgivingGraph(g)
        biggest = 0
        for v in sorted(g, key=lambda v: (-len(g[v]), v))[: n // 5]:
            degree = sum(1 for u in g[v] if u in engine.alive)
            _hafts, _fresh, haft, changed, removed, added = engine._heal(v)
            size = len(haft.members) if haft else 1
            biggest = max(biggest, size)
            links = haft.helper_links if haft else {}
            work = len(removed) + len(added) + sum(
                (old is not None) + (s in links) for s, old in changed.items()
            )
            assert work <= 4 * (degree + math.ceil(math.log2(size)) + 1), v
        assert biggest >= min_region
        engine.check()

    @pytest.mark.parametrize(
        "n,min_region", [(500, 300), (5_000, 3_000), (30_000, 20_000)]
    )
    def test_heal_messages_are_flat_in_region_size(self, n, min_region):
        """Per delete, no node but the victim (whose fan-out is its own,
        as in the FT) sends more than ``fg_node_message_budget(n, fresh,
        hafts)`` — O(log n) per merged haft plus one portion per fresh
        direct neighbour — while the hub massacre grows one haft to
        L ~ n * 3/4 members:
        the walk and the changed members' portions, not one portion per
        member.  (Every message's id count is a constant of its type; the
        distributed parity massacre checks it.)"""
        g = generators.preferential_attachment(n, 2, seed=3)
        engine = ForgivingGraph(g)
        biggest = peak = 0
        for v in sorted(g, key=lambda v: (-len(g[v]), v))[: n // 5]:
            fresh, hafts = _merge_inputs(engine, v, g[v])
            report = engine.delete(v)
            sends = [c for u, c in report.messages_per_node.items() if u != v]
            if sends:
                budget = guarantees.fg_node_message_budget(n, fresh, hafts)
                assert max(sends) <= budget, v
                peak = max(peak, max(sends) - fresh)
            haft = engine.hafts[0] if engine.hafts else None
            biggest = max(biggest, len(haft.members) if haft else 0)
        assert biggest >= min_region
        assert peak <= 12  # the measured peak at every rung: flat in L

    @pytest.mark.parametrize("own", [False, True])
    def test_heal_messages_grow_with_the_hafts_merged(self, own):
        """One delete joins ``k`` hafts of 511 members each — nine 1-bits,
        so every tree of every row is unspined and respined — plus three
        fresh neighbours: the coordinator's portions grow with ``k``
        (about ``log2 n`` each), and stay within
        ``fg_node_message_budget(n, fresh, hafts)``."""
        peaks = []
        for k in (1, 3, 6, 9):
            g, hubs, victim = _hafts_around(k, bits=9, fresh=3, own=own)
            engine = ForgivingGraph(g)
            for hub in hubs:
                engine.delete(hub)
            fresh, hafts = _merge_inputs(engine, victim, g[victim])
            assert (fresh, hafts) == (3, k + own)
            n = len(engine.alive)
            report = engine.delete(victim)
            engine.check()
            peak = max(
                c for u, c in report.messages_per_node.items() if u != victim
            )
            assert peak <= guarantees.fg_node_message_budget(n, fresh, hafts)
            peaks.append(peak - fresh)
        log_n = math.ceil(math.log2(n))
        assert peaks == sorted(peaks)
        # Nine hafts cost several times one haft's log2 n: the haft
        # count, not a constant, carries the coordinator's budget.
        assert peaks[-1] > guarantees.FG_NODE_MESSAGE_BASE + 4 * log_n

    def test_merge_keeps_the_largest_haft(self):
        # Small-to-large: the big region's haft absorbs the small one,
        # so only the small one's members are relabelled.
        engine = ForgivingGraph(generators.path(12), strict=True)
        for v in (1, 3, 5):
            engine.delete(v)  # one haft over 0, 2, 4, 6
        big = engine.haft_of(0)
        engine.delete(9)  # a second haft over 8, 10
        assert engine.haft_of(8) is not big
        engine.delete(7)  # joins both regions through 6 and 8
        assert engine.haft_of(10) is big
        assert big.members == {0, 2, 4, 6, 8, 10}

    def test_reports_list_real_changes_and_cover_every_recipient(self):
        """``edges_added`` / ``edges_removed`` are the exact image delta,
        and every portion recipient is in the audit's heal region and the
        admission footprint (its port edge is listed removed and re-added
        in the event log when it did not change)."""
        g = generators.random_connected_gnp(60, 0.08, seed=4)
        engine = ForgivingGraph(g, strict=True)
        rng = random.Random(4)
        nxt, recipients = 1_000, 0
        for _ in range(120):
            alive = sorted(engine.alive)
            if len(alive) > 2 and rng.random() < 0.6:
                before = edge_set(engine.graph())
                report = engine.delete(rng.choice(alive))
                after = edge_set(engine.graph())
                assert set(report.edges_added) == after - before
                assert set(report.edges_removed) == before - after
                region = HealDelta.from_report(report).region
                footprint = heal_footprint(report)
                for event in report.events:
                    if isinstance(event, WillPortionSent):
                        recipients += 1
                        assert event.recipient in region
                        assert event.recipient in footprint
            else:
                engine.insert(nxt, rng.choice(alive))
                nxt += 1
        assert recipients > 100

    def test_id_and_liveness_validation(self):
        engine = ForgivingGraph({0: [1], 1: [0]})
        with pytest.raises(DuplicateNodeError):
            engine.insert(0, 1)
        with pytest.raises(NodeNotFoundError):
            engine.insert(5, 99)
        engine.delete(1)
        with pytest.raises(NodeNotFoundError):
            engine.delete(1)
        with pytest.raises(DuplicateNodeError):
            engine.insert(1, 0)  # ids are never reused

    def test_report_deltas_are_exact(self):
        engine = ForgivingGraph(generators.star(4), strict=True)
        before = edge_set(engine.graph())
        report = engine.delete(0)
        after = edge_set(engine.graph())
        assert after - before == set(report.edges_added)
        assert before - after == set(report.edges_removed)
        assert report.was_internal

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        script=st.lists(
            st.tuples(st.booleans(), st.integers(min_value=0, max_value=10**6)),
            min_size=1,
            max_size=50,
        ),
    )
    def test_any_interleaving_keeps_guarantees(self, seed, script):
        n = 3 + seed % 14
        g = (
            generators.random_tree(n, seed=seed)
            if seed % 3
            else generators.random_connected_gnp(n, 0.3, seed=seed)
        )
        engine = ForgivingGraph(g, strict=True)
        nxt = 10_000
        for is_insert, pick in script:
            alive = sorted(engine.alive)
            if len(alive) <= 1:
                is_insert = True
            target = alive[pick % len(alive)]
            if is_insert:
                engine.insert(nxt, target)
                nxt += 1
            else:
                engine.delete(target)
            assert engine.max_degree_increase() <= 3
            assert is_connected(engine.graph())
        _stretch_ok(engine, sample=3, seed=seed)


# ---------------------------------------------------------------------------
# healer + harness integration
# ---------------------------------------------------------------------------
CHURN_ADVERSARIES = [
    lambda: RandomChurnAdversary(p_insert=0.45, seed=11),
    lambda: WaveChurnAdversary(wave=5, p_wave=0.3, seed=12),
    lambda: GrowthThenMassacreAdversary(growth=25, seed=13),
    lambda: OscillatingChurnAdversary(period=8, seed=14),
]


def _merge_inputs(engine, v, direct):
    """``(fresh, hafts)`` of deleting ``v``, whose direct neighbours are
    ``direct``: its portless alive ones, and the distinct hafts of ``v``
    and its alive ones."""
    alive = [u for u in direct if u in engine.alive]
    fresh = sum(1 for u in alive if engine.haft_of(u) is None)
    hafts = {id(h) for h in map(engine.haft_of, (v, *alive)) if h is not None}
    return fresh, len(hafts)


def _hafts_around(k, bits, fresh, own):
    """``(graph, hubs, victim)``: once the hubs are deleted, each leaves
    a haft of ``2**bits - 1`` members, ``k`` of them holding one direct
    neighbour of the victim each (with ``own`` one more holds the
    victim itself), and the victim has ``fresh`` portless neighbours."""
    g, ids = {}, iter(range(10**6))

    def node():
        nid = next(ids)
        g[nid] = set()
        return nid

    def edge(a, b):
        g[a].add(b)
        g[b].add(a)

    victim, hubs = node(), []
    for i in range(k + own):
        hub = node()
        edge(hub, victim if i == k else node())
        if i < k:
            edge(victim, max(g[hub]))
        for _ in range(2**bits - 2):
            edge(hub, node())
        hubs.append(hub)
    for _ in range(fresh):
        edge(victim, node())
    return g, hubs, victim


class TestHealerIntegration:
    def test_registered_in_the_catalog(self):
        catalog = healer_catalog()
        assert catalog["forgiving-graph"] is ForgivingGraphHealer

    @pytest.mark.parametrize("make_adversary", CHURN_ADVERSARIES)
    def test_every_churn_adversary_runs_unmodified(self, make_adversary):
        g = generators.random_tree(60, seed=21)
        healer = ForgivingGraphHealer({k: set(v) for k, v in g.items()})
        result = run_churn_campaign(healer, make_adversary(), events=90, seed=21)
        assert result.rounds
        assert result.stayed_connected
        assert result.peak_degree_increase <= 3
        assert healer.engine.max_degree_increase() <= 3
        healer.engine.check()

    @pytest.mark.parametrize(
        "adversary",
        [RandomAdversary(seed=3), MaxDegreeAdversary(), SurrogateKillerAdversary()],
        ids=["random", "max-degree", "surrogate-killer"],
    )
    def test_classic_deletion_campaigns(self, adversary):
        g = generators.random_tree(50, seed=22)
        healer = ForgivingGraphHealer({k: set(v) for k, v in g.items()})
        result = run_campaign(healer, adversary, rounds=45, seed=22)
        assert result.stayed_connected
        assert result.peak_degree_increase <= 3

    def test_skype_trace_replay_duel(self):
        overlay, trace = synthetic_skype_outage()
        results = churn_duel(
            overlay,
            [ForgivingTreeHealer, ForgivingGraphHealer],
            lambda: TraceReplayAdversary(trace),
            events=len(trace),
        )
        fg = results["forgiving-graph"]
        assert fg.stayed_connected
        assert fg.peak_degree_increase <= 3
        assert fg.n_inserts and fg.n_deletes

    def test_incremental_metrics_fast_path(self):
        # Churn campaigns default to metrics="auto"; the FG image keeps
        # chords, so the tracker serves the tree-overlay upper bracket.
        g = generators.random_tree(40, seed=23)
        healer = ForgivingGraphHealer({k: set(v) for k, v in g.items()})
        result = run_churn_campaign(
            healer, RandomChurnAdversary(p_insert=0.4, seed=23), events=60, seed=23
        )
        measured = [r.diameter for r in result.rounds if r.diameter is not None]
        assert measured, "per-round diameter tracking fell over"
        assert all(r.stretch is not None for r in result.rounds if r.diameter)

    def test_batch_waves_share_engine_semantics(self):
        g = generators.star(4)
        healer = ForgivingGraphHealer({k: set(v) for k, v in g.items()})
        report = healer.insert_batch([(10, 0), (11, 1), (12, 1)])
        assert report.inserted_batch == ((10, 0), (11, 1), (12, 1))
        assert healer.rounds == 1
        assert healer.alive >= {10, 11, 12}
        with pytest.raises(ReproError):
            healer.insert_batch([(13, 14), (14, 0)])  # attach to same-wave joiner
        with pytest.raises(ReproError):
            healer.insert_batch([(10, 0)])  # ids never reused

    def test_view_answers_degree_and_roster_questions_from_its_index(self):
        """The view's degree index and roster, built by the first
        question, equal a scan of a plain copy after every event of a
        mixed campaign: a growth wave, the hub massacre, then churn with
        batch waves."""
        healer = ForgivingGraphHealer(generators.preferential_attachment(120, 2, seed=6))
        view = healer.view()
        max_degree_nodes(view), sorted_nodes(view)  # build both
        massacre = GrowthThenMassacreAdversary(growth=20, seed=6)
        churn = WaveChurnAdversary(wave=4, p_wave=0.3, seed=6)
        for r in range(150):
            event = (massacre if r < 90 else churn).next_event(healer)
            if isinstance(event, InsertWave):
                healer.insert_batch(event.joiners)
            elif isinstance(event, Insert):
                healer.insert(event.nid, event.attach_to)
            else:
                healer.delete(event.nid)
            plain = {n: set(row) for n, row in view.items()}
            assert set(max_degree_nodes(view)) == set(max_degree_nodes(plain))
            assert set(min_degree_nodes(view)) == set(min_degree_nodes(plain))
            assert list(sorted_nodes(view)) == sorted(plain)
            healer.engine.check()  # recounts the index and the roster

    def test_ideal_graph_views(self):
        g = generators.path(4)
        healer = ForgivingGraphHealer({k: set(v) for k, v in g.items()})
        healer.insert(10, 3)
        healer.delete(1)
        ghost = healer.ideal_graph(include_dead=True)
        assert 1 in ghost and ghost[1] == {0, 2}
        alive_only = healer.ideal_graph()
        assert 1 not in alive_only
        assert alive_only[10] == {3}


# ---------------------------------------------------------------------------
# sequential vs distributed: exact cross-validation
# ---------------------------------------------------------------------------
class TestDistributedParity:
    @pytest.mark.parametrize("seed", range(12))
    def test_mixed_campaign_message_and_image_parity(self, seed):
        rng = random.Random(seed)
        n = rng.randint(4, 20)
        g = (
            generators.random_tree(n, seed=seed)
            if seed % 2
            else generators.random_connected_gnp(n, 0.3, seed=seed)
        )
        seq = ForgivingGraph(g, strict=(seed < 4))
        dist = DistributedForgivingGraph({k: set(v) for k, v in g.items()})
        nxt = max(g) + 1
        for _ in range(40):
            alive = sorted(seq.alive)
            if not alive:
                break
            roll = rng.random()
            if len(alive) > 1 and roll < 0.5:
                victim = rng.choice(alive)
                report, stats = seq.delete(victim), dist.delete(victim)
            elif roll < 0.8 or len(alive) <= 1:
                target = rng.choice(alive)
                report, stats = seq.insert(nxt, target), dist.insert(nxt, target)
                nxt += 1
            else:
                wave = [(nxt + i, rng.choice(alive)) for i in range(rng.randint(2, 5))]
                nxt += len(wave)
                report, stats = seq.insert_batch(wave), dist.insert_batch(wave)
            # The cross-check the subsystem exists to pass: node-for-node.
            assert report.messages_per_node == stats.sent
            assert edge_set(seq.graph()) == dist.edges()
            assert seq.alive == dist.alive

    def test_nodes_hold_the_engine_haft_portion_for_portion(self):
        """Each node's local state is its engine portion — port parent,
        simulated helper and that helper's left height, O(1) ids — after
        every event."""
        g = generators.random_connected_gnp(30, 0.12, seed=8)
        seq = ForgivingGraph(g, strict=True)
        dist = DistributedForgivingGraph({k: set(v) for k, v in g.items()})
        rng = random.Random(8)
        nxt = 100
        for _ in range(60):
            alive = sorted(seq.alive)
            if len(alive) > 2 and rng.random() < 0.6:
                victim = rng.choice(alive)
                seq.delete(victim)
                dist.delete(victim)
            else:
                target = rng.choice(alive)
                seq.insert(nxt, target)
                dist.insert(nxt, target)
                nxt += 1
            for nid in seq.alive:
                node, haft = dist.network.nodes[nid], seq.haft_of(nid)
                held = (node.port_parent_sim, node.helper, node.left_height)
                if haft is None:
                    assert held == (None, None, None)
                else:
                    assert held == haft.portion(nid)

    def test_massacre_parity_on_large_hafts(self):
        """The hub massacre grows one haft past 200 members, so climbs
        and descents run eight and more hops: tallies stay node-for-node
        equal, images equal, every message carries at most
        ``FG_MESSAGE_ID_BUDGET`` ids, every receiver is in the heal's
        audit region and admission footprint, and a heal quiesces well
        within the network's sub-round limit."""

        class CountingNetwork(Network):
            max_ids = 0

            def send(self, message):
                self.max_ids = max(self.max_ids, message.id_count())
                super().send(message)

        g = generators.preferential_attachment(400, 2, seed=3)
        seq = ForgivingGraph(g, strict=True)
        net = CountingNetwork()
        dist = DistributedForgivingGraph({k: set(v) for k, v in g.items()}, network=net)
        rounds = []
        for v in sorted(g, key=lambda v: (-len(g[v]), v))[:80]:
            report, stats = seq.delete(v), dist.delete(v)
            assert report.messages_per_node == stats.sent
            region = HealDelta.from_report(report).region
            assert set(stats.received) <= region & heal_footprint(report)
            rounds.append(stats.sub_rounds)
        assert edge_set(seq.graph()) == dist.edges()
        assert len(seq.hafts[0].members) >= 200
        assert max(rounds) >= 10  # walks of eight hops and more
        assert max(rounds) < net.max_sub_rounds
        assert net.max_ids <= guarantees.FG_MESSAGE_ID_BUDGET

    def test_multi_haft_merge_parity(self):
        """A delete that unspines and respines four hafts of 63 members
        at once: tallies node-for-node equal and images equal."""
        g, hubs, victim = _hafts_around(4, bits=6, fresh=2, own=True)
        seq = ForgivingGraph(g, strict=True)
        dist = DistributedForgivingGraph({k: set(v) for k, v in g.items()})
        for v in (*hubs, victim):
            report, stats = seq.delete(v), dist.delete(v)
            assert report.messages_per_node == stats.sent
            assert edge_set(seq.graph()) == dist.edges()
        assert len(seq.hafts) == 1 and len(seq.hafts[0].members) == 5 * 63 + 1

    def test_single_insert_is_a_wave_of_one(self):
        g = generators.path(4)
        seq = ForgivingGraph(g)
        report = seq.insert(9, 1)
        dist = DistributedForgivingGraph({k: set(v) for k, v in g.items()})
        stats = dist.insert_batch([(9, 1)])
        assert report.messages_per_node == stats.sent

    def test_distributed_rejects_bad_waves(self):
        dist = DistributedForgivingGraph({0: {1, 2}, 1: {0}, 2: {0}})
        with pytest.raises(ReproError):
            dist.insert_batch([(5, 6), (6, 0)])
        with pytest.raises(ReproError):
            dist.insert_batch([(0, 1)])
        with pytest.raises(ValueError):
            dist.insert_batch([])
        assert dist.alive == {0, 1, 2}

    def test_degree_bound_holds_in_the_distributed_image(self):
        g = generators.random_connected_gnp(18, 0.25, seed=9)
        dist = DistributedForgivingGraph({k: set(v) for k, v in g.items()})
        rng = random.Random(9)
        for _ in range(12):
            dist.delete(rng.choice(sorted(dist.alive)))
        assert dist.max_degree_increase() <= 3
        assert is_connected(dist.adjacency())

    def test_heal_round_is_three_phase(self):
        # Fan-out, reports, portions: a delete quiesces in <= 3 sub-rounds.
        g = generators.star(6)
        dist = DistributedForgivingGraph({k: set(v) for k, v in g.items()})
        stats = dist.delete(0)
        assert stats.sub_rounds <= 3
        assert stats.bits > 0

    def test_round_stats_accessors(self):
        g = generators.path(5)
        dist = DistributedForgivingGraph({k: set(v) for k, v in g.items()})
        assert dist.setup_stats.total_messages == 0  # no will setup traffic
        dist.delete(2)
        assert dist.last_stats().round == 1
        assert dist.peak_messages_per_node() >= 1
        assert dist.degree(1) >= 1
        assert len(dist) == 4 and 1 in dist and 2 not in dist
        with pytest.raises(NodeNotFoundError):
            dist.delete(2)


# ---------------------------------------------------------------------------
# frozen report streams
# ---------------------------------------------------------------------------
PINS_PATH = os.path.join(os.path.dirname(__file__), "data", "fgraph_report_pins.json")


class TestReportPins:
    """Every report, tally and final image equals the one recorded when
    in-place haft merges replaced the region rebuild (see
    ``tests/fgraph_report_pins.py``)."""

    def test_reports_match_the_recorded_streams(self):
        with open(PINS_PATH) as fh:
            pinned = json.load(fh)
        assert fgraph_report_pins.observe() == pinned


# ---------------------------------------------------------------------------
# API surface + validator teeth
# ---------------------------------------------------------------------------
class TestSurfaceAndValidators:
    def test_rtree_accessors(self):
        rt = ReconstructionTree.build([3, 1, 2])
        assert rt.sequence() == (3, 1, 2)
        sims = [m for m in rt.members if rt.sim_of(m) is not None]
        assert len(sims) == rt.n_helpers  # one helper per simulator
        assert rt.sim_of(2) is None  # the rightmost leaf simulates nothing
        assert repr(rt)

    def test_rtree_check_has_teeth(self):
        rt = ReconstructionTree.build([1, 2, 3])
        rt.helper_links[3] = (None, (1, "real"), (2, "real"))  # a second free-rider
        with pytest.raises(InvariantViolationError, match="free members"):
            rt.check()
        rt = ReconstructionTree.build([1, 2, 3])
        rt.helper_links[9] = rt.helper_links.pop(2)  # a helper no member runs
        with pytest.raises(InvariantViolationError, match="no helper"):
            rt.check()

    def test_engine_accessors(self):
        engine = ForgivingGraph(generators.path(4))
        assert len(engine) == 4 and 2 in engine and 9 not in engine
        assert engine.ideal_degree(1) == 2
        assert engine.adjacency() == engine.graph()
        assert engine.haft_of(1) is None
        engine.delete(1)
        assert engine.haft_of(0) is engine.hafts[0]
        with pytest.raises(NodeNotFoundError):
            engine.degree_increase(1)
        assert repr(engine)

    def test_engine_check_has_teeth(self):
        def massacred():
            engine = ForgivingGraph(generators.star(8))
            engine.delete(0)  # one haft over 1..8: a complete tree of height 3
            return engine, engine.hafts[0]

        engine, haft = massacred()
        engine.check()
        root = haft.root[0]
        up, left, _right = haft.helper_links[root]
        haft.helper_links[root] = (up, left, left)  # one helper reached twice
        with pytest.raises(InvariantViolationError, match="reached twice"):
            engine.check()
        engine, haft = massacred()
        seq = haft.sequence()  # re-hang the same sequence as a caterpillar
        haft.helper_links = {
            s: (
                (seq[i - 1], "helper") if i else None,
                (s, "real"),
                (seq[i + 1], "helper") if i < 6 else (seq[7], "real"),
            )
            for i, s in enumerate(seq[:7])
        }
        haft.port_parent = {s: s for s in seq[:7]}
        haft.port_parent[seq[7]] = seq[6]
        haft.trees = [(3, (seq[0], "helper"), seq[7])]
        with pytest.raises(InvariantViolationError, match="depth"):
            engine.check()
        engine, haft = massacred()
        up, left, right = haft.helper_links[haft.root[0]]
        haft.helper_links[haft.root[0]] = (up, right, left)  # sims out of order
        with pytest.raises(InvariantViolationError, match="canonical"):
            engine.check()
        engine = ForgivingGraph(generators.path(5))
        engine.delete(2)
        engine._img[0][4] = 1  # corrupt the image multiset
        engine._img[4][0] = 1
        with pytest.raises(InvariantViolationError):
            engine.check()
        engine = ForgivingGraph(generators.path(5))
        engine.delete(2)
        engine.check()
        engine._inc[5] = 1  # corrupt the degree-increase histogram
        with pytest.raises(InvariantViolationError, match="histogram"):
            engine.check()
        del engine._inc[5]
        engine._inc_max = 7  # a stale maximum that claims to be fresh
        with pytest.raises(InvariantViolationError, match="stale"):
            engine.check()

    def test_empty_initial_graphs_are_rejected(self):
        with pytest.raises(NodeNotFoundError):
            ForgivingGraph({})
        with pytest.raises(NodeNotFoundError):
            DistributedForgivingGraph({})

    def test_delete_to_extinction(self):
        engine = ForgivingGraph(generators.path(3))
        for v in (1, 0, 2):
            engine.delete(v)
        assert engine.alive == set()
        assert engine.graph() == {}
        with pytest.raises(ReproError):
            engine.delete(0)
