"""The Forgiving Graph subsystem test wall.

Four layers, mirroring the subsystem's structure, and frozen streams:

* **ReconstructionTree** — the half-full build: the
  ``depth <= ceil(log2(W/w))`` guarantee, full-binary shape, injective
  in-order-predecessor simulator assignment, merge/split manifest
  algebra (property-tested over arbitrary weight profiles), and every
  field equal to the trie construction kept here as ``reference_build``.
* **ForgivingGraph engine** — the paper's two theorems pinned per round
  over seeded churn traces and arbitrary Hypothesis interleavings:
  additive degree increase <= 3, empirical stretch within the
  ``2 log2 n + 2`` envelope against the ideal graph (dead nodes
  routable), connectivity, and the full structural ``check()``.
* **Healer integration** — the catalog, every churn adversary and both
  campaign runners driving ``forgiving-graph`` unmodified, batch wave
  semantics, and the incremental-metrics fast path.
* **Sequential-vs-distributed parity** — the counted-message runtime
  produces byte-identical image graphs and *node-for-node* identical
  message tallies across randomized mixed campaigns.
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
from repro.core.errors import (
    DuplicateNodeError,
    InvariantViolationError,
    NodeNotFoundError,
    ReproError,
)
from repro.fgraph import (
    DistributedForgivingGraph,
    ForgivingGraph,
    ReconstructionTree,
    fold_manifests,
    leaf_depth,
    target_depths,
)
from repro.graphs import generators
from repro.graphs.adjacency import bfs_distances, edges as edge_set, is_connected
from repro.harness import churn_duel, run_campaign, run_churn_campaign
from tests import fgraph_report_pins

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402


# ---------------------------------------------------------------------------
# ReconstructionTree
# ---------------------------------------------------------------------------
def reference_build(weighted):
    """Oracle: the canonical codes inserted bit by bit into a trie, single-child
    internals spliced out, each helper run by its in-order predecessor leaf."""
    leaves = sorted(dict(weighted).items())
    total = sum(w for _, w in leaves)
    order = sorted((leaf_depth(w, total), nid) for nid, w in leaves)
    root, code = {}, 0
    for i, (d, nid) in enumerate(order):
        if i:
            code = (code + 1) << (d - order[i - 1][0])
        node = root
        for pos in range(d - 1, -1, -1):
            node = node.setdefault((code >> pos) & 1, {})
        node["leaf"] = nid

    def compress(node):
        if "leaf" in node:
            return node
        kids = [compress(node[bit]) for bit in sorted(node)]
        return kids[0] if len(kids) == 1 else {0: kids[0], 1: kids[1]}
    depth, port_parent, links = {}, {}, {}

    def assign(node, d, par):
        if "leaf" in node:
            depth[node["leaf"]], port_parent[node["leaf"]] = d, par[0]
            return (node["leaf"], "real")
        pred = node[0]
        while "leaf" not in pred:
            pred = pred[1]
        sim = pred["leaf"]
        me = (sim, "helper")
        links[sim] = (par, assign(node[0], d + 1, me), assign(node[1], d + 1, me))
        return me
    root_sim = assign(compress(root), 0, None)[0]
    image = {
        tuple(sorted((sim, ref[0])))
        for sim, refs in links.items() for ref in refs if ref and ref[0] != sim
    }
    return dict(leaves), depth, port_parent, links, root_sim, image


def _leaf_weights():
    """Weight profiles: arbitrary, many equal, one dominant, powers of two."""
    n = st.integers(min_value=2, max_value=400)
    return st.one_of(
        st.lists(st.integers(1, 10**6), min_size=2, max_size=400),
        n.flatmap(
            lambda k: st.lists(st.sampled_from([1, 2, 3]), min_size=k, max_size=k)
        ),
        st.builds(
            lambda big, rest: [big] + rest,
            st.integers(10**4, 10**6),
            st.lists(st.integers(1, 4), min_size=1, max_size=399),
        ),
        st.lists(st.integers(0, 19).map(lambda e: 2**e), min_size=2, max_size=400),
    )


class TestReconstructionTree:
    @settings(max_examples=examples(60), deadline=None)
    @given(weights=_leaf_weights(), seed=st.integers(0, 2**16))
    @example(weights=[1, 1], seed=0)
    @example(weights=[10**6] + [1] * 399, seed=1)
    def test_build_equals_the_trie_reference(self, weights, seed):
        ids = random.Random(seed).sample(range(10**6), len(weights))
        leaves = list(zip(ids, weights))
        rt = ReconstructionTree.build(leaves)
        got = (
            rt.weight, rt.depth, rt.port_parent, rt.helper_links, rt.root_sim,
            rt.image_edges(),
        )
        assert got == reference_build(leaves)

    def test_leaf_depth_is_the_old_loop_in_closed_form(self):
        def loop(weight, total):
            d = 0
            while (weight << d) < total:
                d += 1
            return d

        for total in range(1, 2049):
            ws = range(1, total + 1)
            assert [leaf_depth(w, total) for w in ws] == [loop(w, total) for w in ws]

    def test_two_leaves(self):
        rt = ReconstructionTree.build([(5, 1), (9, 1)])
        rt.check()
        assert rt.n_helpers == 1
        assert rt.members == {5, 9}
        # The lone helper is simulated by a member; the image collapses
        # to the single surviving real-real edge.
        assert rt.image_edges() == {(5, 9)}

    def test_heavy_leaf_sits_at_the_root(self):
        rt = ReconstructionTree.build([(1, 100), (2, 1), (3, 1), (4, 1)])
        rt.check()
        assert rt.depth[1] == 1
        assert all(rt.depth[n] >= 2 for n in (2, 3, 4))

    def test_build_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            ReconstructionTree.build([(1, 1)])
        with pytest.raises(ValueError):
            ReconstructionTree.build([(1, 0), (2, 1)])

    def test_deterministic_in_input_set(self):
        leaves = [(3, 4), (1, 1), (7, 2), (2, 9)]
        a = ReconstructionTree.build(leaves)
        b = ReconstructionTree.build(list(reversed(leaves)))
        assert a.port_parent == b.port_parent
        assert a.helper_links == b.helper_links
        assert a.image_edges() == b.image_edges()

    def test_fold_manifests_merge_split_refresh(self):
        folded = fold_manifests(
            [{1: 2, 2: 3}, {4: 1}],
            drop=(2,),
            fresh={5: 7},
            refresh={1: 10, 99: 5},  # 99 is no member: ignored
        )
        assert folded == [(1, 10), (4, 1), (5, 7)]

    @settings(max_examples=200, deadline=None)
    @given(
        weights=st.lists(
            st.integers(min_value=1, max_value=10**6), min_size=2, max_size=64
        )
    )
    def test_depth_bound_and_shape_for_any_weights(self, weights):
        leaves = list(enumerate(weights))
        rt = ReconstructionTree.build(leaves)
        rt.check()  # full binary, injective sims, parent refs thread
        total = sum(weights)
        for nid, w in leaves:
            assert rt.depth[nid] <= leaf_depth(w, total)
            assert rt.depth[nid] <= math.log2(total / w) + 1 + 1e-9
        # One helper per internal node of a full binary tree.
        assert rt.n_helpers == len(leaves) - 1

    @settings(max_examples=60, deadline=None)
    @given(
        weights=st.lists(
            st.integers(min_value=1, max_value=50), min_size=2, max_size=24
        )
    )
    def test_image_is_connected_and_sparse(self, weights):
        rt = ReconstructionTree.build(list(enumerate(weights)))
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

    def test_insert_updates_weights_up_the_live_chain(self):
        engine = ForgivingGraph(generators.star(3), strict=True)
        engine.insert(10, 1)
        engine.insert(11, 10)
        engine.insert(12, 11)
        assert engine.weight_of(12) == 1
        assert engine.weight_of(11) == 2
        assert engine.weight_of(10) == 3
        assert engine.weight_of(1) == 4
        # Initial nodes are insertion-forest roots: the cascade stops at 1.
        assert engine.weight_of(0) == 1
        # The cascade pays one message per live hop (request, ack+forward,
        # then one forward per ancestor that has a parent of its own).
        report = engine.insert(13, 12)
        assert report.messages_per_node == {13: 1, 12: 2, 11: 1, 10: 1}
        assert engine.weight_of(1) == 5

    def test_dead_insertion_parent_truncates_the_cascade(self):
        engine = ForgivingGraph(generators.star(3), strict=True)
        engine.insert(10, 1)
        engine.insert(11, 10)
        engine.delete(10)  # 11 becomes an insertion-forest root
        report = engine.insert(12, 11)
        assert report.messages_per_node == {12: 1, 11: 1}
        assert engine.weight_of(11) == 2

    def test_port_weights_key_the_rebuild(self):
        # Grow a heavy population under one neighbor of the victim: its
        # port must sit strictly shallower than the light neighbors'.
        star = generators.star(6)  # center 0, leaves 1..6
        engine = ForgivingGraph(star, strict=True)
        for i in range(40):
            engine.insert(100 + i, 1)
        engine.delete(0)
        haft = engine.hafts[0]
        assert haft.weight[1] == 41
        assert haft.depth[1] < min(haft.depth[n] for n in (2, 3, 4, 5, 6))

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

    def test_deep_insertion_chains_are_rejected_loudly(self):
        # The weight cascade pays one sub-round per insertion-forest hop;
        # a chain deeper than the livelock guard must be refused up front
        # (clear error, no half-applied round) rather than aborting with
        # an opaque quiescence failure mid-cascade.
        from repro.core.errors import ProtocolError

        dist = DistributedForgivingGraph({0: {1}, 1: {0}})
        dist.network.max_sub_rounds = 8
        nxt = 2
        with pytest.raises(ProtocolError, match="insertion-forest chain"):
            for _ in range(12):  # each joiner chains under the previous
                dist.insert(nxt, nxt - 1)
                nxt += 1
        assert nxt > 5  # shallow part of the chain was fine
        assert nxt not in dist.alive  # the rejected round left no state

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
    """Every report, tally and final image equals the one recorded before
    the engine built its trees in one pass (see ``tests/fgraph_report_pins.py``)."""

    def test_reports_match_the_recorded_streams(self):
        with open(PINS_PATH) as fh:
            pinned = json.load(fh)
        assert fgraph_report_pins.observe() == pinned


# ---------------------------------------------------------------------------
# API surface + validator teeth
# ---------------------------------------------------------------------------
class TestSurfaceAndValidators:
    def test_rtree_accessors(self):
        leaves = [(1, 3), (2, 1), (3, 1)]
        assert target_depths(leaves) == {1: 1, 2: 3, 3: 3}
        rt = ReconstructionTree.build(leaves)
        assert rt.total_weight == 5
        assert rt.manifest() == ((1, 3), (2, 1), (3, 1))
        sims = [m for m in rt.members if rt.sim_of(m) is not None]
        assert len(sims) == rt.n_helpers  # one helper per simulator
        assert repr(rt)

    def test_rtree_check_has_teeth(self):
        rt = ReconstructionTree.build([(1, 1), (2, 1), (3, 1)])
        rt.depth[2] = 99
        with pytest.raises(InvariantViolationError):
            rt.check()
        rt = ReconstructionTree.build([(1, 1), (2, 1), (3, 1)])
        rt.image.add((1, 99))  # an image edge no link implies
        with pytest.raises(InvariantViolationError, match="image"):
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
