"""Tests for generators, metrics and spanning trees (networkx as oracle)."""

import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from tests.conftest import examples

from repro.core.errors import DisconnectedGraphError, EmptyStructureError
from repro.graphs import adjacency as adj
from repro.graphs import generators as gen
from repro.graphs import metrics, spanning
from repro.graphs.view import OverlayView


class TestGenerators:
    def test_star(self):
        g = gen.star(5)
        assert adj.degrees(g)[0] == 5
        assert adj.edge_count(g) == 5

    def test_path_and_cycle(self):
        assert metrics.diameter_exact(gen.path(7)) == 6
        assert adj.edge_count(gen.cycle(7)) == 7

    def test_balanced_tree(self):
        g = gen.balanced_tree(2, 3)
        assert len(g) == 15
        assert adj.edge_count(g) == 14

    def test_random_tree_is_tree(self):
        for seed in range(10):
            g = gen.random_tree(25, seed)
            assert adj.edge_count(g) == 24
            assert adj.is_connected(g)

    def test_prufer_decode_matches_networkx(self):
        seq = [3, 3, 3, 4]
        ours = gen.tree_from_prufer(seq)
        theirs = adj.from_networkx(nx.from_prufer_sequence(seq))
        assert ours == theirs

    def test_caterpillar_broom_spider(self):
        assert adj.is_connected(gen.caterpillar(5, 3))
        assert adj.is_connected(gen.broom(4, 7))
        g = gen.spider(4, 5)
        assert adj.degrees(g)[0] == 4

    def test_gnp_connected(self):
        for seed in range(5):
            g = gen.random_connected_gnp(30, 0.05, seed)
            assert adj.is_connected(g)

    def test_preferential_attachment(self):
        g = gen.preferential_attachment(50, 2, seed=1)
        assert adj.is_connected(g)
        assert max(adj.degrees(g).values()) >= 5  # hubs exist

    def test_grid_and_hypercube(self):
        assert metrics.diameter_exact(gen.grid(4, 4)) == 6
        h = gen.hypercube(4)
        assert all(d == 4 for d in adj.degrees(h).values())
        assert metrics.diameter_exact(h) == 4

    def test_two_level_star(self):
        g = gen.two_level_star(3, 4)
        assert adj.degrees(g)[0] == 3
        assert len(g) == 1 + 3 + 12

    def test_families_registry(self):
        for name, factory in gen.TREE_FAMILIES.items():
            g = factory(30, 1)
            assert adj.is_connected(g), name
            assert adj.edge_count(g) == len(g) - 1, name

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            gen.star(0)
        with pytest.raises(ValueError):
            gen.cycle(2)
        with pytest.raises(ValueError):
            gen.preferential_attachment(3, 3)


class TestMetrics:
    def test_diameter_matches_networkx(self):
        for seed in range(5):
            g = gen.random_connected_gnp(25, 0.15, seed)
            assert metrics.diameter_exact(g) == nx.diameter(adj.to_networkx(g))

    def test_double_sweep_exact_on_trees(self):
        for seed in range(10):
            g = gen.random_tree(40, seed)
            assert metrics.diameter_double_sweep(g, seed) == metrics.diameter_exact(g)

    def test_double_sweep_lower_bounds(self):
        g = gen.random_connected_gnp(30, 0.2, seed=3)
        assert metrics.diameter_double_sweep(g) <= metrics.diameter_exact(g)

    def test_radius_center(self):
        g = gen.path(9)
        assert metrics.radius(g) == 4
        assert metrics.center(g) == {4}

    def test_stretch(self):
        before = gen.path(5)
        after = gen.star(4)  # not meaningful; just arithmetic
        stretches = metrics.pairwise_stretch(before, after)
        assert all(v > 0 for v in stretches.values())

    def test_max_stretch_sampled(self):
        g = gen.random_tree(30, 2)
        assert metrics.max_stretch(g, g, sample=20) == 1.0

    def test_empty_graph_errors(self):
        with pytest.raises(EmptyStructureError):
            metrics.diameter_exact({})

    def test_disconnected_errors(self):
        with pytest.raises(DisconnectedGraphError):
            metrics.eccentricity({0: set(), 1: set()}, 0)

    def test_every_metric_rejects_empty(self):
        for fn in (
            metrics.diameter_exact,
            metrics.diameter_double_sweep,
            metrics.diameter,
            metrics.radius,
            metrics.center,
        ):
            with pytest.raises(EmptyStructureError):
                fn({})

    def test_singleton_graph(self):
        g = {7: set()}
        assert metrics.diameter_exact(g) == 0
        assert metrics.diameter_double_sweep(g) == 0
        assert metrics.diameter(g, exact=False) == 0
        assert metrics.radius(g) == 0
        assert metrics.center(g) == {7}
        assert metrics.eccentricity(g, 7) == 0

    def test_every_metric_rejects_disconnected(self):
        g = {0: {1}, 1: {0}, 2: {3}, 3: {2}}
        with pytest.raises(DisconnectedGraphError):
            metrics.diameter_exact(g)
        with pytest.raises(DisconnectedGraphError):
            metrics.diameter_double_sweep(g)
        with pytest.raises(DisconnectedGraphError):
            metrics.radius(g)
        with pytest.raises(DisconnectedGraphError):
            metrics.center(g)

    def test_diameter_dispatch(self):
        g = gen.random_tree(20, seed=5)
        assert metrics.diameter(g, exact=True) == metrics.diameter_exact(g)
        assert metrics.diameter(g, exact=False, seed=3) == metrics.diameter_double_sweep(
            g, seed=3
        )

    def test_double_sweep_deterministic_per_seed(self):
        g = gen.random_connected_gnp(30, 0.12, seed=7)
        for seed in range(5):
            assert metrics.diameter_double_sweep(g, seed) == metrics.diameter_double_sweep(
                g, seed
            )

    @settings(max_examples=examples(60), deadline=None)
    @given(
        n=st.integers(1, 40),
        p=st.floats(0.0, 0.4),
        graph_seed=st.integers(0, 10**6),
        seed=st.integers(0, 10**6),
        view=st.booleans(),
    )
    def test_double_sweep_matches_the_bfs_distances_reference(
        self, n, p, graph_seed, seed, view
    ):
        """The level-by-level sweep keeps no distance dict: its answer is
        the reference double sweep's over ``bfs_distances`` (start drawn
        from the sorted ids, farthest node = largest id at the maximum
        distance), on plain graphs and on an :class:`OverlayView`, and
        it raises on every disconnected graph."""
        draw = random.Random(graph_seed)
        g = {v: set() for v in range(n)}
        for u in range(n):
            for v in range(u + 1, n):
                if draw.random() < p:
                    g[u].add(v)
                    g[v].add(u)
        rng = random.Random(seed)
        start = rng.choice(sorted(g))
        dist = adj.bfs_distances(g, start)
        graph = OverlayView(adj.copy(g)) if view else g
        if len(dist) != len(g):
            with pytest.raises(DisconnectedGraphError):
                metrics.diameter_double_sweep(graph, seed)
            return
        reach = max(dist.values())
        far = max(v for v, d in dist.items() if d == reach)
        expected = max(adj.bfs_distances(g, far).values())
        assert metrics.diameter_double_sweep(graph, seed) == expected

    def test_radius_center_on_paths_and_stars(self):
        even = gen.path(10)  # two central nodes
        assert metrics.radius(even) == 5
        assert metrics.center(even) == {4, 5}
        star = gen.star(6)
        assert metrics.radius(star) == 1
        assert metrics.center(star) == {0}
        assert metrics.diameter_exact(star) == 2
        two = gen.path(2)  # every node is central
        assert metrics.radius(two) == 1
        assert metrics.center(two) == {0, 1}

    def test_max_stretch_sampling_determinism(self):
        before = gen.random_tree(40, seed=1)
        after = gen.random_tree(40, seed=2)
        a = metrics.max_stretch(before, after, sample=30, seed=5)
        b = metrics.max_stretch(before, after, sample=30, seed=5)
        assert a == b  # same seed, same sampled pairs
        full = metrics.max_stretch(before, after)
        assert a <= full  # sampling can only miss the max

    def test_max_stretch_degenerate_inputs(self):
        assert metrics.max_stretch({0: set()}, {0: set()}) == 1.0
        assert metrics.max_stretch({0: {1}, 1: {0}}, {5: {6}, 6: {5}}) == 1.0
        assert metrics.max_stretch({0: set()}, {0: set()}, sample=10) == 1.0

    def test_pairwise_stretch_explicit_pairs_and_dead_nodes(self):
        before = gen.path(4)
        after = {0: {1}, 1: {0, 3}, 3: {1}}  # node 2 died, 1-3 bridged
        out = metrics.pairwise_stretch(before, after, pairs=[(0, 3), (1, 3)])
        assert out[(0, 3)] == 2 / 3 and out[(1, 3)] == 1 / 2
        # pairs involving dead nodes are skipped silently
        assert metrics.pairwise_stretch(before, after, pairs=[(0, 2)]) == {}


class TestSpanning:
    def test_bfs_tree_is_shortest_path_tree(self):
        g = gen.random_connected_gnp(30, 0.15, seed=2)
        tree = spanning.bfs_tree(g, root=0)
        gd = adj.bfs_distances(g, 0)
        td = adj.bfs_distances(tree, 0)
        assert gd == td  # BFS tree preserves root distances

    def test_random_spanning_tree(self):
        g = gen.random_connected_gnp(20, 0.3, seed=5)
        t1 = spanning.random_spanning_tree(g, seed=1)
        t2 = spanning.random_spanning_tree(g, seed=2)
        assert adj.edge_count(t1) == len(g) - 1
        assert adj.edge_count(t2) == len(g) - 1
        assert adj.edges(t1) <= adj.edges(g)

    def test_tree_parents_and_height(self):
        tree = gen.balanced_tree(2, 3)
        parents = spanning.tree_parents(tree, 0)
        assert parents[0] is None
        assert spanning.tree_height(tree, 0) == 3

    def test_non_tree_edges(self):
        g = gen.cycle(5)
        t = spanning.bfs_tree(g, 0)
        assert len(spanning.non_tree_edges(g, t)) == 1


class TestAdjacencyOps:
    def test_from_edges_ignores_self_loops(self):
        g = adj.from_edges([(1, 1), (1, 2)])
        assert adj.edge_count(g) == 1

    def test_remove_node(self):
        g = gen.star(3)
        neighbors = adj.remove_node(g, 0)
        assert neighbors == {1, 2, 3}
        assert all(not s for s in g.values())

    def test_roundtrip_networkx(self):
        g = gen.random_connected_gnp(15, 0.2, seed=8)
        assert adj.from_networkx(adj.to_networkx(g)) == g

    def test_relabel(self):
        g = adj.from_edges([(10, 20), (20, 30)])
        out, mapping = adj.relabel_consecutive(g)
        assert set(out) == {0, 1, 2}
        assert mapping[10] == 0

    def test_components(self):
        g = {0: {1}, 1: {0}, 2: set()}
        comps = adj.connected_components(g)
        assert sorted(map(sorted, comps)) == [[0, 1], [2]]


@settings(max_examples=50, deadline=None)
@given(n=st.integers(2, 60), seed=st.integers(0, 10**6))
def test_property_random_tree_diameter_consistency(n, seed):
    g = gen.random_tree(n, seed)
    assert metrics.diameter_double_sweep(g, seed) == metrics.diameter_exact(g)
