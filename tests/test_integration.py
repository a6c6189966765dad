"""Cross-cutting integration properties of the whole stack."""

import random

import pytest

from repro import ForgivingTree
from repro.baselines import ForgivingTreeHealer
from repro.graphs import generators, metrics, spanning
from repro.graphs.adjacency import is_connected


class TestDeterminism:
    def test_engine_is_deterministic(self):
        """Same tree + same order => byte-identical healing."""
        tree = generators.random_tree(40, seed=21)
        order = sorted(tree)
        random.Random(9).shuffle(order)
        runs = []
        for _ in range(2):
            ft = ForgivingTree(tree)
            trace = []
            for victim in order:
                report = ft.delete(victim)
                trace.append((sorted(report.edges_added), sorted(ft.edges())))
            runs.append(trace)
        assert runs[0] == runs[1]

    def test_generators_are_deterministic(self):
        assert generators.random_tree(30, 5) == generators.random_tree(30, 5)
        assert generators.preferential_attachment(40, 2, 3) == (
            generators.preferential_attachment(40, 2, 3)
        )


class TestModeEquivalence:
    def test_splice_and_rebuild_share_guarantees(self):
        """Both will-maintenance modes keep identical *guarantees*; the
        image graphs may differ (rebuild re-sorts heirs) but degree,
        connectivity and the diameter envelope hold for both."""
        tree = generators.random_tree(36, seed=14)
        d0 = metrics.diameter_exact(tree)
        delta = max(len(v) for v in tree.values())
        order = sorted(tree)
        random.Random(2).shuffle(order)
        for mode in ("splice", "rebuild"):
            ft = ForgivingTree(tree, will_mode=mode, strict=True)
            for victim in order[:-1]:
                ft.delete(victim)
                assert ft.max_degree_increase() <= 3
                assert is_connected(ft.adjacency())


class TestSpanningTreeComposition:
    def test_any_spanning_tree_works(self):
        """The healer's guarantees hold for any spanning tree choice."""
        g = generators.random_connected_gnp(40, 0.12, seed=8)
        for seed in range(3):
            tree = spanning.random_spanning_tree(g, seed=seed)
            ft = ForgivingTree(tree, strict=True)
            order = sorted(tree)
            random.Random(seed).shuffle(order)
            for victim in order[:30]:
                ft.delete(victim)
                assert ft.max_degree_increase() <= 3

    def test_healer_diameter_no_worse_than_tree_overlay(self):
        """Extra (non-tree) edges can only shrink the healed diameter."""
        g = generators.random_connected_gnp(30, 0.15, seed=4)
        healer = ForgivingTreeHealer(g)
        order = sorted(g)
        random.Random(6).shuffle(order)
        for victim in order[:15]:
            healer.delete(victim)
            merged = healer.graph()
            tree_only = healer.tree_overlay()
            if len(merged) > 1 and is_connected(merged) and is_connected(tree_only):
                assert metrics.diameter_exact(merged) <= metrics.diameter_exact(
                    tree_only
                )


class TestWholePaperPipeline:
    def test_setup_then_heal_end_to_end(self):
        """The paper's full pipeline: arbitrary graph -> distributed BFS
        setup -> Forgiving Tree -> adversarial campaign -> bounds hold."""
        from repro.distributed.setup import distributed_bfs_setup
        from repro import guarantees

        g = generators.preferential_attachment(60, 2, seed=11)
        report = distributed_bfs_setup(g, seed=1)
        d0 = metrics.diameter_exact(g)
        delta = max(len(v) for v in g.values())
        ft = ForgivingTree(report.tree, root=report.root, strict=True)
        order = sorted(report.tree)
        random.Random(3).shuffle(order)
        for victim in order[:-1]:
            ft.delete(victim)
        assert ft.max_degree_increase() <= guarantees.degree_increase_bound()
