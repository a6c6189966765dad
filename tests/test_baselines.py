"""Tests for the baseline healers and the intro's failure-mode claims."""

import pytest

from repro.adversaries import (
    DiameterGreedyAdversary,
    SurrogateKillerAdversary,
)
from repro.baselines import (
    BinaryTreeHealer,
    DegreeCappedSurrogateHealer,
    ForgivingTreeHealer,
    LineHealer,
    NoRepairHealer,
    SurrogateHealer,
    healer_catalog,
)
from repro.core.errors import NodeNotFoundError, SimulationOverError
from repro.graphs import generators, metrics
from repro.graphs.adjacency import edges, is_connected
from repro.harness import run_campaign


class TestSurrogate:
    def test_absorbs_all_edges(self):
        healer = SurrogateHealer(generators.star(5))
        healer.delete(0)
        g = healer.graph()
        assert len(g[1]) == 4  # smallest-id neighbor got everything

    def test_theta_n_degree_blowup(self):
        """Intro claim: an adversary drives some degree up by Θ(n)."""
        n = 40
        healer = SurrogateHealer(generators.star(n))
        adv = SurrogateKillerAdversary()
        result = run_campaign(healer, adv, rounds=n // 2, metrics="none")
        assert result.peak_degree_increase >= n - 3

    def test_forgiving_tree_immune_to_same_attack(self):
        n = 40
        healer = ForgivingTreeHealer(generators.star(n))
        adv = SurrogateKillerAdversary()
        result = run_campaign(healer, adv, rounds=n // 2, metrics="none")
        assert result.peak_degree_increase <= 3


class TestLine:
    def test_line_repair_shape(self):
        healer = LineHealer(generators.star(4))
        healer.delete(0)
        assert healer.graph() == {1: {2}, 2: {1, 3}, 3: {2, 4}, 4: {3}}

    def test_degree_increase_stays_small(self):
        # Each heal adds at most 2 edges per neighbor; accumulation over
        # rounds stays far below the surrogate's Θ(n).
        healer = LineHealer(generators.random_tree(40, 1))
        adv = SurrogateKillerAdversary()
        result = run_campaign(healer, adv, rounds=20, metrics="none")
        assert result.peak_degree_increase <= 6

    def test_diameter_blowup_vs_forgiving(self):
        """Intro claim: Θ(n) diameter for line healing; FT stays O(D log ∆)."""
        tree = generators.broom(4, 24)
        adv = lambda: DiameterGreedyAdversary()
        line = run_campaign(LineHealer(tree), adv(), rounds=14)
        ft = run_campaign(ForgivingTreeHealer(tree), adv(), rounds=14)
        assert line.peak_diameter > ft.peak_diameter

    def test_line_diameter_grows_linearly_on_star(self):
        n = 30
        healer = LineHealer(generators.star(n))
        healer.delete(0)
        assert metrics.diameter_exact(healer.graph()) == n - 1


class TestBinaryTree:
    def test_local_repair_is_logarithmic(self):
        n = 32
        healer = BinaryTreeHealer(generators.star(n))
        healer.delete(0)
        d = metrics.diameter_exact(healer.graph())
        assert d <= 2 * 6  # 2*log2(32) ballpark

    def test_still_connected_under_attack(self):
        healer = BinaryTreeHealer(generators.random_tree(40, 3))
        adv = DiameterGreedyAdversary()
        result = run_campaign(healer, adv, rounds=20)
        assert result.stayed_connected


class TestNoRepair:
    def test_disconnects(self):
        healer = NoRepairHealer(generators.star(5))
        healer.delete(0)
        assert not is_connected(healer.graph())


class TestCappedSurrogate:
    def test_caps_degree(self):
        healer = DegreeCappedSurrogateHealer(generators.star(30), cap=3)
        healer.delete(0)
        assert healer.max_degree_increase() <= 4

    def test_validates_cap(self):
        with pytest.raises(ValueError):
            DegreeCappedSurrogateHealer(generators.star(4), cap=1)


class TestForgivingTreeHealer:
    def test_keeps_non_tree_edges(self):
        g = generators.cycle(6)
        healer = ForgivingTreeHealer(g)
        assert healer.graph() == g  # tree overlay + the extra cycle edge

    def test_non_tree_edges_die_with_endpoints(self):
        g = generators.cycle(6)
        healer = ForgivingTreeHealer(g)
        (extra,) = edges(g) - edges(healer.tree_overlay())
        report = healer.delete(extra[0])
        assert extra in report.edges_removed
        assert extra[1] not in healer._extra  # the endpoint index is emptied
        assert extra not in edges(healer.graph())

    def test_general_graph_campaign(self):
        g = generators.random_connected_gnp(40, 0.1, seed=6)
        healer = ForgivingTreeHealer(g)
        adv = SurrogateKillerAdversary()
        result = run_campaign(healer, adv, rounds=35, metrics="none")
        assert result.peak_degree_increase <= 3

    def test_rejects_disconnected(self):
        from repro.core.errors import DisconnectedGraphError

        with pytest.raises(DisconnectedGraphError):
            ForgivingTreeHealer({0: {1}, 1: {0}, 2: set()})


class TestHealerInterface:
    def test_catalog_complete(self):
        catalog = healer_catalog()
        assert set(catalog) >= {
            "forgiving-tree",
            "surrogate",
            "line",
            "binary-tree",
            "no-repair",
        }

    def test_delete_unknown_raises(self):
        healer = LineHealer(generators.star(3))
        with pytest.raises(NodeNotFoundError):
            healer.delete(99)

    def test_delete_after_exhaustion(self):
        healer = LineHealer({0: {1}, 1: {0}})
        healer.delete(0)
        healer.delete(1)
        with pytest.raises(SimulationOverError):
            healer.delete(1)
