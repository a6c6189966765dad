"""Tests for the adversary strategies."""

import pytest

from repro.adversaries import (
    ADVERSARY_CATALOG,
    CenterAdversary,
    DegreeGreedyAdversary,
    DiameterGreedyAdversary,
    FixedOrderAdversary,
    MaxDegreeAdversary,
    MinDegreeAdversary,
    RandomAdversary,
    RootAdversary,
    ScriptedAdversary,
)
from repro.baselines import ForgivingTreeHealer, LineHealer, SurrogateHealer
from repro.core.errors import ReproError, SimulationOverError
from repro.graphs import generators


def healer_on_star(n=8):
    return ForgivingTreeHealer(generators.star(n))


class TestSimpleAdversaries:
    def test_max_degree_picks_center(self):
        assert MaxDegreeAdversary().choose(healer_on_star()) == 0

    def test_min_degree_picks_leaf(self):
        assert MinDegreeAdversary().choose(healer_on_star()) != 0

    def test_center_picks_graph_center(self):
        healer = ForgivingTreeHealer(generators.path(9))
        assert CenterAdversary().choose(healer) == 4

    def test_root_picks_min_id(self):
        assert RootAdversary().choose(healer_on_star()) == 0

    def test_random_is_seeded(self):
        h = healer_on_star()
        a, b = RandomAdversary(5), RandomAdversary(5)
        assert [a.choose(h) for _ in range(5)] == [b.choose(h) for _ in range(5)]

    def test_random_reset(self):
        h = healer_on_star()
        adv = RandomAdversary(5)
        first = [adv.choose(h) for _ in range(4)]
        adv.reset()
        assert [adv.choose(h) for _ in range(4)] == first


class TestScripted:
    def test_fixed_order_skips_dead(self):
        healer = ForgivingTreeHealer(generators.star(4))
        adv = FixedOrderAdversary([3, 3, 2, 1])
        healer.delete(adv.choose(healer))  # 3
        assert adv.choose(healer) == 2  # second "3" skipped

    def test_fixed_order_exhausted(self):
        adv = FixedOrderAdversary([])
        with pytest.raises(SimulationOverError):
            adv.choose(healer_on_star())

    def test_scripted_strict(self):
        healer = ForgivingTreeHealer(generators.star(4))
        adv = ScriptedAdversary([1, 1])
        healer.delete(adv.choose(healer))
        with pytest.raises(ReproError):
            adv.choose(healer)

    def test_scripted_remaining(self):
        adv = ScriptedAdversary([1, 2, 3])
        assert adv.remaining == 3


class TestGreedy:
    def test_diameter_greedy_beats_random_on_line_healer(self):
        from repro.harness import run_campaign

        tree = generators.broom(4, 12)
        greedy = run_campaign(
            LineHealer(tree), DiameterGreedyAdversary(), rounds=8
        )
        rand = run_campaign(LineHealer(tree), RandomAdversary(0), rounds=8)
        assert greedy.peak_diameter >= rand.peak_diameter

    def test_degree_greedy_finds_surrogate_weakness(self):
        healer = SurrogateHealer(generators.star(10))
        adv = DegreeGreedyAdversary()
        victim = adv.choose(healer)
        healer.delete(victim)
        assert healer.max_degree_increase() >= 7

    def test_candidate_thinning(self):
        adv = DiameterGreedyAdversary(max_candidates=3)
        healer = ForgivingTreeHealer(generators.path(20))
        assert adv.choose(healer) in healer.alive


class TestCatalog:
    def test_catalog_names(self):
        assert set(ADVERSARY_CATALOG) == {
            "random",
            "max-degree",
            "min-degree",
            "center",
            "root",
            "surrogate-killer",
            "diameter-greedy",
            "degree-greedy",
        }

    @pytest.mark.parametrize("name", sorted(ADVERSARY_CATALOG))
    def test_every_adversary_runs_a_campaign(self, name):
        from repro.harness import run_campaign

        cls = ADVERSARY_CATALOG[name]
        adv = cls()
        healer = ForgivingTreeHealer(generators.random_tree(12, 3))
        result = run_campaign(healer, adv, rounds=8, metrics="none")
        assert result.peak_degree_increase <= 3
        assert len(result.rounds) == 8
