"""Tests for the experiment harness, bounds and report rendering."""

import pytest

from repro import guarantees
from repro.adversaries import (
    DeletionOnlyChurnAdversary,
    MaxDegreeAdversary,
    RandomAdversary,
    RandomChurnAdversary,
)
from repro.baselines import (
    ForgivingGraphHealer,
    ForgivingTreeHealer,
    LineHealer,
    NoRepairHealer,
    SurrogateHealer,
)
from repro.core import invariants
from repro.core.errors import InvariantViolationError
from repro.faults import CrashDuringHeal, FaultPlan
from repro.graphs import generators
from repro.harness import duel, report, run_campaign, run_churn_campaign
from repro.obs import default_slos


class TestRunCampaign:
    def test_records_every_round(self):
        healer = ForgivingTreeHealer(generators.star(10))
        result = run_campaign(healer, RandomAdversary(1), rounds=5)
        assert len(result.rounds) == 5
        assert result.healer_name == "forgiving-tree"
        assert result.adversary_name == "random"
        assert result.n0 == 11

    def test_runs_to_one_survivor_by_default(self):
        healer = ForgivingTreeHealer(generators.path(6))
        result = run_campaign(healer, RandomAdversary(2))
        assert result.rounds[-1].alive == 1

    def test_stop_fraction(self):
        healer = ForgivingTreeHealer(generators.path(10))
        result = run_campaign(healer, RandomAdversary(3), stop_fraction=0.5)
        assert result.rounds[-1].alive >= 5

    def test_series_extraction(self):
        healer = ForgivingTreeHealer(generators.star(6))
        result = run_campaign(healer, MaxDegreeAdversary(), rounds=3)
        assert len(result.series("max_degree_increase")) == 3

    def test_observer_called(self):
        seen = []
        healer = ForgivingTreeHealer(generators.star(5))
        run_campaign(
            healer,
            RandomAdversary(0),
            rounds=2,
            on_round=lambda rec, h: seen.append(rec.round),
        )
        assert seen == [1, 2]

    def test_exact_diameter_mode(self):
        healer = ForgivingTreeHealer(generators.path(8))
        result = run_campaign(healer, RandomAdversary(5), rounds=3, metrics="exact")
        assert all(r.diameter is not None for r in result.rounds if r.connected)

    def test_duel(self):
        tree = generators.star(12)
        results = duel(
            tree,
            [ForgivingTreeHealer, LineHealer],
            lambda: MaxDegreeAdversary(),
            rounds=6,
        )
        assert set(results) == {"forgiving-tree", "line"}


def _crash_campaign(keep_rounds):
    tree = generators.random_tree(24, seed=11)
    return run_churn_campaign(
        ForgivingTreeHealer({k: set(v) for k, v in tree.items()}),
        RandomChurnAdversary(p_insert=0.3, seed=11),
        events=16, seed=11, transport="lease", keep_rounds=keep_rounds,
        faults=FaultPlan(crashes=(CrashDuringHeal(event=5),), seed=7),
    )


def _no_repair_campaign(keep_rounds):
    # Every survivor loses its hub edge: the peak increase is -1.
    return run_campaign(
        NoRepairHealer(generators.star(6)), MaxDegreeAdversary(),
        rounds=1, keep_rounds=keep_rounds,
    )


class TestOneLoop:
    """Both runners are entries to the same event loop."""

    @pytest.mark.parametrize(
        "healer_cls, transport",
        [(cls, t)
         for cls in (ForgivingTreeHealer, ForgivingGraphHealer)
         for t in (None, "sync", "lease")]
        + [(SurrogateHealer, None)],
    )
    def test_deletion_game_is_insert_free_churn(self, healer_cls, transport):
        graph = generators.preferential_attachment(30, 2, seed=4)
        copy = lambda: {k: set(v) for k, v in graph.items()}  # noqa: E731
        game = run_campaign(
            healer_cls(copy()), MaxDegreeAdversary(), rounds=12,
            stop_fraction=0.5, seed=9, transport=transport,
        )
        churn = run_churn_campaign(
            healer_cls(copy()), DeletionOnlyChurnAdversary(MaxDegreeAdversary()),
            events=12, metrics="double-sweep", seed=9, transport=transport,
        )
        assert len(game.rounds) == 12
        assert game.rounds == churn.rounds
        assert game.transport == churn.transport
        assert (game.transport is None) == (transport is None)
        assert game.adversary_name == "max-degree"
        assert churn.adversary_name == "deletion-only(max-degree)"

    @pytest.mark.parametrize("campaign", [_crash_campaign, _no_repair_campaign])
    def test_aggregates_do_not_depend_on_keep_rounds(self, campaign):
        kept, streamed = campaign(True), campaign(False)
        assert kept.rounds and not streamed.rounds
        for name in (
            "peak_degree_increase", "peak_diameter", "peak_stretch",
            "stayed_connected", "peak_messages_per_node", "n_inserts",
            "n_deletes", "final_alive", "net_growth",
        ):
            assert getattr(kept, name) == getattr(streamed, name), name
        # ... and they are what the kept series says.
        rounds = kept.rounds
        assert kept.peak_degree_increase == max(r.max_degree_increase for r in rounds)
        assert kept.n_deletes == sum(r.event == "delete" for r in rounds)
        assert kept.n_inserts == sum(r.event == "insert" for r in rounds)
        assert kept.final_alive == rounds[-1].alive
        if campaign is _crash_campaign:
            assert [r.event for r in rounds].count("crash") == 1
            assert len(rounds) == 17  # 16 adversary events + the crash round
        else:
            assert kept.peak_degree_increase == -1


class TestGuaranteesSingleSource:
    """``repro.guarantees`` is what every checker enforces."""

    @pytest.mark.parametrize("branching", [2, 3, 4])
    def test_degree_bound_agrees_everywhere(self, branching):
        bound = guarantees.degree_increase_bound(branching)
        slo = next(s for s in default_slos(branching=branching)
                   if s.name == "degree-budget")
        assert slo.threshold == bound

        class Stub:
            alive = (0,)

            def __init__(self, inc):
                self.branching, self.inc = branching, inc

            def degree_increase(self, nid):
                return self.inc

        invariants.check_degree_bound(Stub(bound))
        with pytest.raises(InvariantViolationError, match="thm1-degree"):
            invariants.check_degree_bound(Stub(bound + 1))

    @pytest.mark.parametrize("branching", [2, 3, 4])
    def test_diameter_check_rejects_exactly_above_the_envelope(self, branching):
        class Stub:
            def __init__(self, n):
                self.branching, self.n = branching, n

            def adjacency(self):
                return generators.path(self.n)

        # A path on n nodes has diameter n - 1.
        envelope = guarantees.diameter_envelope(3, 8, branching)
        invariants.check_diameter_bound(Stub(envelope + 1), 3, 8)
        with pytest.raises(InvariantViolationError, match="thm1-diameter"):
            invariants.check_diameter_bound(Stub(envelope + 2), 3, 8)


class TestBounds:
    def test_degree_bound(self):
        assert guarantees.degree_increase_bound() == 3
        assert guarantees.degree_increase_bound(4) == 5

    def test_diameter_bound_monotone(self):
        assert guarantees.diameter_envelope(4, 64) >= guarantees.diameter_envelope(4, 8)
        assert guarantees.diameter_envelope(1, 1) >= 1

    def test_thm2_predicate(self):
        assert guarantees.thm2_lower_bound_holds(3, 3, 100)
        assert not guarantees.thm2_lower_bound_holds(3, 0.5, 10_000)

    def test_section42_needs_alpha3(self):
        with pytest.raises(ValueError):
            guarantees.section42_stretch_bound(2, 100)

    def test_setup_bound(self):
        assert guarantees.setup_messages_bound(1024) == pytest.approx(40.0)


class TestReport:
    def test_table(self):
        text = report.format_table(
            ["name", "value"], [["a", 1], ["bb", 2.5]]
        )
        assert "name" in text and "bb" in text and "2.50" in text
        assert len(text.splitlines()) == 4

    def test_series(self):
        text = report.format_series("diam", list(range(40)))
        assert text.startswith("diam: 0 1 2")

    def test_sparkline(self):
        assert len(report.sparkline([1, 2, 3])) == 3
        assert report.sparkline([5, 5]) == "▁▁"
        assert report.sparkline([]) == ""

    def test_banner(self):
        assert "EXP" in report.banner("EXP")
