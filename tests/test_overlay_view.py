"""The maintained overlay view (``Healer.view``): equal to a fresh
materialisation after every event, invisible to every adversary's draw,
never built when nobody looks, and O(1) materialisations per campaign —
and the same four facts for the sorted roster it keeps for whoever asks
:func:`~repro.graphs.view.sorted_nodes`.

The simulated facts pinned in ``tests/data/overlay_view_pins.json`` were
recorded at the commit before the view existed — see
:mod:`tests.overlay_view_pins`.
"""

from __future__ import annotations

import json
import os
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.adversaries import (
    ADVERSARY_CATALOG,
    CHURN_ADVERSARY_CATALOG,
    DeletionOnlyChurnAdversary,
    DegreeGreedyAdversary,
    DiameterGreedyAdversary,
    GrowthThenMassacreAdversary,
    MaxDegreeAdversary,
    OscillatingChurnAdversary,
    RandomChurnAdversary,
    TraceReplayAdversary,
    WaveChurnAdversary,
)
from repro.baselines import (
    ForgivingTreeHealer,
    Healer,
    LineHealer,
    NoRepairHealer,
    SurrogateHealer,
)
from repro.churn.events import Delete, Insert, InsertWave
from repro.core.errors import InvariantViolationError
from repro.core.flat_tree import FlatForgivingTree
from repro.faults import CrashDuringHeal, FaultPlan
from repro.fgraph import ForgivingGraphHealer
from repro.graphs import OverlayView, generators
from repro.graphs.adjacency import edges
from repro.graphs.view import max_degree_nodes, min_degree_nodes, sorted_nodes
from repro.harness import run_campaign, run_churn_campaign
from repro.simnet import TransportSpec
from tests import overlay_view_pins as pins
from tests.conftest import examples

FAMILIES = {
    "pa": lambda n, seed: generators.preferential_attachment(n, 2, seed=seed),
    "tree": lambda n, seed: generators.random_tree(n, seed),
    "caterpillar": lambda n, seed: generators.caterpillar(max(2, n // 4), 3),
}
HEALERS = {
    "ft": ForgivingTreeHealer,
    "fg": ForgivingGraphHealer,
    "surrogate": SurrogateHealer,
    "line": LineHealer,
}


def as_graph(view):
    """A view's rows as plain sets (FG rows are multiplicity dicts)."""
    return {n: set(row) for n, row in view.items()}


def assert_views_fresh(healer):
    """Every view the healer hands out equals the engine's materialisation."""
    view = healer.view()
    assert as_graph(view) == healer.graph()
    top = max(len(row) for row in view.values())
    low = min(len(row) for row in view.values())
    assert set(max_degree_nodes(view)) == {n for n, r in view.items() if len(r) == top}
    assert set(min_degree_nodes(view)) == {n for n, r in view.items() if len(r) == low}
    # The roster: built by the first of these calls, kept up from then on
    # (a plain-mapping view — the FG engine's image — is simply sorted).
    assert list(sorted_nodes(view)) == sorted(healer.alive)
    if isinstance(view, OverlayView):
        assert sorted_nodes(view) is sorted_nodes(view) and not view.roster_is_stale()
    if isinstance(healer, ForgivingTreeHealer):
        assert healer.tree_view() == healer.engine.adjacency()
        assert (healer.tree_view() is view) == healer._pure_tree


# -- (a) differential: view == materialisation after every event ------------
@settings(
    max_examples=examples(120),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    family=st.sampled_from(sorted(FAMILIES)),
    kind=st.sampled_from(sorted(HEALERS)),
    n=st.integers(6, 40),
    seed=st.integers(0, 10**4),
    first_look=st.integers(0, 6),
    ops=st.lists(
        st.tuples(
            st.sampled_from(["delete", "delete", "insert", "wave"]),
            st.integers(0, 10**6),
            st.integers(1, 4),
        ),
        min_size=8,
        max_size=60,
    ),
)
def test_view_equals_materialisation_after_every_event(
    family, kind, n, seed, first_look, ops
):
    graph = FAMILIES[family](n, seed)
    healer = HEALERS[kind](graph)
    model = edges(graph)  # the overlay replayed from the reports alone
    next_id = max(graph) + 1
    for step, (op, pick, width) in enumerate(ops):
        alive = sorted(healer.alive)
        if op == "delete" and len(alive) > 2:
            report = healer.delete(alive[pick % len(alive)])
        elif op == "wave":
            joiners = tuple(
                (next_id + i, alive[(pick + 7 * i) % len(alive)]) for i in range(width)
            )
            next_id += width
            report = healer.insert_batch(joiners)
        else:
            report = healer.insert(next_id, alive[pick % len(alive)])
            next_id += 1
        added, removed = report.net_edge_deltas()
        model = (model - removed) | added
        if step >= first_look:  # before that, nobody has looked yet
            assert_views_fresh(healer)
            assert edges(as_graph(healer.view())) == model


@pytest.mark.parametrize("overlap", ["serialize", "lease"])
@pytest.mark.parametrize("healer_cls", [ForgivingTreeHealer, ForgivingGraphHealer])
def test_view_fresh_through_crash_rounds(healer_cls, overlap):
    """``event="crash"`` rounds are adversary-invisible deletions: the
    views must follow them like any other event."""
    healer = healer_cls(generators.random_tree(48, 7))
    spec = TransportSpec(
        mode="async",
        overlap=overlap,
        seed=7,
        faults=FaultPlan(
            drop=0.05, dup=0.02, crashes=(CrashDuringHeal(event=6, layer=1),)
        ),
    )
    seen = []

    def on_round(record, h):
        seen.append(record.event)
        assert_views_fresh(h)

    run_churn_campaign(
        healer,
        RandomChurnAdversary(p_insert=0.3, seed=7, attach="hub"),
        events=30,
        transport=spec,
        seed=7,
        on_round=on_round,
    )
    assert seen.count("crash") == 1


def test_image_edge_on_top_of_a_surviving_extra():
    """gnp(10, 0.4, seed=80): deleting 1, 5, 6 makes the heal lay image
    edge (3, 8) on top of the original non-tree edge (3, 8); deleting 0
    takes the image edge away again.  The extra survives, so the merged
    view keeps the edge while the tree view loses it — and it goes for
    good when an endpoint dies."""
    healer = ForgivingTreeHealer(generators.random_connected_gnp(10, 0.4, seed=80))
    assert 8 in healer._extra[3]
    healer.view(), healer.tree_view()
    for victim in (1, 5, 6):
        healer.delete(victim)
    assert 8 in healer.tree_view()[3] and 8 in healer.view()[3]
    report = healer.delete(0)
    assert (3, 8) in report.net_edge_deltas()[1]
    assert 8 not in healer.tree_view()[3]
    assert 8 in healer.view()[3] and 3 in healer.view()[8]
    assert_views_fresh(healer)
    report = healer.delete(8)
    assert (3, 8) in report.edges_removed
    assert 8 not in healer.view()[3]
    assert_views_fresh(healer)


# -- (b) draw identity: the view changes no adversary's stream ---------------
def _copying(healer_cls):
    """``healer_cls`` with the pre-view behaviour: every look is a copy."""

    class Copying(healer_cls):
        def view(self):
            return self.graph()

    return Copying


def _stream(healer, adversary, rounds=200):
    out = []
    for event, _ in pins.play(healer, adversary, rounds):
        if isinstance(event, Delete):
            out.append(("delete", event.nid))
        elif isinstance(event, Insert):
            out.append(("insert", event.nid, event.attach_to))
        else:
            assert isinstance(event, InsertWave)
            out.append(("wave", event.joiners))
    return out


#: How to build each catalog adversary for the draw-identity runs;
#: everything not named here takes ``cls()`` or ``cls(seed=3)``.
_SPECIAL = {
    DiameterGreedyAdversary: lambda: DiameterGreedyAdversary(max_candidates=2),
    DegreeGreedyAdversary: lambda: DegreeGreedyAdversary(max_candidates=2),
    GrowthThenMassacreAdversary: lambda: GrowthThenMassacreAdversary(growth=40, seed=3),
    RandomChurnAdversary: lambda: RandomChurnAdversary(seed=3, attach="leaf"),
    OscillatingChurnAdversary: lambda: OscillatingChurnAdversary(seed=3, attach="leaf"),
    WaveChurnAdversary: lambda: WaveChurnAdversary(wave=3, seed=3, attach="hub"),
}


def _factory(cls, seeded):
    if cls in _SPECIAL:
        return _SPECIAL[cls]
    return (lambda: cls(seed=3)) if seeded else cls


ADVERSARIES = {
    **{name: _factory(cls, False) for name, cls in ADVERSARY_CATALOG.items()},
    **{
        name: _factory(cls, True)
        for name, cls in CHURN_ADVERSARY_CATALOG.items()
        # Replays a script; it never looks at the graph.
        if cls is not TraceReplayAdversary
    },
}


@pytest.mark.parametrize("name", sorted(ADVERSARIES))
def test_adversary_draws_do_not_depend_on_the_view(name):
    graph = generators.preferential_attachment(230, 2, seed=9)
    production = _stream(ForgivingTreeHealer(graph), ADVERSARIES[name]())
    copying = _stream(_copying(ForgivingTreeHealer)(graph), ADVERSARIES[name]())
    assert len(production) == 200
    assert production == copying


@pytest.mark.parametrize("healer_cls", [ForgivingGraphHealer, SurrogateHealer])
@pytest.mark.parametrize(
    "name", ["max-degree", "min-degree", "surrogate-killer", "overlap-churn",
             "hostile-churn", "growth-then-massacre", "wave-churn"],
)
def test_draws_on_the_other_healer_families(healer_cls, name):
    graph = generators.preferential_attachment(120, 2, seed=4)
    production = _stream(healer_cls(graph), ADVERSARIES[name](), rounds=100)
    copying = _stream(_copying(healer_cls)(graph), ADVERSARIES[name](), rounds=100)
    assert len(production) == 100
    assert production == copying


#: Every catalog churn adversary as it comes (``attach="random"``): each
#: uniform draw indexes the roster.
ROSTER_READERS = {
    name: (
        (lambda cls=cls: cls(growth=150, seed=3, attach="random"))
        if cls is GrowthThenMassacreAdversary
        else (lambda cls=cls: cls(seed=3))
    )
    for name, cls in CHURN_ADVERSARY_CATALOG.items()
    if cls is not TraceReplayAdversary
}


@pytest.mark.parametrize("name", sorted(ROSTER_READERS))
def test_roster_draws_are_the_sorted_alive_draws(name):
    """300 events against the production healer (a kept roster) and
    against one whose ``view()`` is a fresh ``graph()`` (sorted on every
    look, as ``sorted(healer.alive)`` was)."""
    graph = generators.preferential_attachment(420, 2, seed=9)
    production_healer = ForgivingTreeHealer(graph)
    production = _stream(production_healer, ROSTER_READERS[name](), rounds=300)
    copying = _stream(
        _copying(ForgivingTreeHealer)(graph), ROSTER_READERS[name](), rounds=300
    )
    assert len(production) == 300
    assert production == copying
    if name != "growth-then-massacre":  # its massacre phase asks for hubs only
        assert production_healer.view()._roster is not None
    assert not production_healer.view().roster_is_stale()


def test_roster_follows_out_of_order_ids():
    """Fresh ids need not grow: a join below the maximum lands in place."""
    view = OverlayView({5: {9}, 9: {5}})
    assert sorted_nodes(view) == [5, 9]
    view.link(7, 5)
    view.link(2, 9)
    view.link(11, 2)
    assert sorted_nodes(view) == [2, 5, 7, 9, 11]
    view.drop_node(7)
    view.drop_node(2)  # leaves 11 isolated but present
    view.drop_node(404)  # never there
    assert sorted_nodes(view) == [5, 9, 11] == sorted(view)
    assert sorted_nodes({3: (), 1: ()}) == [1, 3]


def test_out_of_catalog_healer_defaults_to_a_fresh_graph():
    """``Healer.view`` without a maintained adjacency is ``graph()``."""

    class Minimal(Healer):
        name = "minimal"
        graph_calls = 0

        def graph(self):
            self.graph_calls += 1
            return self.initial_graph

        alive = property(lambda self: set(self._initial))
        delete = insert = None

    healer = Minimal(generators.star(5))
    assert healer.view() == generators.star(5)
    assert healer.max_degree_increase() == 0
    assert healer.graph_calls == 2
    assert MaxDegreeAdversary().choose(healer) == 0


# -- (c) laziness, (d) work bound by count -----------------------------------
@pytest.fixture
def materialisations(monkeypatch):
    """Call counts of everything that builds an O(n) adjacency."""
    calls = Counter()

    def counted(owner, attr):
        original = owner.__dict__[attr]

        def wrapper(self, *args, **kwargs):
            calls[attr] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)

    counted(ForgivingTreeHealer, "graph")
    counted(ForgivingTreeHealer, "tree_overlay")
    counted(FlatForgivingTree, "adjacency")
    return calls


def test_a_campaign_that_never_looks_never_builds_a_view(materialisations):
    healer = ForgivingTreeHealer(generators.random_tree(400, 5))
    result = run_churn_campaign(
        healer,
        RandomChurnAdversary(p_insert=0.5, seed=2, fast_sample=True),
        events=300,
        metrics="none",
        keep_rounds=False,
    )
    assert result.n_inserts + result.n_deletes == 300
    assert healer._view is None and healer._tree_view is None  # so: no roster
    assert materialisations == {"graph": 1, "adjacency": 1}  # the initial snapshot


def test_materialisations_per_campaign_are_constant(materialisations):
    """Per-round copying makes ≈ 300 in these 100 rounds (adversary,
    sweep and degree metric each looking once)."""
    healer = ForgivingTreeHealer(generators.preferential_attachment(300, 2, seed=1))
    result = run_campaign(healer, MaxDegreeAdversary(), rounds=100, transport="sync")
    assert len(result.rounds) == 100
    # The initial snapshot; the mirror's parity image at start and finish;
    # and the one build of the merged view.
    assert materialisations["graph"] + materialisations["tree_overlay"] <= 4
    assert materialisations["adjacency"] <= 4
    assert healer._tree_view is None  # the sync mirror takes no footprints
    # Hub questions build the degree index; the double sweep picks its
    # start from the roster.
    assert healer.view()._by_degree is not None and healer.view()._roster is not None
    assert not healer.view().roster_is_stale() and not healer.view().index_is_stale()


# -- (e) + satellite pins: nothing simulated moved ---------------------------
def test_simulated_facts_match_the_parent_commit():
    path = os.path.join(os.path.dirname(__file__), "data", "overlay_view_pins.json")
    with open(path) as fh:
        pinned = json.load(fh)
    observed = json.loads(json.dumps(pins.observe()))
    assert observed == pinned
    for mode in ("no_repair_double_sweep", "no_repair_exact"):
        connected = [row[0] for row in pinned[mode]]
        first = connected.index(False)  # the pin covers the disconnection
        assert 0 < first < len(connected) - 1
        assert all(row[1] is None for row in pinned[mode][first:])


def test_no_repair_disconnection_is_read_off_the_sweep():
    """Two components from the first round on: ``connected`` must come
    out False with no diameter, in both BFS modes."""
    for metrics in ("double-sweep", "exact"):
        result = run_campaign(
            NoRepairHealer(generators.path(7)),
            MaxDegreeAdversary(),
            rounds=2,
            metrics=metrics,
        )
        assert [(r.connected, r.diameter, r.alive) for r in result.rounds] == [
            (False, None, 6),
            (False, None, 5),
        ]


# -- (f) strict healers cross-check the view ---------------------------------
def test_strict_healer_checks_the_view_after_every_event():
    graph = generators.preferential_attachment(60, 2, seed=3)
    healer = ForgivingTreeHealer(graph, strict=True)
    run_campaign(healer, MaxDegreeAdversary(), rounds=20, metrics="none")
    assert isinstance(healer.view(), OverlayView)
    a = min(healer.view())
    b = min(healer.view()[a])
    healer.view()[a].discard(b)  # what no reader may ever do
    victim = max(n for n in healer.alive if n not in (a, b))
    with pytest.raises(InvariantViolationError, match=r"overlay-view.*round 21\b"):
        healer.delete(victim)


def test_strict_healer_names_a_corrupted_tree_view():
    healer = ForgivingTreeHealer(generators.random_tree(30, 2), strict=True)
    view = healer.tree_view()
    assert view is healer.view()
    healer.insert(100, 0)
    view.link(100, max(n for n in view if n != 100 and 100 not in view[n]))
    with pytest.raises(InvariantViolationError, match=r"round 2: tree_view\(\)"):
        healer.insert(101, 0)


def test_strict_healer_checks_the_roster_after_every_event():
    healer = ForgivingTreeHealer(generators.random_tree(30, 2), strict=True)
    roster = sorted_nodes(healer.view())
    healer.insert(100, 0)
    healer.delete(7)
    assert roster == sorted(healer.alive)
    roster.remove(12)  # what no reader may ever do
    with pytest.raises(InvariantViolationError, match=r"round 3: tree_view\(\)'s roster"):
        healer.insert(101, 0)


# -- (g) the kept maximum degree increase on non-tree inputs -----------------
@pytest.mark.parametrize(
    "adversary",
    [
        MaxDegreeAdversary(),
        RandomChurnAdversary(p_insert=0.4, seed=4),
        WaveChurnAdversary(wave=3, seed=4, attach="hub"),
    ],
    ids=["hubs", "churn", "waves"],
)
def test_kept_degree_increase_equals_the_scan(adversary):
    """With original extras the maximum comes off a tally the events
    keep: equal to the base class's scan of the merged view after every
    event (the strict healer compares every node's entry as well)."""
    graph = generators.preferential_attachment(120, 2, seed=4)
    healer = ForgivingTreeHealer(graph, strict=True)
    assert healer.max_degree_increase() == Healer.max_degree_increase(healer) == 0
    if not hasattr(adversary, "next_event"):
        adversary = DeletionOnlyChurnAdversary(adversary)
    for _ in range(80):
        pins.apply_event(healer, adversary.next_event(healer))
        assert healer.max_degree_increase() == Healer.max_degree_increase(healer)
    assert healer._increase is not None and sum(healer._tally.values()) == len(healer.alive)


def test_strict_healer_checks_the_kept_degree_increases():
    healer = ForgivingTreeHealer(
        generators.preferential_attachment(60, 2, seed=3), strict=True
    )
    healer.max_degree_increase()
    healer.delete(0)
    node = min(healer.alive)
    healer._increase[node] += 1  # a refresh that missed a node
    victim = max(n for n in healer.alive if n not in healer.view()[node] and n != node)
    with pytest.raises(InvariantViolationError, match=r"degree-increase.*round 2\b"):
        healer.delete(victim)
