"""Test wall for the incremental diameter engine and batch insert waves.

Cross-validates :class:`~repro.graphs.incremental.DynamicTreeMetrics`
against ``diameter_exact`` after **every** event of randomized churn
traces (well over 25 fixed seeds), property-fuzzes it with Hypothesis,
and pins down the batch-insert equivalence: ``insert_batch`` must produce
a structure identical to the same inserts applied sequentially.
"""

import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro import ForgivingTree
from repro.adversaries import RandomChurnAdversary, WaveChurnAdversary
from repro.baselines import (
    BinaryTreeHealer,
    ForgivingTreeHealer,
    LineHealer,
    NoRepairHealer,
    SurrogateHealer,
)
from repro.churn import Insert
from repro.core.errors import (
    DuplicateNodeError,
    EmptyStructureError,
    InvariantViolationError,
    NodeNotFoundError,
    NotATreeError,
)
from repro.graphs import generators
from repro.graphs.adjacency import from_edges
from repro.graphs.incremental import DynamicTreeMetrics
from repro.graphs.metrics import diameter_exact
from repro.harness import run_churn_campaign


class TestDynamicTreeMetricsBasics:
    def test_matches_exact_on_fixed_families(self):
        for graph in (
            generators.path(1),
            generators.path(2),
            generators.path(17),
            generators.star(9),
            generators.balanced_tree(2, 4),
            generators.random_tree(40, seed=3),
        ):
            assert DynamicTreeMetrics(graph).diameter == diameter_exact(graph)

    def test_empty_and_singleton(self):
        dtm = DynamicTreeMetrics({})
        assert len(dtm) == 0
        with pytest.raises(EmptyStructureError):
            dtm.diameter
        dtm = DynamicTreeMetrics({5: set()})
        assert dtm.diameter == 0 and 5 in dtm

    def test_rejects_disconnected(self):
        with pytest.raises(NotATreeError):
            DynamicTreeMetrics({0: {1}, 1: {0}, 2: set()})

    def test_cyclic_input_tracks_chords(self):
        dtm = DynamicTreeMetrics(generators.cycle(6))
        assert dtm.n_chords == 1 and not dtm.is_exact
        assert dtm.diameter >= diameter_exact(generators.cycle(6))

    def test_insert_leaf_updates_exactly(self):
        graph = generators.random_tree(12, seed=1)
        dtm = DynamicTreeMetrics(graph)
        current = {k: set(v) for k, v in graph.items()}
        for i, attach in enumerate([0, 3, 100, 101, 5]):
            nid = 100 + i if attach != 100 else 200
            dtm.insert_leaf(nid, attach)
            current[nid] = {attach}
            current[attach].add(nid)
            assert dtm.diameter == diameter_exact(current)
            dtm.check()

    def test_insert_leaf_errors(self):
        dtm = DynamicTreeMetrics(generators.path(3))
        with pytest.raises(DuplicateNodeError):
            dtm.insert_leaf(1, 0)
        with pytest.raises(NodeNotFoundError):
            dtm.insert_leaf(9, 77)

    def test_empties_and_regrows(self):
        dtm = DynamicTreeMetrics({0: {1}, 1: {0}})
        dtm.apply_delete(1, added=(), removed=((0, 1),))
        assert dtm.diameter == 0
        dtm.apply_delete(0, added=(), removed=())
        assert len(dtm) == 0
        dtm.check()
        dtm.insert_leaf(7, 7)  # first node of a re-growing network
        assert dtm.diameter == 0 and dtm.root == 7
        dtm.insert_leaf(8, 7)
        assert dtm.diameter == 1
        dtm.check()

    def test_delete_victim_not_found(self):
        dtm = DynamicTreeMetrics(generators.path(3))
        with pytest.raises(NodeNotFoundError):
            dtm.apply_delete(42, added=(), removed=())

    def test_disconnection_raises(self):
        dtm = DynamicTreeMetrics(generators.path(4))
        with pytest.raises(NotATreeError):
            # deleting interior node 1 with no heal edge splits the path
            dtm.apply_delete(1, added=(), removed=((0, 1), (1, 2)))


def _tree_preserving_trace(healer_cls, n0, seed, events=70, p_insert=0.45):
    """Drive a tree-preserving healer under random churn, cross-validating
    the incremental diameter against ``diameter_exact`` after every event."""
    tree = generators.random_tree(n0, seed=seed)
    healer = healer_cls({k: set(v) for k, v in tree.items()})
    tracker = DynamicTreeMetrics(tree)
    adversary = RandomChurnAdversary(p_insert=p_insert, seed=seed)
    adversary.reset()
    for _ in range(events):
        event = adversary.next_event(healer)
        if isinstance(event, Insert):
            report = healer.insert(event.nid, event.attach_to)
        else:
            report = healer.delete(event.nid)
        tracker.apply_report(report)
        graph = healer.graph()
        assert tracker.is_exact, "tree-preserving heal produced a chord"
        assert tracker.diameter == diameter_exact(graph)
        assert len(tracker) == len(graph)


class TestChurnTraceCrossValidation:
    """The wall: >= 25 seeded churn traces, every event cross-validated."""

    @pytest.mark.parametrize("seed", range(13))
    def test_line_healer_traces_match_exact(self, seed):
        _tree_preserving_trace(LineHealer, 12 + seed % 20, seed)

    @pytest.mark.parametrize("seed", range(13))
    def test_binary_tree_healer_traces_match_exact(self, seed):
        _tree_preserving_trace(BinaryTreeHealer, 10 + seed % 25, seed + 100)

    @pytest.mark.parametrize("seed", range(13))
    def test_surrogate_healer_traces_match_exact(self, seed):
        _tree_preserving_trace(SurrogateHealer, 10 + seed % 25, seed + 200)

    @pytest.mark.parametrize("seed", range(13))
    def test_forgiving_tree_traces_bracket_exact(self, seed):
        """On the Forgiving Tree's image (which keeps short heal chords)
        the tracker mirrors the adjacency edge-for-edge, its aggregates
        survive a from-scratch recheck after every event, and its value
        equals ``diameter_exact`` exactly whenever the image is a tree —
        bracketing it from above (within the chord slack) otherwise."""
        rng = random.Random(seed)
        tree = generators.random_tree(5 + seed % 30, seed=seed)
        ft = ForgivingTree(tree)
        tracker = DynamicTreeMetrics(tree)
        nxt = 10_000
        for _ in range(70):
            alive = sorted(ft.alive)
            if len(alive) <= 1 or rng.random() < 0.45:
                report = ft.insert(nxt, rng.choice(alive))
                nxt += 1
            else:
                report = ft.delete(rng.choice(alive))
            tracker.apply_report(report)
            tracker.check()  # incremental aggregates == from-scratch BFS
            image = ft.adjacency()
            assert {k: set(v) for k, v in image.items()} == tracker._adj
            if len(image) > 1:
                d_exact = diameter_exact(image)
                if tracker.is_exact:
                    assert tracker.diameter == d_exact
                else:
                    assert d_exact <= tracker.diameter <= d_exact + 2 * tracker.n_chords


class TestHypothesisProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        script=st.lists(
            st.tuples(st.booleans(), st.integers(min_value=0, max_value=10**6)),
            min_size=1,
            max_size=50,
        ),
    )
    def test_any_interleaving_matches_exact_on_line_healer(self, seed, script):
        tree = generators.random_tree(2 + seed % 14, seed=seed)
        healer = LineHealer({k: set(v) for k, v in tree.items()})
        tracker = DynamicTreeMetrics(tree)
        nxt = 10_000
        for is_insert, pick in script:
            alive = sorted(healer.alive)
            if len(alive) <= 1:
                is_insert = True
            target = alive[pick % len(alive)]
            if is_insert:
                report = healer.insert(nxt, target)
                nxt += 1
            else:
                report = healer.delete(target)
            tracker.apply_report(report)
            tracker.check()
            assert tracker.diameter == diameter_exact(healer.graph())

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        script=st.lists(
            st.tuples(st.booleans(), st.integers(min_value=0, max_value=10**6)),
            min_size=1,
            max_size=40,
        ),
    )
    def test_any_interleaving_brackets_exact_on_forgiving_tree(self, seed, script):
        tree = generators.random_tree(2 + seed % 12, seed=seed)
        ft = ForgivingTree(tree)
        tracker = DynamicTreeMetrics(tree)
        nxt = 10_000
        for is_insert, pick in script:
            alive = sorted(ft.alive)
            if len(alive) <= 1:
                is_insert = True
            target = alive[pick % len(alive)]
            if is_insert:
                report = ft.insert(nxt, target)
                nxt += 1
            else:
                report = ft.delete(target)
            tracker.apply_report(report)
            tracker.check()
            image = ft.adjacency()
            assert {k: set(v) for k, v in image.items()} == tracker._adj
            if len(image) > 1 and tracker.is_exact:
                assert tracker.diameter == diameter_exact(image)


def _wave_script(seed, n_waves=8, max_wave=6):
    """Random (wave, deletions) interleavings with deterministic ids."""
    rng = random.Random(seed)
    return rng, [rng.randint(1, max_wave) for _ in range(n_waves)]


class TestInsertBatchIsomorphism:
    @pytest.mark.parametrize("seed", range(10))
    def test_batch_identical_to_sequential(self, seed):
        """``insert_batch`` must yield a structure *identical* to the same
        inserts applied one by one: image edges, wills, heirs, baselines."""
        rng, waves = _wave_script(seed)
        tree = generators.random_tree(4 + seed % 12, seed=seed)
        batched = ForgivingTree(tree, strict=True)
        sequential = ForgivingTree(tree, strict=True)
        nxt = 1000
        for size in waves:
            alive = sorted(batched.alive)
            wave = []
            for _ in range(size):
                wave.append((nxt, rng.choice(alive)))
                nxt += 1
            batched.insert_batch(wave)
            for nid, attach_to in wave:
                sequential.insert(nid, attach_to)
            victim = rng.choice(sorted(batched.alive))
            if len(batched) > 1:
                batched.delete(victim)
                sequential.delete(victim)
            assert batched.edges() == sequential.edges()
            assert batched.alive == sequential.alive
            assert batched.original_degree == sequential.original_degree
            for nid in batched.alive:
                assert (
                    batched.will_of(nid).as_shape()
                    == sequential.will_of(nid).as_shape()
                )
                assert batched.heir_of(nid) == sequential.heir_of(nid)

    def test_wave_amortizes_portion_traffic(self):
        """The point of batching: portions retransmit once per touched
        stand-in per wave, so a k-wave at one attachment point costs
        strictly fewer portion messages than k sequential inserts."""
        from repro.core.events import WillPortionSent

        tree = {0: [1, 2], 1: [3, 4]}
        wave = [(100 + i, 1) for i in range(6)]
        batched = ForgivingTree(tree)
        report = batched.insert_batch(wave)
        batch_portions = sum(
            1 for e in report.events if isinstance(e, WillPortionSent)
        )
        sequential = ForgivingTree(tree)
        seq_portions = 0
        for nid, attach_to in wave:
            r = sequential.insert(nid, attach_to)
            seq_portions += sum(
                1 for e in r.events if isinstance(e, WillPortionSent)
            )
        assert batched.edges() == sequential.edges()
        assert batch_portions < seq_portions

    def test_batch_validation_errors(self):
        ft = ForgivingTree({0: [1, 2]})
        with pytest.raises(ValueError):
            ft.insert_batch([])
        with pytest.raises(DuplicateNodeError):
            ft.insert_batch([(5, 0), (5, 1)])
        with pytest.raises(DuplicateNodeError):
            ft.insert_batch([(1, 0)])  # id 1 already exists
        with pytest.raises(NodeNotFoundError):
            ft.insert_batch([(5, 0), (6, 5)])  # attach to same-wave joiner
        with pytest.raises(NodeNotFoundError):
            ft.insert_batch([(5, 99)])
        # failed validation must not have mutated anything
        assert ft.alive == {0, 1, 2}
        ft.check()


class TestHarnessIncrementalMode:
    def test_incremental_campaign_matches_exact_per_round(self):
        tree = generators.random_tree(35, seed=4)
        healer = LineHealer({k: set(v) for k, v in tree.items()})
        mismatches = []

        def observe(rec, h):
            if rec.diameter is not None:
                if rec.diameter != diameter_exact(h.graph()):
                    mismatches.append(rec.round)

        result = run_churn_campaign(
            healer,
            RandomChurnAdversary(p_insert=0.5, seed=4),
            events=80,
            metrics="incremental",
            on_round=observe,
        )
        assert len(result.rounds) == 80 and not mismatches
        assert all(
            r.stretch == r.diameter / result.initial_diameter
            for r in result.rounds
            if r.diameter is not None
        )

    def test_wave_adversary_through_harness(self):
        tree = generators.random_tree(30, seed=2)
        healer = ForgivingTreeHealer({k: set(v) for k, v in tree.items()})
        result = run_churn_campaign(
            healer,
            WaveChurnAdversary(wave=5, p_wave=0.4, seed=2),
            events=60,
            metrics="incremental",
        )
        waves = [r for r in result.rounds if r.wave_size > 1]
        assert waves and all(r.event == "insert" for r in waves)
        assert result.stayed_connected
        assert result.peak_degree_increase <= 3
        assert result.net_growth > 0

    def test_auto_mode_degrades_on_disconnection(self):
        tree = generators.random_tree(20, seed=1)
        healer = NoRepairHealer({k: set(v) for k, v in tree.items()})
        result = run_churn_campaign(
            healer, RandomChurnAdversary(p_insert=0.2, seed=9), events=30
        )
        assert len(result.rounds) == 30
        assert not result.stayed_connected  # no-repair fragments the tree

    def test_incremental_mode_rejects_cyclic_start(self):
        graph = generators.random_connected_gnp(20, 0.3, seed=1)
        healer = SurrogateHealer({k: set(v) for k, v in graph.items()})
        with pytest.raises(NotATreeError):
            run_churn_campaign(
                healer,
                RandomChurnAdversary(seed=1),
                events=5,
                metrics="incremental",
            )

    def test_campaign_seed_reproducibility(self):
        tree = generators.random_tree(25, seed=6)

        def run():
            healer = SurrogateHealer(
                {k: set(v) for k, v in generators.random_connected_gnp(25, 0.15, seed=6).items()}
            )
            result = run_churn_campaign(
                healer,
                RandomChurnAdversary(p_insert=0.4, seed=6),
                events=40,
                metrics="double-sweep",
                seed=123,
            )
            return result.series("diameter")

        assert run() == run()


class TestGeneralizedCascadeRegression:
    def test_donor_steal_of_cascade_target(self):
        """Hypothesis-found endgame (tree_seed=605, order_seed=2259,
        branching=3): the leaf-will donor search splices the deferred
        cascade target; the cascade must then not touch the destroyed
        helper (double-destroy KeyError before the fix)."""
        tree = generators.random_tree(35, 605)
        ft = ForgivingTree(tree, strict=True, branching=3)
        order = sorted(tree)
        random.Random(2259).shuffle(order)
        for nid in order:
            ft.delete(nid)
        assert len(ft) == 0

    def test_role_emptied_by_parent_collapse_vanishes(self):
        """Hypothesis-found endgame (tree_seed=0, order_seed=0, n=42,
        branching=3): a dying leaf's non-adjacent role loses its only
        child when the parent helper dissolves; the now-childless role
        must vanish instead of hunting a donor to inherit nothing
        (donor exhaustion before the fix)."""
        tree = generators.random_tree(42, 0)
        ft = ForgivingTree(tree, strict=True, branching=3)
        order = sorted(tree)
        random.Random(0).shuffle(order)
        for nid in order:
            ft.delete(nid)
        assert len(ft) == 0


class TestOddToggleRawEventReplay:
    """The ROADMAP-flagged under-reporting: the report's summary sets
    are disjointified, so an edge toggling an odd number of times inside
    one FT heal (removed, re-added, removed) vanishes from both sets —
    ``apply_report`` must consume the raw chronological net deltas
    (``HealReport.net_edge_deltas``) instead, as the transport mirror
    already does."""

    # The observed case: n=300, random_tree seed 42, RandomChurn seed 7
    # (p_insert=0.3) — event 49 removes, re-adds and removes again the
    # edge (38, 226), which then appears in neither summary set.
    N, TREE_SEED, ADV_SEED, P_INSERT = 300, 42, 7, 0.3
    TOGGLE_EVENT, TOGGLE_EDGE = 49, (38, 226)

    def _reports(self, events):
        from repro.baselines import ForgivingTreeHealer

        tree = generators.random_tree(self.N, seed=self.TREE_SEED)
        healer = ForgivingTreeHealer({k: set(v) for k, v in tree.items()})
        adversary = RandomChurnAdversary(p_insert=self.P_INSERT, seed=self.ADV_SEED)
        adversary.reset()
        for _ in range(events):
            event = adversary.next_event(healer)
            if isinstance(event, Insert):
                yield healer, healer.insert(event.nid, event.attach_to)
            else:
                yield healer, healer.delete(event.nid)

    def test_observed_toggle_case_is_pinned(self):
        """The campaign really produces the odd toggle the ROADMAP
        recorded: summary sets miss the edge, the raw replay nets it."""
        for t, (healer, report) in enumerate(self._reports(self.TOGGLE_EVENT + 1)):
            pass
        assert t == self.TOGGLE_EVENT
        key = self.TOGGLE_EDGE
        ops = [
            type(e).__name__[4]  # 'A'dded / 'R'emoved
            for e in report.events
            if type(e).__name__ in ("EdgeAdded", "EdgeRemoved") and e.key() == key
        ]
        assert ops == ["R", "A", "R"]  # the odd toggle
        assert key not in report.edges_added
        assert key not in report.edges_removed  # vanished from the summary
        added, removed = report.net_edge_deltas()
        assert key in removed and key not in added  # recovered by raw replay

    def test_tracker_stays_exact_through_the_toggle(self):
        """Feeding raw net deltas, the maintained overlay matches the
        healer's graph edge-for-edge across the whole pinned campaign."""
        tree = generators.random_tree(self.N, seed=self.TREE_SEED)
        from repro.baselines import ForgivingTreeHealer

        healer = ForgivingTreeHealer({k: set(v) for k, v in tree.items()})
        tracker = DynamicTreeMetrics(healer.graph())
        adversary = RandomChurnAdversary(p_insert=self.P_INSERT, seed=self.ADV_SEED)
        adversary.reset()
        for t in range(60):
            event = adversary.next_event(healer)
            if isinstance(event, Insert):
                report = healer.insert(event.nid, event.attach_to)
            else:
                report = healer.delete(event.nid)
            tracker.apply_report(report)
            tracked = {
                (u, v) for u, s in tracker._adj.items() for v in s if u < v
            }
            actual = {
                (u, v) for u, s in healer.graph().items() for v in s if u < v
            }
            assert tracked == actual, f"divergence at event {t}"
            tracker.check()

    def test_synthetic_non_victim_incident_toggle(self):
        """A toggle *not* incident to the victim cannot be rescued by
        ``apply_delete``'s victim-edge normalization: the summary-set
        feed leaves a phantom edge (absorbed as a chord), the raw-event
        replay stays exact."""
        from repro.core.events import EdgeAdded, EdgeRemoved, HealReport

        graph = {0: {1}, 1: {0, 2}, 2: {1, 3}, 3: {2}}
        events = (
            EdgeRemoved(2, 3),  # the victim's edge
            EdgeRemoved(1, 2),  # the odd toggle: R...
            EdgeAdded(1, 2),    # ...A...
            EdgeRemoved(1, 2),  # ...R -> net removed, summary-invisible
            EdgeAdded(0, 2),    # re-attach 2 under 0
        )
        added = frozenset(
            e.key() for e in events if isinstance(e, EdgeAdded)
        )
        removed = frozenset(
            e.key() for e in events if isinstance(e, EdgeRemoved)
        )
        report = HealReport(
            deleted=3,
            edges_added=added - removed,   # disjointified, as engines do
            edges_removed=removed - added,
            events=events,
        )
        assert (1, 2) not in report.edges_added
        assert (1, 2) not in report.edges_removed
        net_added, net_removed = report.net_edge_deltas()
        assert net_added == {(0, 2)}
        assert net_removed == {(1, 2), (2, 3)}

        # the fixed path: exact tree, no phantom
        fixed = DynamicTreeMetrics({k: set(v) for k, v in graph.items()})
        fixed.apply_report(report)
        assert {(u, v) for u, s in fixed._adj.items() for v in s if u < v} == {
            (0, 1), (0, 2)
        }
        assert fixed.is_exact and fixed.diameter == 2
        fixed.check()

        # the old summary-set feed: the phantom (1, 2) survives as a chord
        legacy = DynamicTreeMetrics({k: set(v) for k, v in graph.items()})
        legacy.apply_delete(3, report.edges_added, report.edges_removed)
        legacy_edges = {
            (u, v) for u, s in legacy._adj.items() for v in s if u < v
        }
        assert (1, 2) in legacy_edges  # the under-report, demonstrated
        assert not legacy.is_exact and legacy.n_chords == 1

    def test_net_edge_deltas_units(self):
        from repro.core.events import EdgeAdded, EdgeRemoved, HealReport

        report = HealReport(
            deleted=9,
            edges_added=frozenset({(7, 8)}),  # summary-only entry (no event)
            edges_removed=frozenset({(5, 6)}),
            events=(
                EdgeAdded(1, 2), EdgeRemoved(1, 2),   # transient: no net
                EdgeRemoved(3, 4), EdgeAdded(3, 4),   # removed+restored: no net
                EdgeAdded(2, 9), EdgeRemoved(2, 9), EdgeAdded(2, 9),  # A..A
            ),
        )
        added, removed = report.net_edge_deltas()
        assert added == {(2, 9), (7, 8)}
        assert removed == {(5, 6)}


# ----------------------------------------------------------------------
# The tracker pays for the change, not the depth
# ----------------------------------------------------------------------
class _ReadCountingDict(dict):
    """``_parent`` stand-in recording every key whose pointer is read."""

    def __init__(self, *args):
        super().__init__(*args)
        self.reads = []

    def __getitem__(self, key):
        self.reads.append(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.reads.append(key)
        return super().get(key, default)


def _spine_with_branches(length):
    """Path ``0..length-1`` (0 is the orientation root); spine node ``i``
    carries the side branch ``i -> a -> {b, c}`` with ``a, b, c =
    _branch(length, i)``."""
    edges = [(i, i + 1) for i in range(length - 1)]
    for i in range(length):
        a, b, c = _branch(length, i)
        edges += [(i, a), (a, b), (a, c)]
    return from_edges(edges)


def _branch(length, i):
    return length + 3 * i, length + 3 * i + 1, length + 3 * i + 2


def _counted(tracker, operation):
    """Run ``operation``; return ``(recompute calls, parent keys the
    update read, parent keys its child scans read)``.

    Children are derived from parent pointers, so ``_recompute``,
    ``_kids`` and the downward fragment enumeration read the pointers
    of the nodes they scan and of their neighbours below; those reads
    are counted apart from the update's own walks and classifications."""
    recomputed, scanned = [], []
    tracker._parent = counting = _ReadCountingDict(tracker._parent)

    def scan(method):
        def spy(arg):
            if method.__name__ == "_recompute":
                recomputed.append(arg)
            start = len(counting.reads)
            result = method(arg)
            scanned.extend(counting.reads[start:])
            del counting.reads[start:]
            return result

        return spy

    scans = ("_recompute", "_kids", "_fragment_members")
    for name in scans:
        setattr(tracker, name, scan(getattr(tracker, name)))
    try:
        operation()
    finally:
        for name in scans:
            delattr(tracker, name)
        tracker._parent = dict(counting)
    tracker.check()
    return recomputed, counting.reads, scanned


class TestWorkBound:
    """Counts, never timing: an update's work follows what the heal
    changed.  Every bound here fails when bubbling walks to the root or
    an anchored endpoint is classified by walking up."""

    SPINE = 2000

    def test_leaf_insert_off_the_longest_path(self):
        length = self.SPINE
        tracker = DynamicTreeMetrics(_spine_with_branches(length))
        mid = length // 2
        a, b, _ = _branch(length, mid)
        recomputed, _, _ = _counted(
            tracker, lambda: tracker.insert_leaf(10 * length, b)
        )
        # the branch, the spine node (its through-path grew), and the one
        # above, whose pair comes out as it was: stop
        assert recomputed == [b, a, mid, mid - 1]

    def test_side_leaf_delete_never_steps_above_the_cut_parent(self):
        length = self.SPINE
        tracker = DynamicTreeMetrics(_spine_with_branches(length))
        mid = length // 2
        cut_parent, victim, sibling = _branch(length, mid)
        recomputed, reads, scanned = _counted(
            tracker,
            lambda: tracker.apply_delete(victim, (), ((cut_parent, victim),)),
        )
        assert len(recomputed) <= 6
        assert set(reads) <= {victim, cut_parent}  # not one step further up
        # the cut parent's pair changed, so the spine node above it is
        # recomputed: each scan reads its own node and the children below
        assert recomputed == [cut_parent, mid]
        assert set(scanned) == {cut_parent, sibling, mid, mid + 1}

    @pytest.mark.parametrize("length", [500, 2000])
    def test_small_fragment_rehang_is_independent_of_depth(self, length):
        """Spine node ``k`` dies 12 from the bottom; its side branch takes
        its place and the 44-node tail re-hangs under it.  Same bound at
        both spine lengths."""
        tracker = DynamicTreeMetrics(_spine_with_branches(length))
        k = length - 12
        side = _branch(length, k)[0]
        recomputed, reads, scanned = _counted(
            tracker,
            lambda: tracker.apply_delete(
                k,
                added=((k - 1, side), (side, k + 1)),
                removed=((k - 1, k), (k, k + 1), (k, side)),
            ),
        )
        assert tracker.is_exact and tracker.height_of(side) == length - k + 1
        assert len(recomputed) <= 8
        assert len(reads) <= 16
        # the scans enumerate the two fragments (47 nodes) downward
        assert len(scanned) <= 120
        # nothing above the cut parent
        assert not (set(reads) | set(scanned)) & set(range(k - 1))


class _RootBubbling(DynamicTreeMetrics):
    """The propagation this tracker replaced: every seed to the root."""

    def _bubble(self, nid):
        cur = nid
        while cur is not None:
            self._recompute(cur)
            cur = self._parent[cur]


def _copy(graph):
    return {k: set(v) for k, v in graph.items()}


def _assert_same_tracker(new, old):
    assert new.parent_state() == old.parent_state()
    assert new.diameter == old.diameter
    assert new.n_chords == old.n_chords and new.is_exact == old.is_exact
    assert new._height == old._height and new._diam == old._diam


def _window_tree(n, seed, window):
    """Node ``i`` hangs under a uniform choice among the ``window`` nodes
    before it: depth ~ 2n/window (the perf benchmark's deep tree)."""
    rng = random.Random(seed)
    graph = {i: set() for i in range(n)}
    for i in range(1, n):
        parent = i - 1 - rng.randrange(min(i, window))
        graph[i].add(parent)
        graph[parent].add(i)
    return graph


def _deep_shape(kind, n, seed):
    if kind == 0:
        return generators.path(n)
    if kind == 1:
        return generators.caterpillar((n + 1) // 2, 1)
    return _window_tree(n, seed, 2)  # depth ~ 2n/3


def _drive_both(tree, picks, seen=None):
    """Feed one ForgivingTreeHealer campaign to the production tracker and
    to :class:`_RootBubbling`; they must agree after every event.  ``seen``
    collects which branches of ``apply_delete`` the campaign reached."""
    healer = ForgivingTreeHealer({k: set(v) for k, v in tree.items()})
    new = DynamicTreeMetrics(healer.graph())
    old = _RootBubbling(healer.graph())
    if seen is not None:
        enumerate_fragments = new._fragment_members

        def spy(detached):
            members = enumerate_fragments(detached)
            seen["multi_fragment"] |= len(detached) >= 2
            seen["over_cap"] |= members is None
            seen["listed"] |= bool(members)
            seen["chords"] |= new.n_chords > 0
            return members

        new._fragment_members = spy
    nxt = 10_000
    for is_insert, pick in picks:
        alive = sorted(healer.alive)
        if len(alive) <= 1:
            is_insert = True
        target = alive[pick % len(alive)]
        if is_insert:
            report = healer.insert(nxt, target)
            nxt += 1
        else:
            if seen is not None:
                seen["root_deleted"] |= target == new.root
            report = healer.delete(target)
        new.apply_report(report)
        old.apply_report(report)
        _assert_same_tracker(new, old)
        new.check()


class TestEarlyStopDifferential:
    """The early-terminating tracker against root-walking propagation."""

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.integers(min_value=0, max_value=2),
        n=st.integers(min_value=2, max_value=200),
        seed=st.integers(min_value=0, max_value=10**6),
        script=st.lists(
            st.tuples(st.booleans(), st.integers(min_value=0, max_value=10**6)),
            min_size=1,
            max_size=60,
        ),
    )
    def test_agrees_with_root_bubbling_on_deep_shapes(self, kind, n, seed, script):
        _drive_both(_deep_shape(kind, n, seed), script)

    def test_pinned_campaigns_reach_every_branch(self):
        """Seeded runs of the same driver in which chords, multi-fragment
        heals, root deletions and over-cap fragments all demonstrably
        occur (the odd-toggle case has its own pinned campaign below)."""
        seen = dict.fromkeys(
            ("root_deleted", "chords", "multi_fragment", "over_cap", "listed"), False
        )
        for kind in range(3):
            rng = random.Random(kind)
            picks = [(rng.random() < 0.35, rng.randrange(10**6)) for _ in range(150)]
            # low picks hit low ids: the root end of every deep shape
            picks[::10] = [(False, rng.randrange(3)) for _ in picks[::10]]
            _drive_both(_deep_shape(kind, 200, seed=kind), picks, seen)
        assert all(seen.values()), seen

    def test_odd_toggle_campaign_agrees(self):
        pinned = TestOddToggleRawEventReplay()
        tree = generators.random_tree(pinned.N, seed=pinned.TREE_SEED)
        new, old = DynamicTreeMetrics(tree), _RootBubbling(_copy(tree))
        for _healer, report in pinned._reports(pinned.TOGGLE_EVENT + 10):
            new.apply_report(report)
            old.apply_report(report)
            _assert_same_tracker(new, old)
        new.check()

    # Two dirty seeds, one the other's ancestor.  Seeds run lowest stored
    # height first, so which of the two goes first is the scenario's choice:
    #
    # descendant first — 0-1-10-5-11(victim), 5-12-13 keeps 5's pair fixed;
    #   the heal also moves 1-20-21-22-23-24 under 30, so 1 (tall) and its
    #   descendant 5 (short) are both cut parents.
    # ancestor first — victim 9 under 0 has children 20 (a chain 20-21-22-23)
    #   and 40 (a chain 40-41-42); the heal hangs 20 under the *leaf* 1 and 40
    #   under 22, so 1 (stored height 0) runs before its new descendant 22.
    @pytest.mark.parametrize(
        "edges, victim, added, removed, ancestor, descendant, ancestor_first",
        [
            (
                [(0, 1), (1, 10), (10, 5), (5, 11), (5, 12), (12, 13), (1, 20),
                 (20, 21), (21, 22), (22, 23), (23, 24), (0, 30)],
                11, [(20, 30)], [(5, 11), (1, 20)], 1, 5, False,
            ),
            (
                [(0, 1), (0, 9), (9, 20), (20, 21), (21, 22), (22, 23),
                 (9, 40), (40, 41), (41, 42)],
                9, [(1, 20), (22, 40)], [(0, 9), (9, 20), (9, 40)], 1, 22, True,
            ),
        ],
        ids=["descendant-first", "ancestor-first"],
    )
    def test_two_seeds_one_the_ancestor_of_the_other(
        self, edges, victim, added, removed, ancestor, descendant, ancestor_first
    ):
        graph = from_edges(edges)
        new = DynamicTreeMetrics(graph, root=0)
        old = _RootBubbling(_copy(graph), root=0)
        order = []
        bubble = new._bubble
        new._bubble = lambda nid: (order.append(nid), bubble(nid))[1]
        for tracker in (new, old):
            tracker.apply_delete(victim, added=added, removed=removed)
        assert (order.index(ancestor) < order.index(descendant)) == ancestor_first
        path = [descendant]
        while path[-1] is not None:
            path.append(new._parent[path[-1]])
        assert ancestor in path
        _assert_same_tracker(new, old)
        new.check()
        assert new.diameter == diameter_exact(new._adj)

    def test_diam_changes_under_an_unchanged_height(self):
        """Lengthening the *second* tallest branch of node 1 moves its
        ``diam`` but not its ``height``; the root's ``diam`` must follow
        (comparing heights alone would stop at node 1)."""
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6),  # tall arm
                 (1, 10), (10, 11)]  # short arm
        tracker = DynamicTreeMetrics(from_edges(edges), root=0)
        before = tracker.height_of(1), tracker.diameter
        tracker.insert_leaf(12, 11)
        assert tracker.height_of(1) == before[0] == 5
        assert tracker.diameter == before[1] + 1 == 8
        tracker.check()

    def test_spanning_choice_is_the_same_on_both_sides_of_the_cap(self):
        """A 139-node fragment outgrows the bare cap (64) but not the cap
        raised by 20 seeded both-anchored chords (144): the enumerated and
        the walked classification promote the same chord."""
        n, cut = 150, 10
        parents = [-1] + list(range(n - 1))  # the path 0 - 1 - ... - 149
        idle = [(u, v) for u in range(cut) for v in range(u + 2, cut)][:20]
        walked = DynamicTreeMetrics.from_parents(parents, chords=[(5, 100)])
        listed = DynamicTreeMetrics.from_parents(parents, chords=[(5, 100)] + idle)
        for tracker in (walked, listed):
            tracker.apply_delete(cut, added=(), removed=())
            tracker.check()
        assert walked.n_chords == 0 and listed.n_chords == len(idle) == 20
        assert walked.parent_state()["parents"] == listed.parent_state()["parents"]
        assert walked._parent[100] == 5 and walked._parent[11] == 12
        assert walked.diameter == listed.diameter


# ----------------------------------------------------------------------
# One adjacency: the tracker takes its input over
# ----------------------------------------------------------------------
class TestOwnership:
    def test_the_tracker_edits_the_graph_it_was_given(self):
        tree = generators.random_tree(80, seed=9)
        healer = ForgivingTreeHealer(_copy(tree))
        tracker = DynamicTreeMetrics(tree)
        assert tracker._adj is tree
        adversary = RandomChurnAdversary(p_insert=0.4, seed=9)
        for _ in range(60):
            event = adversary.next_event(healer)
            if isinstance(event, Insert):
                report = healer.insert(event.nid, event.attach_to)
            else:
                report = healer.delete(event.nid)
            tracker.apply_report(report)
            tracker.check()
        assert tree == healer.graph()

    def test_check_reports_a_root_pointer_instead_of_walking_for_ever(self):
        """The root's pointer aimed at a deeper node adjacent to it through
        a chord: a walk down the pointers would find the root again as
        that node's child."""
        tracker = DynamicTreeMetrics.from_parents([-1, 0, 1], chords=[(0, 2)])
        tracker._parent[0] = 2
        with pytest.raises(InvariantViolationError, match="root has a parent"):
            tracker.check()

    def test_building_allocates_little_beyond_the_adjacency_it_takes(self):
        """The parent, height and diameter maps plus one breadth-first
        order; no copy of the adjacency and no child sets (which took
        67 MB here)."""
        graph = _window_tree(100_000, seed=3, window=256)
        tracemalloc.start()
        try:
            tracker = DynamicTreeMetrics(graph)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tracker._adj is graph and tracker.is_exact
        assert peak <= 25 * 2**20, f"{peak / 2**20:.1f} MB"

    def test_tracked_campaign_holds_the_overlay_snapshot_once(self, monkeypatch):
        """A churn_tracked-shaped campaign: the tracker's adjacency is the
        one snapshot the campaign took, maintained to the end."""
        from repro.harness import experiment

        meters, snapshots = [], []

        class Meter(experiment._DiameterMeter):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                meters.append(self)

        healer = ForgivingTreeHealer(_window_tree(300, seed=3, window=8))
        graph = healer.graph

        def snapshot():
            snapshots.append(graph())
            return snapshots[-1]

        monkeypatch.setattr(experiment, "_DiameterMeter", Meter)
        monkeypatch.setattr(healer, "graph", snapshot)
        result = run_churn_campaign(
            healer,
            RandomChurnAdversary(p_insert=0.5, seed=3, fast_sample=True),
            events=200,
            metrics="incremental",
            keep_rounds=False,
        )
        assert result.n_inserts + result.n_deletes == 200
        assert len(snapshots) == 1 and len(meters) == 1
        assert meters[0].tracker._adj is snapshots[0]
        assert snapshots[0] == graph()
