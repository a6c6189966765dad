"""Tests for the distributed runtime: protocol flows, cross-validation
against the sequential engine, and the Theorem 1.3 communication bounds.

The cross-validation envelope: scripted scenarios of any shape plus random
trees with random full-deletion campaigns up to n = 24.  Every sampled
seed passes since the own-helper-skip inheritance and vacuous-bypass claim
fixes; churn campaigns cross-validate in test_churn.py."""

import ast
import pathlib
import random

import pytest

import repro
from repro import ForgivingTree
from repro.core.errors import NodeNotFoundError, SimulationOverError
from repro.core.slot_tree import ObjectWills
from repro.distributed import DistributedForgivingTree, ProtocolDriver
from repro.fgraph import DistributedForgivingGraph
from repro.graphs import generators
from tests.conftest import FIG5, FIGURE5_TREE


def cross_validate(tree, order):
    seq = ForgivingTree(tree, strict=True)
    dist = DistributedForgivingTree(tree)
    assert seq.edges() == dist.edges()
    for nid in order:
        seq.delete(nid)
        dist.delete(nid)
        assert seq.edges() == dist.edges(), f"diverged after deleting {nid}"
    return dist


class TestBasicProtocol:
    def test_initial_edges_match_tree(self):
        dist = DistributedForgivingTree({0: [1, 2], 1: [3]})
        assert dist.edges() == {(0, 1), (0, 2), (1, 3)}

    def test_star_center_death(self):
        dist = DistributedForgivingTree({0: [1, 2, 3, 4]})
        dist.delete(0)
        assert dist.edges() == {(1, 2), (2, 3), (2, 4), (3, 4)}
        assert dist.max_degree_increase() <= 3

    def test_setup_costs_constant_per_tree_edge(self):
        for n in (10, 40):
            tree = generators.random_tree(n, seed=1)
            dist = DistributedForgivingTree(tree)
            # O(1) messages per tree edge: portions + leaf wills.
            assert dist.setup_stats.total_messages <= 3 * (n - 1) + n

    def test_delete_unknown(self):
        dist = DistributedForgivingTree({0: [1]})
        with pytest.raises(NodeNotFoundError):
            dist.delete(9)

    def test_delete_after_empty(self):
        dist = DistributedForgivingTree({0: [1]})
        dist.delete(0)
        dist.delete(1)
        with pytest.raises(SimulationOverError):
            dist.delete(1)


class TestCrossValidation:
    def test_figure5_sequence(self):
        order = [FIG5[x] for x in ("v", "p", "d", "h")]
        cross_validate({k: list(v) for k, v in FIGURE5_TREE.items()}, order)

    @pytest.mark.parametrize(
        "order", [[0, 1, 2, 3, 4], [1, 2, 3, 0, 4], [4, 3, 2, 1, 0]]
    )
    def test_star_orders(self, order):
        cross_validate({0: [1, 2, 3, 4]}, order)

    def test_path_orders(self):
        cross_validate(generators.path(8), [3, 4, 2, 5, 1, 6, 0, 7])

    #: All seeds pass since the own-helper-skip inheritance and
    #: vacuous-bypass claim fixes (found by the churn cross-validation);
    #: the formerly excluded deep-state corner cases (5, 6, 8, 16) are
    #: exactly the states those fixes repair.
    @pytest.mark.parametrize("seed", range(25))
    def test_random_trees_random_orders(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 24)
        tree = generators.random_tree(n, rng.randint(0, 10**6))
        order = sorted(tree)
        rng.shuffle(order)
        cross_validate(tree, order)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_trees_leaf_first(self, seed):
        rng = random.Random(100 + seed)
        n = rng.randint(3, 24)
        tree = generators.random_tree(n, rng.randint(0, 10**6))
        seq = ForgivingTree(tree, strict=True)
        dist = DistributedForgivingTree(tree)
        while len(dist) > 0:
            g = seq.adjacency()
            victim = min(sorted(g), key=lambda x: (len(g[x]), x))
            seq.delete(victim)
            dist.delete(victim)
            assert seq.edges() == dist.edges()

    @pytest.mark.parametrize("seed", range(6))
    def test_random_trees_hub_first(self, seed):
        rng = random.Random(200 + seed)
        n = rng.randint(3, 24)
        tree = generators.random_tree(n, rng.randint(0, 10**6))
        seq = ForgivingTree(tree, strict=True)
        dist = DistributedForgivingTree(tree)
        while len(dist) > 0:
            g = seq.adjacency()
            victim = max(sorted(g), key=lambda x: (len(g[x]), x))
            seq.delete(victim)
            dist.delete(victim)
            assert seq.edges() == dist.edges()


class TestTheorem13Accounting:
    def test_per_node_messages_constant(self):
        """Max messages sent/received per node per round is O(1) — flat
        across network sizes (Theorem 1.3)."""
        peaks = {}
        for n in (8, 16, 24):
            tree = generators.random_tree(n, seed=3)
            dist = DistributedForgivingTree(tree)
            order = sorted(tree)
            random.Random(3).shuffle(order)
            for victim in order:
                dist.delete(victim)
            peaks[n] = dist.peak_messages_per_node()
        assert peaks[24] <= peaks[8] + 6

    def test_latency_constant(self):
        """Sub-rounds per heal round stay O(1)."""
        tree = generators.random_tree(24, seed=9)
        dist = DistributedForgivingTree(tree)
        order = sorted(tree)
        random.Random(7).shuffle(order)
        for victim in order:
            stats = dist.delete(victim)
            assert stats.sub_rounds <= 8

    def test_messages_carry_constant_ids(self):
        from repro.distributed.messages import ReplaceChild, SimChange

        assert ReplaceChild(1, 2, 3, (4, "real")).id_count() <= 8
        assert SimChange(1, 2, 3, 4, "your-hparent").id_count() <= 8

    def test_round_stats_exposed(self):
        dist = DistributedForgivingTree({0: [1, 2, 3]})
        stats = dist.delete(0)
        assert stats.total_messages > 0
        assert stats.max_sent_per_node >= 1
        assert dist.last_stats() is stats


#: Everything about a driver that is not protocol (ISSUE 22, tentpole 1).
SHELL_METHODS = (
    "alive", "__len__", "__contains__", "check_delete", "heal_coordinator",
    "inject_delete", "delete", "insert", "insert_batch", "inject_insert_batch",
    "_check_quiescent", "integrity_violations", "edges", "adjacency", "degree",
    "max_degree_increase", "last_stats", "peak_messages_per_node", "peak_latency",
)


class TestOneDriverShell:
    """A second copy of the driver shell is a red test, not a review
    comment (the ``TestOneAlgorithmText`` pattern of test_flatcore)."""

    SRC = pathlib.Path(repro.__file__).parent

    def test_both_drivers_run_the_same_function_objects(self):
        for name in SHELL_METHODS:
            for cls in (DistributedForgivingTree, DistributedForgivingGraph):
                assert name not in vars(cls), f"{cls.__name__} overrides {name}"
                assert getattr(cls, name) is vars(ProtocolDriver)[name], name

    def test_the_scan_and_the_checks_are_defined_once(self):
        once = ("integrity_violations", "_check_quiescent", "heal_coordinator",
                "check_delete")
        defs = {name: [] for name in once}
        for path in sorted(self.SRC.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.FunctionDef) and node.name in defs:
                    defs[node.name].append(f"{path.name}:{node.lineno}")
        for name, sites in defs.items():
            assert len(sites) == 1 and sites[0].startswith("driver.py"), (name, sites)

    def test_every_ft_will_is_a_view_of_the_drivers_one_store(self):
        """The protocol keeps its wills in one :class:`ObjectWills` and
        runs the sequential engines' will text on it; a victim's will
        leaves the store with the victim."""
        tree = generators.random_tree(40, seed=2)
        dist = DistributedForgivingTree(tree)
        next_id = max(tree) + 1
        rng = random.Random(2)
        for _ in range(12):
            dist.delete(rng.choice(sorted(dist.alive)))
            dist.insert_batch([(next_id, rng.choice(sorted(dist.alive)))])
            next_id += 1
        store = dist._wills
        assert isinstance(store, ObjectWills)
        for nid, node in dist.network.nodes.items():
            assert node.will.store is store and node.will.owner == nid
        assert set(store._root) == set(dist.network.nodes)
        store.check_all()

    @pytest.mark.parametrize("seed", [1, 2])
    def test_built_from_the_healers_spanning_tree_as_from_its_bfs_tree(self, seed):
        """The transport mirror builds the runtime over the healer's
        spanning tree instead of a BFS of a copy of the input: same node
        registration order, wills, parent pointers and setup tallies."""
        from repro.baselines import ForgivingTreeHealer
        from repro.graphs.spanning import bfs_tree

        healer = ForgivingTreeHealer(generators.preferential_attachment(50, 2, seed))
        root = healer.engine.root_id
        new = DistributedForgivingTree(healer.spanning_tree())
        old = DistributedForgivingTree(bfs_tree(healer.initial_graph, root), root=root)
        assert list(new.network.nodes) == list(old.network.nodes)
        assert new.setup_stats == old.setup_stats
        assert new.original_degree == old.original_degree
        for nid, node in new.network.nodes.items():
            twin = old.network.nodes[nid]
            assert node.parent_ref == twin.parent_ref
            assert node.slot_kind == twin.slot_kind
            assert node.will.internal_specs() == twin.will.internal_specs()

    def test_ft_pointer_refs_name_every_field(self):
        dist = DistributedForgivingTree({0: [1, 2], 1: [3]})
        dist.network.remove(1)  # silent death: nobody is told
        refs = dist.network.nodes[0].pointer_refs()
        assert refs == [("will", 1), ("will", 2), ("leaf_will", 2)]
        assert dist.network.nodes[3].pointer_refs() == [("parent_ref", 1)]
        assert dist.integrity_violations() == [
            ("dangling-pointer", 0, "will names dead node 1"),
            ("dangling-pointer", 3, "parent_ref names dead node 1"),
        ]

    def test_ft_stale_leaf_will_keeps_its_detail_string(self):
        """ROADMAP item 1's five-node case: the deposit outlives its
        holder and the scan says so in the words it always used."""
        dist = DistributedForgivingTree({0: [2, 4], 1: [4], 2: [0], 3: [4], 4: [0, 1, 3]})
        for victim in (4, 0, 1):
            dist.delete(victim)
        assert ("leaf_will", 1) in dist.network.nodes[3].pointer_refs()
        assert dist.integrity_violations() == [
            ("dangling-pointer", 3, "leaf_will names dead node 1")
        ]

    def test_fg_pointer_refs_name_every_field(self):
        dist = DistributedForgivingGraph({0: {1, 2, 3}, 1: {0}, 2: {0}, 3: {0}})
        dist.insert(4, 3)
        dist.delete(0)  # 1, 2, 3 now hang off a reconstruction tree
        holder = next(n for n in dist.network.nodes.values() if n.helper is not None)
        _parent, left, _right = holder.helper
        fields = [where for where, _ in holder.pointer_refs()]
        assert fields[-2:] == ["helper.left", "helper.right"]
        assert "port_parent_sim" in fields
        assert dist.network.nodes[4].pointer_refs() == [("direct", 3)]
        dead = left[0] if left[0] != holder.nid else _right[0]
        dist.network.remove(dead)
        side = "left" if dead == left[0] else "right"
        assert (
            "dangling-pointer", holder.nid, f"helper.{side} names dead node {dead}"
        ) in dist.integrity_violations()

    def test_a_half_applied_heal_is_reported_not_raised(self):
        dist = DistributedForgivingGraph({0: {1, 2}, 1: {0}, 2: {0}})
        dist.network.nodes[1]._await_reports = 1
        assert dist.integrity_violations() == [
            ("half-applied-heal", 1, "awaiting ['reports']")
        ]
