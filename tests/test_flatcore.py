"""Object-vs-flat parity wall for the struct-of-arrays core.

The flat core (:class:`repro.FlatForgivingTree`) is a re-implementation of
the sequential engine on preallocated parallel arrays; the object engine
(:class:`repro.ForgivingTree`) stays the reference oracle.  The contract
is *structural identity*, not mere equivalence: over any churn script the
two engines must produce bit-identical heal reports (edge deltas, the
full ordered event log, per-node message tallies), the same image graph,
the same wills, and the same degree accounting.  Everything here drives
both engines with the same drawn events and asserts that contract.

Also covered: the free-list id recycling that keeps the arena bounded,
``from_parents`` O(n) construction, the healer over either engine and fast
paths (``fast_stats`` / ``sample_alive``), the harness's streaming
``keep_rounds=False`` mode, and the benchmark table's numeric coercion.

Since the object engine runs the flat engine's algorithm text over its own
storage, the wall above checks the two *storages*; the algorithm itself is
pinned by ``TestGoldenDigests`` — report-stream digests frozen from the
last object engine that carried its own copy of the text.
"""

import ast
import hashlib
import importlib.util
import inspect
import json
import os
import pathlib
import random

import pytest

import repro
from repro import FlatForgivingTree, ForgivingTree
from repro.adversaries import RandomChurnAdversary
from repro.baselines import ForgivingTreeHealer
from repro.core import invariants
from repro.core.errors import (
    InvariantViolationError,
    NodeNotFoundError,
    NotATreeError,
    SimulationOverError,
)
from repro.core.flat import FlatCore, FlatWills
from repro.core.slot_tree import NIL, ObjectWills
from repro.core.virtual_tree import VirtualTree
from repro.graphs import generators
from repro.graphs.adjacency import is_connected
from repro.graphs.incremental import DynamicTreeMetrics
from repro.harness import run_churn_campaign


def _load_bench_conftest():
    path = os.path.join(
        os.path.dirname(__file__), os.pardir, "benchmarks", "conftest.py"
    )
    spec = importlib.util.spec_from_file_location("_bench_conftest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def report_key(rep):
    """A heal report reduced to comparable structure."""
    return (
        rep.deleted,
        rep.was_internal,
        sorted(rep.edges_added),
        sorted(rep.edges_removed),
        rep.events,
        rep.messages_per_node,
        rep.inserted,
        rep.attached_to,
        rep.inserted_batch,
    )


def assert_twins(obj, flat):
    """The two engines are structurally identical right now."""
    assert set(flat.alive) == obj.alive
    assert flat.adjacency() == obj.adjacency()
    assert flat.max_degree_increase() == obj.max_degree_increase()
    for nid in obj.alive:
        assert flat.degree(nid) == obj.degree(nid)
        assert flat.degree_increase(nid) == obj.degree_increase(nid)
        assert flat.state_of(nid) == obj.state_of(nid)
        assert flat.heir_of(nid) == obj.heir_of(nid)
        w_obj, w_flat = obj.will_of(nid), flat.will_of(nid)
        assert w_flat.heir == w_obj.heir
        assert w_flat.stand_ins == w_obj.stand_ins
        assert w_flat.internal_specs() == w_obj.internal_specs()
    assert flat.render() == obj.render()


def draw_step(rng, alive, next_id, p_insert=0.40, p_batch=0.12):
    """One drawn churn step over sorted ``alive``: ``(method, args, next_id)``
    — a batch wave, a single insert, or a delete."""
    roll = rng.random()
    if roll < p_batch and len(alive) > 2:
        wave = []
        for _ in range(rng.randint(2, 4)):
            wave.append((next_id, rng.choice(alive)))
            next_id += 1
        return "insert_batch", (wave,), next_id
    if roll < p_batch + p_insert:
        return "insert", (next_id, rng.choice(alive)), next_id + 1
    return "delete", (rng.choice(alive),), next_id


def play_twins(n0, events, branching, will_mode, seed, check_every=1,
               p_insert=0.40, p_batch=0.12, drain=False):
    """Drive both engines with one shared drawn event stream."""
    tree = generators.random_tree(n0, seed=seed)
    obj = ForgivingTree(tree, branching=branching, will_mode=will_mode,
                        strict=True)
    flat = FlatForgivingTree(tree, branching=branching, will_mode=will_mode,
                             strict=True)
    rng = random.Random(seed * 31 + 7)
    next_id = max(tree) + 1
    for t in range(events):
        alive = sorted(obj.alive)
        if not alive:
            break
        step, args, next_id = draw_step(rng, alive, next_id, p_insert, p_batch)
        r_obj = getattr(obj, step)(*args)
        r_flat = getattr(flat, step)(*args)
        assert report_key(r_flat) == report_key(r_obj), f"diverged at event {t}"
        if t % check_every == 0:
            assert_twins(obj, flat)
            invariants.check_full(obj)
            invariants.check_full(flat)
    if drain:
        while obj.alive:
            victim = rng.choice(sorted(obj.alive))
            r_obj = obj.delete(victim)
            r_flat = flat.delete(victim)
            assert report_key(r_flat) == report_key(r_obj)
            if obj.alive:
                assert_twins(obj, flat)
    return obj, flat


class TestStructuralIdentity:
    """Bit-identical behaviour over seeded mixed churn campaigns."""

    @pytest.mark.parametrize("branching", [2, 3, 5])
    @pytest.mark.parametrize("will_mode", ["splice", "rebuild"])
    def test_mixed_churn_parity(self, branching, will_mode):
        play_twins(24, 70, branching, will_mode, seed=branching * 100 + 1,
                   check_every=4)

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_endgame_drain_parity(self, seed):
        # Churn down to the empty network: the late game exercises root
        # re-rooting, ready heirs and donor exhaustion.
        play_twins(16, 40, 2, "splice", seed=seed, check_every=5, drain=True)

    def test_deeper_campaign_parity(self):
        play_twins(60, 150, 2, "splice", seed=42, check_every=15)

    def test_delete_only_parity(self):
        play_twins(30, 60, 2, "rebuild", seed=5, check_every=6,
                   p_insert=0.0, p_batch=0.0)

    def test_empty_engine_raises(self):
        flat = FlatForgivingTree({0: set()})
        flat.delete(0)
        with pytest.raises(SimulationOverError):
            flat.delete(0)


#: Frozen at the last commit whose object engine carried its own copy of
#: the healing algorithm (PR 13, e129ac7): ``golden_stream_digest`` of
#: that ``ForgivingTree`` per "b<branching>-<will_mode>-s<seed>" key.
GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "data", "golden_object_engine.json"
)
GOLDEN_MATRIX = [
    (branching, will_mode, seed)
    for branching in (2, 3, 5)
    for will_mode in ("splice", "rebuild")
    for seed in (1, 2, 3)
]


def golden_stream_digest(engine_cls, branching, will_mode, seed):
    """sha256 over the ``report_key`` stream of one fixed script:
    ``random_tree(60)``, 250 mixed events, then a drain to empty."""
    tree = generators.random_tree(60, seed=seed)
    engine = engine_cls(tree, branching=branching, will_mode=will_mode)
    rng = random.Random(seed * 31 + 7)
    next_id = max(tree) + 1
    digest = hashlib.sha256()

    def feed(rep):
        key = report_key(rep)
        # dict order is not part of the contract: hash the sorted tally
        canon = key[:5] + (sorted(key[5].items()),) + key[6:]
        digest.update(repr(canon).encode())

    for _ in range(250):
        step, args, next_id = draw_step(rng, sorted(engine.alive), next_id)
        feed(getattr(engine, step)(*args))
    while engine.alive:
        feed(engine.delete(rng.choice(sorted(engine.alive))))
    return digest.hexdigest()


class TestGoldenDigests:
    """Both engines still say what the independent object engine said."""

    @pytest.mark.parametrize("branching,will_mode,seed", GOLDEN_MATRIX)
    def test_both_engines_reproduce_the_frozen_stream(
        self, branching, will_mode, seed
    ):
        with open(GOLDEN_PATH) as fh:
            golden = json.load(fh)["digests"]
        want = golden[f"b{branching}-{will_mode}-s{seed}"]
        for engine_cls in (ForgivingTree, FlatForgivingTree):
            got = golden_stream_digest(engine_cls, branching, will_mode, seed)
            assert got == want, engine_cls.__name__


#: The healing algorithm's methods: one definition each, package-wide.
ALGORITHM_METHODS = (
    "delete", "insert_batch", "_fix_node_deletion", "_fix_leaf_deletion",
    "_absorb_child_loss", "_find_donor", "_splice_helper",
    "_replace_slot_standin", "_rebuild_will", "_refresh_leaf_wills",
)


#: The will rules (Algorithm 3.5's blueprint and its positional
#: maintenance): one text, :class:`WillText`, run by both will stores.
WILL_RULES = (
    "build", "_build", "discard", "stand_ins", "heir", "root_sim",
    "internal_specs", "internal_sims", "depth", "as_shape",
    "attachment_sim", "internal_parent_sim", "internal_children_refs",
    "remove", "replace", "add", "add_batch", "_pick_free", "_around", "check",
)

#: Same-named methods under ``core/`` that are not will rules: the
#: structure checks of the tree text and the engine.
NOT_WILL_RULES = {("TreeText", "check"), ("FlatForgivingTree", "check")}


#: The virtual-tree rules (the helper/real tree, its image graph and its
#: degree accounting): one text, :class:`TreeText`, run by both tree stores.
TREE_RULES = (
    "add_real", "new_helper", "set_root", "attach", "detach",
    "replace_child", "splice", "transfer_role", "destroy_helper",
    "remove_real", "_image_add", "_image_remove", "_inc_shift",
    "_inc_enter", "_inc_leave", "bump_original_degree", "degree_increase",
    "max_degree_increase", "real", "owner", "role_of", "helper_slots",
    "helper_alive", "image_adjacency", "image_edges", "image_degree",
    "iter_nodes", "check", "_check_counters", "render", "adopt",
)

#: Same-named methods under ``core/`` that are not tree rules: the will
#: text's copy and check, the engine's public surface over the store.
NOT_TREE_RULES = {
    ("WillText", "adopt"), ("WillText", "check"), ("SlotTree", "check"),
    ("FlatForgivingTree", "check"), ("FlatForgivingTree", "render"),
    ("FlatForgivingTree", "degree_increase"),
    ("FlatForgivingTree", "max_degree_increase"),
}


class TestOneAlgorithmText:
    """A second copy of the algorithm is a red test, not a review comment."""

    SRC = pathlib.Path(repro.__file__).parent

    def test_each_healing_method_is_defined_once_under_core(self):
        defs = {name: [] for name in ALGORITHM_METHODS}
        for path in sorted((self.SRC / "core").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.FunctionDef) and node.name in defs:
                    defs[node.name].append(f"{path.name}:{node.lineno}")
        for name, sites in defs.items():
            assert len(sites) == 1, f"{name} defined at {sites}"

    def test_both_engines_run_the_same_function_objects(self):
        for name in ALGORITHM_METHODS:
            assert getattr(ForgivingTree, name) is getattr(
                FlatForgivingTree, name
            ), name

    def test_both_will_stores_run_the_same_function_objects(self):
        for name in WILL_RULES:
            assert getattr(FlatWills, name) is getattr(ObjectWills, name), name
            assert name not in FlatWills.__dict__, name
            assert name not in ObjectWills.__dict__, name

    def test_each_will_rule_is_defined_once_and_slot_tree_delegates(self):
        defs = {name: [] for name in WILL_RULES}
        for path in sorted((self.SRC / "core").glob("*.py")):
            tree = ast.parse(path.read_text())
            scopes = [(None, tree.body)] + [
                (node.name, node.body)
                for node in ast.walk(tree)
                if isinstance(node, ast.ClassDef)
            ]
            for owner, body in scopes:
                for fn in body:
                    if not isinstance(fn, ast.FunctionDef) or fn.name not in defs:
                        continue
                    if owner == "SlotTree":
                        stmts = fn.body[1:] if ast.get_docstring(fn) else fn.body
                        assert len(stmts) == 1, f"SlotTree.{fn.name} is not a delegate"
                        call = stmts[0].value
                        assert isinstance(call, ast.Call), fn.name
                        assert ast.unparse(call.func) == f"self.store.{fn.name}", fn.name
                    elif (owner, fn.name) not in NOT_WILL_RULES:
                        defs[fn.name].append(f"{path.name}:{fn.lineno}")
        for name, sites in defs.items():
            assert len(sites) == 1, f"{name} defined at {sites}"

    def test_both_tree_stores_run_the_same_function_objects(self):
        for name in TREE_RULES:
            assert inspect.getattr_static(FlatCore, name) is inspect.getattr_static(
                VirtualTree, name
            ), name
            assert name not in FlatCore.__dict__, name
            assert name not in VirtualTree.__dict__, name

    def test_each_tree_rule_is_defined_once_under_core(self):
        defs = {name: [] for name in TREE_RULES}
        for path in sorted((self.SRC / "core").glob("*.py")):
            tree = ast.parse(path.read_text())
            for cls in ast.walk(tree):
                if not isinstance(cls, ast.ClassDef):
                    continue
                for fn in cls.body:
                    if (
                        isinstance(fn, ast.FunctionDef)
                        and fn.name in defs
                        and (cls.name, fn.name) not in NOT_TREE_RULES
                    ):
                        defs[fn.name].append(f"{path.name}:{fn.lineno}")
        for name, sites in defs.items():
            assert len(sites) == 1, f"{name} defined at {sites}"

    def test_nothing_outside_core_imports_its_private_names(self):
        for path in sorted(self.SRC.rglob("*.py")):
            rel = path.relative_to(self.SRC)
            if rel.parts[0] == "core":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.ImportFrom):
                    continue
                mod = node.module or ""
                from_core = (
                    mod == "repro.core" or mod.startswith("repro.core.")
                    if node.level == 0
                    else mod == "core" or mod.startswith("core.")
                )
                private = [a.name for a in node.names if a.name.startswith("_")]
                assert not (from_core and private), (
                    f"{rel}:{node.lineno} imports {private} from {mod}"
                )


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from tests.conftest import examples  # noqa: E402

#: One drawn churn step: (kind, pick) — ``pick`` indexes the alive set
#: (victim or attachment point) modulo its size; kind < 2 inserts.
fuzz_steps = st.lists(
    st.tuples(st.integers(min_value=0, max_value=4),
              st.integers(min_value=0, max_value=10**6)),
    min_size=1,
    max_size=40,
)


class TestFuzzedInterleavings:
    @settings(max_examples=examples(30), deadline=None)
    @given(seed=st.integers(min_value=0, max_value=50), script=fuzz_steps)
    def test_any_interleaving_is_identical(self, seed, script):
        tree = generators.random_tree(10, seed=seed)
        obj = ForgivingTree(tree, strict=True)
        flat = FlatForgivingTree(tree, strict=True)
        next_id = max(tree) + 1
        for kind, pick in script:
            alive = sorted(obj.alive)
            if not alive:
                break
            target = alive[pick % len(alive)]
            if kind < 2:
                r_obj = obj.insert(next_id, target)
                r_flat = flat.insert(next_id, target)
                next_id += 1
            else:
                r_obj = obj.delete(target)
                r_flat = flat.delete(target)
            assert report_key(r_flat) == report_key(r_obj)
            if obj.alive:
                assert set(flat.alive) == obj.alive
                assert flat.adjacency() == obj.adjacency()
                assert flat.max_degree_increase() == obj.max_degree_increase()
        if obj.alive:
            assert_twins(obj, flat)
            invariants.check_full(flat)


class TestStrictWillCheck:
    """``check()`` walks each will once and counts what it reached; an
    index entry no walk reaches is caught by the totals."""

    @pytest.mark.parametrize("index", ["_leafpos", "_intpos"])
    @pytest.mark.parametrize("engine_cls", [ForgivingTree, FlatForgivingTree])
    def test_a_stale_index_entry_raises(self, engine_cls, index):
        engine = engine_cls(generators.random_tree(30, seed=4))
        engine.check()
        wills = engine._w
        tree_leaf = next(n for n in sorted(engine.alive) if wills.empty(n))
        live_pos = next(iter(getattr(wills, index).values()))
        getattr(wills, index)[(tree_leaf, 10**6)] = live_pos
        with pytest.raises(InvariantViolationError):
            engine.check()


class TestStrictRoleCheck:
    """``check()`` reads the role map both ways: a role-free real made to
    claim a live helper it does not simulate passes the helper ->
    simulator direction, and only the reverse reading catches it."""

    @pytest.mark.parametrize("engine_cls", [ForgivingTree, FlatForgivingTree])
    def test_a_stale_role_entry_raises(self, engine_cls):
        engine = engine_cls(generators.random_tree(60, 2))
        for nid in random.Random(1).sample(sorted(engine.alive), 20):
            engine.delete(nid)
        engine.check()
        store = engine._c
        free = next(n for n in sorted(engine.alive) if store.role_of(n) == NIL)
        store.role[store.real(free)] = store.helper_slots()[0]
        with pytest.raises(InvariantViolationError, match="vt-role-map"):
            engine.check()


class TestFreeListRecycling:
    """Slot reuse keeps the arena bounded; identities never leak."""

    def test_arena_stays_bounded_under_steady_churn(self):
        tree = generators.random_tree(12, seed=3)
        flat = FlatForgivingTree(tree, strict=True)
        rng = random.Random(3)
        next_id = max(tree) + 1
        flat.delete(rng.choice(sorted(flat.alive)))
        capacity = len(flat._c.kind)
        for _ in range(120):
            flat.insert(next_id, rng.choice(sorted(flat.alive)))
            next_id += 1
            flat.delete(rng.choice(sorted(flat.alive)))
        # 120 insert+delete cycles recycle slots instead of growing the
        # arena: a leak would allocate ~2 slots per cycle.
        assert len(flat._c.kind) <= capacity + 16
        invariants.check_full(flat)

    def test_helper_ids_are_never_reused(self):
        tree = generators.random_tree(14, seed=9)
        flat = FlatForgivingTree(tree, strict=True)
        rng = random.Random(9)
        next_id = max(tree) + 1
        seen = set()
        for _ in range(30):
            alive = sorted(flat.alive)
            if len(alive) <= 2:
                break
            if rng.random() < 0.4:
                flat.insert(next_id, rng.choice(alive))
                next_id += 1
            else:
                flat.delete(rng.choice(alive))
            vt = flat.virtual_tree()
            hids = [vt.ident[h] for h in vt.helper_slots()]
            assert len(hids) == len(set(hids))
            # A freed helper identity never comes back: new helpers
            # always take fresh (higher) ids.
            fresh = set(hids) - seen
            if seen and fresh:
                assert min(fresh) > max(seen)
            seen |= set(hids)

    def test_slots_freed_in_one_event_not_reused_within_it(self):
        # Deleting an internal node both frees slots (the dead node's
        # will) and allocates slots (the new helpers).  The limbo
        # quarantine makes freed slots invisible until the next event —
        # otherwise slot-int equality could alias two distinct
        # within-event participants.  Observable contract: the event is
        # structurally identical to the object engine's, which uses
        # object identity and cannot alias.  An aliasing bug would make
        # the two engines diverge, so parity over internal deletions
        # (exercised heavily above) is the real test; here we pin the
        # mechanism directly.
        tree = generators.random_tree(20, seed=4)
        flat = FlatForgivingTree(tree, strict=True)
        internal = max(flat.alive, key=flat.degree)
        before = set(flat._c._free)
        flat.delete(internal)
        # Slots freed by this event sit in limbo, not on the free list
        # (the event may also have *consumed* free slots for new helpers,
        # but nothing freed this event may reappear there)...
        assert set(flat._c._free) <= before
        limbo = set(flat._c._limbo)
        assert limbo and not limbo & set(flat._c._free)
        # ...until the next event begins, which recycles them.
        survivor = sorted(flat.alive)[0]
        flat.insert(max(tree) + 1, survivor)
        assert limbo <= set(flat._c._free) | set(flat._c._limbo) | {
            flat._c.real(max(tree) + 1)
        }


class TestAliveView:
    def test_set_algebra_without_copies(self):
        tree = generators.random_tree(9, seed=1)
        flat = FlatForgivingTree(tree)
        view = flat.alive
        assert view == set(tree)
        assert len(view) == 9
        assert 0 in view and 99 not in view
        assert view & {0, 1, 99} == {0, 1}
        assert {0, 1} <= view
        assert sorted(view | {99}) == sorted(set(tree) | {99})
        flat.delete(3)
        assert 3 not in view  # live view, not a snapshot
        assert len(view) == 8

    def test_sample_alive_is_uniform_and_seeded(self):
        tree = generators.random_tree(50, seed=2)
        flat = FlatForgivingTree(tree)
        draws = [flat.sample_alive(random.Random(7)) for _ in range(5)]
        assert len(set(draws)) == 1  # same seed, same draw
        rng = random.Random(0)
        samples = {flat.sample_alive(rng) for _ in range(400)}
        assert samples <= set(flat.alive)
        assert len(samples) > 25  # actually spreads over the alive set


class TestFromParents:
    def _parents_of(self, tree, root=0):
        parents = [0] * len(tree)
        parents[root] = -1
        stack, seen = [root], {root}
        while stack:
            u = stack.pop()
            for v in tree[u]:
                if v not in seen:
                    seen.add(v)
                    parents[v] = u
                    stack.append(v)
        return parents

    def test_matches_adjacency_construction(self):
        tree = generators.random_tree(40, seed=6)
        parents = self._parents_of(tree)
        a = FlatForgivingTree(tree, root=0)
        b = FlatForgivingTree.from_parents(parents)
        assert b.adjacency() == a.adjacency()
        assert b.render() == a.render()
        b.check()

    def test_churn_after_from_parents_stays_identical(self):
        tree = generators.random_tree(25, seed=8)
        obj = ForgivingTree(tree, root=0, strict=True)
        flat = FlatForgivingTree.from_parents(self._parents_of(tree),
                                              strict=True)
        rng = random.Random(8)
        next_id = len(tree)
        for _ in range(50):
            alive = sorted(obj.alive)
            if len(alive) <= 1:
                break
            if rng.random() < 0.4:
                attach = rng.choice(alive)
                r_obj = obj.insert(next_id, attach)
                r_flat = flat.insert(next_id, attach)
                next_id += 1
            else:
                victim = rng.choice(alive)
                r_obj = obj.delete(victim)
                r_flat = flat.delete(victim)
            assert report_key(r_flat) == report_key(r_obj)
        assert_twins(obj, flat)

    def test_rejects_malformed_parent_arrays(self):
        with pytest.raises(NotATreeError):
            FlatForgivingTree.from_parents([])
        with pytest.raises(NotATreeError):
            FlatForgivingTree.from_parents([-1, -1, 0])  # two roots
        with pytest.raises(NotATreeError):
            FlatForgivingTree.from_parents([1, 0])  # no root
        with pytest.raises(NotATreeError):
            FlatForgivingTree.from_parents([-1, 2, 1])  # 1<->2 cycle
        with pytest.raises(NodeNotFoundError):
            FlatForgivingTree.from_parents([-1, 7])  # parent out of range

    def test_metrics_from_parents_matches_adjacency(self):
        tree = generators.random_tree(60, seed=10)
        parents = self._parents_of(tree)
        a = DynamicTreeMetrics(tree)
        b = DynamicTreeMetrics.from_parents(parents)
        assert b.root == a.root
        assert b.diameter == a.diameter
        assert all(b.height_of(v) == a.height_of(v) for v in tree)
        b.check()

    def test_metrics_from_parents_rejects_malformed(self):
        with pytest.raises(NotATreeError):
            DynamicTreeMetrics.from_parents([-1, -1])
        with pytest.raises(NotATreeError):
            DynamicTreeMetrics.from_parents([1, 0])
        with pytest.raises(NotATreeError):
            DynamicTreeMetrics.from_parents([-1, 2, 1])
        with pytest.raises(NodeNotFoundError):
            DynamicTreeMetrics.from_parents([-1, 9])


class TestHealerOverEitherEngine:
    def test_cores_heal_identically_behind_the_healer(self):
        tree = generators.random_tree(30, seed=12)
        healers = {
            "flat": ForgivingTreeHealer({k: set(v) for k, v in tree.items()}),
            "object": ForgivingTreeHealer.from_engine(ForgivingTree(tree)),
        }
        rng = random.Random(12)
        next_id = len(tree)
        for _ in range(40):
            alive = sorted(healers["flat"].alive)
            if len(alive) <= 1:
                break
            if rng.random() < 0.45:
                attach = rng.choice(alive)
                reports = [h.insert(next_id, attach)
                           for h in healers.values()]
                next_id += 1
            else:
                victim = rng.choice(alive)
                reports = [h.delete(victim) for h in healers.values()]
            assert report_key(reports[0]) == report_key(reports[1])
            assert healers["flat"].graph() == healers["object"].graph()

    def test_fast_stats_agrees_with_the_graph(self):
        tree = generators.random_tree(40, seed=13)
        healer = ForgivingTreeHealer({k: set(v) for k, v in tree.items()})
        rng = random.Random(13)
        for _ in range(15):
            healer.delete(rng.choice(sorted(healer.alive)))
            connected, alive = healer.fast_stats()
            graph = healer.graph()
            assert connected is is_connected(graph)
            assert alive == len(graph) == len(healer.alive)

    def test_healer_sample_alive_draws_members(self):
        tree = generators.random_tree(20, seed=14)
        healer = ForgivingTreeHealer({k: set(v) for k, v in tree.items()})
        rng = random.Random(14)
        assert all(healer.sample_alive(rng) in healer.alive
                   for _ in range(50))

    def test_healer_sample_alive_over_the_object_store(self):
        # No capability fork: the healer asks whichever engine it wraps;
        # the object store answers with the classic sorted draw.
        tree = generators.random_tree(20, seed=14)
        healer = ForgivingTreeHealer.from_engine(ForgivingTree(tree))
        healer.delete(3)
        draws = [healer.sample_alive(random.Random(s)) for s in range(50)]
        assert draws == [random.Random(s).choice(sorted(healer.alive))
                         for s in range(50)]


class TestHarnessStreaming:
    def _campaign(self, keep_rounds, fast_sample=True):
        tree = generators.random_tree(120, seed=21)
        healer = ForgivingTreeHealer({k: set(v) for k, v in tree.items()})
        adversary = RandomChurnAdversary(p_insert=0.5, seed=21,
                                         fast_sample=fast_sample)
        return run_churn_campaign(healer, adversary, events=80,
                                  metrics="auto", keep_rounds=keep_rounds)

    def test_fold_equals_rounds(self):
        kept, streamed = self._campaign(True), self._campaign(False)
        assert kept.rounds and not streamed.rounds
        assert streamed.series("alive") == []
        for prop in ("peak_degree_increase", "peak_diameter",
                     "stayed_connected", "peak_messages_per_node",
                     "n_inserts", "n_deletes", "final_alive"):
            assert getattr(streamed, prop) == getattr(kept, prop), prop

    def test_fast_sample_stream_matches_classic_distribution_shape(self):
        # fast_sample draws from the same alive set with the same seed
        # discipline; it is a different (still uniform) stream, so only
        # structural outcomes are compared, not the event sequence.
        classic = self._campaign(True, fast_sample=False)
        fast = self._campaign(True, fast_sample=True)
        for result in (classic, fast):
            assert result.stayed_connected
            assert result.peak_degree_increase <= 3
            assert result.n_inserts + result.n_deletes == 80

    def test_metrics_none_with_fast_stats_skips_nothing_observable(self):
        tree = generators.random_tree(60, seed=22)

        def run(metrics):
            healer = ForgivingTreeHealer(
                {k: set(v) for k, v in tree.items()}
            )
            adversary = RandomChurnAdversary(p_insert=0.5, seed=22)
            return run_churn_campaign(healer, adversary, events=40,
                                      metrics=metrics)

        fast, full = run("none"), run("auto")
        assert fast.stayed_connected == full.stayed_connected
        assert fast.final_alive == full.final_alive
        assert fast.peak_degree_increase == full.peak_degree_increase
        assert all(r.diameter is None for r in fast.rounds)


class TestBenchTableCoercion:
    def test_coerce_restores_numbers(self):
        bench = _load_bench_conftest()
        assert bench._coerce("126") == 126
        assert isinstance(bench._coerce("126"), int)
        assert bench._coerce("5.2x") == 5.2
        assert bench._coerce("97%") == 97
        assert bench._coerce("99.5%") == 99.5
        assert bench._coerce("forgiving-tree") == "forgiving-tree"
        assert bench._coerce("inf") == "inf"  # non-finite stays a string
        assert bench._coerce("nanx") == "nanx"
        assert bench._coerce(True) is True
        assert bench._coerce(3.5) == 3.5

    def test_table_payload_is_numeric(self):
        bench = _load_bench_conftest()
        payload = bench.table(["a", "b", "c"], [["12", "3.4x", "ok"]])
        assert payload["rows"] == [[12, 3.4, "ok"]]


# ---------------------------------------------------------------------------
# One build path: every constructor normalizes to a TreeShape with one BFS,
# and the flat store writes that shape's initial state in bulk.  The
# reference is the object store's per-node construction run over a
# FlatCore; the bulk state must equal it byte for byte.
# ---------------------------------------------------------------------------
from repro.core.flat_tree import TreeShape, tree_shape  # noqa: E402
from repro.graphs.adjacency import from_edges  # noqa: E402
from repro.graphs.spanning import bfs_tree, non_tree_edges  # noqa: E402
from repro.soak.checkpoint import encode_state  # noqa: E402


class PerNodeFlat(FlatForgivingTree):
    """The flat engine loaded node by node: the object engine's ``_load``
    over a FlatCore, with the bulk load's reserve — the state the bulk
    ``_load`` must write."""

    def _load(self, shape):
        n = len(shape.order)
        self._c.reserve(n + max(16, n // 8))
        self._w.reserve(2 * n + 16)
        ForgivingTree._load(self, shape)


def per_node_reference(shape, branching=2, will_mode="splice"):
    return PerNodeFlat(shape, branching=branching, will_mode=will_mode)


def state_bytes(engine):
    return encode_state(engine.snapshot_state())


@st.composite
def labelled_trees(draw, max_n=40):
    """A random tree on non-contiguous ids, as a symmetric mapping in a
    shuffled key order, plus a root (or None: the smallest id)."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    ids = draw(st.lists(st.integers(min_value=0, max_value=10**6),
                        min_size=n, max_size=n, unique=True))
    picks = draw(st.lists(st.integers(min_value=0, max_value=10**6),
                          min_size=n, max_size=n))
    tree = {nid: set() for nid in ids}
    for i in range(1, n):
        parent = ids[picks[i] % i]
        tree[ids[i]].add(parent)
        tree[parent].add(ids[i])
    keys = draw(st.permutations(ids))
    root = draw(st.one_of(st.none(), st.sampled_from(ids)))
    return {k: tree[k] for k in keys}, root


class TestOneBuildPath:
    @settings(max_examples=examples(40), deadline=None)
    @given(drawn=labelled_trees(), branching=st.sampled_from([2, 3]),
           will_mode=st.sampled_from(["splice", "rebuild"]))
    def test_bulk_state_equals_the_per_node_build(self, drawn, branching,
                                                 will_mode):
        tree, root = drawn
        shape = tree_shape(tree, root)
        assert shape.order == list(tree)  # the mapping's key order
        bulk = FlatForgivingTree(tree, root=root, branching=branching,
                                 will_mode=will_mode)
        ref = per_node_reference(shape, branching, will_mode)
        assert state_bytes(bulk) == state_bytes(ref)
        bulk.check()

    @settings(max_examples=examples(25), deadline=None)
    @given(drawn=labelled_trees())
    def test_edge_lists_and_networkx_register_in_first_appearance_order(
        self, drawn
    ):
        import networkx as nx

        tree, root = drawn
        edges = [(u, v) for u in tree for v in sorted(tree[u]) if u < v]
        first = list(dict.fromkeys(x for e in edges for x in e)) or list(tree)
        g = nx.Graph()
        g.add_nodes_from(tree)
        g.add_edges_from(edges)
        for given_tree, order in ((edges, first), (g, list(g.nodes))):
            if not edges and given_tree is edges:
                continue  # an empty edge list names no node
            shape = tree_shape(given_tree, root)
            assert shape.order == order
            assert state_bytes(FlatForgivingTree(given_tree, root=root)) == (
                state_bytes(per_node_reference(shape))
            )

    @settings(max_examples=examples(25), deadline=None)
    @given(n=st.integers(min_value=1, max_value=40),
           picks=st.lists(st.integers(min_value=0, max_value=10**6),
                          min_size=40, max_size=40),
           root=st.integers(min_value=0, max_value=39))
    def test_from_parents_equals_the_adjacency_build(self, n, picks, root):
        root %= n
        # A random tree on 0..n-1, then oriented away from ``root``.
        tree = {i: set() for i in range(n)}
        for i in range(1, n):
            p = picks[i] % i
            tree[i].add(p)
            tree[p].add(i)
        parents = [-1] * n
        stack, seen = [root], {root}
        while stack:
            cur = stack.pop()
            for nxt in tree[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    parents[nxt] = cur
                    stack.append(nxt)
        bulk = FlatForgivingTree.from_parents(parents)
        assert bulk.root_id == root
        ordered = {i: tree[i] for i in range(n)}
        assert state_bytes(bulk) == state_bytes(
            per_node_reference(tree_shape(ordered, root))
        )
        assert state_bytes(bulk) == state_bytes(FlatForgivingTree(ordered, root=root))

    def test_a_shape_passes_through_and_keeps_its_root(self):
        shape = tree_shape({5: [7], 7: [5, 9], 9: [7]}, root=7)
        assert tree_shape(shape) is shape
        assert shape == TreeShape(7, [5, 7, 9], [7, 5, 9], [2, 0, 0])
        assert shape.degrees() == {5: 1, 7: 2, 9: 1}
        assert list(shape.families()) == [(7, [5, 9]), (5, []), (9, [])]
        assert shape.graph() == {5: {7}, 7: {5, 9}, 9: {7}}
        with pytest.raises(ValueError):
            tree_shape(shape, root=5)

    def test_one_sided_mappings_are_symmetrized_as_before(self):
        # Children-only listings and ids that are no key: the mapping is
        # symmetrized first, appended ids registering after the keys.
        one_sided = {0: [1, 2], 1: [3, 4]}
        shape = tree_shape(one_sided)
        assert shape.order == [0, 1, 2, 3, 4]
        assert list(shape.families()) == [
            (0, [1, 2]), (1, [3, 4]), (2, []), (3, []), (4, []),
        ]
        assert state_bytes(FlatForgivingTree(one_sided)) == state_bytes(
            FlatForgivingTree({k: set(v) for k, v in shape.graph().items()})
        )


class TestBadInputsKeepTheirErrors:
    """Same typed errors, same messages, as before the one build path."""

    @pytest.mark.parametrize("engine_cls", [FlatForgivingTree, ForgivingTree])
    def test_tree_constructors(self, engine_cls):
        cases = [
            ({0: [1, 2], 1: [0, 2], 2: [0, 1]}, None,
             NotATreeError, "3 nodes but 3 edges"),
            ({0: [1, 2], 1: [0, 2], 2: [0, 1], 3: []}, None,
             NotATreeError, "graph is not connected"),
            ({0: [1], 1: [0], 2: [3], 3: [2]}, None,
             NotATreeError, "4 nodes but 2 edges"),
            ([(0, 1), (1, 2), (2, 0)], None,
             NotATreeError, "3 nodes but 3 edges"),
            ({}, None, NotATreeError, "empty tree"),
            ({0: [1], 1: [0]}, 9, NodeNotFoundError, str(NodeNotFoundError(9, "root"))),
        ]
        for tree, root, exc, message in cases:
            with pytest.raises(exc) as info:
                engine_cls(tree, root=root)
            assert str(info.value) == message

    def test_self_loops_are_not_trees(self):
        with pytest.raises(NotATreeError, match="self-loop at node 0"):
            FlatForgivingTree({0: [0, 1], 1: [0]})

    def test_parent_arrays(self):
        for parents, exc, message in (
            ([], NotATreeError, "empty tree"),
            ([-1, -1, 0], NotATreeError, "two roots in parent array"),
            ([1, 0], NotATreeError, "no root in parent array"),
            ([-1, 2, 1], NotATreeError, "parent array contains a cycle"),
            ([-1, 1], NotATreeError, "parent array contains a cycle"),
            ([-1, 7], NodeNotFoundError, str(NodeNotFoundError(7, "parent array"))),
        ):
            with pytest.raises(exc) as info:
                FlatForgivingTree.from_parents(parents)
            assert str(info.value) == message

    def test_general_graph_healer(self):
        from repro.core.errors import DisconnectedGraphError

        triangle_and_pair = {0: {1, 2}, 1: {0, 2}, 2: {0, 1}, 3: {4}, 4: {3}}
        for graph, root, exc, message in (
            (triangle_and_pair, None, DisconnectedGraphError, "graph is not connected"),
            (triangle_and_pair, 9, DisconnectedGraphError, "graph is not connected"),
            ({0: {1}, 1: {0}}, 9, NodeNotFoundError,
             str(NodeNotFoundError(9, "bfs_tree root"))),
            ({}, None, NotATreeError, "empty tree"),
        ):
            with pytest.raises(exc) as info:
                ForgivingTreeHealer(graph, root=root)
            assert str(info.value) == message


class TestHealerSpanningTree:
    """The healer's one BFS gives what ``bfs_tree`` + ``non_tree_edges``
    gave: the same engine state, extras, initial graph and overlay."""

    @pytest.mark.parametrize("graph", [
        generators.preferential_attachment(60, 2, seed=3),
        generators.random_connected_gnp(30, 0.2, seed=4),
        {k: set(v) for k, v in generators.random_tree(40, seed=5).items()},
        {7: set()},
    ], ids=["pa", "gnp", "tree", "single"])
    def test_matches_the_copying_construction(self, graph):
        healer = ForgivingTreeHealer(graph)
        tree = bfs_tree(graph)
        old_engine = FlatForgivingTree(tree)
        old_extra = from_edges(non_tree_edges(graph, tree))
        assert state_bytes(healer.engine) == state_bytes(old_engine)
        assert list(healer._extra.items()) == list(old_extra.items())
        assert healer.initial_graph == graph
        overlay = old_engine.adjacency()
        for u, row in old_extra.items():
            overlay[u] |= row
        assert healer.graph() == overlay
        assert healer.spanning_tree().graph() == tree

    def test_the_input_is_not_kept(self):
        graph = generators.preferential_attachment(40, 2, seed=6)
        healer = ForgivingTreeHealer(graph)
        graph[10**6] = set()  # the caller's graph is the caller's
        assert healer.initial_graph != graph
        assert all(value is not graph for value in vars(healer).values())
