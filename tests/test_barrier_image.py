"""The image a network keeps between barriers
(:meth:`repro.distributed.network.Network.image_edges`): equal to a
from-scratch derivation at every call, as strict about asymmetric claims,
re-reading only the nodes that moved, and fenced by ``finish()``.
"""

from __future__ import annotations

import random
from collections import defaultdict
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.adversaries import OverlapChurnAdversary, RandomChurnAdversary
from repro.baselines import ForgivingTreeHealer
from repro.core.errors import ProtocolError
from repro.distributed import DistributedForgivingTree, Network, ProtocolNode
from repro.faults import CrashDuringHeal, FaultPlan
from repro.fgraph import DistributedForgivingGraph, ForgivingGraphHealer
from repro.fgraph.distributed import FGInsertAck, FGNode
from repro.graphs import generators
from repro.harness import run_churn_campaign
from repro.simnet import (
    AsyncNetwork,
    TransportDivergence,
    TransportMirror,
    TransportSpec,
    resolve_transport,
)
from tests.conftest import assume_not_a_known_finding, examples
from tests.overlay_view_pins import apply_event

HEALERS = {"ft": ForgivingTreeHealer, "fg": ForgivingGraphHealer}
DRIVERS = {"ft": DistributedForgivingTree, "fg": DistributedForgivingGraph}


def derive_image(net):
    """The image rule applied to every node's current local state."""
    claimants = defaultdict(set)
    for nid, node in net.nodes.items():
        for other in node.neighbor_claims():
            if other != nid:
                claimants[(min(nid, other), max(nid, other))].add(nid)
    lone = sorted(key for key, ends in claimants.items() if len(ends) != 2)
    if lone:
        raise ProtocolError(f"asymmetric edge {lone[0]}")
    return set(claimants)


class ImageDisagreement(Exception):
    """Kept image and derivation differ (deliberately not a
    ``ReproError``: no barrier may dress it up as something else)."""


@contextmanager
def checked_images():
    """Every ``image_edges`` call is compared with :func:`derive_image`
    while the block runs; yields the tally."""
    tally = {"images": 0, "raised": 0}
    kept_image = Network.image_edges

    def checked(net):
        try:
            expected = derive_image(net)
        except ProtocolError:
            expected = None
        try:
            got = kept_image(net)
        except ProtocolError:
            if expected is not None:
                raise ImageDisagreement("the kept image raises, a derivation does not")
            tally["raised"] += 1
            raise
        if expected is None:
            raise ImageDisagreement("a derivation raises, the kept image does not")
        if got != expected:
            raise ImageDisagreement(
                f"kept only {sorted(got - expected)}, derived only {sorted(expected - got)}"
            )
        tally["images"] += 1
        return got

    Network.image_edges = checked
    try:
        yield tally
    finally:
        Network.image_edges = kept_image


# -- (a) maintained == from scratch at every barrier -------------------------
@settings(
    max_examples=examples(48),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    kind=st.sampled_from(sorted(HEALERS)),
    transport=st.sampled_from(["sync", "serialize", "lease"]),
    hostile=st.booleans(),
    overlapping=st.booleans(),
    n=st.integers(16, 64),
    seed=st.integers(0, 10**6),
    barrier_every=st.sampled_from([1, 3, 8]),
    crash_event=st.integers(0, 8),
)
def test_every_barrier_reads_the_image_a_derivation_gives(
    kind, transport, hostile, overlapping, n, seed, barrier_every, crash_event
):
    if transport == "sync":
        spec = TransportSpec(mode="sync", barrier_every=barrier_every)
    else:
        plan = None
        if hostile:
            # Crash + repair on any of the first events; the Forgiving
            # Tree on the first only (see test_kernel_frontier).
            if kind == "ft":
                crash_event = 0
            plan = FaultPlan(
                drop=0.05, dup=0.05,
                crashes=(CrashDuringHeal(event=crash_event, layer=seed % 3),),
            )
        spec = TransportSpec(
            mode="async", overlap=transport, latency="heavy-tail", gap=0.05,
            barrier_every=barrier_every, faults=plan,
        )
    adversary = (
        OverlapChurnAdversary(p_insert=0.35, seed=seed)
        if overlapping
        else RandomChurnAdversary(p_insert=0.35, seed=seed)
    )
    with checked_images() as tally:
        try:
            result = run_churn_campaign(
                HEALERS[kind](generators.random_tree(n, seed % 89)),
                adversary,
                events=32,
                metrics="none",
                seed=seed,
                transport=spec,
            )
        except ProtocolError as exc:
            assume_not_a_known_finding(exc)
            raise
    t = result.transport
    # One image per barrier, the final oracle comparison, and finish()'s
    # kept-vs-derived pair.
    assert tally["images"] == t.barriers + 3 and tally["raised"] == 0
    if transport != "sync" and hostile:
        assert result.faults.crashes == 1  # post-repair barriers included


@pytest.mark.parametrize("kind", sorted(DRIVERS))
@pytest.mark.parametrize("net_cls", [Network, AsyncNetwork])
def test_driver_level_churn_keeps_the_image(kind, net_cls):
    """No mirror: the drivers' own ``edges()`` after every event, with
    inserts, waves and deletions down to two survivors."""
    rng = random.Random(7)
    dist = DRIVERS[kind](generators.random_tree(40, 7), network=net_cls())
    fresh = 1000
    with checked_images() as tally:
        dist.edges()
        while len(dist) > 2:
            alive = sorted(dist.alive)
            roll = rng.random()
            if roll < 0.25:
                dist.insert(fresh, rng.choice(alive))
                fresh += 1
            elif roll < 0.35:
                dist.insert_batch([(fresh + i, rng.choice(alive)) for i in range(3)])
                fresh += 3
            else:
                dist.delete(rng.choice(alive))
            dist.edges()
    assert tally["images"] > 40


# -- (b) asymmetries: each raises, and raises again --------------------------
def _fg_path(n=8, net=None):
    dist = DistributedForgivingGraph(generators.path(n), network=net)
    assert dist.edges() == {(i, i + 1) for i in range(n - 1)}
    return dist


def _raises_twice(dist, match):
    for _ in range(2):
        with pytest.raises(ProtocolError, match=match):
            dist.edges()
        with pytest.raises(ProtocolError):
            derive_image(dist.network)


def test_a_touched_node_drops_a_claim_its_untouched_neighbour_keeps():
    dist = _fg_path()
    net = dist.network
    net.nodes[3].direct.discard(4)
    assert (3, 4) in dist.edges()  # nobody was told: the kept image is stale
    net.begin_round(99)
    net.send(FGInsertAck(sender=2, recipient=3))  # a no-op handler: 3 is touched
    net.run_round(99)
    _raises_twice(dist, r"asymmetric edge \(3, 4\): only 4 claims it")
    net.nodes[3].direct.add(4)  # both ends stayed marked: the fix is seen
    assert dist.edges() == derive_image(net) == {(i, i + 1) for i in range(7)}


def test_a_live_node_claims_a_removed_one():
    dist = _fg_path()
    dist.network.remove(5)  # silent: no fan-out, 4 and 6 keep their claims
    _raises_twice(dist, r"asymmetric edge \(4, 5\): only 4 claims it")


def test_a_crashed_victim_is_popped_without_remove():
    dist = DistributedForgivingTree(generators.path(10), network=AsyncNetwork(seed=2))
    net = dist.network
    dist.edges()
    hid = net.open_heal("delete-0")
    net.arm_crash(hid, 0, victim=5)
    dist.inject_delete(0)
    net.close_injection()
    net.quiesce()
    assert net.crashed == [(hid, 5)] and 5 not in net.nodes
    _raises_twice(dist, r"asymmetric edge \(4, 5\): only 4 claims it")


def test_adopt_forgets_the_old_membership():
    old = DistributedForgivingTree(generators.path(10), network=AsyncNetwork(seed=2))
    net = old.network
    assert old.edges() == {(i, i + 1) for i in range(9)}
    new = DistributedForgivingGraph(generators.star(5))  # ids 0..5, other edges
    net.adopt(list(new.network.nodes.values()))
    assert net.image_edges() == {(0, i) for i in range(1, 6)} == derive_image(net)
    assert set(net._claims) == set(range(6)) and not net._touched


# -- (c) an image re-reads the nodes that moved, by count --------------------
@contextmanager
def counted_reads():
    """``neighbor_claims`` calls made from inside ``image_edges``."""
    reads = []
    inside = []
    kept_image = Network.image_edges
    originals = {cls: cls.neighbor_claims for cls in (ProtocolNode, FGNode)}

    def image(net):
        inside.append(True)
        try:
            return kept_image(net)
        finally:
            inside.pop()

    def counting(original):
        def neighbor_claims(node):
            if inside:
                reads.append(node.nid)
            return original(node)

        return neighbor_claims

    Network.image_edges = image
    for cls, original in originals.items():
        cls.neighbor_claims = counting(original)
    try:
        yield reads
    finally:
        Network.image_edges = kept_image
        for cls, original in originals.items():
            cls.neighbor_claims = original


@pytest.mark.parametrize("kind", sorted(DRIVERS))
@pytest.mark.parametrize("net_cls", [Network, AsyncNetwork])
def test_an_image_rereads_only_the_nodes_that_moved(kind, net_cls):
    n = 300
    rng = random.Random(11)
    dist = DRIVERS[kind](generators.random_tree(n, 11), network=net_cls())
    fresh = 1000
    with counted_reads() as reads:
        dist.edges()
        assert sorted(reads) == sorted(dist.alive)  # the first image reads everyone
        for _ in range(12):
            del reads[:]
            moved = set()
            for _ in range(rng.randrange(1, 5)):  # the events between two barriers
                alive = sorted(dist.alive)
                if rng.random() < 0.4:
                    stats = dist.insert(fresh, rng.choice(alive))
                    moved.add(fresh)
                    fresh += 1
                else:
                    victim = rng.choice(alive)
                    stats = dist.delete(victim)
                    moved.add(victim)
                moved.update(stats.received)
            image = dist.edges()
            assert image == derive_image(dist.network)
            assert len(reads) == len(set(reads)) <= len(moved) < len(dist)
            assert set(reads) == moved & dist.alive
            del reads[:]
            assert dist.edges() == image and not reads  # nothing moved: nothing read


@pytest.mark.parametrize("kind", sorted(DRIVERS))
@pytest.mark.parametrize("net_cls", [Network, AsyncNetwork])
@pytest.mark.parametrize("imaged", [False, True])
def test_churn_between_images_does_not_collect_the_dead(kind, net_cls, imaged):
    """Nobody asks for an image (or asks once, early) while fresh ids
    join and leave: the marks stay within the nodes alive now plus those
    the last image read, whatever the number of ids that came and went."""
    rng = random.Random(5)
    dist = DRIVERS[kind](generators.random_tree(30, 5), network=net_cls())
    net = dist.network
    read = set(dist.alive) if imaged and dist.edges() else set()
    for fresh in range(1000, 1400):
        dist.insert(fresh, rng.choice(sorted(dist.alive)))
        dist.delete(rng.choice(sorted(dist.alive)))
        assert net._touched <= dist.alive | read
    assert len(net._touched) <= 60 and set(net._claims) == read
    assert dist.edges() == derive_image(net) and not net._touched


# -- (d) the fence: finish() derives the image once from every node ----------
def _mirror(kind, spec, events, seed=5):
    healer = HEALERS[kind](generators.random_tree(40, seed))
    mirror = TransportMirror(healer, spec)
    adversary = RandomChurnAdversary(p_insert=0.3, seed=seed)
    adversary.reset()
    for _ in range(events):
        mirror.apply(apply_event(healer, adversary.next_event(healer)))
        if mirror.pending_crash is not None:
            mirror.recover_from_crash(healer.delete(mirror.pending_crash))
    return mirror


def _unlink_behind_the_networks_back(net):
    """Both ends of one image edge drop it with nobody handed a message:
    every kept claim of theirs is now a poisoned cache entry, and the
    kept image (which still matches the oracle) is wrong about the nodes."""
    for u, v in sorted(net._image):
        a, b = net.nodes[u], net.nodes[v]
        if v in a.direct and u in b.direct:
            a.direct.discard(v)
            b.direct.discard(u)
            if v not in a.neighbor_claims() and u not in b.neighbor_claims():
                return u, v
            a.direct.add(v)  # a haft link claims it too: try the next edge
            b.direct.add(u)
    raise AssertionError("no image edge held by direct claims alone")


@pytest.mark.parametrize("mode", ["sync", "async"])
def test_finish_catches_a_poisoned_cache_entry(mode):
    mirror = _mirror("fg", resolve_transport(mode, seed=3), events=16)
    net = mirror.driver.network
    mirror.barrier()
    assert not net._touched
    u, v = _unlink_behind_the_networks_back(net)
    mirror.barrier()  # the kept image still equals the oracle's: no barrier objects
    with pytest.raises(
        TransportDivergence,
        match=rf"events 0\.\.16: .*kept only \[\({u}, {v}\)\], derived only \[\]",
    ):
        mirror.finish()


def test_the_fence_names_the_window_since_the_repair_transplant():
    spec = TransportSpec(
        mode="async", seed=3, barrier_every=4,
        faults=FaultPlan(crashes=(CrashDuringHeal(event=0, layer=0),)),
    )
    mirror = _mirror("fg", spec, events=11)  # + the crash round: 12 mirrored events
    assert len(mirror.repairs) == 1 and mirror.events == 12
    mirror.barrier()
    u, v = _unlink_behind_the_networks_back(mirror.net)
    with pytest.raises(TransportDivergence, match=r"events 2\.\.12: "):
        mirror.finish()


def test_forget_image_is_the_from_scratch_derivation():
    dist = _fg_path()
    net = dist.network
    net._image.add((0, 7))  # poison all three parts of the cache
    net._claims[0].add(7)
    net._claims[7].add(0)
    assert (0, 7) in dist.edges()  # nobody moved, nobody is re-read
    net.forget_image()
    assert dist.edges() == derive_image(net) == {(i, i + 1) for i in range(7)}
