"""The simnet kernel's event queue: the frontier it keeps names, at every
delivery, the envelope the documented legality rule names.

(a) a per-delivery differential against a test-local reference of that
rule, recomputed from *every* stored envelope; (b) two cases pinned by
construction (an early-stopped unbounded drain followed by a finite
horizon; a send interleaved with deliveries inside one injection
window); (c) event logs recorded at the commit before the frontier
existed — see :mod:`tests.kernel_frontier_pins`; (d) the work per
delivery, by count.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.adversaries import OverlapChurnAdversary, RandomChurnAdversary
from repro.baselines import ForgivingTreeHealer
from repro.core.errors import ProtocolError
from repro.distributed import DistributedForgivingTree
from repro.distributed.messages import Message
from repro.faults import CrashDuringHeal, FaultPlan
from repro.fgraph import ForgivingGraphHealer
from repro.graphs import generators
from repro.harness import run_churn_campaign
from repro.simnet import (
    SCHEDULER_CATALOG,
    AsyncNetwork,
    LatencyModel,
    LatencyScheduler,
    TransportSpec,
)
from tests import kernel_frontier_pins as pins
from tests.conftest import assume_not_a_known_finding, examples

HEALERS = {"ft": ForgivingTreeHealer, "fg": ForgivingGraphHealer}


# -- (a) the documented rule, from every stored envelope ---------------------
def reference_deliverable(net, horizon):
    """Front layer per heal, per-recipient FIFO head by ``seq``, arrived
    by the horizon; heals in id order, heads in send order."""
    out = []
    for hid in sorted(net._layers):
        queued = [
            env
            for layer in net._layers[hid].values()
            for fifo in layer.values()
            for env in fifo
        ]
        if not queued:
            continue
        front = min(env.depth for env in queued)
        heads = {}
        for env in sorted(queued, key=lambda e: e.seq):
            if env.depth == front:
                heads.setdefault(env.message.recipient, env)
        out.extend(env for env in heads.values() if env.deliver_at <= horizon)
    return out


class KernelDisagreement(Exception):
    """The kernel's next delivery is not the reference's (deliberately
    not an ``AssertionError``/``ReproError``: nothing may swallow it)."""


@contextmanager
def checked_kernel():
    """Every ``AsyncNetwork._next`` is compared with the reference while
    the block runs; yields the tally of checked picks."""
    tally = {"picks": 0, "idle": 0}
    real_next = AsyncNetwork._next

    def checked_next(net, horizon):
        expected = reference_deliverable(net, horizon)
        policy = net.scheduler
        handed = []
        if not net._ordered:  # positional: capture the list it is handed
            real_pick = policy.pick
            policy.pick = lambda lst: handed.append(list(lst)) or real_pick(lst)
        try:
            env = real_next(net, horizon)
        finally:
            if not net._ordered:
                del policy.pick
        if not expected:
            if env is not None or handed:
                raise KernelDisagreement(f"nothing is legal, kernel chose {env}")
            tally["idle"] += 1
            return env
        tally["picks"] += 1
        if net._ordered:
            if env is not policy.pick(expected):
                raise KernelDisagreement(
                    f"{policy.name}: kernel delivers {env}, the rule names "
                    f"{policy.pick(expected)}"
                )
        elif handed != [expected]:  # envelopes compare by identity
            raise KernelDisagreement(
                f"{policy.name}: handed {handed}, the rule lists {expected}"
            )
        return env

    AsyncNetwork._next = checked_next
    try:
        yield tally
    finally:
        AsyncNetwork._next = real_next


@settings(
    max_examples=examples(64),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    kind=st.sampled_from(sorted(HEALERS)),
    scheduler=st.sampled_from(sorted(SCHEDULER_CATALOG)),
    latency=st.sampled_from(["uniform", "heavy-tail"]),
    overlap=st.sampled_from(["serialize", "lease"]),
    hostile=st.booleans(),
    overlapping=st.booleans(),
    n=st.integers(24, 72),
    seed=st.integers(0, 10**6),
    gap=st.sampled_from([0.02, 0.1, 0.4]),
    barrier_every=st.sampled_from([0, 5, 16]),
    crash_event=st.integers(0, 8),
)
def test_every_delivery_is_the_one_the_rule_names(
    kind, scheduler, latency, overlap, hostile, overlapping, n, seed, gap,
    barrier_every, crash_event,
):
    plan = None
    if hostile:
        # The crash victim is elected after the admission barrier, from
        # settled state, so the crash may ride on any event (the case
        # that used to pin it to event 0 — fg, serialize, seed 11901,
        # crash at event 1 — is a plain test in tests/test_faults.py).
        # The Forgiving Tree stays on the first event until ROADMAP
        # item 1 lands: reset-replay recovery faithfully reproduces a
        # stale leaf-will deposit made before a later crash, and the
        # repair pass then reports the dangling pointer it left.
        if kind == "ft":
            crash_event = 0
        plan = FaultPlan(
            drop=0.08, dup=0.05,
            crashes=(CrashDuringHeal(event=crash_event, layer=seed % 3),),
        )
    adversary = (
        OverlapChurnAdversary(p_insert=0.3, seed=seed)
        if overlapping
        else RandomChurnAdversary(p_insert=0.35, seed=seed)
    )
    with checked_kernel() as tally:
        try:
            result = run_churn_campaign(
                HEALERS[kind](generators.random_tree(n, seed % 97)),
                adversary,
                events=36,
                metrics="none",
                seed=seed,
                transport=TransportSpec(
                    mode="async", overlap=overlap, latency=latency,
                    scheduler=scheduler, gap=gap, barrier_every=barrier_every,
                    faults=plan,
                ),
            )
        except ProtocolError as exc:
            assume_not_a_known_finding(exc)
            raise
    # Every delivery of the campaign went through the check (the setup
    # round's too, which ``messages_delivered`` also counts).
    assert tally["picks"] == result.transport.messages_delivered > 36
    assert tally["idle"] > 0  # finite gaps and quiesces both ran dry


def test_the_check_itself_bites():
    """A kernel that surfaces a non-head envelope is caught by (a)."""
    real_arrived = AsyncNetwork._arrived_heads

    def reversed_fifo(net, horizon):
        heads = real_arrived(net, horizon)
        for layers in net._layers.values():
            for layer in layers.values():
                for fifo in layer.values():
                    if len(fifo) > 1 and fifo[0] in heads:
                        heads[heads.index(fifo[0])] = fifo[1]
        return heads

    AsyncNetwork._arrived_heads = reversed_fifo
    try:
        with checked_kernel(), pytest.raises(KernelDisagreement):
            DistributedForgivingTree(
                generators.random_tree(30, 1),
                network=AsyncNetwork(scheduler="random", seed=1),
            )
    finally:
        AsyncNetwork._arrived_heads = real_arrived


# -- (b) pinned by construction ----------------------------------------------
class ScriptedLatency(LatencyModel):
    """Delays handed out in send order from a script."""

    name = "scripted"

    def __init__(self, delays):
        super().__init__(0)
        self.delays = list(delays)

    def sample(self, sender, recipient):
        return self.delays.pop(0)


class Relay:
    """A node that answers a message from ``x`` by messaging ``relay[x]``."""

    def __init__(self, nid, relay=()):
        self.nid = nid
        self.network = None
        self.relay = dict(relay)
        self.got = []

    def handle(self, message):
        self.got.append(message.sender)
        if message.sender in self.relay:
            self.network.send(Message(self.nid, self.relay[message.sender]))


def _network(scheduler, delays, relays=()):
    net = AsyncNetwork(latency=ScriptedLatency(delays), scheduler=scheduler)
    relays = dict(relays)
    for nid in range(6):
        net.register(Relay(nid, relays.get(nid, ())))
    return net


@pytest.mark.parametrize("scheduler", sorted(SCHEDULER_CATALOG))
def test_finite_horizon_after_an_early_stopped_drain(scheduler):
    """``drain_heals`` readies every frontier head (its horizon is
    unbounded) and stops as soon as its targets are done; what it readied
    for *other* heals must not land before a later finite horizon
    reaches it."""
    net = _network(scheduler, [1.0, 9.0, 5.0, 7.0])
    first = net.open_heal("a")
    net.send(Message(0, 1))  # arrives 1.0
    net.close_injection()
    second = net.open_heal("b")
    net.send(Message(0, 2))  # arrives 9.0, sent before ...
    net.send(Message(0, 3))  # ... the one arriving 5.0
    net.send(Message(0, 4))  # arrives 7.0
    net.close_injection()
    landed = []
    real_deliver = net._deliver
    net._deliver = lambda env: landed.append(env.deliver_at) or real_deliver(env)
    net.drain_heals([first])
    assert net.heal_pending(first) == 0
    if scheduler in ("latency", "fifo"):  # they reach heal a's message first
        assert landed == [1.0] and net.heal_pending(second) == 3
    for horizon in (6.0, 8.0):
        before = len(landed)
        net.run_until(horizon)
        late = [t for t in landed[before:] if t > horizon]
        assert not late, f"{scheduler}: delivered beyond {horizon}: {late}"
        assert reference_deliverable(net, horizon) == []  # and nothing held back
    net.quiesce()
    assert sorted(landed) == [1.0, 5.0, 7.0, 9.0]
    assert net.in_flight() == (0, 0) and not net._waiting and not net._ready


def test_fifo_head_beyond_the_horizon_goes_back_to_waiting():
    """The sharpest form of the case above: under ``fifo`` the ready
    heap's *top* is the envelope the horizon does not reach."""
    net = _network("fifo", [1.0, 9.0, 5.0])
    first = net.open_heal("a")
    net.send(Message(0, 1))
    net.close_injection()
    second = net.open_heal("b")
    net.send(Message(0, 2))  # seq 1, arrives 9.0: fifo's first choice
    net.send(Message(0, 3))  # seq 2, arrives 5.0
    net.close_injection()
    net.drain_heals([first])
    assert [entry[-1].deliver_at for entry in sorted(net._ready)] == [9.0, 5.0]
    net.run_until(6.0)
    assert net.nodes[3].got == [0] and net.nodes[2].got == []
    assert net.clock == 6.0 and net.heal_pending(second) == 1
    assert [entry[-1].deliver_at for entry in net._waiting] == [9.0]
    net.quiesce()
    assert net.nodes[2].got == [0] and net.clock == 9.0


@pytest.mark.parametrize("scheduler", sorted(SCHEDULER_CATALOG))
def test_send_interleaved_with_deliveries_in_one_injection_window(scheduler):
    """A depth-0 send after the heal's depth-0 layer has landed and its
    depth-1 layer is the front: the kernel refuses (the old ``min(depths)``
    rule would have let it overtake) — it never silently reorders."""
    net = _network(scheduler, [1.0, 4.0, 2.0, 3.0], relays={1: {0: 2}})
    hid = net.open_heal("x")
    net.send(Message(0, 1))  # depth 0; node 1 relays to node 2 at depth 1
    net.run_until(1.5)  # ... which arrives 5.0: depth 1 is now the front
    assert net.nodes[1].got == [0] and net.heal_pending(hid) == 1
    state = (net.in_flight(), net._seq, dict(net.heal_stats(hid).sent))
    with pytest.raises(ProtocolError, match="depth-0 send while its front layer is 1"):
        net.send(Message(0, 3))
    assert (net.in_flight(), net._seq, dict(net.heal_stats(hid).sent)) == state
    net.close_injection()
    net.quiesce()
    assert net.nodes[2].got == [1] and net.nodes[3].got == []
    assert net.heal_stats(hid).sub_rounds == 2
    # A send into the layer that *is* the front is the ordinary case.
    hid = net.open_heal("y")
    net.send(Message(0, 4))
    net.run_until(net.clock)  # not arrived yet: nothing lands
    net.send(Message(0, 5))
    net.close_injection()
    net.quiesce()
    assert net.nodes[4].got == [0] and net.nodes[5].got == [0]


def _stored(net):
    return [
        env
        for layers in net._layers.values()
        for layer in layers.values()
        for fifo in layer.values()
        for env in fifo
    ]


@pytest.mark.parametrize(
    "bad", ["not-a-head", "deeper-layer", "emptied-inbox", "closed-heal"]
)
def test_a_policy_that_picks_outside_the_legal_set_is_refused(bad):
    """Each kind of illegal pick is a ``ProtocolError`` raised before
    anything is popped or counted: the same policy, picking legally from
    then on, delivers every message."""

    class Rogue(LatencyScheduler):
        armed = True
        seen = []

        def pick(self, deliverable):
            legal = min(deliverable, key=self.key)
            self.seen.append(legal)
            stored = _stored(net)
            wrong = {
                "not-a-head": [e for e in stored if e.message.recipient == 1][1:],
                "deeper-layer": [e for e in stored if e.depth == 1],
                "emptied-inbox": [e for e in self.seen if e.message.recipient == 4
                                  and e not in stored],
                "closed-heal": [e for e in self.seen if e.heal == first
                                and e not in stored],
            }[bad]
            return wrong[0] if self.armed and wrong else legal

    net = _network(Rogue(), [1.0, 3.0, 4.0, 2.0, 5.0, 5.0], relays={1: {0: 2}})
    assert not net._ordered
    first = net.open_heal("a")
    net.send(Message(0, 3))  # lands first: its inbox, layer and heal all close
    net.close_injection()
    net.open_heal("b")
    net.send(Message(0, 1))  # node 1 relays each of these to node 2, depth 1
    net.send(Message(0, 1))
    net.send(Message(0, 4))  # lands second: its inbox alone closes
    net.close_injection()
    with pytest.raises(ProtocolError, match="outside the deliverable set"):
        net.quiesce()
    queued = _stored(net)
    assert queued and net.in_flight()[1] == len(queued)
    net.scheduler.armed = False
    net.quiesce()
    assert net.in_flight() == (0, 0) and not _stored(net)
    assert [len(net.nodes[nid].got) for nid in range(6)] == [0, 2, 2, 1, 1, 0]


def test_the_policy_is_fixed_when_the_kernel_is_built():
    """Ordered or positional is decided once, from the ``pick`` the
    policy object answers with at construction — an instance's own
    included — and the attribute cannot be re-pointed afterwards."""
    assert AsyncNetwork(scheduler="latency")._ordered
    assert not AsyncNetwork(scheduler="random")._ordered
    policy = LatencyScheduler()
    policy.pick = lambda deliverable: deliverable[-1]
    net = AsyncNetwork(scheduler=policy)
    assert not net._ordered and net.scheduler is policy
    with pytest.raises(AttributeError):
        net.scheduler = LatencyScheduler()


# -- (c) nothing simulated moved ---------------------------------------------
def test_event_logs_match_the_parent_commit():
    path = os.path.join(os.path.dirname(__file__), "data", "kernel_frontier_pins.json")
    with open(path) as fh:
        pinned = json.load(fh)
    assert set(SCHEDULER_CATALOG) < set(pinned) == set(pins.variants())
    assert json.loads(json.dumps(pins.observe())) == pinned
    assert len({row["digest"] for row in pinned.values()}) == len(pinned)


# -- (d) work per delivery, by count -----------------------------------------
class CountingLatency(LatencyScheduler):
    """The default policy, counting how often its order is consulted."""

    def __init__(self, seed=0):
        super().__init__(seed)
        self.evaluations = 0

    def key(self, envelope):
        self.evaluations += 1
        return super().key(envelope)


@pytest.mark.parametrize("n", [2000, 4000])
def test_the_will_round_consults_the_policy_per_delivery_not_per_queue(n):
    """Parent commit: ~n/9 key evaluations per delivery at n = 2,000
    (every queued envelope, before every delivery)."""
    policy = CountingLatency()
    net = AsyncNetwork(latency="heavy-tail", scheduler=policy, seed=3)
    DistributedForgivingTree(generators.random_tree(n, 3), network=net)
    assert net.delivered > n
    assert policy.evaluations <= 3 * net.delivered


@pytest.mark.parametrize("n", [2000, 4000])
def test_a_lease_campaign_consults_the_policy_per_delivery(n):
    policy = CountingLatency()
    result = run_churn_campaign(
        ForgivingTreeHealer(generators.random_tree(n, 3)),
        OverlapChurnAdversary(p_insert=0.4, p_overlap=0.5, seed=3),
        events=200,
        metrics="none",
        seed=3,
        transport=TransportSpec(
            mode="async", overlap="lease", latency="heavy-tail",
            scheduler=policy, gap=0.05, barrier_every=64,
        ),
    )
    delivered = result.transport.messages_delivered
    assert delivered > n + 200
    assert policy.evaluations <= 3 * delivered


def test_in_flight_counters_equal_the_sums_they_replaced():
    net = AsyncNetwork(latency="heavy-tail", seed=5)
    dist = DistributedForgivingTree(generators.random_tree(60, 5), network=net)
    real_sample = net._sample

    def sample():
        pending = net._pending.values()
        assert net.in_flight() == (sum(1 for c in pending if c > 0), sum(pending))
        real_sample()

    net._sample = sample
    for victim in (3, 17, 40):
        net.open_heal(f"delete-{victim}")
        dist.inject_delete(victim)
        net.close_injection()
        net.run_until(net.clock + 0.3)
    assert net.in_flight()[0] >= 1
    net.quiesce()
    assert net.in_flight() == (0, 0) and net.peak_open_heals >= 1
    assert math.isfinite(net.clock)
