"""Churn adversaries: strategies over mixed insert/delete streams.

The churn game (The Forgiving Graph, PODC 2009) lets the omniscient
adversary *insert* nodes as well as delete them.  A
:class:`ChurnAdversary` emits one :class:`~repro.churn.ChurnEvent` per
round after seeing the current healed network:

* :class:`RandomChurnAdversary` — Bernoulli coin per round between a
  join (fresh node, configurable attachment preference) and a uniform
  deletion; the baseline churn workload.
* :class:`GrowthThenMassacreAdversary` — grow the network by a join
  wave, then hand victim choice to any deletion
  :class:`~repro.adversaries.base.Adversary` (default: hub-killing) —
  the "build it up, then tear it down" attack.
* :class:`OscillatingChurnAdversary` — alternating join and leave
  phases of fixed length, modeling diurnal churn.
* :class:`TraceReplayAdversary` — replays a recorded
  :class:`~repro.churn.ChurnTrace` exactly and fails loudly on an
  inconsistent trace.
* :class:`ScatterChurnAdversary` / :class:`OverlapChurnAdversary` —
  the async-transport pair: scatter keeps consecutive heal regions
  *disjoint* (maximizing concurrency), overlap deliberately fires the
  next event *inside* a recent heal's region (and sometimes at its
  would-be coordinator), the worst case for the region-lease handoff
  protocol.  Both probe regions through the shared :func:`region_ball`
  helper.

Deletion-only strategies compose: :class:`DeletionOnlyChurnAdversary`
lifts any classic :class:`Adversary` into the churn interface.
"""

from __future__ import annotations

import abc
import random
from typing import Optional

from ..baselines.base import Healer
from ..churn.events import ChurnEvent, Delete, Insert, InsertWave
from ..churn.traces import ChurnTrace
from ..core.errors import ReproError, SimulationOverError
from ..graphs.view import max_degree_nodes, min_degree_nodes, sorted_nodes
from .base import Adversary
from .simple import MaxDegreeAdversary


class ChurnAdversary(abc.ABC):
    """Chooses the next churn event each round (insert or delete).

    Like the deletion adversaries, churn adversaries are omniscient:
    they see the healed graph before every choice.  Inserted node ids
    are always fresh — ids are never reused across the whole campaign.
    """

    name: str = "abstract-churn"

    def __init__(self) -> None:
        self._next_id: Optional[int] = None

    @abc.abstractmethod
    def next_event(self, healer: Healer) -> ChurnEvent:
        """Return the next event (insert target must be alive)."""

    def reset(self) -> None:
        """Forget any per-campaign state (called between runs)."""
        self._next_id = None

    def _fresh_id(self, healer: Healer) -> int:
        """A node id never seen before (monotone counter).

        Seeds from every id the healer has *ever* seen — not just the
        alive set: if the highest-id node died before the first insert,
        ``max(alive) + 1`` would re-issue its id."""
        if self._next_id is None:
            known = getattr(healer, "known_ids", None) or healer.alive
            self._next_id = max(known, default=-1) + 1
        nid = self._next_id
        self._next_id += 1
        return nid


def region_ball(graph, centers, radius: int) -> set:
    """Union of the ``radius``-hop balls around ``centers`` in ``graph``.

    The shared region-probing primitive of the concurrency-aware churn
    adversaries: a heal's footprint is concentrated around its trigger,
    so the ball around recent victims/attachment points approximates the
    in-flight regions — scatter avoids it, overlap aims into it.  Dead
    centers (no longer in the graph) contribute nothing.
    """
    ball: set = set()
    for center in centers:
        if center not in graph:
            continue
        seen = {center}
        frontier = [center]
        for _ in range(radius):
            frontier = [m for x in frontier for m in graph[x] if m not in seen]
            seen.update(frontier)
        ball |= seen
    return ball


def _pick_attachment(
    healer: Healer,
    rng: random.Random,
    prefer: str,
    alive: Optional[list] = None,
) -> int:
    """Choose a live attachment point: uniform, hub-seeking, or leaf.

    ``alive`` (the view's sorted roster) may be passed in when the
    caller already has it.  Hub and leaf are read off the healer's view:
    the smallest id among the nodes of maximum / minimum degree.
    """
    if prefer == "random":
        if alive is None:
            alive = sorted_nodes(healer.view())
        if not alive:
            raise SimulationOverError("no live node to attach to")
        return rng.choice(alive)
    if prefer not in ("hub", "leaf"):
        raise ValueError(f"unknown attachment preference {prefer!r}")
    graph = healer.view()
    if not graph:
        raise SimulationOverError("no live node to attach to")
    return min(max_degree_nodes(graph) if prefer == "hub" else min_degree_nodes(graph))


class RandomChurnAdversary(ChurnAdversary):
    """Coin-flip churn: insert with probability ``p_insert``, else delete
    a uniform victim.  Forces a join when one node remains so campaigns
    of any length stay playable.

    ``fast_sample=True`` opts into the healer's O(1) ``sample_alive``
    capability for uniform picks instead of the classic draw by index
    into the sorted alive ids — same uniform distribution, but a
    *different* (still seed-deterministic) random stream, so it is
    opt-in: committed baselines and regression traces keep the classic
    stream.  Without the capability (or with ``attach != "random"``) it
    falls back to the classic path, which reads the view's maintained
    roster (:func:`~repro.graphs.view.sorted_nodes`) and so makes the
    healer build and keep up a view; the fast path never looks."""

    name = "random-churn"

    def __init__(
        self,
        p_insert: float = 0.5,
        seed: int = 0,
        attach: str = "random",
        fast_sample: bool = False,
    ) -> None:
        super().__init__()
        if not 0.0 <= p_insert <= 1.0:
            raise ValueError("p_insert must be within [0, 1]")
        self.p_insert = p_insert
        self.seed = seed
        self.attach = attach
        self.fast_sample = fast_sample
        self._rng = random.Random(seed)

    def next_event(self, healer: Healer) -> ChurnEvent:
        sampler = (
            getattr(healer, "sample_alive", None)
            if self.fast_sample and self.attach == "random"
            else None
        )
        if sampler is not None:
            n_alive = len(healer.alive)
            if not n_alive:
                raise SimulationOverError("network is empty")
            if n_alive <= 1 or self._rng.random() < self.p_insert:
                return Insert(self._fresh_id(healer), sampler(self._rng))
            return Delete(sampler(self._rng))
        alive = sorted_nodes(healer.view())
        if not alive:
            raise SimulationOverError("network is empty")
        if len(alive) <= 1 or self._rng.random() < self.p_insert:
            target = _pick_attachment(healer, self._rng, self.attach)
            return Insert(self._fresh_id(healer), target)
        return Delete(self._rng.choice(alive))

    def reset(self) -> None:
        super().reset()
        self._rng = random.Random(self.seed)


class WaveChurnAdversary(ChurnAdversary):
    """Batch churn: whole join *waves* against single deletions.

    With probability ``p_wave`` the round is an :class:`InsertWave` of
    ``wave`` fresh joiners, each attached to an independently chosen live
    node (attachment points are drawn from the pre-wave alive set, so the
    wave satisfies the engines' batch semantics by construction);
    otherwise a uniform victim is deleted.  Models flash-crowd joins —
    the workload the amortized ``insert_batch`` path exists for."""

    name = "wave-churn"

    def __init__(
        self,
        wave: int = 8,
        p_wave: float = 0.5,
        seed: int = 0,
        attach: str = "random",
    ) -> None:
        super().__init__()
        if wave < 1:
            raise ValueError("wave must be >= 1")
        if not 0.0 <= p_wave <= 1.0:
            raise ValueError("p_wave must be within [0, 1]")
        self.wave = wave
        self.p_wave = p_wave
        self.seed = seed
        self.attach = attach
        self._rng = random.Random(seed)

    def next_event(self, healer: Healer) -> ChurnEvent:
        alive = sorted_nodes(healer.view())
        if not alive:
            raise SimulationOverError("network is empty")
        if len(alive) <= 1 or self._rng.random() < self.p_wave:
            # Attachment points are chosen against the pre-wave state
            # (wave semantics), so alive is computed once per wave.
            joiners = tuple(
                (
                    self._fresh_id(healer),
                    _pick_attachment(healer, self._rng, self.attach, alive=alive),
                )
                for _ in range(self.wave)
            )
            return InsertWave(joiners)
        return Delete(self._rng.choice(alive))

    def reset(self) -> None:
        super().reset()
        self._rng = random.Random(self.seed)


class ScatterChurnAdversary(ChurnAdversary):
    """Concurrency-seeking churn: consecutive events far apart.

    Built for the async transport (``transport="async"`` campaigns):
    each event avoids the ``radius``-hop neighborhoods of the last
    ``spread`` victims/attachment points, so consecutive heals touch
    disjoint regions and can stay *in flight simultaneously* instead of
    being serialized behind conflict barriers.  With probability
    ``p_insert`` the event is a join (attached to a scattered node),
    otherwise a scattered deletion.  Falls back to uniform choice when
    the hot zone swallows the whole alive set.
    """

    name = "scatter-churn"

    def __init__(
        self,
        p_insert: float = 0.2,
        spread: int = 8,
        radius: int = 2,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if not 0.0 <= p_insert <= 1.0:
            raise ValueError("p_insert must be within [0, 1]")
        if spread < 0 or radius < 0:
            raise ValueError("spread and radius must be >= 0")
        self.p_insert = p_insert
        self.spread = spread
        self.radius = radius
        self.seed = seed
        self._rng = random.Random(seed)
        self._recent: list = []

    def _scattered_pick(self, healer: Healer, alive: list) -> int:
        hot = region_ball(healer.view(), self._recent, self.radius)
        cold = [x for x in alive if x not in hot]
        choice = self._rng.choice(cold if cold else alive)
        self._recent.append(choice)
        if len(self._recent) > self.spread:
            self._recent.pop(0)
        return choice

    def next_event(self, healer: Healer) -> ChurnEvent:
        alive = sorted_nodes(healer.view())
        if not alive:
            raise SimulationOverError("network is empty")
        if len(alive) <= 1 or self._rng.random() < self.p_insert:
            return Insert(self._fresh_id(healer), self._scattered_pick(healer, alive))
        return Delete(self._scattered_pick(healer, alive))

    def reset(self) -> None:
        super().reset()
        self._rng = random.Random(self.seed)
        self._recent = []


class OverlapChurnAdversary(ChurnAdversary):
    """Conflict-seeking churn: events deliberately land inside the
    regions of recent heals.

    The adversarial mirror of :class:`ScatterChurnAdversary`, built for
    the region-lease overlap policy (``overlap="lease"`` campaigns):
    with probability ``p_overlap`` the next victim (or attachment point)
    is drawn from the :func:`region_ball` around the last ``spread``
    event centers — on the async transport those regions are typically
    *still healing*, so the event's footprint intersects an in-flight
    repair and must go through coordinator handoff.  With probability
    ``p_coordinator`` the victim is a recorded **coordinator candidate**
    (the smallest-id image neighbor of a recent victim at its deletion
    time — the node the protocols elect to coordinate that heal), the
    shot that exercises the coordinator-death escalation.  Remaining
    rounds fall back to uniform churn; ``p_insert`` splits joins from
    deletions throughout.
    """

    name = "overlap-churn"

    def __init__(
        self,
        p_insert: float = 0.2,
        p_overlap: float = 0.65,
        p_coordinator: float = 0.1,
        spread: int = 6,
        radius: int = 2,
        seed: int = 0,
    ) -> None:
        super().__init__()
        for label, p in (
            ("p_insert", p_insert),
            ("p_overlap", p_overlap),
            ("p_coordinator", p_coordinator),
        ):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{label} must be within [0, 1]")
        if spread < 1 or radius < 0:
            raise ValueError("spread must be >= 1 and radius >= 0")
        self.p_insert = p_insert
        self.p_overlap = p_overlap
        self.p_coordinator = p_coordinator
        self.spread = spread
        self.radius = radius
        self.seed = seed
        self._rng = random.Random(seed)
        self._recent: list = []
        self._coordinators: list = []

    def _remember(self, center: int, graph) -> None:
        # A deletion's heal region lives around the victim's *surviving
        # neighbors* (the victim itself leaves the graph, so a ball
        # centered on it alone would evaporate); remember those as the
        # event's anchor group, plus the center for insertions.  One
        # group per event, the last ``spread`` events kept — the same
        # event-counting semantics ``spread`` has for the scatter
        # adversary.
        neighbors = sorted(m for m in graph.get(center, ()) if m != center)
        self._recent.append((center, *neighbors[:3]))
        if len(self._recent) > self.spread:
            self._recent.pop(0)
        # The would-be coordinator of this event's heal: the smallest-id
        # surviving neighbor (the election rule both protocols share).
        if neighbors:
            self._coordinators.append(neighbors[0])
            if len(self._coordinators) > self.spread:
                self._coordinators.pop(0)

    def _anchors(self) -> list:
        return [a for group in self._recent for a in group]

    def _overlapping_pick(self, healer: Healer, alive: list) -> int:
        graph = healer.view()
        hot = sorted(region_ball(graph, self._anchors(), self.radius))
        choice = self._rng.choice(hot if hot else alive)
        self._remember(choice, graph)
        return choice

    def _uniform_pick(self, healer: Healer, alive: list) -> int:
        choice = self._rng.choice(alive)
        self._remember(choice, healer.view())
        return choice

    def next_event(self, healer: Healer) -> ChurnEvent:
        alive = sorted_nodes(healer.view())
        if not alive:
            raise SimulationOverError("network is empty")
        if len(alive) <= 1 or self._rng.random() < self.p_insert:
            pick = (
                self._overlapping_pick(healer, alive)
                if self._rng.random() < self.p_overlap
                else self._uniform_pick(healer, alive)
            )
            return Insert(self._fresh_id(healer), pick)
        if self._rng.random() < self.p_coordinator:
            live_coords = [c for c in self._coordinators if c in healer.alive]
            if live_coords:
                victim = self._rng.choice(sorted(set(live_coords)))
                self._remember(victim, healer.view())
                return Delete(victim)
        if self._rng.random() < self.p_overlap:
            return Delete(self._overlapping_pick(healer, alive))
        return Delete(self._uniform_pick(healer, alive))

    def reset(self) -> None:
        super().reset()
        self._rng = random.Random(self.seed)
        self._recent = []
        self._coordinators = []


class HostileChurnAdversary(ChurnAdversary):
    """Deletion-heavy hot-region churn, tuned for hostile networks.

    The fault subsystem's companion adversary (``faults=`` campaigns):
    where :class:`OverlapChurnAdversary` maximizes *admission* conflict,
    this one maximizes what a lossy, crashing network stresses —
    deletions dominate (each one fans a heal out over links that drop
    and duplicate, and every heal is a crash-during-heal target), and
    victims concentrate in a slowly drifting **hot region** (the ball
    around recent victims' survivors), so repeated heals rework the
    same overlay neighborhood that a crash may have just corrupted and
    a repair pass just rebuilt.  ``p_insert`` keeps a trickle of joins
    so the network does not simply evaporate; attachment points land in
    the hot region too.
    """

    name = "hostile-churn"

    def __init__(
        self,
        p_insert: float = 0.1,
        p_hot: float = 0.75,
        spread: int = 4,
        radius: int = 2,
        seed: int = 0,
    ) -> None:
        super().__init__()
        for label, p in (("p_insert", p_insert), ("p_hot", p_hot)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{label} must be within [0, 1]")
        if spread < 1 or radius < 0:
            raise ValueError("spread must be >= 1 and radius >= 0")
        self.p_insert = p_insert
        self.p_hot = p_hot
        self.spread = spread
        self.radius = radius
        self.seed = seed
        self._rng = random.Random(seed)
        self._recent: list = []

    def _remember(self, center: int, graph) -> None:
        neighbors = sorted(m for m in graph.get(center, ()) if m != center)
        self._recent.append((center, *neighbors[:3]))
        if len(self._recent) > self.spread:
            self._recent.pop(0)

    def _pick(self, healer: Healer, alive: list) -> int:
        graph = healer.view()
        if self._rng.random() < self.p_hot and self._recent:
            anchors = [a for group in self._recent for a in group]
            hot = sorted(region_ball(graph, anchors, self.radius))
            choice = self._rng.choice(hot if hot else alive)
        else:
            choice = self._rng.choice(alive)
        self._remember(choice, graph)
        return choice

    def next_event(self, healer: Healer) -> ChurnEvent:
        alive = sorted_nodes(healer.view())
        if not alive:
            raise SimulationOverError("network is empty")
        if len(alive) <= 1 or self._rng.random() < self.p_insert:
            return Insert(self._fresh_id(healer), self._pick(healer, alive))
        return Delete(self._pick(healer, alive))

    def reset(self) -> None:
        super().reset()
        self._rng = random.Random(self.seed)
        self._recent = []


class GrowthThenMassacreAdversary(ChurnAdversary):
    """``growth`` joins first, then pure deletions chosen by ``killer``.

    The default killer is the hub attack
    (:class:`~repro.adversaries.MaxDegreeAdversary`): let the healer
    integrate a join wave, then test whether the grown structure still
    heals under the classic overlay attack."""

    name = "growth-then-massacre"

    def __init__(
        self,
        growth: int = 50,
        killer: Optional[Adversary] = None,
        seed: int = 0,
        attach: str = "hub",
    ) -> None:
        super().__init__()
        self.growth = growth
        self.killer = killer if killer is not None else MaxDegreeAdversary()
        self.seed = seed
        self.attach = attach
        self._rng = random.Random(seed)
        self._joined = 0

    def next_event(self, healer: Healer) -> ChurnEvent:
        if self._joined < self.growth:
            self._joined += 1
            target = _pick_attachment(healer, self._rng, self.attach)
            return Insert(self._fresh_id(healer), target)
        return Delete(self.killer.choose(healer))

    def reset(self) -> None:
        super().reset()
        self._rng = random.Random(self.seed)
        self._joined = 0
        self.killer.reset()


class OscillatingChurnAdversary(ChurnAdversary):
    """Joins for ``period`` rounds, leaves for ``period`` rounds, repeat.

    Models diurnal membership swings; the leave phase deletes uniform
    victims (joining when a leave would empty the network)."""

    name = "oscillating-churn"

    def __init__(self, period: int = 20, seed: int = 0, attach: str = "random"):
        super().__init__()
        if period < 1:
            raise ValueError("period must be >= 1")
        self.period = period
        self.seed = seed
        self.attach = attach
        self._rng = random.Random(seed)
        self._tick = 0

    def next_event(self, healer: Healer) -> ChurnEvent:
        phase_join = (self._tick // self.period) % 2 == 0
        self._tick += 1
        alive = sorted_nodes(healer.view())
        if not alive:
            raise SimulationOverError("network is empty")
        if phase_join or len(alive) <= 1:
            target = _pick_attachment(healer, self._rng, self.attach)
            return Insert(self._fresh_id(healer), target)
        return Delete(self._rng.choice(alive))

    def reset(self) -> None:
        super().reset()
        self._rng = random.Random(self.seed)
        self._tick = 0


class TraceReplayAdversary(ChurnAdversary):
    """Replays a recorded :class:`~repro.churn.ChurnTrace` exactly.

    Strict like :class:`~repro.adversaries.ScriptedAdversary`: a victim
    that is already dead or an attachment point that is not alive raises
    :class:`~repro.core.errors.ReproError` — the trace is part of the
    experiment's specification."""

    name = "trace-replay"

    def __init__(self, trace: ChurnTrace):
        super().__init__()
        self.trace = trace
        self._pos = 0

    def next_event(self, healer: Healer) -> ChurnEvent:
        if self._pos >= len(self.trace.events):
            raise SimulationOverError("trace exhausted")
        event = self.trace.events[self._pos]
        self._pos += 1
        alive = healer.alive
        if isinstance(event, Delete) and event.nid not in alive:
            raise ReproError(f"trace victim {event.nid} is already deleted")
        if isinstance(event, Insert) and event.attach_to not in alive:
            raise ReproError(
                f"trace attach point {event.attach_to} is not alive"
            )
        return event

    def reset(self) -> None:
        super().reset()
        self._pos = 0

    @property
    def remaining(self) -> int:
        return len(self.trace.events) - self._pos


class DeletionOnlyChurnAdversary(ChurnAdversary):
    """Lift a classic deletion adversary into the churn interface."""

    name = "deletion-only"

    def __init__(self, inner: Adversary):
        super().__init__()
        self.inner = inner
        self.name = f"deletion-only({inner.name})"

    def next_event(self, healer: Healer) -> ChurnEvent:
        return Delete(self.inner.choose(healer))

    def reset(self) -> None:
        super().reset()
        self.inner.reset()


CHURN_ADVERSARY_CATALOG = {
    cls.name: cls
    for cls in (
        RandomChurnAdversary,
        WaveChurnAdversary,
        ScatterChurnAdversary,
        OverlapChurnAdversary,
        HostileChurnAdversary,
        GrowthThenMassacreAdversary,
        OscillatingChurnAdversary,
        TraceReplayAdversary,
    )
}
