"""Scheduler policies: who decides the order of concurrent deliveries.

The async kernel only constrains delivery by *legality* (per-heal causal
layers and each message's arrival time, see :mod:`repro.simnet.kernel`);
whenever several queued messages are legally deliverable at once, a
:class:`SchedulerPolicy` picks which one lands next.  That choice is
exactly the freedom a real asynchronous network (or a malicious message
router) has, so the policy doubles as the model's *scheduler adversary*:
the papers prove their guarantees for every legal interleaving, and the
policies here let tests and benchmarks actually quantify over them.

* :class:`LatencyScheduler` — earliest arrival first; the "honest
  network" baseline and the default.
* :class:`FifoScheduler` — send order, ignoring latency skew; the
  interleaving closest to the synchronous sub-round network the
  protocols were developed under.
* :class:`AdversarialScheduler` — newest send first (LIFO): starves the
  oldest in-flight heals for as long as legality allows, maximizing the
  number of concurrently open heals and inverting every ordering the
  synchronous network ever exhibited.  The deterministic worst case.
* :class:`RandomScheduler` — seeded uniform choice among the deliverable
  set; the Hypothesis fuzzing hook (each seed is one legal interleaving).

A policy is **ordered** when it states a total order once, as
:meth:`SchedulerPolicy.key`, and leaves ``pick`` alone: the kernel then
keeps the deliverable set in a heap under that key and never builds the
list (the first three above).  A policy that overrides ``pick`` is
**positional**: it is handed the deliverable set as a list ordered by
(heal id, send order) on every delivery and may choose by index
(:class:`RandomScheduler`).  A kernel decides which kind it was given
once, when it is built, from the ``pick`` the policy object answers
with then (a subclass's or an instance's own counts as an override) and
keeps that policy for life: ``AsyncNetwork.scheduler`` is read-only, and
a policy must not grow a ``pick`` after a kernel has adopted it.
"""

from __future__ import annotations

import random
from typing import Dict, Sequence, Type, Union


class SchedulerPolicy:
    """Picks the next envelope among the legally deliverable set.

    Subclasses define :meth:`key` (ordered: the smallest key lands
    next) *or* override :meth:`pick` (positional); see the module
    docstring for what the kernel does with each.
    """

    name: str = "abstract"

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rng = random.Random(seed)

    def reseed(self, seed: int) -> None:
        self.seed = seed
        self._rng = random.Random(seed)

    def key(self, envelope: "object"):
        """This policy's order: the deliverable envelope with the
        smallest key lands next.  Must depend on the envelope alone.

        Envelopes expose ``deliver_at`` (arrival time) and ``seq``
        (global send order) — see :class:`repro.simnet.kernel.Envelope`.
        """
        raise NotImplementedError

    def pick(self, deliverable: Sequence["object"]) -> "object":
        """Choose one envelope; ``deliverable`` is never empty."""
        return min(deliverable, key=self.key)


class LatencyScheduler(SchedulerPolicy):
    """Earliest arrival first (ties by send order): the honest network."""

    name = "latency"

    def key(self, envelope):
        return (envelope.deliver_at, envelope.seq)


class FifoScheduler(SchedulerPolicy):
    """Send order, regardless of latency skew (closest to sub-rounds)."""

    name = "fifo"

    def key(self, envelope):
        return envelope.seq


class AdversarialScheduler(SchedulerPolicy):
    """Newest send first: the deterministic worst-case message router.

    Always delivering the most recently sent legal message starves the
    oldest heals (their remaining messages wait until nothing newer is
    legal), which maximizes concurrent in-flight heals and explores the
    interleavings farthest from the synchronous network's FIFO order.
    """

    name = "adversarial"

    def key(self, envelope):
        return -envelope.seq


class RandomScheduler(SchedulerPolicy):
    """Seeded uniform choice: one legal interleaving per seed."""

    name = "random"

    def pick(self, deliverable):
        return deliverable[self._rng.randrange(len(deliverable))]


SCHEDULER_CATALOG: Dict[str, Type[SchedulerPolicy]] = {
    cls.name: cls
    for cls in (
        LatencyScheduler,
        FifoScheduler,
        AdversarialScheduler,
        RandomScheduler,
    )
}

SchedulerSpec = Union[str, SchedulerPolicy]


def resolve_scheduler(spec: SchedulerSpec, seed: int = 0) -> SchedulerPolicy:
    """Build a scheduler policy from an instance or a catalog name."""
    if isinstance(spec, SchedulerPolicy):
        spec.reseed(seed)
        return spec
    if spec in SCHEDULER_CATALOG:
        return SCHEDULER_CATALOG[spec](seed=seed)
    raise ValueError(
        f"unknown scheduler {spec!r} (one of {sorted(SCHEDULER_CATALOG)})"
    )
