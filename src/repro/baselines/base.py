"""The self-healing interface shared by the Forgiving Tree and baselines.

The paper's Delete and Repair Model (Model 2.1): an adversary deletes one
node per round; the Player responds by adding (and possibly dropping) edges.
A :class:`Healer` encapsulates one Player strategy.  All healers operate on
general connected graphs and expose the same success metrics so the harness
can compare them head-to-head:

* ``max_degree_increase()`` — Model 2.1 metric 1,
* the current healed graph for diameter stretch — metric 2,
* per-round :class:`~repro.core.events.HealReport` for communication.

The healed graph ``G_t`` has two accessors.  :meth:`Healer.view` is what
everything that *looks* once per round reads — adversaries, the degree
metric, the diameter sweep, the transport mirror's footprints: a live,
read-only adjacency the catalog healers keep up in O(|delta|) per event
(:class:`~repro.graphs.view.OverlayView`), built the first time anyone
looks and never if nobody does.  :meth:`Healer.graph` is the copying
accessor: a fresh, caller-owned adjacency, O(n) per call.  The rule:
**read** ``view()``, **never mutate it**, and do not hold it across an
event; call ``graph()`` when you need your own copy.
"""

from __future__ import annotations

import abc
from typing import Collection, Mapping, Set

from ..core.errors import DuplicateNodeError, NodeNotFoundError, SimulationOverError
from ..core.events import HealReport, normalize_wave
from ..graphs.adjacency import Graph, copy as copy_graph, degrees


class Healer(abc.ABC):
    """A Player strategy in the Delete and Repair game."""

    #: short machine name used in benchmark tables
    name: str = "abstract"

    def __init__(self, graph: Graph):
        self._initial = copy_graph(graph)
        self._original_degree = degrees(graph)
        self.rounds = 0

    # -- interface ------------------------------------------------------
    @abc.abstractmethod
    def delete(self, nid: int) -> HealReport:
        """Adversary deletes ``nid``; repair and report."""

    @abc.abstractmethod
    def insert(self, nid: int, attach_to: int) -> HealReport:
        """A new node ``nid`` joins attached to live ``attach_to``
        (churn model).  The demanded edge raises both endpoints'
        baseline degrees — the Forgiving Graph's *ideal graph*
        convention — so degree increase keeps measuring only
        heal-induced edges."""

    def insert_batch(self, joiners) -> HealReport:
        """A wave of ``(nid, attach_to)`` joiners lands in one round.

        Default implementation: validate the whole wave up front (so a
        rejected wave leaves no partial state — the same atomicity the
        engines give), then apply the inserts sequentially and merge the
        reports; the wave still counts as a single round.  Engines with
        will machinery override this to amortize the rebuild cost across
        the wave.  Wave semantics are shared by every healer: attachment
        points must be alive *before* the wave — a joiner may not attach
        to another joiner of the same wave — and ids are never reused.
        """
        wave = normalize_wave(
            joiners, known_ids=self._original_degree, alive=self.alive
        )
        reports = [self.insert(nid, attach_to) for nid, attach_to in wave]
        self.rounds -= len(wave) - 1  # one wave = one round
        return HealReport.of_wave(wave, reports)

    @abc.abstractmethod
    def graph(self) -> Graph:
        """Current healed network: a fresh adjacency the caller owns."""

    def view(self) -> Mapping[int, Collection[int]]:
        """Current healed network, to be read and not kept.

        ``node -> neighbours`` of exactly what :meth:`graph` would
        return, without the copy: the catalog healers answer with their
        own maintained adjacency, which the next event changes in place.
        A healer that maintains none inherits this default: a fresh
        :meth:`graph` per look, O(n).
        """
        return self.graph()

    @property
    @abc.abstractmethod
    def alive(self) -> Set[int]:
        """Surviving node ids."""

    # -- shared metrics ---------------------------------------------------
    @property
    def initial_graph(self) -> Graph:
        return copy_graph(self._initial)

    @property
    def known_ids(self) -> Set[int]:
        """Every id ever seen (initial or inserted, alive or dead).

        Ids are never reused, so fresh-id allocation must range above
        this set, not just above the currently alive one."""
        return set(self._original_degree)

    def original_degree(self, nid: int) -> int:
        return self._original_degree[nid]

    def degree_increase(self, nid: int) -> int:
        g = self.view()
        if nid not in g:
            raise NodeNotFoundError(nid, "degree_increase")
        return len(g[nid]) - self._original_degree[nid]

    def max_degree_increase(self) -> int:
        g = self.view()
        if not g:
            return 0
        return max(len(s) - self._original_degree[n] for n, s in g.items())

    def _pre_delete(self, nid: int) -> None:
        if not self.alive:
            raise SimulationOverError("all nodes already deleted")
        if nid not in self.alive:
            raise NodeNotFoundError(nid, "delete")
        self.rounds += 1

    def _pre_insert(self, nid: int, attach_to: int) -> None:
        if nid in self._original_degree:  # ids are never reused
            raise DuplicateNodeError(nid)
        if attach_to not in self.alive:
            raise NodeNotFoundError(attach_to, "insert attach point")
        self.rounds += 1
