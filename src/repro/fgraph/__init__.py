"""The Forgiving Graph subsystem (PODC 2009).

The source paper's 2009 follow-up — *"The Forgiving Graph: a distributed
data structure for low stretch under adversarial attack"* (Hayes, Saia,
Trehan) — replaces the Forgiving Tree's fixed reconstruction trees with
**half-full trees merged like binary numbers**, guaranteeing both an
additive degree increase of at most 3 *and* ``O(log n)`` stretch on
general graphs under arbitrary insert/delete churn.

* :class:`ReconstructionTree` — the half-full tree (haft) of one healed
  region: complete trees per 1-bit of its size on a right spine, the
  in-order-predecessor simulator assignment, and the two in-place
  operations (``remove``, binary-addition ``merge``).
* :class:`ForgivingGraph` — the sequential healing engine (in-place haft
  updates, O(log L) changed helpers per heal, synthesized message
  tallies).
* :class:`ForgivingGraphHealer` — the engine behind the shared
  :class:`~repro.baselines.base.Healer` interface, registered in the
  baselines catalog.
* :class:`DistributedForgivingGraph` — the counted-message runtime; its
  per-node tallies match the sequential engine's exactly (tests
  cross-check node-for-node).

See ``docs/FORGIVING_GRAPH.md`` for the algorithm walkthrough and the
FT-vs-FG comparison.
"""

from .distributed import DistributedForgivingGraph
from .engine import ForgivingGraph
from .healer import ForgivingGraphHealer
from .rtree import ReconstructionTree

__all__ = [
    "DistributedForgivingGraph",
    "ForgivingGraph",
    "ForgivingGraphHealer",
    "ReconstructionTree",
]
