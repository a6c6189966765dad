"""repro — a full reproduction of *The Forgiving Tree* (PODC 2008).

A self-healing distributed data structure: under repeated adversarial node
deletions it keeps every node's degree within +3 of its original degree and
the network diameter within O(log Δ) of the original (Δ = original max
degree), using O(1) messages per node per deletion.

Public entry points
-------------------
:class:`ForgivingTree`
    The sequential reference engine over a tree.
:class:`repro.healers.ForgivingTreeHealer`
    General-graph healer (spanning tree + surviving non-tree edges) with the
    same interface as the baselines.
:mod:`repro.distributed`
    The message-passing implementation (per-node state, wills as messages,
    O(1)-latency heal rounds, full accounting) plus the distributed setup
    phase (BFS spanning tree, Cohen-style size estimation).
:mod:`repro.baselines` / :mod:`repro.adversaries`
    The naive strategies the paper's introduction rules out, and the attack
    strategies that defeat them.
:mod:`repro.guarantees`
    The papers' bounds stated once (degree +3, the Theorem 1.2 diameter
    envelope, message budgets); every checker, test and benchmark
    imports them from here.
:mod:`repro.harness`
    The attack/heal campaign loop, duels and report tables reproducing
    every theorem, figure and claim (printed by the ``EXP-*``
    benchmarks under ``benchmarks/``).
:mod:`repro.churn`
    The churn model (The Forgiving Graph, PODC 2009): node insertions as
    first-class events, recorded traces, and mixed insert/delete
    campaigns (see docs/CHURN.md).
:mod:`repro.fgraph`
    The Forgiving Graph healing structure itself (PODC 2009):
    weight-balanced reconstruction trees over subtree weights for
    degree increase <= 3 *and* O(log n) stretch on general graphs under
    churn, sequential + counted-message distributed runtimes (see
    docs/FORGIVING_GRAPH.md).
:mod:`repro.simnet`
    The async runtime: a discrete-event network kernel (per-link
    latency models, scheduler adversaries, seeded determinism) both
    distributed protocols run on unmodified, plus concurrent churn —
    multiple heals in flight at once, checkpointed by quiesce barriers
    and cross-validated against the sequential engines (see
    docs/ASYNC.md).
:mod:`repro.obs`
    The observability substrate: causal tracing over the async kernel's
    virtual time (Perfetto-loadable Chrome-trace export), streaming
    O(1)-memory metrics, per-phase profilers and a crash flight
    recorder, attached to any campaign via ``obs=`` (see
    docs/OBSERVABILITY.md).
"""

from .core import (
    FlatForgivingTree,
    ForgivingTree,
    HealReport,
    HelperState,
    InvariantViolationError,
    NodeState,
    ReproError,
    SlotTree,
    VirtualTree,
)

from .fgraph import ForgivingGraph

__version__ = "1.1.0"

__all__ = [
    "FlatForgivingTree",
    "ForgivingGraph",
    "ForgivingTree",
    "HealReport",
    "HelperState",
    "InvariantViolationError",
    "NodeState",
    "ReproError",
    "SlotTree",
    "VirtualTree",
    "__version__",
]
