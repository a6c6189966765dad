"""Region leases: deterministic admission for overlapping heals.

PR 4's async transport admits a churn event concurrently only when its
heal footprint is disjoint from *every* in-flight repair; any overlap
forces a global quiesce barrier.  The :class:`LeaseManager` replaces
that all-or-nothing rule with per-node **leases**: an in-flight heal
holds a lease on every node of its footprint, and a new event acquires
its own footprint's leases before injection.

* **Grant** — no held or earlier-queued lease intersects the request:
  the heal is admitted immediately and flies concurrently with every
  other holder (all holders are pairwise disjoint by construction).
* **Defer** — the request intersects a holder or an earlier waiter: the
  event is queued, *delegated* to the blocking heal's coordinator (see
  :mod:`repro.regions.handoff`), and resumed the moment its blockers
  release.  Unrelated heals keep flying — the serialized path's global
  drain never happens.

Conflict resolution is deterministic and seed-stable: every request
carries a priority ``(virtual time of the triggering event, event id)``
— a strict total order because the transport mirrors the oracle's event
stream in order over a monotone clock.  A waiter is granted exactly when
no conflicting lease is held *and* no conflicting earlier-priority
request is still waiting, so conflicting events are always admitted in
oracle order (the commutativity argument of ``docs/ASYNC.md`` then
applies pairwise to everything admitted concurrently).

Because holders never wait and waiters only ever wait on strictly
earlier priorities, the waits-for relation is acyclic by construction.
:meth:`LeaseManager.find_cycle` still checks — a cycle would mean the
invariant broke, and the transport escalates to a global quiesce barrier
(counted, never silent) rather than deadlocking.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..core.errors import ReproError

#: A request's priority: (virtual time of the triggering event, event id).
#: Tuple comparison gives the deterministic total order the docstring
#: describes — earlier virtual time wins, ties broken by event id.
Priority = Tuple[float, int]


class LeaseError(ReproError):
    """An impossible lease-table state (double grant, unknown id, ...)."""


@dataclass(frozen=True)
class LeaseDecision:
    """What :meth:`LeaseManager.acquire` decided for one request.

    ``granted`` means the leases are held and the heal may inject now.
    Otherwise ``blockers`` names every conflicting event id (held or
    queued ahead), in priority order, and ``delegated_to`` is the
    coordinator of the highest-priority blocking *holder* — the node the
    handoff protocol queues the late event on (``None`` when the head
    blocker is itself still waiting and has no coordinator yet).
    """

    eid: int
    granted: bool
    blockers: Tuple[int, ...] = ()
    delegated_to: Optional[int] = None


@dataclass
class _Waiter:
    eid: int
    footprint: FrozenSet[int]
    priority: Priority
    delegated_to: Optional[int] = None
    #: The waits-for edges, captured at acquire time and crossed off as
    #: blockers release — the structure :meth:`LeaseManager.find_cycle`
    #: audits.  A waiter is grantable exactly when this empties.
    blockers: Set[int] = field(default_factory=set)


class LeaseManager:
    """Per-node lease table with deterministic priority admission.

    The manager is transport-agnostic bookkeeping: it never touches the
    network.  The caller (:class:`~repro.regions.admission.LeaseAdmission`)
    reads the clock, is handed footprints computed from the oracle's
    reports, injects granted heals, and releases leases when the kernel
    reports the heal quiesced.
    """

    def __init__(self, profiler=None, metrics=None) -> None:
        self._held: Dict[int, FrozenSet[int]] = {}
        self._coordinator: Dict[int, Optional[int]] = {}
        self._waiting: List[_Waiter] = []
        self._priority: Dict[int, Priority] = {}
        # Optional observability instruments (repro.obs): a PhaseProfiler
        # timing the grant cascade and a MetricsRegistry streaming the
        # admission counters.  Both default off and cost one None-check.
        self.profiler = profiler
        self.metrics = metrics

    # -- queries -----------------------------------------------------------
    def holders(self) -> List[int]:
        """Event ids currently holding leases (in priority order)."""
        return sorted(self._held, key=lambda e: self._priority[e])

    def waiters(self) -> List[int]:
        """Event ids queued for leases (in priority order)."""
        return [w.eid for w in self._waiting]

    def held_nodes(self) -> Set[int]:
        """Every node currently under a lease."""
        out: Set[int] = set()
        for fp in self._held.values():
            out |= fp
        return out

    def coordinator_of(self, eid: int) -> Optional[int]:
        """The heal's coordinator (holders: set at injection; waiters:
        their delegation target)."""
        if eid in self._coordinator:
            return self._coordinator[eid]
        for w in self._waiting:
            if w.eid == eid:
                return w.delegated_to
        raise LeaseError(f"unknown lease id {eid}")

    def coordinators(self) -> Set[int]:
        """Every node currently anchoring a heal or a handoff queue."""
        out = {c for c in self._coordinator.values() if c is not None}
        out |= {w.delegated_to for w in self._waiting if w.delegated_to is not None}
        return out

    def blockers_of(self, eid: int) -> Tuple[int, ...]:
        """Current blockers of a waiting event (empty for holders)."""
        if eid in self._held:
            return ()
        for w in self._waiting:
            if w.eid == eid:
                return tuple(sorted(w.blockers, key=lambda b: self._priority[b]))
        raise LeaseError(f"unknown lease id {eid}")

    def wait_chain_depth(self) -> int:
        """Longest blocking chain among queued waiters.

        Depth 1 = a waiter blocked only by holders; each additional link
        is a waiter blocked by another waiter.  The transport escalates
        when this exceeds its ``max_wait_chain`` — a convoy that deep
        means the lease path has degenerated into a serial queue and the
        global barrier bounds its staleness.
        """
        depth: Dict[int, int] = {}
        for w in self._waiting:  # priority order: blockers come first
            blocked_on_waiters = [depth[b] for b in w.blockers if b in depth]
            depth[w.eid] = 1 + max(blocked_on_waiters, default=0)
        return max(depth.values(), default=0)

    def find_cycle(self) -> Optional[List[int]]:
        """A waits-for cycle among the stored blocker edges, or None.

        Structurally unreachable (waiters only ever capture strictly
        earlier priorities as blockers, and holders never wait) — audited
        anyway so a broken invariant escalates loudly instead of
        deadlocking silently.
        """
        edges = {
            w.eid: [b for b in w.blockers if b not in self._held]
            for w in self._waiting
        }
        state: Dict[int, int] = {}  # 1 = on stack, 2 = done

        def visit(eid: int, trail: List[int]) -> Optional[List[int]]:
            state[eid] = 1
            trail.append(eid)
            for nxt in edges.get(eid, ()):
                if state.get(nxt) == 1:
                    return trail[trail.index(nxt):] + [nxt]
                if state.get(nxt) is None:
                    found = visit(nxt, trail)
                    if found:
                        return found
            trail.pop()
            state[eid] = 2
            return None

        for eid in edges:
            if state.get(eid) is None:
                found = visit(eid, [])
                if found:
                    return found
        return None

    # -- the protocol ------------------------------------------------------
    def acquire(
        self,
        eid: int,
        footprint: Sequence[int],
        priority: Priority,
        coordinator: Optional[int] = None,
    ) -> LeaseDecision:
        """Request leases on ``footprint`` for event ``eid``.

        ``coordinator`` is recorded for an immediate grant (the heal's
        own coordinator, used for delegation and the coordinator-death
        escalation check).  Returns the :class:`LeaseDecision`.
        """
        if eid in self._held or eid in self._priority:
            raise LeaseError(f"lease id {eid} already active")
        fp = frozenset(footprint)
        if self.metrics is not None:
            self.metrics.counter("lease.requests").inc()
            self.metrics.histogram("lease.footprint").observe(len(fp))
        blockers = self._blockers(fp, priority)
        if not blockers:
            self._grant(eid, fp, priority, coordinator)
            if self.metrics is not None:
                self.metrics.counter("lease.grants").inc()
            return LeaseDecision(eid=eid, granted=True)
        head = blockers[0]
        delegated = (
            self._coordinator.get(head)
            if head in self._held
            else next(w.delegated_to for w in self._waiting if w.eid == head)
        )
        self._waiting.append(
            _Waiter(
                eid=eid,
                footprint=fp,
                priority=priority,
                delegated_to=delegated,
                blockers=set(blockers),
            )
        )
        self._waiting.sort(key=lambda w: w.priority)
        self._priority[eid] = priority
        if self.metrics is not None:
            self.metrics.counter("lease.defers").inc()
            self.metrics.gauge("lease.waiting").set(len(self._waiting))
        return LeaseDecision(
            eid=eid, granted=False, blockers=blockers, delegated_to=delegated
        )

    def release(self, eid: int) -> List[int]:
        """The heal quiesced: free its leases and admit what unblocks.

        Crosses ``eid`` off every waiter's blocker set; a waiter whose
        set empties is granted.  Returns the newly granted event ids
        **in priority order**; the caller must inject them in that order
        (their leases are already held).  A release can cascade nothing
        (the freed region is uncontended) or several waiters at once
        (disjoint waiters behind the same holder all resume together).
        """
        if eid not in self._held:
            raise LeaseError(f"release of non-held lease id {eid}")
        del self._held[eid]
        del self._coordinator[eid]
        del self._priority[eid]
        for w in self._waiting:
            w.blockers.discard(eid)
        return self._grant_unblocked()

    def withdraw(self, eid: int) -> List[int]:
        """Remove a *waiting* request (its handoff escalated: the event
        will re-acquire against an empty table after the barrier).

        Only the newest request can meaningfully withdraw — nothing can
        block on the highest priority — but later waiters' blocker sets
        are swept anyway, and any waiter that empties is granted through
        the same cascade a release runs (returned in priority order), so
        no waiter is ever stranded with nothing to wait on.
        """
        for i, w in enumerate(self._waiting):
            if w.eid == eid:
                del self._waiting[i]
                del self._priority[eid]
                for other in self._waiting:
                    other.blockers.discard(eid)
                return self._grant_unblocked()
        raise LeaseError(f"withdraw of non-waiting lease id {eid}")

    def _grant_unblocked(self) -> List[int]:
        """Grant every waiter whose blocker set emptied (priority order)."""
        if self.profiler is None:
            return self._grant_unblocked_inner()
        t0 = time.perf_counter_ns()
        granted = self._grant_unblocked_inner()
        self.profiler.add("lease:cascade", time.perf_counter_ns() - t0)
        return granted

    def _grant_unblocked_inner(self) -> List[int]:
        granted: List[int] = []
        still_waiting: List[_Waiter] = []
        for w in self._waiting:  # priority order
            if not w.blockers:
                # Defensive re-check: under the transport's monotone
                # priorities an empty blocker set implies disjointness
                # from every holder, but a direct API user may acquire
                # out of priority order — refill instead of granting a
                # conflicting lease.
                conflicts = {
                    held_eid
                    for held_eid, held_fp in self._held.items()
                    if w.footprint & held_fp
                }
                if conflicts:
                    w.blockers |= conflicts
                    still_waiting.append(w)
                    continue
                self._grant(w.eid, w.footprint, w.priority, None)
                granted.append(w.eid)
            else:
                still_waiting.append(w)
        self._waiting = still_waiting
        if granted and self.metrics is not None:
            self.metrics.counter("lease.regrants").inc(len(granted))
        return granted

    def set_coordinator(self, eid: int, coordinator: Optional[int]) -> None:
        """Record a held heal's coordinator (known only at injection)."""
        if eid not in self._held:
            raise LeaseError(f"coordinator for non-held lease id {eid}")
        self._coordinator[eid] = coordinator

    def clear(self) -> None:
        """Global barrier: everything drained, all leases void."""
        self._held.clear()
        self._coordinator.clear()
        self._waiting.clear()
        self._priority.clear()

    # -- internals ---------------------------------------------------------
    def _blockers(self, fp: FrozenSet[int], priority: Priority) -> Tuple[int, ...]:
        out = [
            (self._priority[eid], eid)
            for eid, held_fp in self._held.items()
            if fp & held_fp
        ]
        out += [
            (w.priority, w.eid)
            for w in self._waiting
            if w.priority < priority and (w.footprint & fp)
        ]
        return tuple(eid for _, eid in sorted(out))

    def _grant(
        self,
        eid: int,
        fp: FrozenSet[int],
        priority: Priority,
        coordinator: Optional[int],
    ) -> None:
        self._held[eid] = fp
        self._coordinator[eid] = coordinator
        self._priority[eid] = priority

    # -- validation (tests) ------------------------------------------------
    def check(self) -> None:
        """Invariants: holders pairwise disjoint, queue priority-sorted,
        waits-for acyclic.  Raises :class:`LeaseError` on violation."""
        held = list(self._held.items())
        for i, (ea, fa) in enumerate(held):
            for eb, fb in held[i + 1:]:
                if fa & fb:
                    raise LeaseError(
                        f"holders {ea} and {eb} share nodes {sorted(fa & fb)[:4]}"
                    )
        priorities = [w.priority for w in self._waiting]
        if priorities != sorted(priorities):
            raise LeaseError("wait queue out of priority order")
        live = set(self._held) | {w.eid for w in self._waiting}
        for w in self._waiting:
            if not w.blockers:
                raise LeaseError(f"waiter {w.eid} has no blockers yet waits")
            dangling = w.blockers - live
            if dangling:
                raise LeaseError(
                    f"waiter {w.eid} blocked on released ids {sorted(dangling)}"
                )
        cycle = self.find_cycle()
        if cycle:
            raise LeaseError(f"waits-for cycle {cycle}")
