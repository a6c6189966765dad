"""The repair pass: detect and heal arbitrarily corrupted overlay state.

A crash mid-heal (or any externally inflicted corruption) leaves the
distributed image in states the protocols never produce on their own:
survivors whose local state names a dead node (**dangling pointers** —
the paper's processors announce their own death, crashed ones don't),
heals frozen halfway because the messages that would finish them died
with their sender (**half-applied heals**), edges only one endpoint
claims (**asymmetric claims**), and, after enough damage, islands of
nodes with no symmetric path to the rest (**orphaned fragments**).

:class:`RepairPass` is the self-stabilizing recovery in the Bampas et
al. sense (PAPERS.md: starting from an *arbitrary* configuration, the
system re-converges to a legal one): :meth:`scan` detects every
violation class in one pass of two halves — the driver shell's
``integrity_violations()`` (half-applied heals and dangling pointers,
read off every node's ``pending`` / ``pointer_refs()``; the one such
loop in the repo, :class:`~repro.distributed.driver.ProtocolDriver`'s)
and this module's tolerant claim walk (asymmetric claims and orphaned
fragments, off ``neighbor_claims()``) — and :meth:`run` re-converges the
image by
**reset-replay** — the caller rebuilds a fresh driver from the
campaign's initial graph and oracle history (the transport mirror owns
that; see :meth:`TransportMirror.recover_from_crash`), and the pass
certifies the rebuilt overlay scans clean.  Replay, rather than local
state surgery, is what makes the recovered runtime's *future* heals
keep exact message/image parity with the oracle: heal outcomes depend
on will/helper history, not just the current image.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

#: Violation classes a scan may report (the docs' taxonomy).
VIOLATION_KINDS = (
    "half-applied-heal",
    "dangling-pointer",
    "asymmetric-claim",
    "orphaned-fragment",
)


@dataclass(frozen=True)
class Violation:
    """One corrupted-state finding: what, where, and the evidence."""

    kind: str
    node: int
    detail: str

    def __post_init__(self) -> None:
        if self.kind not in VIOLATION_KINDS:
            raise ValueError(
                f"unknown violation kind {self.kind!r} "
                f"(one of {VIOLATION_KINDS})"
            )


@dataclass
class RepairReport:
    """One repair pass: what the scan found, and whether rebuild cured it."""

    violations: Tuple[Violation, ...]
    residual: Tuple[Violation, ...] = ()
    victim: Optional[int] = None

    @property
    def repaired(self) -> bool:
        return not self.residual

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for v in self.violations:
            out[v.kind] = out.get(v.kind, 0) + 1
        return out


class RepairPass:
    """Scan a distributed driver's overlay for corruption; certify repair.

    Works on any :class:`~repro.distributed.driver.ProtocolDriver` —
    the Forgiving Tree's and the Forgiving Graph's — through the shell's
    ``integrity_violations()`` and the nodes' ``neighbor_claims()``.
    """

    def __init__(self, driver):
        self.driver = driver

    # -- detection -----------------------------------------------------
    def scan(self) -> List[Violation]:
        """Every violation in the current overlay (empty = legal state)."""
        nodes = self.driver.network.nodes
        out = [Violation(*v) for v in self.driver.integrity_violations()]
        out.extend(self._claim_violations(nodes, set(nodes)))
        return out

    def _claim_violations(self, nodes, alive: Set[int]) -> List[Violation]:
        """Asymmetric claims and fragment structure, from local state
        only (a tolerant re-implementation of ``image_edges``, which
        *raises* on the asymmetry this scan must report)."""
        out: List[Violation] = []
        claims: Dict[int, Set[int]] = {
            nid: {c for c in node.neighbor_claims() if c != nid}
            for nid, node in nodes.items()
        }
        symmetric: Dict[int, Set[int]] = {nid: set() for nid in alive}
        for nid in sorted(claims):
            for other in sorted(claims[nid]):
                if other not in alive:
                    continue  # dangling, reported above
                if nid in claims[other]:
                    symmetric[nid].add(other)
                elif nid < other:
                    out.append(
                        Violation(
                            "asymmetric-claim",
                            nid,
                            f"claims {other}, which does not claim back",
                        )
                    )
        out.extend(self._fragments(symmetric))
        return out

    @staticmethod
    def _fragments(symmetric: Dict[int, Set[int]]) -> List[Violation]:
        """Connected components of the symmetric-claim graph beyond the
        first: each is an orphaned fragment (healing restores a single
        connected overlay; fragments can never rejoin on their own)."""
        if not symmetric:
            return []
        seen: Set[int] = set()
        components: List[List[int]] = []
        for start in sorted(symmetric):
            if start in seen:
                continue
            stack, comp = [start], []
            seen.add(start)
            while stack:
                nid = stack.pop()
                comp.append(nid)
                for nxt in symmetric[nid]:
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            components.append(comp)
        # The main component is the largest; every other is orphaned.
        components.sort(key=len, reverse=True)
        return [
            Violation(
                "orphaned-fragment",
                min(comp),
                f"fragment of {len(comp)} node(s) disconnected "
                f"from the main component",
            )
            for comp in components[1:]
        ]

    # -- repair --------------------------------------------------------
    def run(
        self, rebuild: Callable[[], object], victim: Optional[int] = None
    ) -> RepairReport:
        """Scan, rebuild via ``rebuild()``, certify the result scans clean.

        ``rebuild`` returns the re-converged driver (reset-replay from
        the initial graph and the oracle's event history); the pass
        re-scans it and reports residual violations — an honestly failed
        repair is a report with ``repaired=False``, never a silent pass.
        """
        violations = tuple(self.scan())
        repaired = rebuild()
        if repaired is not None:
            self.driver = repaired
        residual = tuple(self.scan())
        return RepairReport(
            violations=violations, residual=residual, victim=victim
        )
