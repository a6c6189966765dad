"""Traced pass: in-memory spans around every layer's public calls.

The benchmark measures end-to-end numbers with tracing off.  A separate
traced run installs timing shims — from here, never from ``src/`` — on
the public methods the production runners call into each layer
(:func:`build_shims`), runs the *same* entry point again, and attributes the
wall clock layer by layer.  A span is ``(name, start, end, parent,
event index)``; a layer's self time is its spans' durations minus the
part their child spans cover, so the layers partition the traced wall.

The shims are installed on the classes (and, for plain functions, on
every ``repro`` module namespace that imported them), so objects the
runners construct internally (``TransportMirror``, the soak's healer,
tracker and ``SnapshotStore``) are traced without re-implementing the
runner's loop: the traced program *is* the production program, and the
run is only accepted when its ``sim_digest`` equals the untraced one.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

_now = time.perf_counter_ns

#: Span record layout (lists, mutated in place when the span closes).
NAME, START, END, PARENT, EVENT = range(5)


class Tracer:
    """Span store + shim factory for one traced repetition."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.names: List[Tuple[str, str]] = []  # id -> (span name, layer)
        self._ids: Dict[str, int] = {}
        self._stack: List[int] = []
        #: Index of the campaign event in progress (advanced by the
        #: probe's ``on_round`` / the soak generator shim).
        self.event = 0
        #: Counts made at the same boundaries as the spans.
        self.counters: Dict[str, float] = {}
        #: Span indices flagged by an ``after`` hook (e.g. barrier applies).
        self.marks: Dict[str, List[int]] = {}

    def _name_id(self, name: str, layer: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append((name, layer))
        return self._ids[name]

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def shim(
        self,
        fn: Callable,
        name: str,
        layer: str,
        after: Optional[Callable] = None,
    ) -> Callable:
        """Wrap ``fn`` so every call records one span.

        ``after(tracer, span_index, args, result)`` runs outside the span
        (its cost lands in the parent), for counts taken at the boundary.
        A call made directly from a span of the same name is that same
        operation delegating to itself (``insert`` -> ``insert_batch``)
        and records nothing.
        """
        nid = self._name_id(name, layer)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][NAME] == nid:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [nid, 0, 0, stack[-1] if stack else -1, self.event]
            spans.append(span)
            stack.append(idx)
            span[START] = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = _now()
                stack.pop()
            if after is not None:
                after(self, idx, args, result)
            return result

        return traced

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[None]:
        """An explicit span (the root, and the benchmark's own calls)."""
        idx = len(self.spans)
        span = [self._name_id(name, layer), 0, 0,
                self._stack[-1] if self._stack else -1, self.event]
        self.spans.append(span)
        self._stack.append(idx)
        span[START] = _now()
        try:
            yield
        finally:
            span[END] = _now()
            self._stack.pop()

    @contextmanager
    def installed(self, shims) -> Iterator[None]:
        """Install ``shims`` (see :func:`build_shims`), restore on exit."""
        undo: List[Tuple[object, str, object]] = []
        try:
            for owner, attr, layer, name, *after in shims:
                original = (
                    owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr)
                )
                wrapped = self.shim(original, name, layer, *after)
                if isinstance(owner, type):
                    undo.append((owner, attr, original))
                    setattr(owner, attr, wrapped)
                else:
                    # A plain function: callers did ``from x import f``, so
                    # replace every reference the package holds.
                    for module in list(sys.modules.values()):
                        if getattr(module, "__name__", "").startswith("repro") and (
                            getattr(module, attr, None) is original
                        ):
                            undo.append((module, attr, original))
                            setattr(module, attr, wrapped)
            yield
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    # -- aggregation -------------------------------------------------------
    def aggregate(self) -> "TraceSummary":
        """Self times, per-name and per-layer totals (seconds)."""
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} span(s) still open")
        spans = self.spans
        n = len(spans)
        child_ns = [0] * n
        for span in spans:
            if span[PARENT] >= 0:
                child_ns[span[PARENT]] += span[END] - span[START]
        layers = sorted({layer for _, layer in self.names})
        bit = {layer: 1 << i for i, layer in enumerate(layers)}
        above = [0] * n  # bitmask of the layers of a span's ancestors
        by_name: Dict[str, List[float]] = {name: [] for name, _ in self.names}
        self_by_name = dict.fromkeys(by_name, 0.0)
        self_s = dict.fromkeys(layers, 0.0)
        busy_s = dict.fromkeys(layers, 0.0)
        busy_calls = dict.fromkeys(layers, 0)
        for i, span in enumerate(spans):
            name, layer = self.names[span[NAME]]
            dur = span[END] - span[START]
            parent = span[PARENT]
            if parent >= 0:
                above[i] = above[parent] | bit[self.names[spans[parent][NAME]][1]]
            by_name[name].append(dur / 1e9)
            self_by_name[name] += (dur - child_ns[i]) / 1e9
            self_s[layer] += (dur - child_ns[i]) / 1e9
            if not above[i] & bit[layer]:  # outermost span of its layer
                busy_s[layer] += dur / 1e9
                busy_calls[layer] += 1
        wall = sum(s[END] - s[START] for s in spans if s[PARENT] < 0) / 1e9
        return TraceSummary(by_name, self_by_name, self_s, busy_s, busy_calls, wall)

    def marked_s(self, mark: str, name: str) -> float:
        """Total duration of the spans called ``name`` flagged ``mark``."""
        nid = self._ids.get(name)
        return sum(
            (self.spans[i][END] - self.spans[i][START]) / 1e9
            for i in self.marks.get(mark, ())
            if self.spans[i][NAME] == nid
        )

    def dump(self, path: str, **header) -> None:
        """Write every span and counter (compact rows, one JSON file)."""
        with open(path, "w") as fh:
            json.dump(
                {
                    **header,
                    "columns": ["name_id", "start_ns", "end_ns", "parent", "event"],
                    "names": [{"name": n, "layer": l} for n, l in self.names],
                    "counters": self.counters,
                    "marks": self.marks,
                    "spans": self.spans,
                },
                fh,
                separators=(",", ":"),
            )


class TraceSummary:
    """What :meth:`Tracer.aggregate` computed (all times in seconds)."""

    def __init__(self, by_name, self_by_name, self_s, busy_s, busy_calls, wall_s):
        self.by_name: Dict[str, List[float]] = by_name  # span durations
        self.self_by_name: Dict[str, float] = self_by_name
        self.self_s: Dict[str, float] = self_s  # per layer
        self.busy_s: Dict[str, float] = busy_s  # per layer, outermost spans
        self.busy_calls: Dict[str, int] = busy_calls
        self.wall_s: float = wall_s

    def calls(self, *names: str) -> int:
        return sum(len(self.by_name.get(n, ())) for n in names)

    def total(self, *names: str) -> float:
        return sum(sum(self.by_name.get(n, ())) for n in names)

    def durations(self, *names: str) -> List[float]:
        return [d for n in names for d in self.by_name.get(n, ())]


# -- boundary counts ---------------------------------------------------------
def _count_edges(tracer: Tracer, idx, args, report) -> None:
    tracer.count("core.edges_added", len(report.edges_added))


def _count_bytes(tracer: Tracer, idx, args, blob) -> None:
    tracer.count("soak.snapshot_bytes", len(blob))


def _tick_event(tracer: Tracer, idx, args, event) -> None:
    tracer.event += 1


def _mirror_call(tracer: Tracer, idx, args, result) -> None:
    """Follow the mirror's public barrier counter; flag the calls during
    which it advanced."""
    barriers = args[0].barriers
    if barriers != tracer.counters.get("simnet.barriers", 0):
        tracer.counters["simnet.barriers"] = barriers
        tracer.marks.setdefault("barrier_call", []).append(idx)


def _scan_integrity(tracer: Tracer, idx, args, summary) -> None:
    scan = getattr(args[0].driver, "integrity_violations", None)
    if scan is not None:
        with tracer.span("distributed.integrity_scan", "distributed"):
            tracer.counters["distributed.integrity_violations"] = len(scan())
    _mirror_call(tracer, idx, args, summary)


def build_shims():
    """The layer boundaries: ``(owner, attr, layer, span name[, after])``.

    Imported lazily so that importing this module needs no ``repro``.
    """
    from repro.adversaries import churn as adv_churn, simple as adv_simple
    from repro.audit.certify import AuditInputs
    from repro.baselines.base import Healer
    from repro.baselines.forgiving import ForgivingTreeHealer
    from repro.churn.generator import TraceGenerator
    from repro.core.flat_tree import FlatForgivingTree
    from repro.fgraph.engine import ForgivingGraph
    from repro.fgraph.healer import ForgivingGraphHealer
    from repro.graphs import adjacency, metrics
    from repro.graphs.incremental import DynamicTreeMetrics
    from repro.simnet.transport import TransportMirror
    from repro.soak import checkpoint
    from repro.soak.service import SoakService

    shims = [
        (adv_churn.RandomChurnAdversary, "next_event", "adversaries", "adversary.next_event"),
        (adv_churn.OverlapChurnAdversary, "next_event", "adversaries", "adversary.next_event"),
        (adv_churn.GrowthThenMassacreAdversary, "next_event", "adversaries", "adversary.next_event"),
        (adv_simple.MaxDegreeAdversary, "choose", "adversaries", "adversary.choose"),
        (TraceGenerator, "next", "churn", "churn.gen", _tick_event),
        (FlatForgivingTree, "__init__", "core", "core.build"),
        (FlatForgivingTree, "insert", "core", "core.insert", _count_edges),
        (FlatForgivingTree, "insert_batch", "core", "core.insert", _count_edges),
        (FlatForgivingTree, "delete", "core", "core.delete", _count_edges),
        (ForgivingTreeHealer, "__init__", "baselines", "baselines.build"),
        (ForgivingGraphHealer, "__init__", "baselines", "baselines.build"),
        (ForgivingTreeHealer, "insert", "baselines", "healer.insert"),
        (ForgivingTreeHealer, "insert_batch", "baselines", "healer.insert"),
        (ForgivingTreeHealer, "delete", "baselines", "healer.delete"),
        (ForgivingGraphHealer, "insert", "baselines", "healer.insert"),
        (ForgivingGraphHealer, "insert_batch", "baselines", "healer.insert"),
        (ForgivingGraphHealer, "delete", "baselines", "healer.delete"),
        (ForgivingTreeHealer, "graph", "baselines", "healer.graph"),
        (ForgivingTreeHealer, "tree_overlay", "baselines", "healer.graph"),
        (ForgivingGraphHealer, "graph", "baselines", "healer.graph"),
        (Healer, "max_degree_increase", "baselines", "healer.degree_scan"),
        (ForgivingGraph, "__init__", "fgraph", "fgraph.build"),
        (ForgivingGraph, "insert", "fgraph", "fgraph.insert"),
        (ForgivingGraph, "insert_batch", "fgraph", "fgraph.insert"),
        (ForgivingGraph, "delete", "fgraph", "fgraph.delete"),
        (DynamicTreeMetrics, "__init__", "graphs", "graphs.tracker_build"),
        (DynamicTreeMetrics, "apply_report", "graphs", "graphs.tracker_update"),
        (metrics, "diameter_double_sweep", "graphs", "graphs.sweep"),
        (adjacency, "is_connected", "graphs", "graphs.is_connected"),
        (TransportMirror, "__init__", "simnet", "simnet.mirror_build"),
        (TransportMirror, "apply", "simnet", "simnet.apply", _mirror_call),
        (TransportMirror, "finish", "simnet", "simnet.finish", _scan_integrity),
        (TransportMirror, "recover_from_crash", "faults", "faults.recover", _mirror_call),
        (AuditInputs, "certify", "audit", "audit.certify"),
        (SoakService, "run", "soak", "soak.run"),
        (checkpoint.SnapshotStore, "append", "soak", "soak.checkpoint"),
        (checkpoint, "encode_state", "soak", "soak.encode", _count_bytes),
    ]
    return shims
