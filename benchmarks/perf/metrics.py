"""Metric definitions: what every name in ``BENCHMARK.json`` means.

``end_to_end`` turns a run's repetitions into the four host-time metrics
a user of the stack sees; ``per_layer`` turns one traced repetition into
the ``<layer>.<metric>`` numbers; ``sim_digest`` hashes everything that
is a pure function of the seed.  ``BENCHMARK.json`` is the one list of
names, units, directions and bounds — :func:`declared` reads it and
:func:`conform` rejects a result that does not match it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
from typing import TYPE_CHECKING, Dict, List, Sequence

if TYPE_CHECKING:  # annotations only: compare.py reads this module without repro
    from benchmarks.perf.trace import Tracer, TraceSummary
    from benchmarks.perf.workloads import Outcome

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


class SchemaError(Exception):
    """The result and ``BENCHMARK.json`` disagree (exit code 2)."""


def declared() -> dict:
    """The committed contract: ``BENCHMARK.json`` at the repo root."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (0.0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def sim_digest(out: Outcome) -> str:
    """sha256 over everything the seed alone determines.

    A change meant only to speed the simulator must leave it identical;
    a traced repetition must reproduce the untraced one's.
    """
    payload = {
        "completed": out.completed,
        "sim": out.sim,
        "counts": out.counts,
        "tallies": out.tallies,
        "checks": out.checks,
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


def end_to_end(reps: Sequence[Outcome], rss_mb: float) -> Dict[str, float]:
    """Host-time metrics of one run: medians over its repetitions; the
    median event time is taken over the repetitions' pooled samples."""
    return {
        "setup_s": statistics.median(out.setup_s for out in reps),
        "events_per_s": statistics.median(
            out.completed / out.run_s if out.run_s else 0.0 for out in reps
        ),
        "event_ms_p50": percentile(
            [ms for out in reps for ms in out.event_ms], 0.50
        ),
        "peak_rss_mb": rss_mb,
    }


def per_layer(
    out: Outcome, tracer: Tracer, ts: TraceSummary, untraced: Outcome
) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition (names: README table).

    Counts come from the runner's own result objects and the tracer's
    boundary counters; times from the spans; ``untraced`` is the same
    seed's repetition without shims.  Absent layers read 0.
    """
    untraced_wall_s = untraced.setup_s + untraced.run_s
    m: Dict[str, float] = {}
    m.update(out.sim)
    m.update(out.counts)
    m.update(out.host)
    m.update(tracer.counters)

    def us(names, q):
        return 1e6 * percentile(ts.durations(*names), q)

    m["adversaries.calls"] = ts.busy_calls.get("adversaries", 0)
    m["adversaries.busy_s"] = ts.busy_s.get("adversaries", 0.0)
    m["adversaries.self_s"] = ts.self_s.get("adversaries", 0.0)
    m["churn.gen_calls"] = ts.calls("churn.gen")
    m["churn.gen_busy_s"] = ts.total("churn.gen")

    for layer in ("core", "fgraph"):
        ops = (f"{layer}.insert", f"{layer}.delete")
        m[f"{layer}.build_s"] = ts.total(f"{layer}.build")
        m[f"{layer}.inserts"] = ts.calls(ops[0])
        m[f"{layer}.deletes"] = ts.calls(ops[1])
        m[f"{layer}.busy_s"] = ts.total(*ops)
        m[f"{layer}.us_per_op_p50"] = us(ops, 0.50)
        m[f"{layer}.us_per_op_p99"] = us(ops, 0.99)

    m["baselines.build_s"] = ts.self_by_name.get("baselines.build", 0.0)
    m["baselines.graph_calls"] = ts.calls("healer.graph")
    m["baselines.graph_busy_s"] = ts.total("healer.graph")
    m["baselines.degree_scan_calls"] = ts.calls("healer.degree_scan")
    m["baselines.degree_scan_busy_s"] = ts.total("healer.degree_scan")

    m["graphs.tracker_build_s"] = ts.total("graphs.tracker_build")
    m["graphs.tracker_updates"] = ts.calls("graphs.tracker_update")
    m["graphs.tracker_busy_s"] = ts.total("graphs.tracker_update")
    m["graphs.tracker_us_p50"] = us(("graphs.tracker_update",), 0.50)
    m["graphs.tracker_us_p99"] = us(("graphs.tracker_update",), 0.99)
    m["graphs.sweep_calls"] = ts.calls("graphs.sweep")
    m["graphs.sweep_busy_s"] = ts.total("graphs.sweep")
    m["graphs.connectivity_busy_s"] = ts.total("graphs.is_connected")

    others = sum(s for layer, s in ts.self_s.items() if layer != "harness")
    m["harness.self_s"] = max(0.0, untraced_wall_s - others)
    m["harness.trace_overhead_pct"] = (
        100.0 * (ts.wall_s - untraced_wall_s) / untraced_wall_s
    )
    # Demoted from end-to-end (README "Demoted"): measured untraced.
    m["harness.event_ms_p99"] = percentile(untraced.event_ms, 0.99)

    apply_s = ts.total("simnet.apply")
    m["simnet.mirror_build_s"] = ts.total("simnet.mirror_build")
    m["simnet.apply_calls"] = ts.calls("simnet.apply")
    m["simnet.apply_busy_s"] = apply_s
    m["simnet.apply_ms_p50"] = us(("simnet.apply",), 0.50) / 1e3
    m["simnet.apply_ms_p99"] = us(("simnet.apply",), 0.99) / 1e3
    m["simnet.barrier_apply_busy_s"] = tracer.marked_s("barrier_call", "simnet.apply")
    m["simnet.finish_s"] = ts.total("simnet.finish")
    delivered = m.get("distributed.msgs_delivered", 0)
    m["simnet.us_per_msg"] = (
        1e6 * (apply_s + m["simnet.finish_s"]) / delivered if delivered else 0.0
    )
    m["faults.recover_busy_s"] = ts.total("faults.recover")

    m["audit.certify_s"] = ts.total("audit.certify")
    records = m.get("obs.log_records", 0)
    m["audit.us_per_record"] = (
        1e6 * m["audit.certify_s"] / records if records else 0.0
    )

    m["soak.checkpoint_busy_s"] = ts.total("soak.checkpoint")
    m["soak.checkpoint_ms_p50"] = us(("soak.checkpoint",), 0.50) / 1e3
    m["soak.encode_s"] = ts.total("soak.encode")
    m["soak.service_residual_s"] = ts.self_by_name.get("soak.run", 0.0)
    return m


def conform(
    metrics: Dict[str, float], section: List[dict], fill: bool
) -> Dict[str, dict]:
    """Shape ``metrics`` as the contract's ``{name: {value, unit}}``.

    Nothing undeclared may appear; with ``fill`` a declared metric that
    no layer of this workload produced reads 0, without it every
    declared metric must be present.
    """
    names = {entry["name"] for entry in section}
    wrong = sorted(set(metrics) - names) + (
        [] if fill else sorted(names - set(metrics))
    )
    if wrong:
        raise SchemaError(f"metrics out of step with BENCHMARK.json: {wrong}")
    return {
        entry["name"]: {
            "value": float(metrics.get(entry["name"], 0.0)),
            "unit": entry["unit"],
        }
        for entry in section
    }
