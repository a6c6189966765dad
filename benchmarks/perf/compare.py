"""Compare two result files of the suite: ``compare.py A.json B.json``.

One row per (workload, metric) with both medians, the bound fixed in
``BENCHMARK.json`` and a verdict for B against A:

* ``same`` / ``worse`` / ``better`` — B's median is within the bound of
  A's, or beyond it in the bad or the good direction;
* ``unresolved`` — the run-to-run spread of either side is wider than
  the bound *and* the two sides' runs interleave, so the sets cannot
  tell (never reported as "unchanged");
* simulated metrics (``sim.*``) and ``sim_digest`` are functions of the
  seed: bound 0, any difference is ``worse``/``better``/``differs``.

This is the tool behind "two sets of runs of one commit agree" and behind
every later claim (A = parent, B = change).  ``--layers`` adds the
per-layer metrics of the traced runs as ``info`` rows (no bound).
Exit code 1 when any row is ``worse`` or ``differs``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

if __name__ == "__main__":
    sys.path[0] = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from benchmarks.perf.metrics import declared  # noqa: E402


def spread_of(cell: dict) -> float:
    """Run-to-run spread as a share of the median (full range: the sets
    hold a handful of runs, too few for quartiles)."""
    return (cell["max"] - cell["min"]) / cell["median"] if cell["median"] else 0.0


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    if a["median"] == b["median"]:
        return "same"
    worse_by = sign * (b["median"] - a["median"]) / abs(a["median"] or b["median"])
    interleave = a["min"] <= b["max"] and b["min"] <= a["max"]
    if max(spread_of(a), spread_of(b)) > bound and interleave:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    return "better" if worse_by < -bound else "same"


def exact(a: float, b: float, better: str) -> str:
    if a == b:
        return "same"
    return "better" if (b < a) == (better == "lower") else "worse"


def compare(a: dict, b: dict, layers: bool = False) -> list:
    """Rows ``(workload, metric, a, b, bound, verdict)``."""
    spec = declared()
    rows = []
    direction = {m["name"]: m["better"] for m in spec["per_layer"]}
    for name in a["workloads"]:
        wa, wb = a["workloads"][name], b["workloads"].get(name)
        if wb is None:
            rows.append((name, "(workload)", "present", "missing", "", "differs"))
            continue
        for metric in spec["end_to_end"]:
            ca, cb = wa["end_to_end"][metric["name"]], wb["end_to_end"][metric["name"]]
            rows.append((
                name, metric["name"], ca["median"], cb["median"], metric["bound"],
                verdict(ca, cb, metric["better"], metric["bound"]),
            ))
        rows.append((
            name, "failed_events", wa["failed_events"], wb["failed_events"], 0,
            exact(wa["failed_events"], wb["failed_events"], "lower"),
        ))
        for metric in sorted(set(wa["sim"]) | set(wb["sim"])):
            va, vb = wa["sim"].get(metric, 0.0), wb["sim"].get(metric, 0.0)
            rows.append((name, metric, va, vb, 0, exact(va, vb, direction[metric])))
        rows.append((
            name, "sim_digest", wa["sim_digest"][:12], wb["sim_digest"][:12], 0,
            "same" if wa["sim_digest"] == wb["sim_digest"] else "differs",
        ))
        if layers:
            for metric, va in wa.get("per_layer", {}).items():
                vb = wb.get("per_layer", {}).get(metric, 0.0)
                if not metric.startswith("sim.") and (va or vb):
                    rows.append((name, metric, va, vb, "", "info"))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--layers", action="store_true")
    args = parser.parse_args(argv)
    with open(args.a) as fa, open(args.b) as fb:
        rows = compare(json.load(fa), json.load(fb), args.layers)

    def fmt(v):
        return f"{v:.6g}" if isinstance(v, float) else str(v)

    print(f"{'workload':15s} {'metric':32s} {'A':>14s} {'B':>14s} {'bound':>6s}  verdict")
    for workload, metric, va, vb, bound, word in rows:
        print(f"{workload:15s} {metric:32s} {fmt(va):>14s} {fmt(vb):>14s} "
              f"{fmt(bound):>6s}  {word}")
    bad = [r for r in rows if r[5] in ("worse", "differs")]
    unresolved = [r for r in rows if r[5] == "unresolved"]
    print(f"\n{len(rows)} rows: {len(bad)} worse/differs, {len(unresolved)} unresolved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
