"""The repo's one performance benchmark.

One run of one workload (what ``BENCHMARK.json``'s ``command`` invokes)::

    python3 benchmarks/perf/run.py --workload churn_tree --seed 3 --seconds 10 --trace 0

repeats the seeded workload in this process until ``--seconds`` have
passed (at least three repetitions), checks the outputs, prints every
metric by name with its unit, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics, measured with tracing off; ``--trace 1``
alternates untraced and traced repetitions and reports the per-layer
metrics (and writes the spans to ``benchmarks/perf/out/``).

Without ``--workload`` it runs the whole suite: every workload, each run
in its own fresh subprocess, workloads interleaved round-robin,
``--reps`` runs each, then one traced run each; medians with min/max go
to a result file ``compare.py`` reads.

Exit code: 0 on success, 1 on a failed output check, 2 on a contract or
schema error — never on a slow number.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
if __name__ == "__main__":
    # Script mode: resolve ``benchmarks.perf`` and ``repro`` from the
    # checkout, not from this directory (whose ``trace.py`` would
    # otherwise shadow the standard library's).
    sys.path[0] = ROOT
    sys.path.insert(1, os.path.join(ROOT, "src"))

from benchmarks.perf import metrics as M  # noqa: E402
from benchmarks.perf.trace import Tracer, build_shims  # noqa: E402
from benchmarks.perf.workloads import OUT_DIR, WORKLOADS, Outcome, Probe  # noqa: E402

DETAIL = "#detail "


# -- one run of one workload -------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool):
    """Repeat one workload for ``seconds``; return ``(result, detail)``.

    ``result`` is the contract's last-line object; ``detail`` carries
    what the suite and ``compare.py`` additionally need (digest, exact
    simulated metrics, failed checks, per-repetition walls).
    """
    spec = M.declared()
    workload = WORKLOADS[name]
    sizes = workload.quick if quick else workload.full
    # A median needs three repetitions; a traced run needs one pair.
    min_reps = 1 if (quick or trace) else 3
    shims = build_shims() if trace else ()
    reps: list[Outcome] = []
    layer_rows: list[dict] = []
    failures: list[str] = []
    tracer = ts = None
    rss_mb = 0.0
    start = time.perf_counter()
    while len(reps) < min_reps or time.perf_counter() - start < seconds:
        gc.collect()
        out = workload.run(seed, Probe(), **sizes)
        if not reps:
            # Peak RSS of the first repetition: a fresh process, no heap
            # carried over from an earlier repetition.
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        reps.append(out)
        if trace and out.error is None:
            tracer = None  # drop the previous repetition's spans first
            gc.collect()
            tracer = Tracer()
            traced = workload.run(seed, Probe(tracer, shims), **sizes)
            ts = tracer.aggregate()
            layer_rows.append(M.per_layer(traced, tracer, ts, out))
            if M.sim_digest(traced) != M.sim_digest(out):
                failures.append("traced sim_digest != untraced")
            if abs(sum(ts.self_s.values()) - ts.wall_s) > 0.05 * ts.wall_s:
                failures.append("layer self times do not sum to the traced wall")

    digests = sorted({M.sim_digest(out) for out in reps})
    if len(digests) != 1:
        failures.append("sim_digest differs between repetitions of one seed")
    for out in reps:
        failures.extend(check for check, ok in out.checks if not ok)
        if out.error:
            failures.append(out.error)
    failures = sorted(set(failures))

    attempted = sum(out.attempted for out in reps)
    failed = sum(out.attempted - out.completed for out in reps)
    if trace:
        values = {
            key: statistics.median(row[key] for row in layer_rows)
            for key in (layer_rows[0] if layer_rows else ())
        }
        section = spec["per_layer"]
    else:
        values = M.end_to_end(reps, rss_mb)
        section = spec["end_to_end"]
    shaped = M.conform(values, section, fill=trace)
    if tracer is not None:
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.dump(
            os.path.join(OUT_DIR, f"trace_{name}.json"),
            workload=name, seed=seed, quick=quick,
            sim_digest=digests[0],
            layer_self_s=ts.self_s,
            metrics=values,
        )
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": shaped,
    }
    detail = {
        "workload": name,
        "seed": seed,
        "quick": quick,
        "trace": trace,
        "sizes": sizes,
        "reps": len(reps),
        "rep_wall_s": [out.setup_s + out.run_s for out in reps],
        "event_samples": sum(len(out.event_ms) for out in reps),
        "sim_digest": digests[0],
        "sim": reps[0].sim,
        "failures": failures,
    }
    return result, detail


def print_run(result: dict, detail: dict) -> None:
    print(
        f"workload={detail['workload']} seed={detail['seed']} "
        f"reps={detail['reps']} event_samples={detail['event_samples']} "
        f"sim_digest={detail['sim_digest'][:16]}"
    )
    for name, cell in result["metrics"].items():
        print(f"  {name:34s} {cell['value']:.6g} {cell['unit']}")
    for name, value in sorted(detail["sim"].items()):
        print(f"  {name:34s} {value:.6g} (exact)")
    for failure in detail["failures"]:
        print(f"  FAILED: {failure}")
    print(DETAIL + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))


# -- the suite ---------------------------------------------------------------
def environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_1m_before": os.getloadavg()[0],
    }


def child(name: str, args, trace: int) -> dict:
    """One run in its own fresh subprocess (valid ``ru_maxrss``, no heap
    carry-over); one process at a time."""
    cmd = [
        sys.executable, os.path.abspath(__file__), "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace),
    ] + (["--quick"] if args.quick else [])
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or len(lines) < 2 or not lines[-2].startswith(DETAIL):
        raise M.SchemaError(
            f"{name}: run exited {proc.returncode} without a result\n{proc.stderr}"
        )
    run = json.loads(lines[-1])
    run["detail"] = json.loads(lines[-2][len(DETAIL):])
    run["wall_s"] = wall
    return run


def spread(values: list) -> dict:
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "values": values,
    }


def run_suite(args) -> int:
    names = list(WORKLOADS)
    env = environment()
    if env["loadavg_1m_before"] > env["nproc"]:
        print(f"WARNING: load average {env['loadavg_1m_before']:.2f} exceeds "
              f"nproc={env['nproc']}; timings of this set are suspect")
    runs = {name: [] for name in names}
    for rep in range(args.reps):
        for name in names:  # round-robin: drift hits every workload alike
            run = child(name, args, 0)
            runs[name].append(run)
            print(f"[{rep + 1}/{args.reps}] {name}: {run['wall_s']:.1f}s "
                  f"correct={run['correct']} failed={run['failed']}")
    traced = {}
    if not args.check_determinism:
        for name in names:
            traced[name] = child(name, args, 1)
            print(f"[traced] {name}: {traced[name]['wall_s']:.1f}s")
    env["loadavg_1m_after"] = os.getloadavg()[0]
    env["overloaded"] = env["loadavg_1m_before"] > env["nproc"]

    ok = True
    report = {
        "claim": None,
        "env": env,
        "seed": args.seed,
        "reps": args.reps,
        "seconds": args.seconds,
        "quick": args.quick,
        "workloads": {},
    }
    for name in names:
        all_runs = runs[name] + ([traced[name]] if name in traced else [])
        digests = sorted({r["detail"]["sim_digest"] for r in all_runs})
        failures = sorted({f for r in all_runs for f in r["detail"]["failures"]})
        if len(digests) != 1:
            failures.append("sim_digest differs between runs of one seed")
        ok = ok and not failures
        metric_names = runs[name][0]["metrics"]
        entry = {
            "why": WORKLOADS[name].why,
            "sizes": runs[name][0]["detail"]["sizes"],
            "sim_digest": digests[0],
            "failures": failures,
            "attempted": sum(r["attempted"] for r in runs[name]),
            "failed_events": sum(r["failed"] for r in runs[name]),
            "run_wall_s": [r["wall_s"] for r in runs[name]],
            "sim": runs[name][0]["detail"]["sim"],
            "end_to_end": {
                m: {
                    "unit": metric_names[m]["unit"],
                    **spread([r["metrics"][m]["value"] for r in runs[name]]),
                }
                for m in metric_names
            },
        }
        if name in traced:
            entry["per_layer"] = {
                m: cell["value"] for m, cell in traced[name]["metrics"].items()
            }
        report["workloads"][name] = entry
        print(f"\n{name}  sim_digest={digests[0][:16]}  "
              f"failed_events={entry['failed_events']}/{entry['attempted']}")
        for m, cell in entry["end_to_end"].items():
            print(f"  {m:18s} {cell['median']:.6g} {cell['unit']} "
                  f"(min {cell['min']:.6g}, max {cell['max']:.6g})")
        for m, value in sorted(entry["sim"].items()):
            print(f"  {m:34s} {value:.6g} (exact)")
        for m, value in entry.get("per_layer", {}).items():
            if value and not m.startswith("sim."):
                print(f"  {m:34s} {value:.6g}")
        for failure in failures:
            print(f"  FAILED: {failure}")
    out_path = args.out or os.path.join(OUT_DIR, f"result_seed{args.seed}.json")
    os.makedirs(os.path.dirname(os.path.abspath(out_path)), exist_ok=True)
    with open(out_path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print(f"\nresult file: {out_path}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one run of this workload (default: the whole suite)")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time of one run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="smoke-test sizes (n <= 300, <= 200 events, 1 repetition)")
    parser.add_argument("--reps", type=int, default=3,
                        help="suite: subprocess runs per workload")
    parser.add_argument("--check-determinism", action="store_true",
                        help="suite: two short runs per workload, same seed; "
                             "sim_digest must match")
    parser.add_argument("--out", help="suite: result file path")
    args = parser.parse_args(argv)
    try:
        if args.seconds is None:
            args.seconds = 0.0 if args.quick else float(M.declared()["run_seconds"])
        if args.workload:
            result, detail = run_workload(
                args.workload, args.seed, args.seconds, bool(args.trace), args.quick
            )
            print_run(result, detail)
            return 0 if result["correct"] else 1
        if args.check_determinism:
            args.reps, args.seconds = 2, 0.0
        return run_suite(args)
    except M.SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
