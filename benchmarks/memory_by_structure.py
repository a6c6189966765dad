"""Bytes per node, structure by structure, of a tracked churn campaign.

Builds what the ``churn_tracked`` perf workload builds before its first
event — the deep random tree, the Forgiving Tree healer over it, the
campaign's one ``healer.graph()`` snapshot and the diameter tracker that
takes it over — under ``tracemalloc``, and prints:

* what each step added to the traced heap, and the step's own peak;
* the healer split by structure (``sys.getsizeof``, every object
  counted once, at the first structure listed that holds it; the
  preallocated small ints count nowhere);
* the same split of the tracker.

With ``--rss`` it runs the steps untraced instead, then the workload's
2,500 events, and prints the process's peak RSS after each.

Usage::

    PYTHONPATH=src python -m benchmarks.memory_by_structure [--n 100000] [--seed 3] [--rss]
"""

from __future__ import annotations

import argparse
import resource
import sys
import tracemalloc
from array import array

from benchmarks.perf.workloads import deep_random_tree, derive
from repro.adversaries import RandomChurnAdversary
from repro.baselines import ForgivingTreeHealer
from repro.graphs.incremental import DynamicTreeMetrics
from repro.harness import run_churn_campaign


def held(obj, seen: set) -> int:
    """Bytes of ``obj`` and of everything it holds that ``seen`` lacks."""
    total, stack = 0, [obj]
    while stack:
        o = stack.pop()
        if id(o) in seen or (type(o) is int and -5 <= o <= 256):
            continue
        seen.add(id(o))
        total += sys.getsizeof(o)
        if isinstance(o, dict):
            stack.extend(o.keys())
            stack.extend(o.values())
        elif isinstance(o, (list, tuple, set, frozenset)):
            stack.extend(o)
        elif type(o).__module__.startswith("repro"):
            stack.append(vars(o))
    return total


def split(parts, n: int) -> None:
    seen: set = set()
    for label, obj in parts:
        size = held(obj, seen)
        print(f"  {label:44s} {size / 2**20:8.1f} MB {size / n:8.1f} B/node")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--rss", action="store_true", help="peak RSS per step, untraced")
    args = ap.parse_args()
    (rss_steps if args.rss else heap_steps)(args.n, args.seed)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def rss_steps(n: int, seed: int) -> None:
    """The campaign as ``churn_tracked`` runs it, peak RSS after each part."""
    graph = deep_random_tree(n, seed=derive(seed, "tree"))
    print(f"{'input tree':44s} {peak_rss_mb():8.1f} MB")
    healer = ForgivingTreeHealer(graph)
    print(f"{'ForgivingTreeHealer(graph)':44s} {peak_rss_mb():8.1f} MB")
    peaks = []
    run_churn_campaign(
        healer,
        RandomChurnAdversary(p_insert=0.5, seed=derive(seed, "adversary"), fast_sample=True),
        events=2_500,
        metrics="incremental",
        keep_rounds=False,
        seed=derive(seed, "campaign"),
        on_round=lambda record, _: peaks or peaks.append(peak_rss_mb()),
    )
    print(f"{'campaign setup (snapshot + tracker), 1 event':44s} {peaks[0]:8.1f} MB")
    print(f"{'the 2,500-event campaign':44s} {peak_rss_mb():8.1f} MB")


def heap_steps(n: int, seed: int) -> None:
    tracemalloc.start()
    steps = []

    def step(label, build):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = build()
        now, peak = tracemalloc.get_traced_memory()
        steps.append((label, now - before, peak - before))
        return out

    graph = step("input tree", lambda: deep_random_tree(n, seed=derive(seed, "tree")))
    healer = step("ForgivingTreeHealer(graph)", lambda: ForgivingTreeHealer(graph))
    snapshot = step("healer.graph() snapshot", healer.graph)
    tracker = step("DynamicTreeMetrics(snapshot)", lambda: DynamicTreeMetrics(snapshot))
    print(f"n = {n}: traced heap by step (kept, step peak)")
    for label, kept, peak in steps:
        print(f"  {label:44s} {kept / 2**20:8.1f} MB {peak / 2**20:8.1f} MB")
    print(f"  {'total kept':44s} {tracemalloc.get_traced_memory()[0] / 2**20:8.1f} MB")
    tracemalloc.stop()

    engine, core, wills = healer.engine, healer.engine._c, healer.engine._w
    columns = [v for v in vars(core).values() if isinstance(v, array)]
    arena = [v for v in vars(wills).values() if isinstance(v, array)]
    print("healer by structure")
    split(
        [
            ("core columns (12 arrays)", columns),
            ("core id maps (_reals, _helpers)", (core._reals, core._helpers)),
            ("core image dict (_image)", core._image),
            ("core alive list + index", (core._alive_list, core._alive_idx)),
            ("wills arena (8 arrays)", arena),
            ("wills _leafpos", wills._leafpos),
            ("wills _intpos", wills._intpos),
            ("wills _root, _heir", (wills._root, wills._heir)),
            ("engine original_degree, initial_nodes, _ever",
             (engine.original_degree, engine.initial_nodes, engine._ever)),
            ("healer _original_degree", healer._original_degree),
            ("healer spanning shape", healer._tree),
            ("everything else the healer holds", healer),
        ],
        n,
    )
    print("tracker by structure (_adj is the snapshot itself)")
    split(
        [(name, obj) for name, obj in vars(tracker).items() if isinstance(obj, (dict, set))],
        n,
    )


if __name__ == "__main__":
    main()
