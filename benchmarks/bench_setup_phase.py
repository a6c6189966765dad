"""EXP-SETUP — the one-time setup phase costs.

Latency ~ diameter; messages per edge O(log n) w.h.p. (Cohen-style
min-label flooding); O(1) per tree edge for the initial wills.
"""

import math

from repro import guarantees
from repro.distributed import DistributedForgivingTree
from repro.distributed.setup import distributed_bfs_setup
from repro.graphs import generators, metrics
from repro.harness import report

from benchmarks.conftest import dump_bench, emit, table

CASES = [
    ("gnp", lambda n: generators.random_connected_gnp(n, min(1.0, 8 / n), seed=n)),
    ("grid", lambda n: generators.grid(int(n**0.5), int(n**0.5))),
    ("pa", lambda n: generators.preferential_attachment(n, 2, seed=n)),
]
SIZES = (64, 256, 1024)


def run_sweep():
    rows = []
    for name, factory in CASES:
        for n in SIZES:
            g = factory(n)
            d = metrics.diameter_double_sweep(g, seed=1)
            rep = distributed_bfs_setup(g, seed=n)
            rows.append(
                [
                    name,
                    len(g),
                    d,
                    rep.latency,
                    rep.max_messages_per_edge,
                    f"{rep.mean_messages_per_edge:.1f}",
                    f"{guarantees.setup_messages_bound(len(g)):.0f}",
                ]
            )
    return rows


def test_setup_phase_costs(benchmark, capsys):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    for row in rows:
        n = row[1]
        assert row[4] <= 6 * math.log2(n) + 8  # O(log n) per edge
        assert row[3] <= 4 * row[2] + 6  # latency O(diameter)

    # Will distribution: O(1) per tree edge (measured by the runtime).
    tree = generators.random_tree(24, seed=2)
    dist = DistributedForgivingTree(tree)
    per_edge = dist.setup_stats.total_messages / (len(tree) - 1)

    dump_bench(
        "setup_phase",
        {
            "bfs_setup": table(
                ["graph", "n", "diam", "latency", "max_msg_edge",
                 "mean_msg_edge", "log_n_ref"],
                rows,
            )
        },
        will_messages_per_edge=round(per_edge, 2),
    )
    emit(capsys, report.banner("EXP-SETUP  BFS setup: latency & messages"))
    emit(
        capsys,
        report.format_table(
            ["graph", "n", "diam", "latency", "max msg/edge", "mean msg/edge", "O(log n) ref"],
            rows,
        ),
    )
    emit(capsys, f"\nwill distribution: {per_edge:.1f} messages per tree edge (O(1))")
