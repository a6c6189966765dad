"""EXP-TRADEOFF — Section 4.2: degree cap α vs diameter stretch β.

Sweeps α on high-degree stars: measured β must sit between the Theorem 2
floor and the §4.2 promise 2·log_α ∆ + 2, decreasing as α grows.
"""

from repro import guarantees
from repro.extensions import AlphaForgivingTree, tradeoff_point
from repro.graphs import generators, metrics
from repro.harness import report

from benchmarks.conftest import dump_bench, emit, table

DELTA = 512
ALPHAS = (3, 4, 5, 7, 9)
HEADERS = ["α", "b", "measured ∆deg", "β measured", "β floor (Thm2)", "β promise (§4.2)"]


def run_sweep():
    rows = []
    tree = generators.star(DELTA)
    for alpha in ALPHAS:
        ft = AlphaForgivingTree(tree, alpha=alpha)
        ft.delete(0)
        beta = metrics.diameter_exact(ft.adjacency()) / 2
        point = tradeoff_point(alpha, DELTA)
        rows.append(
            [
                alpha,
                point["branching"],
                ft.max_degree_increase(),
                f"{beta:.1f}",
                f"{point['beta_floor_thm2']:.2f}",
                f"{point['beta_promise']:.1f}",
            ]
        )
    return rows


def test_alpha_tradeoff(benchmark, capsys):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    betas = [float(r[3]) for r in rows]
    assert betas == sorted(betas, reverse=True) or len(set(betas)) < len(betas)
    for r in rows:
        assert r[2] <= r[0]  # degree increase within α
        assert float(r[3]) <= float(r[5]) + 1  # within the §4.2 promise
    dump_bench("alpha_tradeoff", {"tradeoff": table(HEADERS, rows)}, delta=DELTA)
    emit(capsys, report.banner(f"EXP-TRADEOFF  §4.2 on star-{DELTA}"))
    emit(capsys, report.format_table(HEADERS, rows))
