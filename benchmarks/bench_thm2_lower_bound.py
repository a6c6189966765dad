"""EXP-T2-LB — Theorem 2: any (α, β) healer on the star obeys α^(2β+1) ≥ ∆.

Measures (α, β) for every healer after deleting the star's center and
checks the lower-bound inequality; also reports the Forgiving Tree's
measured β against the Section 4.2 promise β ≤ 2·log_α ∆ + 2.
"""

import math

from repro import guarantees
from repro.baselines import (
    BinaryTreeHealer,
    ForgivingTreeHealer,
    LineHealer,
    SurrogateHealer,
)
from repro.graphs import generators, metrics
from repro.graphs.adjacency import is_connected
from repro.harness import report

from benchmarks.conftest import dump_bench, emit, table

DELTAS = (8, 32, 128, 512)
HEALERS = (ForgivingTreeHealer, SurrogateHealer, LineHealer, BinaryTreeHealer)


def run_sweep():
    rows = []
    for delta in DELTAS:
        tree = generators.star(delta)
        for make in HEALERS:
            healer = make({k: set(v) for k, v in tree.items()})
            healer.delete(0)
            g = healer.graph()
            assert is_connected(g)
            alpha = max(3, healer.max_degree_increase())
            beta = metrics.diameter_exact(g) / 2  # star diameter is 2
            holds = guarantees.thm2_lower_bound_holds(alpha, beta, delta)
            rows.append(
                [
                    delta,
                    make.name,
                    alpha,
                    f"{beta:.1f}",
                    f"{guarantees.thm2_min_stretch(alpha, delta):.2f}",
                    "OK" if holds else "VIOLATION",
                ]
            )
    return rows


def test_thm2_lower_bound(benchmark, capsys):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    assert all(r[5] == "OK" for r in rows)
    dump_bench(
        "thm2_lower_bound",
        {"sweep": table(
            ["delta", "healer", "alpha", "beta", "beta_floor", "verdict"], rows
        )},
    )
    emit(capsys, report.banner("EXP-T2-LB  Theorem 2: α^(2β+1) ≥ ∆ on the star"))
    emit(
        capsys,
        report.format_table(
            ["∆", "healer", "α", "β measured", "β floor (Thm 2)", "verdict"], rows
        ),
    )
    # Section 4.2 comparison for the Forgiving Tree.
    ft_rows = [r for r in rows if r[1] == "forgiving-tree"]
    emit(
        capsys,
        "\nForgiving Tree's β vs the §4.2 promise 2·log_α ∆ + 2: "
        + ", ".join(
            f"∆={r[0]}: {r[3]} ≤ {2 * math.log(r[0], int(r[2])) + 2:.1f}"
            for r in ft_rows
        ),
    )
