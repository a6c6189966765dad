"""EXP-T1-DIAM — Theorem 1.2: diameter stays within O(D log ∆).

Reports, per family, the worst healed diameter over a full adversarial
campaign against the original diameter D, the log∆ factor, and the
explicit envelope from repro.guarantees.
"""

import math

from repro import guarantees
from repro.adversaries import CenterAdversary, MaxDegreeAdversary
from repro.baselines import ForgivingTreeHealer
from repro.graphs import generators, metrics
from repro.harness import report, run_campaign

from benchmarks.conftest import dump_bench, emit, table

FAMILIES = ["star", "random", "broom", "caterpillar", "spider", "binary"]
N = 100


def run_sweep():
    rows = []
    for family in FAMILIES:
        tree = generators.TREE_FAMILIES[family](N, 3)
        d0 = metrics.diameter_exact(tree)
        delta = max(len(v) for v in tree.values())
        envelope = guarantees.diameter_envelope(d0, delta)
        worst = 0
        for adv in (CenterAdversary(), MaxDegreeAdversary()):
            healer = ForgivingTreeHealer({k: set(v) for k, v in tree.items()})
            result = run_campaign(healer, adv)
            worst = max(worst, result.peak_diameter)
            assert result.stayed_connected
        rows.append(
            [
                family,
                len(tree),
                d0,
                delta,
                worst,
                f"{worst / max(d0, 1):.2f}x",
                envelope,
                "OK" if worst <= envelope else "VIOLATION",
            ]
        )
    return rows


def test_thm1_diameter_bound(benchmark, capsys):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    assert all(r[7] == "OK" for r in rows)
    dump_bench(
        "thm1_diameter",
        {"sweep": table(
            ["family", "n", "D0", "delta", "peak_D", "stretch", "bound", "verdict"],
            rows,
        )},
    )
    emit(capsys, report.banner("EXP-T1-DIAM  Theorem 1.2: diameter = O(D log ∆)"))
    emit(
        capsys,
        report.format_table(
            ["family", "n", "D0", "∆", "peak D", "stretch", "bound", "verdict"],
            rows,
        ),
    )
    emit(
        capsys,
        "\nshape check: the star (D0=2) heals to ~2·log2 ∆ — the log ∆ factor"
        " is real, not slack.",
    )
