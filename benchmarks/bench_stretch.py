"""EXP-STRETCH-DUEL — the 2009 paper's headline metric, head-to-head.

The Forgiving Tree (2008) bounds the healed *diameter*; the Forgiving
Graph (2009) bounds per-pair *stretch* on general graphs under churn.
This bench races the three healer families over identical churn streams
and records the per-round stretch trajectory (``RoundRecord.stretch``,
measured by the incremental engine by default):

* **forgiving-graph** — half-full RT healing: degree increase
  <= 3 *and* stretch inside the ``2 log2 n + 2`` envelope;
* **forgiving-tree** — spanning-tree wills: same degree bound, but the
  stretch rides the O(log Δ)-per-deletion diameter envelope instead;
* **binary-tree** — the uncoordinated naive baseline [3, 19]: local
  replacement trees chain into Θ(n) stretch over repeated deletions.

Three adversaries per size: random churn, growth-then-massacre (the hub
attack after a join wave), and wave churn (flash-crowd joins).  Rows are
dumped to ``benchmarks/out/BENCH_stretch.json``; the ``baseline``
section holds only seed-deterministic values (no timings) so CI can diff
it against the committed copy and flag stretch regressions in the
workflow summary (``benchmarks/check_stretch_baseline.py``).

Quick mode (CI smoke + the committed baseline): ``CHURN_BENCH_QUICK=1``.
"""

import json
import os
import time

from repro import guarantees
from repro.adversaries import (
    GrowthThenMassacreAdversary,
    RandomChurnAdversary,
    WaveChurnAdversary,
)
from repro.baselines import (
    BinaryTreeHealer,
    ForgivingGraphHealer,
    ForgivingTreeHealer,
)
from repro.graphs import generators
from repro.harness import churn_duel, report

from benchmarks.conftest import emit

QUICK = os.environ.get("CHURN_BENCH_QUICK", "").strip().lower() not in (
    "", "0", "false", "no",
)

SIZES = (120,) if QUICK else (1000, 10_000)
EVENTS = (lambda n: max(60, n // 3)) if QUICK else (lambda n: n // 2)
TRAJECTORY_POINTS = 24
SEED = 20_09
OUT_PATH = os.path.join(os.path.dirname(__file__), "out", "BENCH_stretch.json")

HEALERS = [ForgivingTreeHealer, ForgivingGraphHealer, BinaryTreeHealer]

ADVERSARIES = {
    "random-churn": lambda: RandomChurnAdversary(p_insert=0.45, seed=SEED),
    "growth-then-massacre": lambda: GrowthThenMassacreAdversary(
        growth=24 if QUICK else 200, seed=SEED
    ),
    "wave-churn": lambda: WaveChurnAdversary(wave=6, p_wave=0.3, seed=SEED),
}


def _downsample(series, points=TRAJECTORY_POINTS):
    """Evenly thin a trajectory to at most ``points`` samples."""
    values = [v for v in series if v is not None]
    if len(values) <= points:
        return [round(v, 4) for v in values]
    step = (len(values) - 1) / (points - 1)
    return [round(values[int(i * step)], 4) for i in range(points)]


def run_duels():
    """One churn_duel per (size, adversary); returns rows + trajectories."""
    rows = []
    trajectories = {}
    for n in SIZES:
        tree = generators.random_tree(n, seed=SEED)
        for adv_name, make in ADVERSARIES.items():
            t0 = time.perf_counter()
            results = churn_duel(
                tree, HEALERS, make, events=EVENTS(n), seed=SEED
            )
            elapsed = time.perf_counter() - t0
            for healer_name, res in sorted(results.items()):
                stretches = [r.stretch for r in res.rounds if r.stretch is not None]
                rows.append(
                    [
                        n,
                        adv_name,
                        healer_name,
                        len(res.rounds),
                        res.peak_degree_increase,
                        round(res.peak_stretch, 3),
                        round(stretches[-1], 3) if stretches else None,
                        res.stayed_connected,
                        f"{elapsed:.2f}",
                    ]
                )
                trajectories[f"{n}/{adv_name}/{healer_name}"] = _downsample(
                    res.series("stretch")
                )
    return rows, trajectories


def check_claims(rows):
    """The acceptance bars of the duel (asserted in quick and full mode).

    Only the *guarantees* are asserted: the FG holds degree <= 3 and
    stretch inside the O(log n) envelope under every adversary, and the
    FT holds its degree bound.  The naive baseline is raced for its
    trajectory, not asserted against: on the diameter-ratio stretch the
    campaigns record, its uncoordinated heals are measured by the
    double-sweep *lower* bracket (its overlay is cyclic) while the FG
    carries the incremental *upper* bracket, so a cross-healer
    inequality would compare different brackets — the per-round series
    in the JSON tell the comparative story instead.
    """
    by_key = {(r[0], r[1], r[2]): r for r in rows}
    for n in SIZES:
        # log of the largest population the campaign ever reaches.
        envelope = guarantees.fg_stretch_envelope(2 * n)
        for adv in ADVERSARIES:
            fg = by_key[(n, adv, "forgiving-graph")]
            assert fg[4] <= guarantees.degree_increase_bound(), f"FG degree bound broken: {fg}"
            assert fg[7] is True, f"FG disconnected: {fg}"
            assert fg[5] <= envelope, f"FG stretch outside O(log n): {fg}"
            ft = by_key[(n, adv, "forgiving-tree")]
            assert ft[4] <= guarantees.degree_increase_bound(), f"FT degree bound broken: {ft}"


def dump_json(rows, trajectories):
    """Write the tracked JSON — seed-deterministic values only.

    Wall times stay in the printed tables: the file is committed as the
    CI drift baseline, so a clean quick-mode rerun must reproduce it
    byte-for-byte (no perpetually dirty tracked file)."""
    os.makedirs(os.path.dirname(OUT_PATH), exist_ok=True)
    with open(OUT_PATH, "w") as fh:
        json.dump(
            {
                "quick": QUICK,
                "seed": SEED,
                "headers": [
                    "n0", "adversary", "healer", "rounds", "peak_ddeg",
                    "peak_stretch", "final_stretch", "connected",
                ],
                "rows": [r[:8] for r in rows],
                # The section CI diffs against the committed baseline.
                "baseline": {
                    "rows": [r[:8] for r in rows],
                    "trajectories": trajectories,
                },
            },
            fh,
            indent=2,
        )


def test_stretch_duel(benchmark, capsys):
    rows, trajectories = benchmark.pedantic(run_duels, rounds=1, iterations=1)
    check_claims(rows)
    dump_json(rows, trajectories)

    emit(capsys, report.banner("EXP-STRETCH-DUEL  FT vs FG vs naive, per-round stretch"))
    emit(
        capsys,
        report.format_table(
            ["n0", "adversary", "healer", "rounds", "peak ∆deg",
             "peak stretch", "final stretch", "connected", "s wall"],
            rows,
        ),
    )
    for key in sorted(trajectories):
        if trajectories[key]:
            emit(capsys, f"  {key:45s} {report.sparkline(trajectories[key])}")


if __name__ == "__main__":
    # Standalone mode: PYTHONPATH=src python -m benchmarks.bench_stretch
    _rows, _traj = run_duels()
    check_claims(_rows)
    print(report.banner("EXP-STRETCH-DUEL  FT vs FG vs naive, per-round stretch"))
    print(
        report.format_table(
            ["n0", "adversary", "healer", "rounds", "peak ∆deg",
             "peak stretch", "final stretch", "connected", "s wall"],
            _rows,
        )
    )
    for _key in sorted(_traj):
        if _traj[_key]:
            print(f"  {_key:45s} {report.sparkline(_traj[_key])}")
    dump_json(_rows, _traj)
    print(f"\nwrote {OUT_PATH}")
