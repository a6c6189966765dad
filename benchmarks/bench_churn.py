"""EXP-CHURN — healers under mixed insert/delete streams (the churn game).

Four experiments:

* **EXP-CHURN-SCALE** — the Forgiving Tree under a random churn stream at
  n0 up to 10k: per-event wall time, peak degree increase, and peak
  synthesized messages per node stay flat as the network scales.
* **EXP-CHURN-DUEL** — head-to-head healers under growth-then-massacre:
  the join wave grows the network, then the hub attack tears it down;
  the Forgiving Tree keeps both guarantees while the baselines reproduce
  their signature failures.
* **EXP-METRICS-SCALING** — per-round diameter measurement cost, full
  BFS (double sweep, O(m)/round; ``diameter_exact`` is O(n·m) and is
  already unaffordable at these sizes) vs the incremental engine
  (O(changed ancestors)/round, worst case O(depth)), on the same churn
  stream at n up to 20k.  The two values are cross-checked every round:
  equal whenever the overlay is a tree; with heal chords the incremental
  value brackets from above what the sweep brackets from below.
* **EXP-CHURN-LADDER** — the EXP-METRICS-SCALING extension at flat-core
  scale: sustained random churn at n ∈ {10k, 100k, 1M} through the full
  production path (healer → harness, ``metrics="none"`` fast stats,
  ``keep_rounds=False`` streaming, O(1) adversary sampling).  Per-event
  cost must stay ~flat across the ladder — the committed baseline is
  gated by ``benchmarks/check_churn_baseline.py`` (≤ 2x µs/event growth
  bottom rung to top).

Results are also dumped to ``benchmarks/out/BENCH_churn.json`` so CI can
archive the trajectory as a workflow artifact and gate the ladder.

Quick mode (for CI smoke runs): set ``CHURN_BENCH_QUICK=1`` to shrink the
sizes to seconds of runtime (the ladder then runs n ∈ {10k, 50k}).
"""

import gc
import os
import statistics
import time

from repro.adversaries import (
    GrowthThenMassacreAdversary,
    RandomChurnAdversary,
)
from repro.baselines import (
    BinaryTreeHealer,
    ForgivingTreeHealer,
    LineHealer,
    SurrogateHealer,
)
from repro.churn import Insert
from repro.graphs import generators
from repro.graphs.incremental import DynamicTreeMetrics
from repro.graphs.metrics import diameter_double_sweep
from repro.harness import churn_duel, report, run_churn_campaign

from benchmarks.conftest import QUICK, dump_bench, emit, table

SCALE_SIZES = (100, 1000) if QUICK else (100, 1000, 10_000)
SCALE_EVENTS = (lambda n: max(40, n // 10)) if QUICK else (lambda n: n // 2)
DUEL_N = 60 if QUICK else 300
DUEL_GROWTH = 30 if QUICK else 150
METRICS_SIZES = (200, 1000) if QUICK else (1000, 5000, 10_000, 20_000)
METRICS_ROUNDS = 60 if QUICK else 200
LADDER_SIZES = (10_000, 50_000) if QUICK else (10_000, 100_000, 1_000_000)
LADDER_EVENTS = 400 if QUICK else 2000
#: µs/event growth allowed across the whole ladder (top rung / bottom
#: rung) before the in-bench assertion trips.  The CI gate proper lives in
#: ``check_churn_baseline.py`` (2.0 on committed baselines); the in-test
#: bar is looser to absorb shared-runner scheduling noise.
LADDER_MAX_GROWTH_IN_TEST = 3.0
#: Same-run growth allowed in the tracker's µs/round from n=1k to n=20k.
#: The tracker pays for what a heal changed, not for the tree's depth, so
#: the column is ~flat (it was 7.3x while every update walked to the root).
METRICS_MAX_GROWTH = 3.0


def run_scale_sweep():
    rows = []
    for n0 in SCALE_SIZES:
        tree = generators.random_tree(n0, seed=1)
        healer = ForgivingTreeHealer({k: set(v) for k, v in tree.items()})
        # fast_sample: the table prices the engine, not the adversary's
        # O(n log n) ``sorted(healer.alive)`` draw.
        adversary = RandomChurnAdversary(p_insert=0.5, seed=1, fast_sample=True)
        events = SCALE_EVENTS(n0)
        t0 = time.perf_counter()
        result = run_churn_campaign(
            healer, adversary, events=events, metrics="none"
        )
        elapsed = time.perf_counter() - t0
        rows.append(
            [
                n0,
                events,
                result.final_alive,
                result.peak_degree_increase,
                result.peak_messages_per_node,
                result.stayed_connected,
                round(1e6 * elapsed / max(1, len(result.rounds)), 1),
            ]
        )
    return rows


def run_flat_ladder():
    """Sustained churn at flat-core scale through the production path.

    Each rung plays ``LADDER_EVENTS`` mixed insert/delete events against
    the (flat-core) healer via :func:`run_churn_campaign` with every
    large-n knob on: ``metrics="none"`` + healer fast stats (no per-event
    graph materialization), ``keep_rounds=False`` (O(1) memory), and the
    adversary's O(1) ``fast_sample`` path.  Per-event durations are taken
    between round callbacks, so setup — building the healer and the
    campaign's one O(n) initial snapshot — is excluded, and the gated
    column is the *median* duration: an O(n)-per-event regression shifts
    every event and therefore the median, while interpreter artifacts
    that hit a few percent of events (gen-2 GC pauses scanning the
    million-entry id maps, the adversary's one-time fresh-id seed) only
    move the mean, which is reported alongside for honesty.
    """
    rows = []
    for n0 in LADDER_SIZES:
        tree = generators.random_tree(n0, seed=3)
        healer = ForgivingTreeHealer({k: set(v) for k, v in tree.items()})
        adversary = RandomChurnAdversary(p_insert=0.5, seed=3, fast_sample=True)
        gc.collect()  # level the playing field between rungs
        durations = []
        last = [0.0]

        def _tick(record, _healer):
            now = time.perf_counter()
            if last[0]:
                durations.append(now - last[0])
            last[0] = now

        result = run_churn_campaign(
            healer,
            adversary,
            events=LADDER_EVENTS,
            metrics="none",
            keep_rounds=False,
            on_round=_tick,
        )
        rows.append(
            [
                n0,
                result.n_inserts + result.n_deletes,
                result.final_alive,
                result.peak_degree_increase,
                result.peak_messages_per_node,
                result.stayed_connected,
                round(1e6 * statistics.median(durations), 2),
                round(1e6 * statistics.fmean(durations), 2),
            ]
        )
    return rows


def ladder_growth(rows) -> float:
    """µs/event growth across the ladder: top rung over bottom rung."""
    return rows[-1][6] / max(rows[0][6], 1e-9)


def run_churn_duel():
    tree = generators.random_tree(DUEL_N, seed=7)
    results = churn_duel(
        tree,
        [ForgivingTreeHealer, SurrogateHealer, LineHealer, BinaryTreeHealer],
        lambda: GrowthThenMassacreAdversary(growth=DUEL_GROWTH, seed=7),
        events=DUEL_GROWTH + DUEL_N // 2,
    )
    return [
        [
            name,
            res.n_inserts,
            res.n_deletes,
            res.peak_degree_increase,
            res.peak_diameter,
            res.stayed_connected,
        ]
        for name, res in sorted(results.items())
    ]


def run_metrics_scaling():
    """Per-round diameter measurement: full-BFS sweep vs incremental.

    Both are driven by the same churn stream over the same engine; the
    shared per-round cost (applying the event, materializing the image)
    is excluded from both timers so the rows isolate measurement cost.
    """
    rows = []
    for n in METRICS_SIZES:
        tree = generators.random_tree(n, seed=2)
        healer = ForgivingTreeHealer({k: set(v) for k, v in tree.items()})
        tracker = DynamicTreeMetrics(tree)
        adversary = RandomChurnAdversary(p_insert=0.5, seed=2)
        adversary.reset()
        t_sweep = t_inc = 0.0
        agree = brackets = 0
        for _ in range(METRICS_ROUNDS):
            event = adversary.next_event(healer)
            if isinstance(event, Insert):
                rep = healer.insert(event.nid, event.attach_to)
            else:
                rep = healer.delete(event.nid)
            image = healer.engine.adjacency()

            t0 = time.perf_counter()
            d_sweep = diameter_double_sweep(image, seed=2)
            t_sweep += time.perf_counter() - t0

            t0 = time.perf_counter()
            tracker.apply_report(rep)
            d_inc = tracker.diameter
            t_inc += time.perf_counter() - t0

            if d_inc == d_sweep:
                agree += 1
            assert d_sweep <= d_inc, "brackets inverted"
            if tracker.is_exact:
                assert d_inc == d_sweep, "exact mode must match the sweep"
            brackets += 1
        speedup = t_sweep / t_inc if t_inc else float("inf")
        rows.append(
            [
                n,
                METRICS_ROUNDS,
                round(1e6 * t_sweep / METRICS_ROUNDS, 1),
                round(1e6 * t_inc / METRICS_ROUNDS, 1),
                round(speedup, 1),
                round(100 * agree / brackets, 1),
            ]
        )
    return rows


SCALE_HEADERS = ["n0", "events", "final_n", "peak_ddeg", "peak_msg_node",
                 "connected", "us_per_event"]
LADDER_HEADERS = ["n0", "events", "final_n", "peak_ddeg", "peak_msg_node",
                  "connected", "us_per_event", "us_mean"]
DUEL_HEADERS = ["healer", "inserts", "deletes", "peak_ddeg",
                "peak_diameter", "connected"]
METRICS_HEADERS = ["n", "rounds", "us_sweep", "us_incremental",
                   "speedup", "agreement_pct"]


def _dump_json(scale_rows, duel_rows, metrics_rows, ladder_rows):
    return dump_bench(
        "churn",
        {
            "scale": table(SCALE_HEADERS, scale_rows),
            "duel": table(DUEL_HEADERS, duel_rows),
            "metrics_scaling": table(METRICS_HEADERS, metrics_rows),
            "ladder": table(LADDER_HEADERS, ladder_rows),
        },
        ladder_events=LADDER_EVENTS,
    )


def _check_guarantees(scale_rows, duel_rows, metrics_rows, ladder_rows) -> str:
    """Assert every gate; returns the tracker-growth gate's verdict line
    (quick sizes stop below its rungs, and the skip must be visible)."""
    # The guarantees hold at every scale sampled.
    for row in scale_rows:
        assert row[3] <= 3  # peak degree increase
        assert row[5] is True  # stayed connected
    # Messages per node stay flat from n=100 to the largest size.
    assert scale_rows[-1][4] <= scale_rows[0][4] + 6

    by_name = {r[0]: r for r in duel_rows}
    assert by_name["forgiving-tree"][3] <= 3
    assert by_name["forgiving-tree"][5] is True
    assert by_name["surrogate"][3] > 3  # degree blow-up survives churn

    # The incremental engine wins by >= 5x (the acceptance bar is at
    # n=10k, where it wins by ~140x).  Only sizes with millisecond-scale
    # sweeps are asserted — at n=200 the per-round timings are single
    # microseconds and a CI scheduler hiccup could flake the ratio.
    for row in metrics_rows:
        if row[0] >= 1000:
            assert row[4] >= 5.0
    # ... and its own cost does not grow with the tree (depth ~ sqrt(n)).
    us_inc = {row[0]: row[3] for row in metrics_rows}
    if 20_000 in us_inc:
        growth = us_inc[20_000] / us_inc[1000]
        assert growth <= METRICS_MAX_GROWTH, (
            f"tracker cost grew {growth:.1f}x from n=1k to n=20k "
            f"(bar: {METRICS_MAX_GROWTH}x)"
        )
        verdict = f"tracker growth n=1k -> 20k: {growth:.2f}x (bar {METRICS_MAX_GROWTH}x)"
    else:
        verdict = (
            "tracker growth gate skipped: quick sizes stop at "
            f"n={max(us_inc)}, the gate compares the n=1k and n=20k rungs"
        )

    # The flat-core ladder: guarantees hold at every rung and per-event
    # cost stays ~flat (the committed-baseline gate enforces 2.0; the
    # in-test bar absorbs runner noise).
    for row in ladder_rows:
        assert row[3] <= 3
        assert row[5] is True
    growth = ladder_growth(ladder_rows)
    assert growth <= LADDER_MAX_GROWTH_IN_TEST, (
        f"per-event cost grew {growth:.1f}x from n={ladder_rows[0][0]} to "
        f"n={ladder_rows[-1][0]} (bar: {LADDER_MAX_GROWTH_IN_TEST}x)"
    )
    return verdict


def test_churn_benchmarks(benchmark, capsys):
    scale_rows = benchmark.pedantic(run_scale_sweep, rounds=1, iterations=1)
    duel_rows = run_churn_duel()
    metrics_rows = run_metrics_scaling()
    ladder_rows = run_flat_ladder()

    verdict = _check_guarantees(scale_rows, duel_rows, metrics_rows, ladder_rows)
    _dump_json(scale_rows, duel_rows, metrics_rows, ladder_rows)

    emit(capsys, report.banner("EXP-CHURN-SCALE  random churn, p_insert=0.5"))
    emit(
        capsys,
        report.format_table(
            ["n0", "events", "final n", "peak ∆deg", "peak msg/node",
             "connected", "µs/event"],
            scale_rows,
        ),
    )
    emit(
        capsys,
        report.banner(
            f"EXP-CHURN-DUEL  growth({DUEL_GROWTH}) then hub massacre on "
            f"random-tree-{DUEL_N}"
        ),
    )
    emit(
        capsys,
        report.format_table(
            ["healer", "inserts", "deletes", "peak ∆deg", "peak diameter",
             "connected"],
            duel_rows,
        ),
    )
    emit(
        capsys,
        report.banner(
            "EXP-METRICS-SCALING  per-round diameter: full-BFS sweep vs incremental"
        ),
    )
    emit(
        capsys,
        report.format_table(
            ["n", "rounds", "µs/round sweep", "µs/round incr", "speedup",
             "agreement %"],
            metrics_rows,
        ),
    )
    emit(capsys, verdict)
    emit(
        capsys,
        report.banner(
            "EXP-CHURN-LADDER  flat-core sustained churn "
            f"({LADDER_EVENTS} events/rung)"
        ),
    )
    emit(
        capsys,
        report.format_table(
            ["n0", "events", "final n", "peak ∆deg", "peak msg/node",
             "connected", "µs/event (median)", "µs mean"],
            ladder_rows,
        ),
    )


if __name__ == "__main__":
    # Standalone mode: PYTHONPATH=src python -m benchmarks.bench_churn
    _scale = run_scale_sweep()
    _duel = run_churn_duel()
    _metrics = run_metrics_scaling()
    _ladder = run_flat_ladder()
    for banner, rows, headers in (
        (
            "EXP-CHURN-SCALE  random churn, p_insert=0.5",
            _scale,
            ["n0", "events", "final n", "peak ∆deg", "peak msg/node",
             "connected", "µs/event"],
        ),
        (
            f"EXP-CHURN-DUEL  growth({DUEL_GROWTH}) then hub massacre",
            _duel,
            ["healer", "inserts", "deletes", "peak ∆deg", "peak diameter",
             "connected"],
        ),
        (
            "EXP-METRICS-SCALING  per-round diameter: full-BFS sweep vs incremental",
            _metrics,
            ["n", "rounds", "µs/round sweep", "µs/round incr", "speedup",
             "agreement %"],
        ),
        (
            f"EXP-CHURN-LADDER  flat-core sustained churn ({LADDER_EVENTS} events/rung)",
            _ladder,
            ["n0", "events", "final n", "peak ∆deg", "peak msg/node",
             "connected", "µs/event (median)", "µs mean"],
        ),
    ):
        print(report.banner(banner))
        print(report.format_table(headers, rows))
    print(_check_guarantees(_scale, _duel, _metrics, _ladder))
    print(f"\nwrote {_dump_json(_scale, _duel, _metrics, _ladder)}")
