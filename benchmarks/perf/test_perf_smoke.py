"""Smoke test of the performance benchmark (tier-1, a few seconds).

Runs every workload at ``--quick`` scale untraced and traced, validates
the results against ``BENCHMARK.json`` and the builder's contract limits,
and checks that the traced pass reproduces the untraced ``sim_digest``.
No timing is asserted: a slow number never fails.
"""

import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# pytest puts this directory first on sys.path to import the test; the
# benchmark is imported as ``benchmarks.perf.*``, and leaving the entry
# would let ``trace.py`` shadow the standard library's ``trace``.
if HERE in sys.path:
    sys.path.remove(HERE)

import pytest  # noqa: E402

from benchmarks.perf import compare, metrics, run  # noqa: E402
from benchmarks.perf.workloads import WORKLOADS  # noqa: E402

SPEC = metrics.declared()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["benchmarks/perf"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [w["name"] for w in SPEC["workloads"]]
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
        assert w["why"] == WORKLOADS[w["name"]].why
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        names.append(m["name"])
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    assert all(NAME.match(n) for n in names) and len(names) == len(set(names))
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_quick_untraced_and_traced(name):
    plain, plain_detail = run.run_workload(name, 3, 0.0, trace=False, quick=True)
    traced, traced_detail = run.run_workload(name, 3, 0.0, trace=True, quick=True)
    for result, detail, section in (
        (plain, plain_detail, SPEC["end_to_end"]),
        (traced, traced_detail, SPEC["per_layer"]),
    ):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert detail["failures"] == [] and result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        # every declared metric present (0 = undefined for this workload)
        assert list(result["metrics"]) == [m["name"] for m in section]
        for m in section:
            cell = result["metrics"][m["name"]]
            assert set(cell) == {"value", "unit"} and cell["unit"] == m["unit"]
    assert all(cell["value"] > 0 for cell in plain["metrics"].values())
    # the traced loop measured the same program
    assert traced_detail["sim_digest"] == plain_detail["sim_digest"]
    assert os.path.exists(os.path.join(HERE, "out", f"trace_{name}.json"))
    layer = {k: v["value"] for k, v in traced["metrics"].items()}
    assert "harness.trace_overhead_pct" in layer
    if name == "churn_tree":  # the bypass predictions
        assert layer["graphs.tracker_updates"] == 0
        assert layer["baselines.graph_calls"] == 1
    if name in ("churn_tree", "churn_tracked", "fg_massacre"):
        assert not any(v for k, v in layer.items() if k.startswith("simnet."))
    if name == "async_lease":
        assert not any(v for k, v in layer.items() if k.startswith("faults."))
    if name == "hostile_audit":
        assert layer["faults.crashes"] == 2 and layer["audit.violations"] == 0


def test_compare_verdicts():
    def cell(*values):
        ordered = sorted(values)
        return {"median": ordered[len(ordered) // 2], "min": ordered[0], "max": ordered[-1]}

    assert compare.verdict(cell(10, 10.1, 10.2), cell(10.0, 10.2, 10.3), "lower", 0.05) == "same"
    assert compare.verdict(cell(10, 10.1, 10.2), cell(12.0, 12.1, 12.2), "lower", 0.05) == "worse"
    assert compare.verdict(cell(10, 10.1, 10.2), cell(12.0, 12.1, 12.2), "higher", 0.05) == "better"
    # wide spread + interleaving runs: cannot tell
    assert compare.verdict(cell(8, 10, 13), cell(9, 11.5, 12), "lower", 0.05) == "unresolved"
    # wide spread but every run of B beyond every run of A: resolved
    assert compare.verdict(cell(8, 10, 11), cell(12, 14, 15), "lower", 0.05) == "worse"
    assert compare.exact(3, 3, "lower") == "same" and compare.exact(3, 4, "lower") == "worse"
