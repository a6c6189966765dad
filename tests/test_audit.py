"""Tests for the guarantee auditor (repro.audit).

The walls the ISSUE demands: the typed record schema round-trips its
JSONL dialect losslessly; the query operators and CLI work over
JSONL exports; the certificates pass on seeded FT and FG campaigns
across every latency x scheduler model, under lease overlap and under a
drop/dup/crash fault plan — computed from exported telemetry only (the
auditor's modules import nothing from the engines at import time) —
and the mutation self-test shows each certificate class catching its
seeded corruption with the offending heal and event-id window named.
"""

import ast
import pathlib
import re
from dataclasses import replace

import pytest

from repro import guarantees
from repro.adversaries.churn import RandomChurnAdversary
from repro.audit import (
    CERTIFICATE_KINDS,
    CORRUPTIONS,
    SCHEMA_VERSION,
    AuditError,
    AuditReport,
    DeliverRecord,
    DropRecord,
    HealDelta,
    LogQuery,
    SendRecord,
    Violation,
    check_corruption,
    heal_flows,
    link_table,
    load_jsonl,
    queue_timeline,
    record_from_dict,
    run_self_test,
    write_jsonl,
)
from repro.audit import mutate as mutate_mod
from repro.audit import query as query_mod
from repro.audit.schema import normalize_edges
from repro.baselines.forgiving import ForgivingTreeHealer
from repro.faults import CrashDuringHeal, FaultPlan
from repro.fgraph.healer import ForgivingGraphHealer
from repro.graphs import generators
from repro.harness import run_churn_campaign
from repro.obs import ObsSpec
from repro.simnet import LATENCY_CATALOG, SCHEDULER_CATALOG, TransportSpec


def _tree_graph(n, seed):
    return {k: set(v) for k, v in generators.random_tree(n, seed).items()}


def _audited_run(
    healer_cls,
    seed=11,
    n=24,
    events=16,
    latency="uniform",
    scheduler="latency",
    overlap="lease",
    plan=None,
    strict=True,
):
    spec = TransportSpec(
        mode="async",
        latency=latency,
        scheduler=scheduler,
        overlap=overlap,
        seed=seed,
        faults=plan,
    )
    obs = (
        "audit"
        if strict
        else ObsSpec(audit=True, recorder=512, audit_strict=False)
    )
    return run_churn_campaign(
        healer_cls(_tree_graph(n, seed)),
        RandomChurnAdversary(p_insert=0.3, seed=seed),
        events=events,
        transport=spec,
        seed=seed,
        obs=obs,
    )


@pytest.fixture(scope="module")
def audited_ft():
    """One audited FT campaign: lease overlap + drop/dup/crash faults."""
    plan = FaultPlan(
        drop=0.1, dup=0.05, crashes=(CrashDuringHeal(event=5),), seed=7
    )
    return _audited_run(ForgivingTreeHealer, plan=plan)


# ---------------------------------------------------------------------------
# Schema
# ---------------------------------------------------------------------------

class TestSchema:
    def test_dict_round_trip(self):
        rec = SendRecord(1.0, 2, 0, 3, 4, msg="WillMsg", seq=17, ids=3)
        d = rec.to_dict()
        assert d["v"] == SCHEMA_VERSION and d["kind"] == "send"
        assert record_from_dict(d) == rec
        with pytest.raises(ValueError):
            record_from_dict({**d, "v": 99})
        with pytest.raises(ValueError):
            record_from_dict({**d, "kind": "telegram"})
        with pytest.raises(ValueError):
            record_from_dict({"v": SCHEMA_VERSION, "kind": "send"})

    def test_jsonl_round_trip(self, tmp_path, audited_ft):
        log = audited_ft.transport.event_log
        path = str(tmp_path / "log.jsonl")
        assert write_jsonl(log, path) == len(log)
        assert list(load_jsonl(path)) == list(log)

    def test_normalize_edges(self):
        assert normalize_edges({0: {1}, 1: {0, 2}, 2: {1}}) == frozenset(
            {(0, 1), (1, 2)}
        )
        assert normalize_edges([(2, 1), (1, 2)]) == frozenset({(1, 2)})

    def test_heal_delta_region(self):
        delta = HealDelta(
            kind="delete", victim=5, touched=((1, 5), (1, 3))
        )
        assert delta.region == frozenset({1, 3, 5})
        wave = HealDelta(kind="insert", joiners=((9, 2), (10, 2)))
        assert wave.region == frozenset({2, 9, 10})


# ---------------------------------------------------------------------------
# Query operators + CLI
# ---------------------------------------------------------------------------

_SYNTH = [
    SendRecord(0.0, 1, 0, 2, 3, msg="A", seq=0, ids=2),
    DeliverRecord(1.0, 1, 0, 2, 3, msg="A", seq=0),
    SendRecord(1.5, 2, 0, 3, 4, msg="B", seq=1, ids=1),
    DropRecord(1.5, 2, 0, 3, 4, msg="B", seq=1),
    DeliverRecord(3.5, 2, 0, 3, 4, msg="B", seq=1),
]


class TestQuery:
    def test_filter_kind_heal_between(self):
        assert LogQuery(_SYNTH).kind("send").count() == 2
        assert LogQuery(_SYNTH).heal(2).count() == 3
        assert LogQuery(_SYNTH).between(1.0, 1.5).count() == 3
        assert (
            LogQuery(_SYNTH).filter(lambda r: r.msg == "A").to_list()
            == _SYNTH[:2]
        )

    def test_join_sends_to_delivers(self):
        pairs = list(
            LogQuery(_SYNTH)
            .kind("deliver")
            .join(
                LogQuery(_SYNTH).kind("send").to_list(),
                key=lambda r: r.seq,
            )
        )
        assert [(d.msg, s.seq) for d, s in pairs] == [("A", 0), ("B", 1)]

    def test_group_by_first_seen_order(self):
        groups = LogQuery(_SYNTH).group_by(lambda r: r.heal)
        assert list(groups) == [1, 2]
        assert len(groups[2]) == 3

    def test_window_tumbles(self):
        windows = list(LogQuery(_SYNTH).window(1.0))
        assert [w[0] for w in windows] == [0.0, 1.0, 2.0, 3.0]
        assert [len(w[1]) for w in windows] == [1, 3, 0, 1]
        with pytest.raises(ValueError):
            list(LogQuery(_SYNTH).window(0))

    def test_heal_flows(self, audited_ft):
        log = audited_ft.transport.event_log
        flows = heal_flows(log)
        assert set(flows) == {
            r.heal for r in log if r.kind != "control"
        }
        for f in flows.values():
            assert f["t_first"] <= f["t_last"]
            assert f["delivers"] == sum(f["msgs"].values())
        assert list(heal_flows(log, hid=1)) == [1]

    def test_link_table(self, audited_ft):
        log = audited_ft.transport.event_log
        table = link_table(log)
        assert sum(r["delivered"] for r in table) == sum(
            1 for rec in log if rec.kind == "deliver"
        )
        hot = table[0]["delivered"] + table[0]["dropped"]
        assert all(r["delivered"] + r["dropped"] <= hot for r in table[1:])
        assert link_table(log, top=3) == table[:3]

    def test_queue_timeline_drains(self, audited_ft):
        timeline = queue_timeline(audited_ft.transport.event_log)
        assert timeline and timeline[-1]["depth"] == 0
        assert all(row["depth"] >= 0 for row in timeline)

    def test_cli(self, tmp_path, capsys, audited_ft):
        path = str(tmp_path / "log.jsonl")
        write_jsonl(audited_ft.transport.event_log, path)
        for args in (
            ["flows", path],
            ["flows", path, "--heal", "1", "--json"],
            ["links", path, "--top", "5"],
            ["queues", path, "--bucket", "2.0"],
        ):
            assert query_mod.main(args) == 0
            assert capsys.readouterr().out.strip()


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

class TestCertificates:
    @pytest.mark.parametrize("healer_cls", (ForgivingTreeHealer, ForgivingGraphHealer))
    @pytest.mark.parametrize("latency", LATENCY_CATALOG)
    @pytest.mark.parametrize("scheduler", SCHEDULER_CATALOG)
    def test_pass_across_models(self, healer_cls, latency, scheduler):
        """The acceptance wall: every latency x scheduler model, both
        protocols, lease overlap + drop/dup faults — certified clean
        (obs="audit" is strict, so a violation would raise here)."""
        res = _audited_run(
            healer_cls,
            seed=5,
            n=16,
            events=10,
            latency=latency,
            scheduler=scheduler,
            plan=FaultPlan(drop=0.1, dup=0.05, seed=3),
        )
        assert res.audit is not None and res.audit.ok
        assert res.audit.records == len(res.transport.event_log)

    def test_crash_campaign_certifies(self, audited_ft):
        report = audited_ft.audit
        assert report is not None and report.ok
        assert report.protocol == "ft"
        assert len(report.certificates) == len(audited_ft.transport.heal_stats)
        summary = report.summary()
        assert summary["ok"] and summary["first_violation"] is None
        assert summary["heals"] == len(report.certificates)
        # Every certificate class ran somewhere in the campaign.
        assert set(summary["checks"]) == set(CERTIFICATE_KINDS)

    def test_fg_protocol_tagged(self):
        res = _audited_run(ForgivingGraphHealer, n=16, events=10)
        assert res.audit.protocol == "fg"

    def test_fg_message_one_id_over_the_budget_is_flagged(self):
        """The FG word budget is the constant an ``FGPortion`` needs —
        sender, recipient, port parent, one helper's three links — not a
        member list: a send one id over it is flagged, one exactly at it
        is not."""
        inputs = _audited_run(ForgivingGraphHealer, n=16, events=10).audit_inputs
        log = list(inputs.records)
        i = next(
            k for k, rec in enumerate(log)
            if isinstance(rec, SendRecord) and rec.msg == "FGPortion"
        )

        def budget_violations(ids):
            forged = log[:i] + [replace(log[i], ids=ids)] + log[i + 1:]
            return [v for v in inputs.certify(forged).violations if v.cert == "budget"]

        (overflow,) = budget_violations(10**6)
        budget = int(re.search(r"\(budget (\d+)\)", overflow.detail).group(1))
        assert budget == guarantees.FG_MESSAGE_ID_BUDGET
        assert log[i].ids <= budget
        assert budget_violations(budget) == []
        (flagged,) = budget_violations(budget + 1)
        assert flagged.window == (i, i)
        assert f"carries {budget + 1} ids" in flagged.detail

    def test_inputs_kept_for_recertification(self, audited_ft):
        inputs = audited_ft.audit_inputs
        assert inputs is not None
        again = inputs.certify()
        assert again.ok and again.records == audited_ft.audit.records

    def test_audit_needs_async_transport(self):
        healer = ForgivingTreeHealer(_tree_graph(8, 1))
        with pytest.raises(ValueError):
            run_churn_campaign(
                healer,
                RandomChurnAdversary(seed=1),
                events=4,
                obs="audit",
            )

    def test_protocol_follows_the_mirror_not_the_name(self):
        """The certificate protocol is the mirror's own driver dispatch:
        an FT healer whose *name* mentions a graph is still audited
        against the FT budgets."""

        class RenamedHealer(ForgivingTreeHealer):
            name = "tree-over-a-graph"

        res = _audited_run(RenamedHealer, n=16, events=10)
        assert res.healer_name == "tree-over-a-graph"
        assert res.audit.protocol == "ft"

    def test_arrival_only_log_is_violated_not_skipped(self, audited_ft):
        """A log with no send records proves neither the budget nor the
        arrival matching: both certificates must fail, not pass
        vacuously."""
        inputs = audited_ft.audit_inputs
        stripped = [r for r in inputs.records if not isinstance(r, SendRecord)]
        assert len(stripped) < len(inputs.records)
        certs = {v.cert for v in inputs.certify(stripped).violations}
        assert {"budget", "causality", "accounting"} <= certs

    def test_raise_on_violation_names_evidence(self):
        report = AuditReport(protocol="ft")
        report.campaign_violations.append(
            Violation("budget", 4, (10, 12), "node 7 sent 99 messages")
        )
        with pytest.raises(AuditError, match=r"heal 4 events 10\.\.12"):
            report.raise_on_violation()


# ---------------------------------------------------------------------------
# Mutation self-test
# ---------------------------------------------------------------------------

class TestMutation:
    @pytest.fixture(scope="class")
    def clean_inputs(self):
        return {p: mutate_mod._self_test_inputs(seed=11, protocol=p) for p in ("ft", "fg")}

    @pytest.mark.parametrize("name", sorted(CORRUPTIONS))
    def test_each_corruption_is_caught(self, clean_inputs, name):
        inputs = clean_inputs[CORRUPTIONS[name].protocol]
        caught, detail, violation = check_corruption(inputs, name)
        expected_cert = CORRUPTIONS[name].cert
        assert caught, detail
        assert violation.cert == expected_cert
        # The auditor names the offending heal and event-id window.
        assert violation.heal >= 0
        assert 0 <= violation.window[0] <= violation.window[1]

    def test_run_self_test_passes(self):
        outcomes = run_self_test(seed=11)
        assert set(outcomes) == set(CORRUPTIONS)

    def test_cli(self, capsys):
        assert mutate_mod.main(["--seed", "11"]) == 0
        out = capsys.readouterr().out
        assert "caught  strip-sends" in out
        assert "caught  fg-member-list" in out
        assert f"{len(CORRUPTIONS)}/{len(CORRUPTIONS)} corruptions caught" in out

    def test_undetected_corruption_raises(self, clean_inputs, monkeypatch):
        monkeypatch.setitem(
            mutate_mod.CORRUPTIONS,
            "no-op",
            mutate_mod.CorruptionCase("budget", lambda log, inputs: log),
        )
        with pytest.raises(AuditError, match="no-op"):
            run_self_test(seed=11)


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from tests.conftest import examples  # noqa: E402

#: One drawn lease interval: grant time, hold time (None: never
#: released), write region, and whether the heal has a certificate.
lease_draws = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=12),
        st.one_of(st.none(), st.integers(min_value=0, max_value=6)),
        st.frozensets(st.integers(min_value=0, max_value=9), max_size=3),
        st.booleans(),
    ),
    max_size=14,
)


def _pairwise_exclusion(intervals, parts, certificates, report):
    """The exclusion scan as it was: every pair of heals, (a, b) order."""
    hids = sorted(intervals)
    for a_pos, a in enumerate(hids):
        ga, ra, gia, _ = intervals[a]
        for b in hids[a_pos + 1:]:
            gb, rb, gib, _ = intervals[b]
            if ga < rb and gb < ra:
                shared = parts[a] & parts[b]
                if shared:
                    violation = Violation(
                        "exclusion", b, (min(gia, gib), max(gia, gib)),
                        f"heals {a} and {b} held overlapping lease intervals "
                        f"but their write regions share nodes "
                        f"{sorted(shared)[:8]}",
                    )
                    target = certificates.get(b) or certificates.get(a)
                    if target is not None:
                        target.violations.append(violation)
                    else:
                        report.campaign_violations.append(violation)


class TestExclusionSweep:
    """The grant-time sweep reports exactly what the all-pairs scan did,
    in the same order."""

    @settings(max_examples=examples(60), deadline=None)
    @given(draws=lease_draws)
    def test_sweep_equals_the_pairwise_scan(self, draws):
        from types import SimpleNamespace

        from repro.audit.certify import HealCertificate, _check_exclusion
        from repro.audit.schema import ControlRecord

        controls, deltas, delta_index, stats_by_hid = [], [], {}, {}
        intervals, parts = {}, {}
        for hid, (granted, hold, region, _) in enumerate(draws):
            label = f"delete-{hid}"
            stats_by_hid[hid] = SimpleNamespace(label=label)
            delta_index[label] = len(deltas)
            deltas.append(
                HealDelta(kind="delete", touched=tuple((u, u) for u in sorted(region)))
            )
            parts[hid] = set(region)
            events = [("lease-grant", granted)]
            if hold is not None:
                events.append(("lease-release", granted + hold))
            for ctl, t in events:
                controls.append((t, ctl, hid))
        controls.sort()  # the log's timeline: by time, grants before releases
        records = [
            (i, ControlRecord(t=float(t), heal=hid, depth=-1, src=-1, dst=-1, ctl=ctl))
            for i, (t, ctl, hid) in enumerate(controls)
        ]
        grants = {}
        for i, rec in records:
            if rec.ctl == "lease-grant":
                grants[rec.ref] = (i, rec.t)
            elif rec.ref in grants:
                gi, gt = grants.pop(rec.ref)
                intervals[rec.ref] = (gt, rec.t, gi, i)
        for hid, (gi, gt) in grants.items():
            intervals[hid] = (gt, float("inf"), gi, gi)

        def certs():
            return {
                hid: HealCertificate(heal=hid, label=f"delete-{hid}")
                for hid, draw in enumerate(draws) if draw[3]
            }

        got_certs, want_certs = certs(), certs()
        got, want = AuditReport(protocol="ft"), AuditReport(protocol="ft")
        _check_exclusion(got, got_certs, records, {}, deltas, delta_index, stats_by_hid)
        _pairwise_exclusion(intervals, parts, want_certs, want)
        assert got.campaign_violations == want.campaign_violations
        for hid, cert in want_certs.items():
            assert got_certs[hid].violations == cert.violations


# ---------------------------------------------------------------------------
# Independence: the auditor consumes telemetry, not engines.
# ---------------------------------------------------------------------------

_ENGINE_PACKAGES = (
    "simnet",
    "distributed",
    "fgraph",
    "baselines",
    "regions",
    "harness",
    "faults",
    "churn",
    "adversaries",
    "graphs",
    "core.engine",
    "core.flat",
    "obs",
    "soak",
)


class TestIndependence:
    def test_no_module_level_engine_imports(self):
        """Every repro.audit module's *top-level* imports stay inside the
        package, repro.core.errors, and the stdlib — the harness import
        in mutate.py is function-local by design.  This is the
        oracle-independence acceptance wall, checked structurally."""
        pkg = pathlib.Path(mutate_mod.__file__).parent
        for path in sorted(pkg.glob("*.py")):
            tree = ast.parse(path.read_text())
            for node in tree.body:  # module level only
                names = []
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom):
                    if node.level >= 1:
                        mod = node.module or ""
                        full = "repro." + mod if node.level == 2 else mod
                        names = [full]
                    else:
                        names = [node.module or ""]
                for name in names:
                    assert not any(
                        name == f"repro.{p}" or name.startswith(f"repro.{p}.")
                        for p in _ENGINE_PACKAGES
                    ), f"{path.name} imports {name} at module level"
