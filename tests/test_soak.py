"""Tests for the soak subsystem and the streaming-telemetry stack.

The walls this PR must hold: engine snapshots restore to **bit-identical
future behavior** (serialize -> restore -> replay equals the unbroken
run, every branching x will-mode combination), per-window metrics
registries merge to exactly the whole-run registry, the workload
generator is a skippable pure function of its config, the snapshot
store's hash chain detects tampering and deduplicates identical states,
SLO breaches produce alert records plus a replayable flight-recorder
dump, the sampling tracer streams complete per-heal span trees under a
bounded span table, and a soak SIGKILLed mid-run resumes from its
checkpoint with differential cross-validation passing and the same
deterministic telemetry as an unbroken run.
"""

import hashlib
import json
import os
import signal
import subprocess
import sys
import time
import tracemalloc

import pytest

from repro.baselines.forgiving import ForgivingTreeHealer
from repro.churn import (
    Delete,
    FlashCrowd,
    GeneratorChurnAdversary,
    GeneratorConfig,
    Insert,
    InsertWave,
    Outage,
    TraceGenerator,
)
from repro.core.errors import ReproError
from repro.core.flat_tree import FlatForgivingTree
from repro.core.forgiving_tree import WILL_REBUILD, WILL_SPLICE
from repro.graphs import generators
from repro.graphs.incremental import DynamicTreeMetrics
from repro.harness import run_churn_campaign
from repro.obs import (
    JsonlSink,
    MemorySink,
    MetricsRegistry,
    MetricsStreamer,
    PID_PROTOCOL,
    SamplingTracer,
    SloSpec,
    SloWatchdog,
    SpanError,
    FlightRecorder,
    Tracer,
    WindowedSink,
    default_slos,
    validate_trace_jsonl,
)
from repro.soak import (
    CheckpointError,
    SnapshotStore,
    SoakConfig,
    SoakService,
    decode_state,
    encode_state,
)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _drive(healer, events, seed=0, n0=60):
    """Apply a deterministic generator stream; return the HealReports.

    ``n0`` must match the healer's initial node count — the generator
    tracks its own alive set and only emits events over ids it created.
    """
    cfg = GeneratorConfig(n0=n0, seed=seed)
    gen = TraceGenerator(cfg)
    reports = []
    for _ in range(events):
        event = gen.next()
        if isinstance(event, Insert):
            reports.append(healer.insert(event.nid, event.attach_to))
        elif isinstance(event, InsertWave):
            reports.append(healer.insert_batch(event.joiners))
        else:
            reports.append(healer.delete(event.nid))
    return reports


class TestSnapshotRoundTrip:
    """serialize -> restore -> replay is bit-identical to the unbroken run."""

    @pytest.mark.parametrize("branching", [2, 3, 5])
    @pytest.mark.parametrize("will_mode", [WILL_SPLICE, WILL_REBUILD])
    def test_restore_replays_identically(self, branching, will_mode):
        cfg = GeneratorConfig(n0=60, seed=13)
        gen_a, gen_b = TraceGenerator(cfg), TraceGenerator(cfg)
        unbroken = FlatForgivingTree(
            gen_a.build_initial(), branching=branching, will_mode=will_mode
        )
        h_unbroken = ForgivingTreeHealer.from_engine(unbroken)
        _drive(h_unbroken, 80, seed=13)

        resumed_src = FlatForgivingTree(
            gen_b.build_initial(), branching=branching, will_mode=will_mode
        )
        h_resumed = ForgivingTreeHealer.from_engine(resumed_src)
        _drive(h_resumed, 80, seed=13)
        state = resumed_src.snapshot_state()
        restored = FlatForgivingTree.restore(state)
        h_restored = ForgivingTreeHealer.from_engine(restored)

        # Continue both with the same tail; reports must be bit-identical.
        cfg2 = GeneratorConfig(n0=60, seed=13)
        g1, g2 = TraceGenerator(cfg2), TraceGenerator(cfg2)
        g1.skip(80)
        g2.skip(80)
        for _ in range(60):
            e1, e2 = g1.next(), g2.next()
            assert e1 == e2
            if isinstance(e1, Insert):
                r1 = h_unbroken.insert(e1.nid, e1.attach_to)
                r2 = h_restored.insert(e1.nid, e1.attach_to)
            elif isinstance(e1, InsertWave):
                r1 = h_unbroken.insert_batch(e1.joiners)
                r2 = h_restored.insert_batch(e1.joiners)
            else:
                r1 = h_unbroken.delete(e1.nid)
                r2 = h_restored.delete(e1.nid)
            assert r1 == r2
        assert unbroken.adjacency() == restored.adjacency()
        assert unbroken.max_degree_increase() == restored.max_degree_increase()

    def test_object_oracle_agrees_after_restore(self):
        cfg = GeneratorConfig(n0=60, seed=3)
        gen = TraceGenerator(cfg)
        engine = FlatForgivingTree(gen.build_initial())
        healer = ForgivingTreeHealer.from_engine(engine)
        _drive(healer, 60, seed=3)
        restored = FlatForgivingTree.restore(engine.snapshot_state())
        oracle = FlatForgivingTree.restore(
            engine.snapshot_state()
        ).to_object_engine()
        h_flat = ForgivingTreeHealer.from_engine(restored)
        h_oracle = ForgivingTreeHealer.from_engine(oracle)
        g1, g2 = TraceGenerator(cfg), TraceGenerator(cfg)
        g1.skip(60)
        g2.skip(60)
        for _ in range(40):
            e = g1.next()
            assert e == g2.next()
            if isinstance(e, Insert):
                assert h_flat.insert(e.nid, e.attach_to) == h_oracle.insert(
                    e.nid, e.attach_to
                )
            elif isinstance(e, InsertWave):
                assert h_flat.insert_batch(e.joiners) == h_oracle.insert_batch(
                    e.joiners
                )
            else:
                assert h_flat.delete(e.nid) == h_oracle.delete(e.nid)
        assert restored.adjacency() == oracle.adjacency()

    def test_tracker_checkpoint_rebuilds_exactly(self):
        tree = generators.random_tree(80, seed=9)
        healer = ForgivingTreeHealer({k: set(v) for k, v in tree.items()})
        tracker = DynamicTreeMetrics({k: set(v) for k, v in tree.items()})
        cfg = GeneratorConfig(n0=80, seed=9)
        gen = TraceGenerator(cfg)
        for _ in range(50):
            event = gen.next()
            if isinstance(event, Insert):
                report = healer.insert(event.nid, event.attach_to)
            elif isinstance(event, InsertWave):
                report = healer.insert_batch(event.joiners)
            else:
                report = healer.delete(event.nid)
            tracker.apply_report(report)
        state = tracker.parent_state()
        rebuilt = DynamicTreeMetrics.from_parents(
            state["parents"], ids=state["ids"], chords=state["chords"]
        )
        assert rebuilt.diameter == tracker.diameter
        assert rebuilt.n_chords == tracker.n_chords
        rebuilt.check()


class TestCheckpointCodec:
    def test_round_trip_is_bit_exact(self):
        engine = FlatForgivingTree(generators.random_tree(40, seed=1))
        healer = ForgivingTreeHealer.from_engine(engine)
        _drive(healer, 30, seed=1, n0=40)
        state = engine.snapshot_state()
        blob = encode_state(state)
        assert encode_state(decode_state(blob)) == blob

    def test_rejects_garbage(self):
        with pytest.raises(CheckpointError):
            decode_state(b"not a snapshot")
        blob = encode_state(
            FlatForgivingTree(generators.random_tree(10, seed=2)).snapshot_state()
        )
        with pytest.raises(CheckpointError):
            decode_state(blob[:-4])  # truncated array bytes


class TestSnapshotStore:
    def _state(self, seed):
        engine = FlatForgivingTree(generators.random_tree(30, seed=seed))
        return engine.snapshot_state(), {"ids": [0], "parents": [-1],
                                         "chords": []}

    def test_chain_appends_and_verifies(self, tmp_path):
        store = SnapshotStore(str(tmp_path))
        e_state, t_state = self._state(1)
        a = store.append(100, e_state, t_state, meta={"d0": 5})
        b = store.append(200, e_state, t_state, meta={"d0": 5})
        assert b["prev"] == a["hash"]
        assert store.verify() == 2
        assert store.latest()["event_index"] == 200

    def test_identical_states_deduplicate(self, tmp_path):
        store = SnapshotStore(str(tmp_path))
        e_state, t_state = self._state(1)
        a = store.append(100, e_state, t_state)
        b = store.append(200, e_state, t_state)
        assert a["engine"] == b["engine"]
        objects = os.listdir(os.path.join(str(tmp_path), "objects"))
        assert len(objects) == 2  # one engine blob + one tracker blob

    def test_streamed_object_is_the_encoded_blob(self, tmp_path):
        store = SnapshotStore(str(tmp_path))
        e_state, t_state = self._state(1)
        blob = encode_state(e_state)
        entry = store.append(100, e_state, t_state)
        assert entry["engine"] == hashlib.sha256(blob).hexdigest()
        assert store.get_bytes(entry["engine"]) == blob
        assert store.put_bytes(blob) == entry["engine"]
        objects = os.listdir(os.path.join(str(tmp_path), "objects"))
        assert sorted(objects) == sorted([entry["engine"], entry["tracker"]])

    def test_a_stored_blob_is_not_written_again(self, tmp_path, monkeypatch):
        from repro.soak import checkpoint

        store = SnapshotStore(str(tmp_path))
        e_state, _ = self._state(1)
        sha = store.put_parts(checkpoint.state_parts(e_state))

        def no_write(*args, **kwargs):
            raise AssertionError("a stored blob was written again")

        monkeypatch.setattr(checkpoint, "open", no_write, raising=False)
        assert store.put_parts(checkpoint.state_parts(e_state)) == sha
        assert store.put_bytes(encode_state(e_state)) == sha

    def test_append_never_holds_the_whole_blob(self, tmp_path):
        state = FlatForgivingTree(generators.random_tree(5000, seed=2)).snapshot_state()
        size = len(encode_state(state))
        store = SnapshotStore(str(tmp_path))
        tracemalloc.start()
        try:
            store.append(1, state, {"ids": [0], "parents": [-1], "chords": []})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < size // 8, (peak, size)

    def test_tamper_detected(self, tmp_path):
        store = SnapshotStore(str(tmp_path))
        e_state, t_state = self._state(1)
        entry = store.append(100, e_state, t_state)
        obj = os.path.join(str(tmp_path), "objects", entry["engine"])
        with open(obj, "r+b") as fh:
            fh.seek(32)
            fh.write(b"\xff")
        with pytest.raises(CheckpointError):
            store.verify()

    def test_manifest_edit_detected(self, tmp_path):
        store = SnapshotStore(str(tmp_path))
        e_state, t_state = self._state(1)
        store.append(100, e_state, t_state, meta={"d0": 5})
        lines = open(store.manifest_path).read().splitlines()
        doc = json.loads(lines[0])
        doc["event_index"] = 999  # rewrite history
        with open(store.manifest_path, "w") as fh:
            fh.write(json.dumps(doc, sort_keys=True) + "\n")
        with pytest.raises(CheckpointError):
            store.verify()

    def test_torn_tail_tolerated(self, tmp_path):
        store = SnapshotStore(str(tmp_path))
        e_state, t_state = self._state(1)
        store.append(100, e_state, t_state)
        with open(store.manifest_path, "a") as fh:
            fh.write('{"index": 1, "event_ind')  # SIGKILL mid-append
        assert len(store.entries()) == 1
        assert store.verify() == 1


class TestTraceGenerator:
    def test_pure_function_of_config(self):
        cfg = GeneratorConfig(n0=100, seed=5)
        a, b = TraceGenerator(cfg), TraceGenerator(cfg)
        assert [a.next() for _ in range(300)] == [b.next() for _ in range(300)]
        assert a.build_initial() == b.build_initial()

    def test_the_initial_tree_is_shared_and_left_as_built(self):
        # The service hands one build_initial() to the healer, then the
        # tracker takes it over: building mutates nothing, and the healer
        # keeps no reference that the tracker's later edits could reach.
        initial = TraceGenerator(GeneratorConfig(n0=120, seed=6)).build_initial()
        pristine = {k: set(v) for k, v in initial.items()}
        healer = ForgivingTreeHealer(initial)
        tracker = DynamicTreeMetrics(initial)
        assert initial == pristine and list(initial) == list(pristine)
        assert healer.graph() == initial and tracker._adj is initial
        tracker.apply_report(healer.delete(min(pristine)))
        assert initial == healer.graph() != pristine
        assert healer.initial_graph == pristine

    def test_skip_equals_discard(self):
        cfg = GeneratorConfig(n0=100, seed=5)
        a, b = TraceGenerator(cfg), TraceGenerator(cfg)
        for _ in range(150):
            a.next()
        b.skip(150)
        assert [a.next() for _ in range(50)] == [b.next() for _ in range(50)]

    def test_acts_fire_and_stream_stays_valid(self):
        cfg = GeneratorConfig(
            n0=200,
            seed=8,
            acts=(
                Outage(at_event=100, fraction=0.4, rejoin_fraction=0.5),
                FlashCrowd(at_event=300, joiners=40, wave=8),
            ),
        )
        gen = TraceGenerator(cfg)
        alive = set(gen.build_initial())
        ever = set(alive)
        saw_wave = deletes_in_burst = 0
        for i in range(400):
            event = gen.next()
            if isinstance(event, Insert):
                assert event.nid not in ever and event.attach_to in alive
                alive.add(event.nid)
                ever.add(event.nid)
            elif isinstance(event, InsertWave):
                saw_wave += 1
                for nid, attach in event.joiners:
                    assert nid not in ever and attach in alive
                for nid, _ in event.joiners:
                    alive.add(nid)
                    ever.add(nid)
            else:
                assert event.nid in alive
                alive.discard(event.nid)
                if 100 <= i < 180:
                    deletes_in_burst += 1
            assert len(alive) >= 2
        assert saw_wave >= 5  # 40 joiners / wave 8
        assert deletes_in_burst >= 60  # the outage burst is consecutive

    def test_population_is_stationary(self):
        cfg = GeneratorConfig(n0=300, seed=4)
        gen = TraceGenerator(cfg)
        gen.skip(3000)
        assert 150 <= gen.alive_count <= 600

    def test_adversary_reset_rewinds_to_start_at(self):
        cfg = GeneratorConfig(n0=80, seed=2)
        gen = TraceGenerator(cfg)
        adversary = GeneratorChurnAdversary(gen, start_at=40)
        adversary.reset()
        probe = TraceGenerator(cfg)
        probe.skip(40)
        assert adversary.next_event(None) == probe.next()

    def test_config_validation(self):
        with pytest.raises(ReproError):
            GeneratorConfig(n0=1)
        with pytest.raises(ReproError):
            GeneratorConfig(lifetime_min=2.0, lifetime_max=1.0)
        with pytest.raises(ReproError):
            Outage(at_event=0, fraction=1.5)


class TestSinks:
    def test_jsonl_sink_rotates(self, tmp_path):
        path = str(tmp_path / "telemetry.jsonl")
        sink = JsonlSink(path, max_bytes=600)
        for i in range(30):
            sink.emit("metrics", {"seq": i, "pad": "x" * 40})
        sink.close()
        assert sink.rotations >= 2
        assert all(os.path.exists(p) for p in sink.paths)
        total = sum(
            1 for p in sink.paths for _ in open(p)
        )
        assert total == 30
        for p in sink.paths:
            for line in open(p):
                assert json.loads(line)["kind"] == "metrics"

    def test_windowed_sink_aggregates_per_window(self):
        inner = MemorySink()
        win = WindowedSink(inner)
        for v in (1, 2, 3):
            win.emit("round", {"messages": v, "name": "ignored-not-numeric"})
        win.roll("w0")
        win.emit("round", {"messages": 10})
        win.roll("w1")
        summaries = inner.by_kind("window")
        assert len(summaries) == 2
        first = summaries[0]["fields"]["messages"]
        assert first == {"count": 3, "mean": 2.0, "min": 1, "max": 3}
        assert summaries[1]["fields"]["messages"]["max"] == 10
        assert summaries[1]["window"] == 1

    def test_metrics_streamer_deltas(self):
        registry = MetricsRegistry()
        sink = MemorySink()
        streamer = MetricsStreamer(registry, sink)
        registry.counter("events").inc(5)
        streamer.flush()
        registry.counter("events").inc(3)
        streamer.flush()
        records = sink.by_kind("metrics")
        assert records[0]["delta"]["events"] == 5
        assert records[1]["delta"]["events"] == 3
        assert records[1]["cumulative"]["events"] == 8


class TestWindowedMergeEqualsWholeRun:
    def test_merge_of_window_registries_is_whole_run(self):
        tree = generators.random_tree(120, seed=6)
        from repro.adversaries.churn import ScatterChurnAdversary
        from repro.harness.experiment import _stream_round

        whole = MetricsRegistry()
        merged = MetricsRegistry()
        window = MetricsRegistry()
        count = 0

        def on_round(record, healer):
            nonlocal window, count
            _stream_round(whole, record)
            _stream_round(window, record)
            count += 1
            if count % 25 == 0:
                merged.merge(window)
                window = MetricsRegistry()

        healer = ForgivingTreeHealer({k: set(v) for k, v in tree.items()})
        run_churn_campaign(
            healer,
            ScatterChurnAdversary(p_insert=0.35, seed=6),
            events=150,
            seed=6,
            keep_rounds=False,
            on_round=on_round,
        )
        merged.merge(window)  # the partial tail
        assert merged.snapshot() == whole.snapshot()


class TestSamplingTracer:
    def _heal(self, tracer, ts, layers=2):
        root = tracer.begin(f"heal:{ts}", "heal", ts, (PID_PROTOCOL, int(ts)))
        for d in range(layers):
            sid = tracer.begin(
                f"layer-{d}", "layer", ts + 0.1 * d,
                (PID_PROTOCOL, int(ts)), parent=root,
            )
            tracer.instant(
                "deliver", "msg", ts + 0.1 * d, (PID_PROTOCOL, int(ts))
            )
            tracer.end(sid, ts + 0.1 * d + 0.05)
        tracer.end(root, ts + 1.0)
        return root

    def test_head_sampling_keeps_complete_heals(self):
        sink = MemorySink()
        tracer = SamplingTracer(sink, sample_every=3)
        for t in range(9):
            self._heal(tracer, float(t))
        assert tracer.roots_seen == 9
        assert tracer.roots_kept == 3
        records = sink.by_kind("trace")
        # Each kept heal: 3 B + 3 E + 2 instants = 8 records, complete.
        assert len(records) == 24
        text = "\n".join(json.dumps(r) for r in records)
        assert validate_trace_jsonl(text) == 24

    def test_span_table_is_purged(self):
        tracer = SamplingTracer(MemorySink(), sample_every=2)
        for t in range(50):
            self._heal(tracer, float(t))
        assert len(tracer.spans) == 0  # every closed heal was purged
        tracer.check_closed()

    def test_force_keep_overrides_sampling(self):
        sink = MemorySink()
        tracer = SamplingTracer(sink, sample_every=1000)
        self._heal(tracer, 0.0)  # root 1: sampled (first)
        self._heal(tracer, 1.0)  # dropped
        tracer.force_keep(2)
        self._heal(tracer, 2.0)
        self._heal(tracer, 3.0)
        self._heal(tracer, 4.0)  # dropped again
        assert tracer.roots_kept == 3
        names = [r["name"] for r in sink.by_kind("trace") if r["ph"] == "B"
                 and r["cat"] == "heal"]
        assert names == ["heal:0.0", "heal:2.0", "heal:3.0"]

    def test_control_plane_streams_through(self):
        sink = MemorySink()
        tracer = SamplingTracer(sink, sample_every=1000)
        tracer.instant("lease:grant", "lease", 1.0)
        assert sink.by_kind("trace")[-1]["name"] == "lease:grant"

    def test_bounded_memory_cap_names_the_knobs(self):
        tracer = Tracer(max_spans=4)
        for i in range(4):
            tracer.begin(f"s{i}", "x", float(i), (PID_PROTOCOL, 0))
        with pytest.raises(SpanError) as exc:
            tracer.begin("s5", "x", 5.0, (PID_PROTOCOL, 0))
        message = str(exc.value)
        assert "SamplingTracer" in message and "sample_every" in message


class TestSloWatchdog:
    def _window(self, **over):
        record = {
            "window": 0, "first_event": 0, "last_event": 99, "events": 100,
            "peak_degree_increase": 2, "peak_stretch": 1.5,
            "messages": {"p99": 12.0},
            "op": {"events_per_sec": 5000.0},
        }
        record.update(over)
        return record

    def test_quiet_window_raises_nothing(self):
        watchdog = SloWatchdog(default_slos())
        assert watchdog.evaluate(self._window()) == []
        assert not watchdog.breached

    def test_breach_emits_alert_and_dumps_recorder(self, tmp_path):
        recorder = FlightRecorder(16)
        for i in range(10):
            recorder.record("event", clock=float(i), alive=100 - i)
        watchdog = SloWatchdog(
            default_slos(max_stretch=1.0),
            recorder=recorder,
            dump_dir=str(tmp_path),
        )
        alerts = watchdog.evaluate(self._window(window=3))
        assert [a.slo for a in alerts] == ["stretch-certificate"]
        assert alerts[0].observed == 1.5 and alerts[0].window == 3
        assert watchdog.dump_path and os.path.exists(watchdog.dump_path)
        header = json.loads(open(watchdog.dump_path).readline())
        assert header["first_id"] == 0 and header["last_id"] == 9
        # Second breach does not re-dump (the first window is the story).
        first_dump = watchdog.dump_path
        watchdog.evaluate(self._window(window=4))
        assert watchdog.dump_path == first_dump

    def test_breach_arms_sampling_tracer(self):
        tracer = SamplingTracer(MemorySink(), sample_every=10_000)
        watchdog = SloWatchdog(
            default_slos(max_stretch=1.0), tracer=tracer, keep_on_breach=5
        )
        watchdog.evaluate(self._window())
        assert tracer._forced == 5

    def test_absent_metrics_and_small_windows_skip(self):
        watchdog = SloWatchdog(default_slos(max_stretch=1.0))
        # No peak_stretch key at all -> spec skipped, no breach.
        assert watchdog.evaluate({"window": 0, "events": 100}) == []
        # Tiny window -> min_events specs skipped.
        spec = SloSpec("p99", "messages.p99", "<=", 1.0, min_events=50)
        watchdog2 = SloWatchdog([spec])
        assert watchdog2.evaluate(self._window(events=3)) == []

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            SloSpec("bad", "x", "!=", 1.0)


class TestSoakService:
    def test_fresh_run_holds_budgets_and_checkpoints(self, tmp_path):
        config = SoakConfig(
            out_dir=str(tmp_path / "soak"),
            n0=150,
            events=1200,
            window=300,
            seed=17,
            sample_every=50,
            outages=((500, 0.3, 0.5),),
        )
        summary = SoakService(config).run()
        det = summary["deterministic"]
        assert det["events_total"] == 1200
        assert det["windows"] == 4
        assert det["peak_degree_increase"] <= 3
        assert det["alerts"] == 0
        store = SnapshotStore(str(tmp_path / "soak" / "checkpoints"))
        assert store.verify() == det["checkpoints"] == 4
        text = open(str(tmp_path / "soak" / "telemetry.jsonl")).read()
        assert validate_trace_jsonl(text) > 0
        kinds = {json.loads(line)["kind"] for line in text.splitlines()}
        assert {"window", "metrics", "checkpoint", "trace", "summary"} <= kinds

    def test_resume_continues_deterministically(self, tmp_path):
        base = dict(n0=120, window=250, seed=23, sample_every=0, crossval=100)
        whole_dir = str(tmp_path / "whole")
        split_dir = str(tmp_path / "split")
        SoakService(
            SoakConfig(out_dir=whole_dir, events=1000, **base)
        ).run()
        # Same campaign in two segments: stop at 500, then resume to 1000.
        SoakService(SoakConfig(out_dir=split_dir, events=500, **base)).run()
        config_path = os.path.join(split_dir, "config.json")
        doc = json.load(open(config_path))
        doc["events"] = 1000
        json.dump(doc, open(config_path, "w"))
        service = SoakService(SoakConfig.load(config_path))
        summary = service.run()
        assert service.crossval_result["ok"]
        assert service.crossval_result["events"] == 100
        whole = json.load(open(os.path.join(whole_dir, "summary.json")))
        for key in (
            "events_total", "windows", "peak_degree_increase",
            "peak_diameter", "peak_stretch", "final_alive", "d0",
        ):
            assert summary["deterministic"][key] == \
                whole["deterministic"][key], key

    def test_breach_scenario_produces_replayable_alert(self, tmp_path):
        config = SoakConfig(
            out_dir=str(tmp_path / "soak"),
            n0=100,
            events=600,
            window=200,
            seed=29,
            sample_every=100,
            slo_max_stretch=1.01,
        )
        summary = SoakService(config).run()
        det = summary["deterministic"]
        assert det["slo_breached"] and det["alerts"] >= 1
        assert det["recorder_dump"] and os.path.exists(det["recorder_dump"])
        alerts = [
            json.loads(line)
            for line in open(str(tmp_path / "soak" / "telemetry.jsonl"))
            if json.loads(line)["kind"] == "alert"
        ]
        first = alerts[0]
        assert first["slo"] == "stretch-certificate"
        assert first["last_event"] > first["first_event"] >= 0
        header = json.loads(open(det["recorder_dump"]).readline())
        assert header["recorded_total"] > 0


class TestKillResumeCli:
    def test_sigkill_then_resume_cross_validates(self, tmp_path):
        out = str(tmp_path / "soak")
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
        cmd = [
            sys.executable, "-m", "repro.soak.run", "--out", out,
            "--n0", "200", "--events", "100000", "--window", "500",
            "--seed", "41", "--sample-every", "0", "--crossval", "150",
            "--quiet",
        ]
        proc = subprocess.Popen(cmd, env=env, cwd=REPO,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        manifest = os.path.join(out, "checkpoints", "manifest.jsonl")
        deadline = time.time() + 60
        while time.time() < deadline:
            if os.path.exists(manifest) and os.path.getsize(manifest) > 0:
                break
            time.sleep(0.05)
        else:
            proc.kill()
            pytest.fail("no checkpoint appeared within 60s")
        proc.send_signal(signal.SIGKILL)
        proc.wait()

        config_path = os.path.join(out, "config.json")
        doc = json.load(open(config_path))
        done = len(open(manifest).read().splitlines())
        doc["events"] = min(doc["events"], (done + 2) * 500)
        json.dump(doc, open(config_path, "w"))
        result = subprocess.run(
            [sys.executable, "-m", "repro.soak.run", "--out", out, "--resume"],
            env=env, cwd=REPO, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert "cross-validation" in result.stdout
        summary = json.load(open(os.path.join(out, "summary.json")))
        assert summary["deterministic"]["crossval"]["ok"]
        assert summary["deterministic"]["events_total"] == doc["events"]
        store = SnapshotStore(os.path.join(out, "checkpoints"))
        assert store.verify() >= done


class TestValidatorClis:
    def test_validate_trace_jsonl_mode(self, tmp_path):
        sink = JsonlSink(str(tmp_path / "t.jsonl"))
        tracer = SamplingTracer(sink, sample_every=1)
        sid = tracer.begin("heal:0", "heal", 0.0, (PID_PROTOCOL, 0))
        tracer.end(sid, 1.0)
        sink.close()
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
        ok = subprocess.run(
            [sys.executable, "benchmarks/validate_trace.py", "--jsonl",
             str(tmp_path / "t.jsonl")],
            env=env, cwd=REPO, capture_output=True, text=True,
        )
        assert ok.returncode == 0 and "OK" in ok.stdout
        with open(str(tmp_path / "bad.jsonl"), "w") as fh:
            fh.write('{"ph": "E", "ts": 1, "pid": 0, "tid": 0, "sid": 9, '
                     '"args": null}\n')
        bad = subprocess.run(
            [sys.executable, "benchmarks/validate_trace.py", "--jsonl",
             str(tmp_path / "bad.jsonl")],
            env=env, cwd=REPO, capture_output=True, text=True,
        )
        assert bad.returncode == 1 and "INVALID" in bad.stderr

    def test_inspect_recorder_renders_dump(self, tmp_path):
        recorder = FlightRecorder(8)
        for i in range(12):
            recorder.record("event", clock=float(i), alive=50 - i)
        path = recorder.dump(str(tmp_path / "dump.jsonl"))
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
        result = subprocess.run(
            [sys.executable, "benchmarks/inspect_recorder.py", path,
             "--tail", "3"],
            env=env, cwd=REPO, capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert "events 4..11" in result.stdout
        assert "replay window" in result.stdout


class TestObsSummaryDeterminism:
    def test_deterministic_half_is_byte_identical(self):
        from repro.adversaries.churn import ScatterChurnAdversary
        from repro.obs import ObsSpec
        from repro.simnet import TransportSpec

        def once():
            tree = generators.random_tree(80, seed=31)
            healer = ForgivingTreeHealer({k: set(v) for k, v in tree.items()})
            result = run_churn_campaign(
                healer,
                ScatterChurnAdversary(p_insert=0.3, seed=31),
                events=40,
                seed=31,
                transport=TransportSpec(mode="async"),
                obs=ObsSpec(trace=True, profile=True, recorder=512),
            )
            return result.obs
        a, b = once(), once()
        assert json.dumps(a.deterministic(), sort_keys=True) == \
            json.dumps(b.deterministic(), sort_keys=True)
        # The timing half exists but is excluded from the contract.
        assert set(a.deterministic()) == {
            "metrics", "profile", "trace_events", "recorder_events"
        }
        assert a.timing.keys() == a.profile.keys()
