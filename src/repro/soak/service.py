"""The checkpointed soak service: long-horizon campaigns that survive.

One :class:`SoakService` run drives
:func:`~repro.harness.run_churn_campaign` (``keep_rounds=False`` — O(1)
aggregate memory) over a :class:`~repro.churn.TraceGenerator` workload,
with the full streaming-telemetry stack attached and a durable
checkpoint at every window boundary:

* every event folds into a **per-window**
  :class:`~repro.obs.MetricsRegistry` and the flight-recorder ring;
  heals are head-sampled into the telemetry stream by a
  :class:`~repro.obs.SamplingTracer`;
* every ``window`` events the window closes: the window registry merges
  into the cumulative one (merge == whole-run, by construction and by
  test), a window record goes to the sink, the
  :class:`~repro.obs.SloWatchdog` judges it (breach -> alert record +
  one-shot flight-recorder dump + forced trace sampling), and the
  engine + diameter tracker checkpoint into the
  :class:`~repro.soak.checkpoint.SnapshotStore`;
* on **resume**, the latest manifest entry restores the engine
  (:meth:`~repro.core.flat_tree.FlatForgivingTree.restore`), rebuilds
  the tracker (:meth:`~repro.graphs.incremental.DynamicTreeMetrics.from_parents`),
  fast-forwards the generator to the checkpoint's event index, and —
  before continuing — **differentially cross-validates**: scratch
  copies of the restored engine and its object-core oracle
  (:meth:`~repro.core.flat_tree.FlatForgivingTree.to_object_engine`)
  replay the next ``crossval`` events and must produce bit-identical
  :class:`~repro.core.events.HealReport`\\ s and final overlays.

Determinism contract: a soak killed at any point and resumed produces
the same event stream, the same heals, and the same deterministic
window fields as the unbroken run — only the ``op`` sub-records
(wall-clock throughput, RSS) differ.  Stretch is measured against the
campaign's *original* baseline diameter, carried through checkpoint
metadata (the harness's own denominator resets at the restore point;
see :meth:`~repro.baselines.forgiving.ForgivingTreeHealer.from_engine`).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass
from typing import List, Optional, Tuple

from ..baselines.forgiving import ForgivingTreeHealer
from ..churn import (
    Delete,
    FlashCrowd,
    GeneratorChurnAdversary,
    GeneratorConfig,
    Insert,
    InsertWave,
    Outage,
    TraceGenerator,
)
from ..core import WILL_REBUILD, WILL_SPLICE
from ..core.errors import ReproError
from ..core.flat_tree import FlatForgivingTree
from ..graphs.incremental import DynamicTreeMetrics
from ..harness.experiment import _stream_round, run_churn_campaign
from ..obs import (
    FlightRecorder,
    JsonlSink,
    MetricsRegistry,
    MetricsStreamer,
    PID_PROTOCOL,
    SamplingTracer,
    SloWatchdog,
    default_slos,
)
from .checkpoint import CheckpointError, SnapshotStore


def _rss_kb() -> int:
    """Resident set size in kB (0 where /proc is absent)."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


@dataclass(frozen=True)
class SoakConfig:
    """Everything one soak campaign is a function of (plus the host).

    ``events`` is the campaign *total*: resumed runs continue until the
    stream reaches it.  ``window`` is the telemetry/SLO granularity and
    ``checkpoint_every`` how many windows pass between checkpoints;
    ``crossval`` is the resume cross-validation depth (events replayed
    against the object oracle before continuing).  ``sample_every``
    head-samples 1-in-k heals into the telemetry stream (0 = tracing
    off).  SLO thresholds feed :func:`~repro.obs.default_slos`.
    """

    out_dir: str
    n0: int = 1000
    events: int = 10_000
    seed: int = 0
    branching: int = 2
    will_mode: str = WILL_SPLICE
    window: int = 1000
    checkpoint_every: int = 1
    crossval: int = 200
    sample_every: int = 100
    recorder: int = 4096
    telemetry_max_bytes: int = 64 * 1024 * 1024
    outages: Tuple[Tuple[float, ...], ...] = ()
    flash_crowds: Tuple[Tuple[int, ...], ...] = ()
    slo_max_stretch: float = 64.0
    slo_p99_messages: float = 200.0
    slo_min_events_per_sec: float = 0.0

    def __post_init__(self) -> None:
        if self.will_mode not in (WILL_SPLICE, WILL_REBUILD):
            raise ReproError(
                f"unknown will mode {self.will_mode!r} "
                f"(one of {(WILL_SPLICE, WILL_REBUILD)})"
            )
        if self.events < 1 or self.window < 1 or self.checkpoint_every < 1:
            raise ReproError("events, window, checkpoint_every must be >= 1")
        if self.crossval < 0 or self.sample_every < 0:
            raise ReproError("crossval and sample_every must be >= 0")

    # -- persistence (config.json pins the campaign for resume) -----------
    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(asdict(self), fh, sort_keys=True, indent=2)

    @classmethod
    def load(cls, path: str) -> "SoakConfig":
        with open(path) as fh:
            raw = json.load(fh)
        raw["outages"] = tuple(tuple(o) for o in raw.get("outages", ()))
        raw["flash_crowds"] = tuple(
            tuple(int(x) for x in f) for f in raw.get("flash_crowds", ())
        )
        return cls(**raw)

    def generator_config(self) -> GeneratorConfig:
        acts: List[object] = [
            Outage(at_event=int(o[0]), fraction=float(o[1]),
                   rejoin_fraction=float(o[2]) if len(o) > 2 else 0.6)
            for o in self.outages
        ]
        acts.extend(
            FlashCrowd(at_event=int(f[0]), joiners=int(f[1]),
                       wave=int(f[2]) if len(f) > 2 else 16)
            for f in self.flash_crowds
        )
        return GeneratorConfig(n0=self.n0, seed=self.seed, acts=tuple(acts))


def _apply_event(healer, event):
    if isinstance(event, Insert):
        return healer.insert(event.nid, event.attach_to)
    if isinstance(event, InsertWave):
        return healer.insert_batch(event.joiners)
    assert isinstance(event, Delete)
    return healer.delete(event.nid)


class SoakService:
    """One soak run: fresh start or resume, then windows until done."""

    def __init__(self, config: SoakConfig):
        self.config = config
        self.store = SnapshotStore(os.path.join(config.out_dir, "checkpoints"))
        self.crossval_result: Optional[dict] = None
        self.summary: Optional[dict] = None

    # -- resume machinery --------------------------------------------------
    def _cross_validate(self, entry: dict) -> dict:
        """Replay a window on scratch copies: restored flat engine vs its
        object-core oracle, bit-identical reports and final overlays."""
        cfg = self.config
        k = min(cfg.crossval, cfg.events - entry["event_index"])
        if k <= 0:
            return {"events": 0, "ok": True}
        flat = FlatForgivingTree.restore(self.store.load_engine_state(entry))
        oracle = FlatForgivingTree.restore(
            self.store.load_engine_state(entry)
        ).to_object_engine()
        flat_h = ForgivingTreeHealer.from_engine(flat)
        oracle_h = ForgivingTreeHealer.from_engine(oracle)
        gen_a = TraceGenerator(cfg.generator_config())
        gen_b = TraceGenerator(cfg.generator_config())
        gen_a.skip(entry["event_index"])
        gen_b.skip(entry["event_index"])
        for i in range(k):
            event = gen_a.next()
            assert event == gen_b.next()
            r_flat = _apply_event(flat_h, event)
            r_oracle = _apply_event(oracle_h, event)
            if r_flat != r_oracle:
                raise CheckpointError(
                    f"cross-validation diverged at replay event {i} "
                    f"(campaign event {entry['event_index'] + i}): "
                    f"flat {r_flat!r} != oracle {r_oracle!r}"
                )
        if flat.adjacency() != oracle.adjacency():
            raise CheckpointError(
                "cross-validation: overlays diverged after identical reports"
            )
        return {"events": k, "ok": True}

    # -- the run -----------------------------------------------------------
    def run(self) -> dict:
        cfg = self.config
        os.makedirs(cfg.out_dir, exist_ok=True)
        config_path = os.path.join(cfg.out_dir, "config.json")
        if not os.path.exists(config_path):
            cfg.save(config_path)

        entry = self.store.latest()
        generator = TraceGenerator(cfg.generator_config())
        if entry is None:
            # One copy of the starting tree: the healer reads it, then the
            # tracker takes it over as its own adjacency.
            initial = generator.build_initial()
            healer = ForgivingTreeHealer(
                initial, branching=cfg.branching, will_mode=cfg.will_mode
            )
            tracker = DynamicTreeMetrics(initial)
            start_event = 0
            carry = {
                "d0": tracker.diameter,
                "peak_ddeg": 0,
                "peak_stretch": 0.0,
                "peak_diameter": tracker.diameter,
                "alerts": 0,
                "windows": 0,
                "segments": 0,
            }
        else:
            self.store.verify()
            self.crossval_result = self._cross_validate(entry)
            engine = FlatForgivingTree.restore(
                self.store.load_engine_state(entry)
            )
            healer = ForgivingTreeHealer.from_engine(engine)
            ts = self.store.load_tracker_state(entry)
            tracker = DynamicTreeMetrics.from_parents(
                ts["parents"],
                ids=ts["ids"],
                chords=[tuple(c) for c in ts["chords"]],
            )
            start_event = int(entry["event_index"])
            carry = dict(entry["meta"])
            carry["segments"] = carry.get("segments", 0) + 1

        remaining = cfg.events - start_event
        d0 = carry["d0"]

        # -- instruments (owned here, not by the harness's obs= stack:
        # the service streams and windows; the harness only heals) -------
        telemetry_path = os.path.join(cfg.out_dir, "telemetry.jsonl")
        if os.path.exists(telemetry_path):
            # A killed segment's telemetry is evidence — shelve it, never
            # clobber it.
            i = 1
            while os.path.exists(
                os.path.join(cfg.out_dir, f"telemetry.seg{i}.jsonl")
            ):
                i += 1
            os.replace(
                telemetry_path,
                os.path.join(cfg.out_dir, f"telemetry.seg{i}.jsonl"),
            )
        sink = JsonlSink(telemetry_path, max_bytes=cfg.telemetry_max_bytes)
        cumulative = MetricsRegistry()
        streamer = MetricsStreamer(cumulative, sink)
        recorder = FlightRecorder(cfg.recorder) if cfg.recorder else None
        tracer = (
            SamplingTracer(sink, sample_every=cfg.sample_every)
            if cfg.sample_every
            else None
        )
        watchdog = SloWatchdog(
            default_slos(
                branching=cfg.branching,
                p99_messages=cfg.slo_p99_messages,
                max_stretch=cfg.slo_max_stretch,
                min_events_per_sec=cfg.slo_min_events_per_sec,
            ),
            recorder=recorder,
            tracer=tracer,
            dump_dir=cfg.out_dir,
        )
        carry["alerts"] = int(carry.get("alerts", 0))

        state = {
            "event": start_event,
            "win_reg": MetricsRegistry(),
            "win_events": 0,
            "win_first": start_event,
            "win_peak_ddeg": 0,
            "win_peak_diameter": 0,
            "win_deletes": 0,
            "win_inserts": 0,
            "win_t0": time.perf_counter(),
            "alive": None,
            "rss_peak": _rss_kb(),
        }

        def close_window() -> None:
            if state["win_events"] == 0:
                return
            wall = time.perf_counter() - state["win_t0"]
            rss = _rss_kb()
            state["rss_peak"] = max(state["rss_peak"], rss)
            snap = state["win_reg"].snapshot()
            messages = snap.get("campaign.messages", {})
            peak_stretch = (
                state["win_peak_diameter"] / d0 if d0 else 0.0
            )
            record = {
                "window": carry["windows"],
                "first_event": state["win_first"],
                "last_event": state["event"] - 1,
                "events": state["win_events"],
                "alive": state["alive"],
                "deletes": state["win_deletes"],
                "inserts": state["win_inserts"],
                "peak_degree_increase": state["win_peak_ddeg"],
                "peak_diameter": state["win_peak_diameter"],
                "peak_stretch": peak_stretch,
                "messages": messages,
                "op": {
                    "wall_s": wall,
                    "events_per_sec": (
                        state["win_events"] / wall if wall > 0 else 0.0
                    ),
                    "rss_kb": rss,
                },
            }
            carry["peak_ddeg"] = max(
                carry["peak_ddeg"], state["win_peak_ddeg"]
            )
            carry["peak_diameter"] = max(
                carry["peak_diameter"], state["win_peak_diameter"]
            )
            carry["peak_stretch"] = max(carry["peak_stretch"], peak_stretch)
            cumulative.merge(state["win_reg"])
            streamer.flush(label=carry["windows"])
            sink.emit("window", record)
            for alert in watchdog.evaluate(record):
                carry["alerts"] += 1
                payload = alert.to_dict()
                payload["recorder_dump"] = watchdog.dump_path
                sink.emit("alert", payload)
                if recorder is not None:
                    recorder.record(
                        "alert", clock=float(state["event"]), slo=alert.slo,
                        observed=alert.observed, threshold=alert.threshold,
                    )
            carry["windows"] += 1
            if carry["windows"] % cfg.checkpoint_every == 0:
                self._checkpoint(healer, tracker, state["event"], carry, sink)
            state["win_reg"] = MetricsRegistry()
            state["win_events"] = 0
            state["win_first"] = state["event"]
            state["win_peak_ddeg"] = 0
            state["win_peak_diameter"] = 0
            state["win_deletes"] = 0
            state["win_inserts"] = 0
            state["win_t0"] = time.perf_counter()

        def on_round(record, _healer) -> None:
            state["event"] += 1
            state["win_events"] += 1
            state["alive"] = record.alive
            if record.event == "delete":
                state["win_deletes"] += 1
            else:
                state["win_inserts"] += 1
            if record.max_degree_increase > state["win_peak_ddeg"]:
                state["win_peak_ddeg"] = record.max_degree_increase
            if record.diameter and record.diameter > state["win_peak_diameter"]:
                state["win_peak_diameter"] = record.diameter
            _stream_round(state["win_reg"], record)
            if recorder is not None:
                recorder.record(
                    "event",
                    clock=float(state["event"] - 1),
                    event=record.event,
                    alive=record.alive,
                    messages=record.total_messages,
                    ddeg=record.max_degree_increase,
                    diameter=record.diameter,
                )
            if tracer is not None:
                t = float(state["event"] - 1)
                sid = tracer.begin(
                    f"heal:{record.event}", "heal", t, (PID_PROTOCOL, 0),
                    args={"event_index": state["event"] - 1},
                )
                tracer.end(
                    sid, t + 1.0,
                    args={
                        "messages": record.total_messages,
                        "ddeg": record.max_degree_increase,
                    },
                )
            if state["win_events"] >= cfg.window:
                close_window()

        t_run0 = time.perf_counter()
        rss0 = _rss_kb()
        result = None
        if remaining > 0:
            adversary = GeneratorChurnAdversary(generator, start_at=start_event)
            result = run_churn_campaign(
                healer,
                adversary,
                events=remaining,
                metrics="incremental",
                seed=cfg.seed,
                keep_rounds=False,
                on_round=on_round,
                metrics_tracker=tracker,
            )
            close_window()  # the partial tail window (also checkpoints below)
            if carry["windows"] % cfg.checkpoint_every != 0:
                self._checkpoint(healer, tracker, state["event"], carry, sink)
        wall = time.perf_counter() - t_run0
        if tracer is not None:
            tracer.check_closed()
        segment_events = state["event"] - start_event

        last = self.store.latest()
        self.summary = {
            "deterministic": {
                "n0": cfg.n0,
                "seed": cfg.seed,
                "branching": cfg.branching,
                "will_mode": cfg.will_mode,
                "events_total": state["event"],
                "events_target": cfg.events,
                "segment_events": segment_events,
                "windows": carry["windows"],
                "alerts": carry["alerts"],
                "peak_degree_increase": carry["peak_ddeg"],
                "peak_diameter": carry["peak_diameter"],
                "peak_stretch": carry["peak_stretch"],
                "d0": d0,
                "final_alive": len(healer.alive),
                "checkpoints": (last["index"] + 1) if last else 0,
                "last_checkpoint": last["hash"] if last else None,
                "crossval": self.crossval_result,
                "slo_breached": watchdog.breached,
                "recorder_dump": watchdog.dump_path,
                "traced_heals": tracer.roots_kept if tracer else 0,
            },
            "op": {
                "wall_s": wall,
                "events_per_sec": segment_events / wall if wall > 0 else 0.0,
                "rss_kb_start": rss0,
                "rss_kb_end": _rss_kb(),
                "rss_kb_peak": state["rss_peak"],
            },
        }
        sink.emit("summary", self.summary["deterministic"])
        sink.close()
        with open(os.path.join(cfg.out_dir, "summary.json"), "w") as fh:
            json.dump(self.summary, fh, sort_keys=True, indent=2)
        return self.summary

    def _checkpoint(self, healer, tracker, event_index, carry, sink) -> None:
        entry = self.store.append(
            event_index,
            healer.engine.snapshot_state(),
            tracker.parent_state(),
            meta=dict(carry),
        )
        sink.emit(
            "checkpoint",
            {
                "index": entry["index"],
                "event_index": entry["event_index"],
                "engine": entry["engine"],
                "tracker": entry["tracker"],
                "hash": entry["hash"],
            },
        )
