"""Composable streaming queries over the typed causal event log.

:class:`LogQuery` wraps any iterable of records (a live
``AsyncNetwork.event_log``, a :func:`~repro.audit.schema.load_jsonl`
stream) and exposes lazy, chainable operators —
``filter`` / ``join`` / ``group_by`` / ``window`` — that never hold more
of the log in memory than the operator semantically requires.  The
canned reports the CLI exposes (:func:`heal_flows`,
:func:`link_table`, :func:`queue_timeline`) are built from the same
operators; nothing here knows how the log was produced.

CLI::

    python -m repro.audit.query flows  log.jsonl [--heal HID]
    python -m repro.audit.query links  log.jsonl [--top N]
    python -m repro.audit.query queues log.jsonl [--bucket DT]

where ``log.jsonl`` is a :func:`repro.audit.schema.write_jsonl` export
(``TransportSummary.event_log`` round-trips through it losslessly).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import OrderedDict
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

from .schema import (
    ControlRecord,
    CrashRecord,
    DeliverRecord,
    LogRecord,
    SendRecord,
    load_jsonl,
)


class LogQuery:
    """A lazy pipeline of record operators.

    Every operator returns a new :class:`LogQuery`; the source is only
    consumed when the query is iterated (or collected by a terminal —
    ``count`` / ``to_list`` / ``group_by``).  A query is single-shot,
    like the generator it wraps: build a fresh one per pass, or pass a
    re-iterable (a list) as the source.
    """

    def __init__(self, source: Iterable[LogRecord]):
        self._source = source

    def __iter__(self) -> Iterator[LogRecord]:
        return iter(self._source)

    # -- transforms ---------------------------------------------------

    def filter(self, pred: Callable[[LogRecord], bool]) -> "LogQuery":
        """Keep records satisfying ``pred``."""
        return LogQuery(r for r in self if pred(r))

    def kind(self, *kinds: str) -> "LogQuery":
        """Keep records whose ``kind`` is one of ``kinds``."""
        wanted = frozenset(kinds)
        return self.filter(lambda r: r.kind in wanted)

    def heal(self, hid: int) -> "LogQuery":
        """Keep records belonging to kernel heal ``hid``."""
        return self.filter(lambda r: r.heal == hid)

    def between(self, t0: float, t1: float) -> "LogQuery":
        """Keep records with ``t0 <= t <= t1``."""
        return self.filter(lambda r: t0 <= r.t <= t1)

    def join(
        self,
        other: Iterable[LogRecord],
        key: Callable[[LogRecord], object],
        other_key: Optional[Callable[[LogRecord], object]] = None,
    ) -> Iterator[Tuple[LogRecord, LogRecord]]:
        """Hash-join: pairs ``(left, right)`` where the keys match.

        ``other`` is materialized into the hash side (it is usually the
        smaller stream — e.g. sends joined against deliveries); the
        left side streams.  A left record matching several right
        records yields one pair per match, in right-stream order.
        """
        other_key = other_key or key
        table: Dict[object, List[LogRecord]] = {}
        for rec in other:
            table.setdefault(other_key(rec), []).append(rec)
        for left in self:
            for right in table.get(key(left), ()):
                yield (left, right)

    def group_by(
        self, key: Callable[[LogRecord], object]
    ) -> "OrderedDict[object, List[LogRecord]]":
        """Terminal: buckets in first-seen key order."""
        groups: "OrderedDict[object, List[LogRecord]]" = OrderedDict()
        for rec in self:
            groups.setdefault(key(rec), []).append(rec)
        return groups

    def window(
        self, dt: float, origin: float = 0.0
    ) -> Iterator[Tuple[float, List[LogRecord]]]:
        """Tumbling time windows of width ``dt``, yielded as
        ``(window_start, records)`` as each window closes.

        Requires the stream to be time-ordered (the kernel log is);
        only the open window is buffered.
        """
        if dt <= 0:
            raise ValueError(f"window width must be positive, got {dt}")
        cur_start: Optional[float] = None
        bucket: List[LogRecord] = []
        for rec in self:
            start = origin + ((rec.t - origin) // dt) * dt
            if cur_start is None:
                cur_start = start
            while start > cur_start:
                yield (cur_start, bucket)
                bucket = []
                cur_start += dt
            bucket.append(rec)
        if cur_start is not None:
            yield (cur_start, bucket)

    # -- terminals ----------------------------------------------------

    def count(self) -> int:
        return sum(1 for _ in self)

    def to_list(self) -> List[LogRecord]:
        return list(self)


# ---------------------------------------------------------------------------
# Canned reports (the CLI surface).
# ---------------------------------------------------------------------------

def heal_flows(
    records: Iterable[LogRecord], hid: Optional[int] = None
) -> "OrderedDict[int, Dict[str, object]]":
    """Per-heal message flow: for each heal id, the message-type mix,
    the causal-layer span, and the fault counts — the shape Figure-style
    per-heal narratives are written from."""
    flows: "OrderedDict[int, Dict[str, object]]" = OrderedDict()
    for rec in LogQuery(records):
        if isinstance(rec, (ControlRecord,)):
            continue
        if hid is not None and rec.heal != hid:
            continue
        f = flows.setdefault(
            rec.heal,
            {
                "heal": rec.heal,
                "t_first": rec.t,
                "t_last": rec.t,
                "layers": 0,
                "sends": 0,
                "delivers": 0,
                "drops": 0,
                "dups": 0,
                "dup_suppressed": 0,
                "dead": 0,
                "crashes": 0,
                "msgs": {},
            },
        )
        f["t_first"] = min(f["t_first"], rec.t)
        f["t_last"] = max(f["t_last"], rec.t)
        if rec.depth >= 0:
            f["layers"] = max(f["layers"], rec.depth + 1)
        counter = {
            "send": "sends",
            "deliver": "delivers",
            "drop": "drops",
            "dup": "dups",
            "dup-suppressed": "dup_suppressed",
            "dead": "dead",
            "crash": "crashes",
        }.get(rec.kind)
        if counter:
            f[counter] += 1
        if rec.kind == "deliver":
            msgs: Dict[str, int] = f["msgs"]  # type: ignore[assignment]
            msgs[rec.msg] = msgs.get(rec.msg, 0) + 1
    return flows


def link_table(
    records: Iterable[LogRecord], top: Optional[int] = None
) -> List[Dict[str, object]]:
    """Per-link traffic: delivered / dropped / duplicated counts per
    directed ``src -> dst`` pair, hottest links first."""
    links: Dict[Tuple[int, int], Dict[str, object]] = {}
    for rec in LogQuery(records).kind("deliver", "drop", "dup", "dup-suppressed", "dead"):
        row = links.setdefault(
            (rec.src, rec.dst),
            {"src": rec.src, "dst": rec.dst, "delivered": 0, "dropped": 0,
             "duplicated": 0, "suppressed": 0, "dead": 0, "heals": set()},
        )
        row[{
            "deliver": "delivered",
            "drop": "dropped",
            "dup": "duplicated",
            "dup-suppressed": "suppressed",
            "dead": "dead",
        }[rec.kind]] += 1
        row["heals"].add(rec.heal)  # type: ignore[union-attr]
    out = sorted(
        links.values(),
        key=lambda r: (-(r["delivered"] + r["dropped"]), r["src"], r["dst"]),  # type: ignore[operator]
    )
    for row in out:
        row["heals"] = len(row["heals"])  # type: ignore[arg-type]
    return out[:top] if top else out


def queue_timeline(
    records: Iterable[LogRecord], bucket: float = 1.0
) -> List[Dict[str, float]]:
    """In-flight message depth over time: sends (and dup injections)
    raise the depth, terminal arrivals (deliver / dup-suppressed / dead)
    lower it; sampled once per tumbling ``bucket``."""
    timeline: List[Dict[str, float]] = []
    depth = 0
    for start, recs in LogQuery(records).kind(
        "send", "dup", "deliver", "dup-suppressed", "dead"
    ).window(bucket):
        entered = exited = 0
        for rec in recs:
            if rec.kind in ("send", "dup"):
                entered += 1
            else:
                exited += 1
        depth += entered - exited
        timeline.append(
            {"t": start, "entered": entered, "exited": exited, "depth": depth}
        )
    return timeline


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _emit(obj: object, as_json: bool) -> None:
    if as_json:
        json.dump(obj, sys.stdout, indent=2, default=list)
        sys.stdout.write("\n")
        return
    rows = obj if isinstance(obj, list) else list(obj.values())  # type: ignore[union-attr]
    if not rows:
        print("(no records)")
        return
    headers = [k for k in rows[0] if k != "msgs"]
    print("  ".join(f"{h:>12}" for h in headers))
    for row in rows:
        print("  ".join(f"{_fmt(row[h]):>12}" for h in headers))


def _fmt(v: object) -> str:
    if isinstance(v, float):
        return f"{v:.3f}"
    return str(v)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.audit.query",
        description="Query a JSONL causal event-log export.",
    )
    parser.add_argument("report", choices=("flows", "links", "queues"))
    parser.add_argument("log", help="JSONL export (repro.audit.schema.write_jsonl)")
    parser.add_argument("--heal", type=int, default=None, help="restrict flows to one heal id")
    parser.add_argument("--top", type=int, default=None, help="hottest N links only")
    parser.add_argument("--bucket", type=float, default=1.0, help="queue timeline bucket width")
    parser.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    args = parser.parse_args(argv)

    records = load_jsonl(args.log)
    if args.report == "flows":
        _emit(heal_flows(records, hid=args.heal), args.json)
    elif args.report == "links":
        _emit(link_table(records, top=args.top), args.json)
    else:
        _emit(queue_timeline(records, bucket=args.bucket), args.json)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    sys.exit(main())
