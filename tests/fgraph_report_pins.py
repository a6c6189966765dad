"""What ``tests/data/fgraph_report_pins.json`` pins, and how it was taken.

The file was re-recorded when in-place haft merges (remove + binary
addition) replaced the rebuild of each region — that change moves the
heals themselves: other hafts, images, reports and insert tallies — and
again when heals stopped shipping every member the haft's member list
(a probe walk finds the haft, portions go to the changed members only:
the tallies and the events that name message recipients move, the edge
sets and images do not).  Both times the streams were taken from the
changed engine::

    PYTHONPATH=src python -m tests.fgraph_report_pins tests/data/fgraph_report_pins.json

A change that must *not* move them (a refactor, a speed-up) records
nothing: it runs the same command against a checkout of its parent
(``PYTHONPATH=<parent>/src``) only when the file itself is suspect.
``tests/test_fgraph.py::TestReportPins`` recomputes :func:`observe` on
the current tree and requires equality.  Every :class:`HealReport` of a
campaign — its ordered ``events``, both edge sets and its per-node
message tally — and the final image are folded into one sha256 per
campaign: the Forgiving Graph's heal is a fact about the game, which a
change to how the engine *computes* it must not move.

* ``massacre/s3``, ``massacre/s7`` — a growth wave then the hub
  massacre on a scale-free graph (large merged regions, many rebuilds);
* ``mixed`` — uniform churn with a batch wave every seventh round;
* ``distributed`` — the counted-message runtime's per-node tallies and
  image over a mixed campaign.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys

from repro.adversaries import GrowthThenMassacreAdversary, RandomChurnAdversary
from repro.churn.events import Insert, InsertWave
from repro.fgraph import DistributedForgivingGraph, ForgivingGraphHealer
from repro.graphs import generators


def _feed(h, value) -> None:
    h.update(json.dumps(value, sort_keys=True).encode())


def _feed_report(h, report) -> None:
    _feed(h, [
        [repr(e) for e in report.events],
        sorted(report.edges_added),
        sorted(report.edges_removed),
        sorted(report.messages_per_node.items()),
    ])


def _feed_view(h, view) -> None:
    _feed(h, sorted((n, sorted(row.items())) for n, row in view.items()))


def massacre(seed: int, rounds: int = 160) -> str:
    healer = ForgivingGraphHealer(generators.preferential_attachment(300, 2, seed=seed))
    adversary = GrowthThenMassacreAdversary(growth=40, seed=seed)
    h = hashlib.sha256()
    for _ in range(rounds):
        event = adversary.next_event(healer)
        if isinstance(event, Insert):
            _feed_report(h, healer.insert(event.nid, event.attach_to))
        else:
            _feed_report(h, healer.delete(event.nid))
    _feed_view(h, healer.view())
    return h.hexdigest()


def mixed(seed: int = 5, rounds: int = 300) -> str:
    healer = ForgivingGraphHealer(generators.random_connected_gnp(80, 0.06, seed=seed))
    adversary = RandomChurnAdversary(p_insert=0.45, seed=seed)
    rng = random.Random(seed)
    nxt = 10_000  # wave ids: clear of the adversary's own counter
    h = hashlib.sha256()
    for r in range(rounds):
        if r % 7 == 6:
            alive = sorted(healer.alive)
            joiners = [(nxt + i, rng.choice(alive)) for i in range(rng.randint(2, 6))]
            nxt += len(joiners)
            event = InsertWave(tuple(joiners))
        else:
            event = adversary.next_event(healer)
        if isinstance(event, InsertWave):
            report = healer.insert_batch(event.joiners)
        elif isinstance(event, Insert):
            report = healer.insert(event.nid, event.attach_to)
        else:
            report = healer.delete(event.nid)
        _feed_report(h, report)
    _feed_view(h, healer.view())
    return h.hexdigest()


def distributed(seed: int = 11, rounds: int = 120) -> str:
    g = generators.random_connected_gnp(40, 0.1, seed=seed)
    dist = DistributedForgivingGraph({k: set(v) for k, v in g.items()})
    rng = random.Random(seed)
    nxt = max(g) + 1
    h = hashlib.sha256()
    for _ in range(rounds):
        alive = sorted(dist.alive)
        roll = rng.random()
        if len(alive) > 2 and roll < 0.55:
            stats = dist.delete(rng.choice(alive))
        elif roll < 0.85:
            stats = dist.insert(nxt, rng.choice(alive))
            nxt += 1
        else:
            wave = [(nxt + i, rng.choice(alive)) for i in range(rng.randint(2, 4))]
            nxt += len(wave)
            stats = dist.insert_batch(wave)
        _feed(h, sorted(stats.sent.items()))
    _feed(h, sorted(dist.edges()))
    return h.hexdigest()


def observe() -> dict:
    return {
        "massacre/s3": massacre(3),
        "massacre/s7": massacre(7),
        "mixed": mixed(),
        "distributed": distributed(),
    }


if __name__ == "__main__":  # pragma: no cover - pin regeneration
    with open(sys.argv[1], "w") as fh:
        json.dump(observe(), fh, indent=2, sort_keys=True)
        fh.write("\n")
