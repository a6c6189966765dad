"""What ``tests/data/overlay_view_pins.json`` pins, and how it was taken.

The file was written by running this module against the commit *before*
the maintained overlay view existed::

    PYTHONPATH=<parent>/src python -m tests.overlay_view_pins tests/data/overlay_view_pins.json

``tests/test_overlay_view.py`` recomputes :func:`observe` on the current
tree and requires equality: the naive baselines' report streams, every
``duel``/``churn_duel`` series and the no-repair ``(connected, diameter,
alive)`` series are facts about the simulated game, which a change to
how the harness *looks* at the graph must not move.
"""

from __future__ import annotations

import hashlib
import json
import sys

from repro.adversaries import (
    DeletionOnlyChurnAdversary,
    MaxDegreeAdversary,
    RandomChurnAdversary,
    SurrogateKillerAdversary,
)
from repro.baselines import (
    BinaryTreeHealer,
    DegreeCappedSurrogateHealer,
    ForgivingTreeHealer,
    LineHealer,
    NoRepairHealer,
    SurrogateHealer,
)
from repro.churn.events import Insert, InsertWave
from repro.core.errors import SimulationOverError
from repro.graphs import generators
from repro.harness import churn_duel, duel, run_campaign

SERIES = ("deleted", "inserted", "alive", "max_degree_increase", "diameter", "connected")


def apply_event(healer, event):
    if isinstance(event, Insert):
        return healer.insert(event.nid, event.attach_to)
    if isinstance(event, InsertWave):
        return healer.insert_batch(event.joiners)
    return healer.delete(event.nid)


def play(healer, adversary, rounds):
    """Drive ``healer`` directly; one ``(event, report)`` per round."""
    if not hasattr(adversary, "next_event"):
        adversary = DeletionOnlyChurnAdversary(adversary)
    adversary.reset()
    out = []
    for _ in range(rounds):
        if len(healer.alive) <= 1:
            break
        try:
            event = adversary.next_event(healer)
        except SimulationOverError:
            break
        out.append((event, apply_event(healer, event)))
    return out


def report_stream(healer, adversary, rounds):
    return [
        [r.deleted, r.inserted, sorted(r.edges_added), sorted(r.edges_removed)]
        for _, r in play(healer, adversary, rounds)
    ]


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def _duel_series(results):
    return {
        name: [result.series(attr) for attr in SERIES]
        for name, result in sorted(results.items())
    }


def no_repair_series(metrics: str):
    graph = generators.random_connected_gnp(40, 0.15, seed=3)
    result = run_campaign(
        NoRepairHealer(graph), MaxDegreeAdversary(), rounds=20, metrics=metrics, seed=4
    )
    return [[r.connected, r.diameter, r.alive] for r in result.rounds]


def observe():
    pa = generators.preferential_attachment(80, 2, seed=11)
    gnp = generators.random_connected_gnp(60, 0.08, seed=4)
    naive = [
        SurrogateHealer, LineHealer, BinaryTreeHealer, NoRepairHealer,
        DegreeCappedSurrogateHealer, ForgivingTreeHealer,
    ]
    return {
        "surrogate_stream": digest(
            report_stream(SurrogateHealer(pa), SurrogateKillerAdversary(), 60)
        ),
        "line_stream": digest(
            report_stream(
                LineHealer(gnp),
                RandomChurnAdversary(p_insert=0.3, seed=5, attach="hub"),
                80,
            )
        ),
        "duel": digest(
            _duel_series(duel(pa, naive, MaxDegreeAdversary, rounds=40, seed=2))
        ),
        "churn_duel": digest(
            _duel_series(
                churn_duel(
                    gnp,
                    naive,
                    lambda: RandomChurnAdversary(p_insert=0.4, seed=9, attach="leaf"),
                    events=60,
                    seed=2,
                )
            )
        ),
        "no_repair_double_sweep": no_repair_series("double-sweep"),
        "no_repair_exact": no_repair_series("exact"),
    }


if __name__ == "__main__":
    with open(sys.argv[1], "w") as fh:
        json.dump(observe(), fh, indent=1, sort_keys=True)
        fh.write("\n")
