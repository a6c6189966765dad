"""What ``tests/data/kernel_frontier_pins.json`` pins, and how it was taken.

The file was written by running this module against the commit *before*
the kernel kept a frontier (when every delivery rebuilt the legal set
from every queued envelope)::

    PYTHONPATH=<parent>/src python -m tests.kernel_frontier_pins tests/data/kernel_frontier_pins.json

``tests/test_kernel_frontier.py`` recomputes :func:`observe` on the
current tree and requires equality: which envelope lands next, at what
virtual time, is a fact about the simulated network under a policy and
a seed, which a change to how the kernel *finds* the legal set must not
move.  One lease campaign with drops, duplicates and a crash-during-heal
per catalog policy; every record of the kernel's event log is digested.

The ``<kind>/<overlap>[/crash]`` entries are the same campaign under the
default ``latency`` policy over both healers, both overlap policies and
with / without the crash (``ft/lease/crash`` *is* the ``latency`` entry,
so it is not recorded twice).  They were taken the same way at the commit
before the drivers shared one shell and admission moved behind one object
per overlap policy: which message each driver sends when, and when each
policy lets an event inject, is what that refactor must not move.  The
four ``fg/*`` entries were re-recorded when in-place haft merges replaced
the Forgiving Graph's region rebuild, which changes its heals and insert
tallies, and again when its heals stopped shipping every member the
haft's member list (a probe walk finds the haft, portions go to the
changed members only: other messages, other depths); every other entry
stayed byte-identical both times.
"""

from __future__ import annotations

import hashlib
import json
import sys

from repro.adversaries import OverlapChurnAdversary
from repro.baselines import ForgivingTreeHealer
from repro.faults import CrashDuringHeal, FaultPlan
from repro.fgraph import ForgivingGraphHealer
from repro.graphs import generators
from repro.harness import run_churn_campaign
from repro.simnet import SCHEDULER_CATALOG, TransportSpec


HEALERS = {"ft": ForgivingTreeHealer, "fg": ForgivingGraphHealer}


def campaign_log(scheduler: str, kind: str = "ft", overlap: str = "lease", crash: bool = True):
    """The kernel event log of the pinned campaign under ``scheduler``."""
    crashes = (CrashDuringHeal(event=10, layer=1),) if crash else ()
    result = run_churn_campaign(
        HEALERS[kind](generators.random_tree(160, 5)),
        OverlapChurnAdversary(p_insert=0.3, seed=4),
        events=120,
        metrics="none",
        seed=9,
        transport=TransportSpec(
            mode="async",
            overlap=overlap,
            latency="heavy-tail",
            scheduler=scheduler,
            gap=0.05,
            barrier_every=16,
            record_log=True,
            faults=FaultPlan(drop=0.05, dup=0.03, crashes=crashes),
        ),
    )
    return result.transport


def variants():
    """Pin name -> :func:`campaign_log` arguments."""
    out = {scheduler: (scheduler,) for scheduler in sorted(SCHEDULER_CATALOG)}
    for kind in sorted(HEALERS):
        for overlap in ("serialize", "lease"):
            for crash in (False, True):
                if (kind, overlap, crash) != ("ft", "lease", True):
                    name = f"{kind}/{overlap}" + ("/crash" if crash else "")
                    out[name] = ("latency", kind, overlap, crash)
    return out


def observe():
    out = {}
    for name, args in variants().items():
        summary = campaign_log(*args)
        rows = [rec.to_dict() for rec in summary.event_log]
        out[name] = {
            "records": len(rows),
            "delivered": summary.messages_delivered,
            "makespan": summary.makespan,
            "digest": hashlib.sha256(
                json.dumps(rows, sort_keys=True).encode()
            ).hexdigest(),
        }
    return out


if __name__ == "__main__":
    with open(sys.argv[1], "w") as fh:
        json.dump(observe(), fh, indent=1, sort_keys=True)
        fh.write("\n")
