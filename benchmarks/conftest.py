"""Benchmark suite configuration.

Every benchmark regenerates one of the paper's results (its module
docstring names which, as an ``EXP-*`` id) and prints the measured rows
next to the theoretical bound, so ``pytest benchmarks/ --benchmark-only`` doubles as the
reproduction log.  Every benchmark also dumps its tables to
``benchmarks/out/BENCH_<name>.json`` (:func:`dump_bench`), so a CI run
leaves a machine-readable artifact per experiment, quick or full.
"""

import json
import math
import os

import pytest

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")

QUICK = os.environ.get("CHURN_BENCH_QUICK", "").strip().lower() not in (
    "", "0", "false", "no",
)


def emit(capsys, text: str) -> None:
    """Print a report table outside pytest's capture."""
    with capsys.disabled():
        print(text)


def _coerce(cell):
    """Return display-formatted numbers ("126", "5.2x", "97%") as numbers.

    Benchmarks format cells for the printed tables; the JSON artifact must
    keep numeric columns *numeric* so baseline checks compare numbers, not
    strings (lexically, "97" > "126").  Unit suffixes ``x``/``%`` are
    display-only and dropped.  Anything that is not a finite number passes
    through untouched.
    """
    if not isinstance(cell, str):
        return cell
    body = cell[:-1] if cell.endswith(("x", "%")) else cell
    try:
        return int(body)
    except ValueError:
        try:
            value = float(body)
        except ValueError:
            return cell
    return value if math.isfinite(value) else cell


def dump_bench(name: str, tables, **extra) -> str:
    """Write one benchmark's tables to ``benchmarks/out/BENCH_<name>.json``.

    ``tables`` maps a table name to ``{"headers": [...], "rows": [...]}``
    (or any JSON-able payload); ``extra`` adds top-level keys.  The
    ``quick`` flag is always recorded so a baseline diff knows which
    regime produced the artifact.  Returns the path written.

    Payloads must be JSON-serializable as-is — non-serializable values
    raise instead of being silently stringified (the former ``default=str``
    turned numeric columns into strings, breaking numeric baseline diffs).
    """
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"BENCH_{name}.json")
    with open(path, "w") as fh:
        json.dump({"quick": QUICK, **extra, **tables}, fh, indent=2)
        fh.write("\n")
    return path


def table(headers, rows) -> dict:
    """The standard ``{"headers": ..., "rows": ...}`` table payload.

    Cells that are display-formatted numbers are restored to numbers
    (:func:`_coerce`) so JSON consumers always see numeric columns.
    """
    return {
        "headers": list(headers),
        "rows": [[_coerce(c) for c in r] for r in rows],
    }
