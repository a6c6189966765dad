"""ASCII tables and series rendering for benchmark output.

Benchmarks print their rows through these helpers so the output of
``pytest benchmarks/ --benchmark-only`` doubles as the reproduction log
(and :func:`~benchmarks.conftest.dump_bench` keeps the same tables as
``benchmarks/out/BENCH_<name>.json``).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Monospace table with a header rule."""
    str_rows: List[List[str]] = [[_cell(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    out = []
    out.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    out.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in str_rows:
        out.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(out)


def format_series(label: str, values: Sequence[object], width: int = 72) -> str:
    """One labelled series, wrapped (figure-style data dump)."""
    text = " ".join(_cell(v) for v in values)
    lines = []
    while len(text) > width:
        cut = text.rfind(" ", 0, width)
        cut = cut if cut > 0 else width
        lines.append(text[:cut])
        text = text[cut + 1 :]
    lines.append(text)
    pad = " " * (len(label) + 2)
    return f"{label}: " + ("\n" + pad).join(lines)


def sparkline(values: Sequence[float]) -> str:
    """Tiny unicode sparkline for series in benchmark output."""
    if not values:
        return ""
    blocks = "▁▂▃▄▅▆▇█"
    lo, hi = min(values), max(values)
    if hi == lo:
        return blocks[0] * len(values)
    scale = (len(blocks) - 1) / (hi - lo)
    return "".join(blocks[int((v - lo) * scale)] for v in values)


def banner(title: str) -> str:
    bar = "=" * max(8, len(title) + 4)
    return f"\n{bar}\n  {title}\n{bar}"


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)
