"""Graph substrates: plain-dict graphs, generators, metrics, spanning trees,
and incremental tree-metric maintenance (O(changed ancestors) per edit,
worst case O(depth))."""

from . import adjacency, generators, incremental, metrics, spanning
from .adjacency import Graph
from .incremental import DynamicTreeMetrics

__all__ = [
    "DynamicTreeMetrics",
    "Graph",
    "adjacency",
    "generators",
    "incremental",
    "metrics",
    "spanning",
]
