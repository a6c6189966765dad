"""Graph substrates: plain-dict graphs, generators, metrics, spanning trees,
incremental tree-metric maintenance (O(changed ancestors) per edit,
worst case O(depth)) and the maintained adjacency view healers hand out
(O(|delta|) per edit)."""

from . import adjacency, generators, incremental, metrics, spanning, view
from .adjacency import Graph
from .incremental import DynamicTreeMetrics
from .view import OverlayView

__all__ = [
    "DynamicTreeMetrics",
    "Graph",
    "OverlayView",
    "adjacency",
    "generators",
    "incremental",
    "metrics",
    "spanning",
    "view",
]
