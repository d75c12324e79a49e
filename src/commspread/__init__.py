"""Traversal-based community detection with modularity refinement."""

from .baselines import louvain
from .cover import Cover, read_cover_file, write_cover_file
from .graph import Graph, GraphParseError, load_edge_list
from .metrics import cover_stats, modularity
from .pipeline import DetectionResult, detect
from .traversal import RunConfig, run_traversal

__all__ = [
    "Cover",
    "DetectionResult",
    "Graph",
    "GraphParseError",
    "RunConfig",
    "cover_stats",
    "detect",
    "load_edge_list",
    "louvain",
    "modularity",
    "read_cover_file",
    "run_traversal",
    "write_cover_file",
]
