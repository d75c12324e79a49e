"""End-to-end detection pipeline: traverse, allocate brokers, refine."""

from __future__ import annotations

from dataclasses import dataclass

from .cover import Cover, finalize
from .graph import Graph
from .refine import initial_cover, post_process, refine_cover
from .traversal import RunConfig, TraversalResult, run_traversal


@dataclass
class DetectionResult:
    cover: Cover
    traversal: TraversalResult


def detect(g: Graph, cfg: RunConfig) -> DetectionResult:
    """Run the full pipeline and return the finalized cover.

    With ``cfg.run_modmax`` disabled the post-processed cover is returned
    directly (unassigned brokers become singleton communities).
    """
    traversal = run_traversal(g, cfg)
    allocated = post_process(g, initial_cover(traversal), traversal.node_type)
    if cfg.run_modmax:
        cover = refine_cover(g, allocated)
    else:
        cover = allocated.with_singletons()
    return DetectionResult(cover=finalize(cover), traversal=traversal)
