"""Stage spans for the traced benchmark job, and the per-layer metrics.

The program carries no tracing code.  :func:`install` replaces the stage
functions by timing wrappers at the module attributes where the pipeline
looks them up, so only the traced job process pays for them.  A wrapper
keeps its call's arguments and result; every count is derived from those
after the job has finished, so no counting runs inside a timed span.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Optional

# Per-layer metric -> (unit, better, the end-to-end metrics it should move,
# the workloads it should move them on).
LAYERS: dict[str, tuple[str, str, str, str]] = {
    "graph.load_s": ("s", "lower", "run_s peak_rss_mb", "all; largest share in louvain-planted"),
    "graph.nodes": ("count", "higher", "run_s peak_rss_mb", "all"),
    "graph.edges": ("count", "higher", "run_s peak_rss_mb", "all"),
    "graph.dropped_duplicates": ("count", "higher", "run_s", "all"),
    "graph.dropped_self_loops": ("count", "higher", "run_s", "all"),
    "traversal.run_s": ("s", "lower", "run_s", "planted-cond er-ins; none in louvain-planted"),
    "traversal.inspections": ("count", "lower", "run_s", "planted-cond er-ins"),
    "traversal.brokers": ("count", "lower", "run_s", "planted-cond er-ins"),
    "traversal.community_nodes": ("count", "higher", "run_s", "planted-cond er-ins"),
    "traversal.inspections_per_bound": ("ratio", "lower", "run_s", "planted-cond er-ins"),
    "allocation.s": ("s", "lower", "run_s edges_per_s modularity", "er-ins >> planted-cond; none in louvain-planted"),
    "allocation.candidates": ("count", "lower", "run_s edges_per_s", "er-ins planted-cond"),
    "allocation.eligible": ("count", "lower", "run_s edges_per_s", "er-ins planted-cond"),
    "allocation.unassigned": ("count", "lower", "modularity", "er-ins planted-cond"),
    "allocation.assigned_ratio": ("ratio", "higher", "modularity", "er-ins planted-cond"),
    "refine.moves_s": ("s", "lower", "run_s modularity nmi", "planted-cond er-ins"),
    "refine.nodes_moved": ("count", "lower", "run_s modularity nmi", "planted-cond er-ins"),
    "refine.contract_s": ("s", "lower", "run_s peak_rss_mb", "er-ins louvain-planted"),
    "refine.level0_vertices": ("count", "lower", "run_s peak_rss_mb", "er-ins louvain-planted"),
    "refine.modmax_s": ("s", "lower", "run_s modularity", "louvain-planted er-ins; ~none in planted-cond"),
    "refine.levels": ("count", "lower", "run_s modularity", "louvain-planted er-ins"),
    "cover.finalize_s": ("s", "lower", "run_s", "all, small"),
    "cover.write_s": ("s", "lower", "run_s", "all, small"),
    "q.initial": ("Q", "higher", "modularity", "er-ins planted-cond"),
    "q.allocated": ("Q", "higher", "modularity", "er-ins planted-cond"),
    "q.final": ("Q", "higher", "modularity", "all"),
    "pipeline.detect_s": ("s", "lower", "-", "er-ins planted-cond"),
    "baselines.louvain_s": ("s", "lower", "-", "louvain-planted"),
    "trace.unexplained_s": ("s", "lower", "-", "all"),
    "trace.overhead": ("ratio", "lower", "-", "all"),
}


@dataclass
class Span:
    name: str
    parent: Optional[int]
    args: tuple
    start: float = 0.0
    end: float = 0.0
    result: Any = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans of one job; a span's parent is the span open at its start."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, module, attr: str, name: str) -> None:
        inner = getattr(module, attr)

        def traced(*args, **kwargs):
            span = Span(name, self._open[-1] if self._open else None, args)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                span.result = inner(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            return span.result

        setattr(module, attr, traced)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.seconds for s in self.named(name))

    def self_time(self, name: str) -> float:
        """Time of the spans called ``name`` minus the time of their children."""
        own = {i for i, s in enumerate(self.spans) if s.name == name}
        children = sum(s.seconds for s in self.spans if s.parent in own)
        return self.total(name) - children


def install(tracer: Tracer) -> None:
    """Wrap the job's entry points and every stage function of the pipeline."""
    from commspread import baselines, cover, graph, pipeline, refine

    for module, attr, name in (
        (graph, "load_edge_list", "load"),
        (pipeline, "detect", "detect"),
        (baselines, "louvain", "louvain"),
        (cover, "write_cover_file", "write"),
        (pipeline, "run_traversal", "traversal"),
        (pipeline, "initial_cover", "initial_cover"),
        (pipeline, "post_process", "allocation"),
        (pipeline, "refine_cover", "refine"),
        (pipeline, "finalize", "finalize"),
        (refine, "reduce_graph", "contract"),
        (refine, "maximize_modularity", "modmax"),
        (baselines, "reduce_graph", "contract"),
        (baselines, "maximize_modularity", "modmax"),
        (baselines, "finalize", "finalize"),
    ):
        tracer.wrap(module, attr, name)


def layer_metrics(tracer: Tracer, final) -> dict[str, float]:
    """Per-layer values of one traced job whose final cover is ``final``.

    Layers a workload never enters (the traversal and allocation under the
    Louvain baseline, for instance) report 0.  Louvain starts refinement
    from singletons, so its ``q.initial`` and ``q.allocated`` are the
    singleton cover's Q.
    """
    from commspread.cover import Cover
    from commspread.metrics import modularity
    from commspread.traversal import NodeType

    g = tracer.named("load")[0].result
    out: dict[str, float] = {
        "graph.load_s": tracer.total("load"),
        "graph.nodes": g.n,
        "graph.edges": g.m,
        "graph.dropped_duplicates": g.load_report.duplicate_edges,
        "graph.dropped_self_loops": g.load_report.self_loops,
    }

    traversal = tracer.named("traversal")
    if traversal:
        types = traversal[0].result.node_type
        out["traversal.inspections"] = traversal[0].result.inspections
        out["traversal.brokers"] = types.count(NodeType.BROKER)
        out["traversal.community_nodes"] = types.count(NodeType.COMMUNITY)
        out["traversal.inspections_per_bound"] = out["traversal.inspections"] / (2 * g.m + g.n)
    out["traversal.run_s"] = tracer.total("traversal")

    allocation = tracer.named("allocation")
    if allocation:
        _, initial, types = allocation[0].args
        allocated = allocation[0].result
        labels = initial.assignment
        eligible = {labels[v] for v in range(g.n) if types[v] == NodeType.COMMUNITY}
        candidates = sum(
            1 for v in range(g.n) if types[v] == NodeType.BROKER and labels[v] not in eligible
        )
        unassigned = len(allocated.unassigned)
        out["allocation.candidates"] = candidates
        out["allocation.eligible"] = len(eligible)
        out["allocation.unassigned"] = unassigned
        out["allocation.assigned_ratio"] = (candidates - unassigned) / candidates if candidates else 0.0
        out["q.initial"] = modularity(g, initial)
        out["q.allocated"] = modularity(g, allocated.with_singletons())
    else:
        out["q.initial"] = out["q.allocated"] = modularity(g, Cover.singletons(g))
    out["allocation.s"] = tracer.total("allocation")

    refine = tracer.named("refine")
    contract = tracer.named("contract")
    if refine:
        start = refine[0].args[1].with_singletons().assignment
        moved = contract[0].args[1].assignment
        out["refine.nodes_moved"] = sum(1 for v in range(g.n) if start[v] != moved[v])
    out["refine.moves_s"] = tracer.self_time("refine")
    out["refine.contract_s"] = tracer.total("contract")
    out["refine.level0_vertices"] = contract[0].result.graph.n if contract else 0
    out["refine.levels"] = len(contract)
    out["refine.modmax_s"] = tracer.self_time("modmax")
    out["cover.finalize_s"] = tracer.total("finalize")
    out["cover.write_s"] = tracer.total("write")
    out["q.final"] = modularity(g, final)
    out["pipeline.detect_s"] = tracer.total("detect")
    out["baselines.louvain_s"] = tracer.total("louvain")
    out["trace.unexplained_s"] = tracer.self_time("detect") + tracer.self_time("louvain")
    for name in LAYERS:
        out.setdefault(name, 0)
    return out
