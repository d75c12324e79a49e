"""One benchmark job, run in a fresh process by ``run.py``.

    python3 perfbench/job.py EDGES COVER ALGO [--trace]
    python3 perfbench/job.py --warmup EDGES

ALGO is ``louvain`` or ``detect:<method>:<threshold>``.  The job reads the
edge list, computes the cover and writes it; ``run_s`` covers exactly that,
not interpreter start-up.  It prints one JSON line with ``run_s``, the
time of the reference workload run just before and after it, the
process's peak RSS, the loaded n and m, the program's own Q of the cover
and, with ``--trace``, the per-layer metrics.  ``--warmup`` only imports
the package and reads the edge list.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from commspread import baselines, cover, graph, metrics, pipeline  # noqa: E402
from commspread.traversal import RunConfig  # noqa: E402

import spans  # noqa: E402
from reference import reference_s  # noqa: E402


def peak_rss_kb() -> int:
    """Peak RSS of this process image in KiB.

    ``ru_maxrss`` would carry over the parent's peak from before ``exec``,
    so the kernel's high-water mark of the current image is read instead.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv: list[str]) -> int:
    if argv[0] == "--warmup":
        with open(argv[1], encoding="utf-8") as fh:
            graph.load_edge_list(fh)
        print("{}")
        return 0
    edges_path, cover_path, algo = argv[:3]
    tracer = None
    if argv[3:] == ["--trace"]:
        tracer = spans.Tracer()
        spans.install(tracer)

    before = reference_s()
    start = time.perf_counter()
    with open(edges_path, encoding="utf-8") as fh:
        g = graph.load_edge_list(fh)
    if algo == "louvain":
        final = baselines.louvain(g)
    else:
        _, method, threshold = algo.split(":")
        final = pipeline.detect(g, RunConfig(method=method, threshold=float(threshold))).cover
    with open(cover_path, "w", encoding="utf-8") as fh:
        cover.write_cover_file(g, final, fh)
    run_s = time.perf_counter() - start
    after = reference_s()

    out = {
        "run_s": run_s,
        "reference_s": (before + after) / 2,
        "rss_kb": peak_rss_kb(),
        "n": g.n,
        "m": g.m,
        "q": metrics.modularity(g, final),
    }
    if tracer is not None:
        out["layers"] = spans.layer_metrics(tracer, final)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
