"""The reference workload by which the benchmark scales its times.

On a shared host the machine's speed drifts by up to 2x within a minute
(CPU time drifts with wall time, so it is not the scheduler).  Each job
times this fixed workload just before and just after its timed region, and
the benchmark reports every time scaled to a machine on which it takes
``REFERENCE_S`` seconds.
"""

from __future__ import annotations

import gc
import time

REFERENCE_S = 0.05


def reference_s() -> float:
    """Seconds a fixed pure-Python graph workload takes right now.

    The work is independent of commspread, runs with the collector off and
    keeps a small heap, so it neither depends on nor adds to the caller's.
    """
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    n = 1500
    adj = [[(v * 7919 + k * 104729) % n for k in range(8)] for v in range(n)]
    for _ in range(20):
        count: dict[int, int] = {}
        for v in range(n):
            for u in adj[v]:
                count[u] = count.get(u, 0) + 1
        sorted(count.items(), key=lambda kv: (kv[1], kv[0]))
    seconds = time.perf_counter() - start
    if enabled:
        gc.enable()
    return seconds


def scaled(seconds: float, reference: float) -> float:
    """``seconds`` measured while the reference took ``reference`` seconds."""
    return seconds * REFERENCE_S / reference
