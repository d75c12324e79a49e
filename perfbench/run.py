"""Benchmark of commspread: time to cover, cover quality and memory.

    python3 perfbench/run.py --workload er-ins --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run it from a checkout of the repository; it reads the package from
``src/`` and writes its scratch files under ``.bench_build/``.

The seed makes GRAPHS_PER_RUN graphs of the workload.  A single
closed-loop client runs one job at a time, each in a fresh ``job.py``
process that reads one graph's edge list, computes the cover and writes
it.  The client cycles through the graphs until ``--seconds`` have passed
and every graph has run, and reports medians.  Times are scaled by the
reference workload of ``reference.py``.  Every job's output is checked:
the cover must partition the loaded nodes with ids dense in 0..k-1, the
program's Q must equal the benchmark's own recomputation from the edge
list, and the cover must be byte-identical to the first cover of its
graph.  A job that fails any check counts in ``failed`` and is never
retried or dropped.

With ``--trace 1`` every graph gets a traced job, whose stage spans give
the per-layer metrics, and every UNTRACED_EVERY-th graph also an untraced
one, for the tracing overhead; the end-to-end metrics come only from
``--trace 0``.  Human-readable lines and a JSON record of
the run come first on stdout; the last line is the result object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass

import graphs
import quality
from reference import reference_s, scaled
from spans import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
JOB = os.path.join(HERE, "job.py")
PACKAGE = os.path.join(ROOT, "src", "commspread")

SETUP_REPEATS = 3
# Each run spreads its jobs over several graphs of the workload, so that
# the graph-to-graph spread of the work (sweeps, levels) averages out.
GRAPHS_PER_RUN = 24
UNTRACED_EVERY = 4
# No job starts later than LOOP_LIMIT_S into the loop and none may take
# longer than JOB_TIMEOUT_S, so even a much slower program ends its run
# within 180 s, with the graphs it reached.
LOOP_LIMIT_S = 120
JOB_TIMEOUT_S = 45
TAIL_BEYOND = 10
Q_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Workload:
    """A planted-partition graph and the algorithm run on it."""

    why: str
    algo: str
    groups: int
    size: int
    p_in: float
    cross: int


WORKLOADS = {
    "er-ins": Workload(
        why="ER-like graph (m = 4.4 n, 60% of edges between groups): most nodes become "
        "brokers, so broker allocation dominates and modularity maximization runs several levels",
        algo="detect:ins:0.75",
        groups=30,
        size=100,
        p_in=0.035556,
        cross=7920,
    ),
    "planted-cond": Workload(
        why="strong planted groups under the conductance rule: allocation and node-level "
        "moves dominate, the super-vertex levels do almost nothing",
        algo="detect:cond:0.75",
        groups=50,
        size=100,
        p_in=0.1,
        cross=5000,
    ),
    "louvain-planted": Workload(
        why="the Louvain baseline on the planted-cond graph: refine from singletons, "
        "no traversal and no broker allocation",
        algo="louvain",
        groups=50,
        size=100,
        p_in=0.1,
        cross=5000,
    ),
}

END_TO_END = {
    "run_s": "s",
    "run_s_tail": "s",
    "edges_per_s": "edges/s",
    "modularity": "Q",
    "nmi": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class JobError(Exception):
    """A job process exited abnormally or printed no result."""


def run_job(args: list[str]) -> dict:
    proc = subprocess.run(
        [sys.executable, JOB, *args], capture_output=True, text=True, timeout=JOB_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise JobError(f"job exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    try:
        return json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise JobError(f"job printed no result: {proc.stdout[-500:]!r}") from exc


class Instance:
    """One generated graph, its edge-list file and the check of its covers."""

    def __init__(self, workload: Workload, seed: int, path: str):
        self.seed = seed
        self.path = path
        self.edges, self.truth = graphs.planted(
            workload.groups, workload.size, workload.p_in, workload.cross, seed
        )
        data = graphs.edge_list_bytes(self.edges, seed)
        with open(path, "wb") as fh:
            fh.write(data)
        self.edges_sha256 = hashlib.sha256(data).hexdigest()
        self.nodes = sorted({v for e in self.edges for v in e})
        self.cover_sha256: str | None = None
        self.q = self.nmi = 0.0

    def check(self, out: dict, cover: bytes) -> str | None:
        """Return why a job's output is wrong, or None when it is right.

        The first cover is checked in full and its Q and NMI recomputed;
        every later cover must be byte-identical to it.
        """
        if (out["n"], out["m"]) != (len(self.nodes), len(self.edges)):
            return f"loaded n={out['n']} m={out['m']}, generated {len(self.nodes)} and {len(self.edges)}"
        digest = hashlib.sha256(cover).hexdigest()
        if self.cover_sha256 is None:
            try:
                label = quality.parse_cover(cover.decode("utf-8"), {str(v) for v in self.nodes})
            except (UnicodeDecodeError, ValueError) as exc:
                return f"cover is not a dense partition: {exc}"
            self.cover_sha256 = digest
            self.q = quality.modularity(self.edges, label)
            self.nmi = quality.nmi(
                [self.truth[v] for v in self.nodes], [label[str(v)] for v in self.nodes]
            )
        elif digest != self.cover_sha256:
            return "cover differs from the first cover of this graph"
        if abs(out["q"] - self.q) > Q_TOLERANCE:
            return f"program Q {out['q']!r} differs from recomputed Q {self.q!r}"
        layers = out.get("layers")
        if layers is not None:
            if abs(layers["q.final"] - self.q) > Q_TOLERANCE:
                return f"traced q.final {layers['q.final']!r} differs from Q {self.q!r}"
            if layers["traversal.inspections"] > 2 * len(self.edges) + len(self.nodes):
                return "traversal inspections exceed 2m + n"
        return None


def set_up(workload: Workload, seed: int, workdir: str) -> tuple[list[Instance], list[float]]:
    """Generate and write the run's graphs, then warm up a job process.

    Done SETUP_REPEATS times, each timed and scaled by the reference
    workload; every repeat must write the same bytes.
    """
    times, digests = [], []
    for _ in range(SETUP_REPEATS):
        before = reference_s()
        start = time.perf_counter()
        instances = [
            Instance(workload, seed * GRAPHS_PER_RUN + i, os.path.join(workdir, f"edges{i}.txt"))
            for i in range(GRAPHS_PER_RUN)
        ]
        run_job(["--warmup", instances[0].path])
        wall = time.perf_counter() - start
        times.append(scaled(wall, (before + reference_s()) / 2))
        digests.append([inst.edges_sha256 for inst in instances])
    if any(d != digests[0] for d in digests):
        raise RuntimeError("the graph generator is not deterministic")
    return instances, times


def git_revision() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def source_sha256() -> str:
    """Digest of the package sources, which identifies the code without git."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile of ``samples`` with TAIL_BEYOND samples above it.

    Returns the value and its percentile.  With too few samples for any
    such percentile, returns the maximum.
    """
    ordered = sorted(samples)
    n = len(ordered)
    i = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return ordered[i], 100.0 * (i + 1) / n


def per_graph(runs: list[dict], value) -> float:
    """Mean over the graphs of the median of ``value`` over each graph's runs."""
    by_graph: dict[int, list[float]] = {}
    for run in runs:
        by_graph.setdefault(run["graph"], []).append(value(run))
    return statistics.fmean(statistics.median(v) for _, v in sorted(by_graph.items()))


def end_to_end(
    instances: list[Instance], untraced: list[dict], setup_s: list[float], record: dict
) -> dict[str, float]:
    """The end-to-end metrics of a ``--trace 0`` run; notes sample counts in ``record``."""
    times = [scaled(o["run_s"], o["reference_s"]) for o in untraced]
    run_s = statistics.median(times)
    tail_s, percentile = tail(times)
    record.update(
        samples=len(times),
        run_s_tail_percentile=percentile,
        wall_run_s=statistics.median(o["run_s"] for o in untraced),
        reference_s=statistics.median(o["reference_s"] for o in untraced),
    )
    checked = [inst for inst in instances if inst.cover_sha256 is not None]
    return {
        "run_s": run_s,
        "run_s_tail": tail_s,
        "edges_per_s": statistics.fmean(len(inst.edges) for inst in instances) / run_s,
        "modularity": statistics.fmean(inst.q for inst in checked),
        "nmi": statistics.fmean(inst.nmi for inst in checked),
        "peak_rss_mb": statistics.median(o["rss_kb"] for o in untraced) / 1024.0,
        "setup_s": statistics.median(setup_s),
    }


def per_layer(untraced: list[dict], traced: list[dict], record: dict) -> dict[str, float]:
    """The per-layer metrics of a ``--trace 1`` run; notes span coverage in ``record``."""
    layers = {}
    for k, (unit, *_) in LAYERS.items():
        if unit == "s":
            layers[k] = per_graph(traced, lambda o: scaled(o["layers"][k], o["reference_s"]))
        else:
            layers[k] = per_graph(traced, lambda o: o["layers"][k])
    both = {o["graph"] for o in untraced}

    def job_s(o: dict) -> float:
        return scaled(o["run_s"], o["reference_s"])

    layers["trace.overhead"] = per_graph(
        [o for o in traced if o["graph"] in both], job_s
    ) / per_graph(untraced, job_s)
    root = layers["pipeline.detect_s"] + layers["baselines.louvain_s"]
    record.update(
        samples=len(traced),
        untraced_samples=len(untraced),
        unexplained_share=layers["trace.unexplained_s"] / root,
    )
    return layers


def measure(name: str, seed: int, seconds: int, trace: bool) -> dict:
    """Set up, run the closed loop for ``seconds`` and report one workload."""
    workload = WORKLOADS[name]
    workdir = os.path.join(ROOT, ".bench_build", "perfbench", f"{name}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    cover_path = os.path.join(workdir, "cover.txt")
    # One cycle runs every graph once; a traced cycle runs every graph
    # traced and every UNTRACED_EVERY-th graph untraced first, for the
    # tracing overhead.
    cycle: list[tuple[int, bool]] = []
    for i in range(GRAPHS_PER_RUN):
        if not trace or i % UNTRACED_EVERY == 0:
            cycle.append((i, False))
        if trace:
            cycle.append((i, True))
    runs: dict[bool, list[dict]] = {False: [], True: []}
    attempted = failed = 0
    try:
        instances, setup_s = set_up(workload, seed, workdir)
        start = time.perf_counter()
        deadline, limit = start + seconds, start + max(seconds, LOOP_LIMIT_S)
        while (now := time.perf_counter()) < deadline or (attempted < len(cycle) and now < limit):
            index, traced = cycle[attempted % len(cycle)]
            attempted += 1
            instance = instances[index]
            try:
                out = run_job([instance.path, cover_path, workload.algo] + ["--trace"] * traced)
                with open(cover_path, "rb") as fh:
                    error = instance.check(out, fh.read())
            except (JobError, OSError, subprocess.TimeoutExpired) as exc:
                error = str(exc)
            if error is None:
                runs[traced].append({**out, "graph": index})
            else:
                failed += 1
                print(f"{name}: job {attempted} on graph {index} failed: {error}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_rev": git_revision(),
        "src_sha256": source_sha256(),
        "generator": {"kind": "planted", **asdict(workload)},
        "graph_seeds": [inst.seed for inst in instances],
        "n": [len(inst.nodes) for inst in instances],
        "m": [len(inst.edges) for inst in instances],
        "edges_sha256": [inst.edges_sha256 for inst in instances],
        "cover_sha256": [inst.cover_sha256 for inst in instances],
        "attempted": attempted,
        "failed": failed,
        "fail_rate": failed / attempted,
        "setup_s_samples": setup_s,
    }
    metrics: dict[str, tuple[float, str]] = {}
    if runs[False] and not trace:
        values = end_to_end(instances, runs[False], setup_s, record)
        metrics = {k: (values[k], unit) for k, unit in END_TO_END.items()}
    elif runs[False] and runs[True]:
        layers = per_layer(runs[False], runs[True], record)
        metrics = {k: (layers[k], LAYERS[k][0]) for k in LAYERS}

    for metric, (value, unit) in metrics.items():
        note = ""
        if metric == "run_s_tail":
            note = f"  (p{record['run_s_tail_percentile']:.0f} of {record['samples']} runs)"
        elif metric in LAYERS:
            note = f"  moves {LAYERS[metric][2]} on {LAYERS[metric][3]}"
        print(f"{name}  {metric} = {value:.6g} {unit}{note}")
    print(f"{name}  fail_rate = {record['fail_rate']:.6g} ratio  ({failed} of {attempted} runs)")
    if "unexplained_share" in record:
        print(f"{name}  unexplained share of the root span = {record['unexplained_share']:.4f}")
    print(json.dumps(record))
    return {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"error: no commspread package under {PACKAGE}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: measure(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if len(results) == 1:
        result = results[args.workload]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
