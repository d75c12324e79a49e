#!/usr/bin/env python3
"""Compare the results of the working tree's ``src/`` with those at a git revision.

    python scripts/compare_covers.py REV [--graphs N] [--seed S]

``src/`` at REV is extracted with ``git archive`` into a temporary directory.
Both trees then run this script's digest mode in a subprocess, each with
its own ``src/`` on ``PYTHONPATH``.  A run records the sha256 of the cover
file written by every algorithm of ``tests/test_golden_covers.py`` (detect
ins and cond, with and without modmax, ``louvain``, ``label_propagation``),
of every ``TraversalResult`` field and its derived ``node_type`` of a
traced run under ins and cond, and of the ``cover_stats`` of a seeded
random partition, and the modularity of every cover next to its digest.
It also digests every graph it builds (adjacency, weights, self-loops,
labels and load report) and the
``reduce_graph`` results of the singleton cover and of a seeded random
cover with unassigned nodes.  That cover is shaped like the pipeline's:
each label is the id of one of its members, so no unassigned node's id is
a label.  It also digests the ``sample_edges`` samples of every graph at
``SAMPLE_FRACTIONS``.  It does so for the shipped datasets and for N seeded random
graphs (Erdos-Renyi and planted partitions, some with isolated nodes, with
a few duplicate edges and self-loops in the edge list), and for two fixed
seeded graphs of 2000 nodes, large enough for local moves to run several
closing passes: a G(n, m) graph with m ≈ 4.4 n and a planted partition
of 40 groups.  Every difference
is printed, a differing cover with its old -> new Q, and the last line
counts the differing covers whose Q rose and fell and gives the largest
fall.  The exit status is 1 if anything differs, else 0.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import tarfile
import tempfile
from dataclasses import asdict

ROOT = pathlib.Path(__file__).resolve().parent.parent
DATASETS = ("karate", "lesmis", "walkthrough13")
TRAVERSAL_FIELDS = (
    "community",
    "node_type",
    "ins",
    "discovery_order",
    "processing_order",
    "inspections",
)


def random_edges(rng: random.Random) -> tuple[list[tuple[str, str]], list[str]]:
    """A small seeded edge list with a few duplicates and self-loops, plus its node list."""
    n = rng.randrange(1, 80)
    if rng.random() < 0.5:
        p = rng.uniform(0.02, 0.4)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    else:
        groups = rng.randrange(1, 8)
        p_in, p_out = rng.uniform(0.2, 0.9), rng.uniform(0.0, 0.1)
        pairs = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < (p_in if u % groups == v % groups else p_out)
        ]
    # Loader irregularities at the end: repeats in reverse orientation and
    # self-loops, which the built graph drops and counts.
    pairs += [(v, u) for u, v in rng.sample(pairs, len(pairs) // 10)]
    pairs += [(u, u) for u in rng.sample(range(n), n // 10)]
    return [(str(u), str(v)) for u, v in pairs], [str(v) for v in range(n)]


MID_SIZE = ("er2000", "planted2000")
SAMPLE_FRACTIONS = (0.3, 0.7)


def mid_size_edges(name: str) -> tuple[list[tuple[str, str]], list[str]]:
    """One of the fixed ``MID_SIZE`` graphs as an edge list, plus its node list.

    Random pairs may repeat or loop; the loader drops and counts them.
    """
    rng = random.Random(name)
    n = 2000
    if name == "er2000":
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(8800)]
    else:  # 40 groups of 50 nodes, p_in = 0.2, plus 2000 random pairs
        pairs = [
            (u, v)
            for first in range(0, n, 50)
            for u in range(first, first + 50)
            for v in range(u + 1, first + 50)
            if rng.random() < 0.2
        ]
        pairs += [(rng.randrange(n), rng.randrange(n)) for _ in range(2000)]
    return [(str(u), str(v)) for u, v in pairs], [str(v) for v in range(n)]


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def structure(g) -> list:
    """The weighted structure of a graph, which contracted graphs are known by."""
    return [g.adj, g.weights, g.self_loops]


def seeded_cover(rng: random.Random, n: int) -> list[int]:
    """Random labels named after a member of their community, some nodes -1."""
    if n == 0:
        return []
    seeds = rng.sample(range(n), rng.randrange(1, n + 1))
    labels = [rng.choice(seeds) for _ in range(n)]
    for s in seeds:
        labels[s] = s
    seeds = set(seeds)
    return [-1 if v not in seeds and rng.random() < 0.2 else c for v, c in enumerate(labels)]


def digests(graphs: int, seed: int) -> dict[str, tuple[str, float | None]]:
    """Digest of every result and Q of every cover, keyed ``graph/algorithm[/field]``."""
    from commspread import (
        Cover,
        Graph,
        RunConfig,
        cover_stats,
        detect,
        label_propagation,
        load_edge_list,
        louvain,
        modularity,
        run_traversal,
        write_cover_file,
    )
    from commspread.refine import reduce_graph

    # Trees whose traversal trace is opt-in are asked for it, so their trace
    # digests compare with those of trees that always record it.
    traced = {"trace": True} if "trace" in inspect.signature(run_traversal).parameters else {}
    algorithms = {
        "ins": lambda g: detect(g, RunConfig(method="ins", threshold=0.75)).cover,
        "cond": lambda g: detect(g, RunConfig(method="cond")).cover,
        "ins-skip": lambda g: detect(
            g, RunConfig(method="ins", threshold=0.75, run_modmax=False)
        ).cover,
        "cond-skip": lambda g: detect(g, RunConfig(method="cond", run_modmax=False)).cover,
        "louvain": louvain,
        "lpa": lambda g: label_propagation(g, seed=0),
    }

    cases = []
    for name in DATASETS:
        with open(ROOT / "data" / f"{name}.txt", encoding="utf-8") as fh:
            cases.append((name, load_edge_list(fh)))
    for name in MID_SIZE:
        edges, nodes = mid_size_edges(name)
        cases.append((name, Graph.from_edges(edges, extra_nodes=nodes)))
    for i in range(graphs):
        edges, nodes = random_edges(random.Random(seed * 1_000_003 + i))
        cases.append((f"random{i}", Graph.from_edges(edges, extra_nodes=nodes)))

    out: dict[str, tuple[str, float | None]] = {}
    for name, g in cases:
        graph = structure(g) + [g.labels, asdict(g.load_report)]
        out[f"{name}/graph"] = (sha(json.dumps(graph)), None)
        rng = random.Random(f"{name}/reduce")
        for cover_name, cover in (
            ("singletons", Cover.singletons(g)),
            ("seeded", Cover(seeded_cover(rng, g.n))),
        ):
            rg = reduce_graph(g, cover)
            text = json.dumps(structure(rg.graph) + [rg.label_map, rg.member_map])
            out[f"{name}/reduce-{cover_name}"] = (sha(text), None)
        for fraction in SAMPLE_FRACTIONS:
            text = json.dumps(structure(g.sample_edges(fraction, seed=0)))
            out[f"{name}/sample-{fraction}"] = (sha(text), None)
        for alg, run in algorithms.items():
            cover = run(g)
            text = io.StringIO()
            write_cover_file(g, cover, text)
            out[f"{name}/{alg}"] = (sha(text.getvalue()), modularity(g, cover))
        for method in ("ins", "cond"):
            result = run_traversal(g, RunConfig(method=method, threshold=0.75), **traced)
            for field in TRAVERSAL_FIELDS:
                value = getattr(result, field)
                out[f"{name}/traversal-{method}/{field}"] = (sha(json.dumps(value)), None)
        rng = random.Random(name)
        k = rng.randrange(1, g.n + 1) if g.n else 1
        stats = cover_stats(g, Cover([rng.randrange(k) for _ in range(g.n)]))
        out[f"{name}/cover_stats"] = (sha(json.dumps(asdict(stats), sort_keys=True)), None)
    return out


def run_tree(src: pathlib.Path, graphs: int, seed: int) -> dict[str, list]:
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, __file__, "--digest", "--graphs", str(graphs), "--seed", str(seed)],
        env=env,
        check=True,
        capture_output=True,
        text=True,
    )
    return json.loads(proc.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", nargs="?", help="git revision to compare against")
    parser.add_argument("--graphs", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--digest", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.digest:
        json.dump(digests(args.graphs, args.seed), sys.stdout)
        return 0
    if args.rev is None:
        parser.error("a revision is required")

    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", args.rev, "src"],
        check=True,
        capture_output=True,
    ).stdout
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp)
        old = run_tree(pathlib.Path(tmp) / "src", args.graphs, args.seed)
    new = run_tree(ROOT / "src", args.graphs, args.seed)

    missing = ("missing", None)
    pairs = {key: (old.get(key, missing), new.get(key, missing)) for key in old.keys() | new.keys()}
    differences = sorted(key for key, (a, b) in pairs.items() if a[0] != b[0])
    changes = []  # new Q - old Q of each differing cover
    for key in differences:
        (old_sha, old_q), (new_sha, new_q) = pairs[key]
        line = f"differs: {key} ({old_sha[:12]} -> {new_sha[:12]})"
        if old_q is not None and new_q is not None:
            changes.append(new_q - old_q)
            line += f" Q {old_q:.6f} -> {new_q:.6f}"
        print(line)
    falls = [-d for d in changes if d < 0]
    print(
        f"{len(new)} digests over {len(DATASETS)} datasets, {len(MID_SIZE)} mid-size "
        f"and {args.graphs} random graphs: "
        f"{len(differences)} differ from {args.rev}; of {len(changes)} differing covers "
        f"Q rose on {sum(d > 0 for d in changes)} and fell on {len(falls)}, "
        f"largest fall {max(falls, default=0.0):.6f}"
    )
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
