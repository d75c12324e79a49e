#!/usr/bin/env python3
"""Compare the results of the working tree's ``src/`` with those at a git revision.

    python scripts/compare_covers.py REV [--graphs N] [--seed S]

``src/`` at REV is extracted with ``git archive`` into a temporary directory.
Both trees then run this script's digest mode in a subprocess, each with
its own ``src/`` on ``PYTHONPATH``.  A run records the sha256 of the cover
file written by every algorithm of ``tests/test_golden_covers.py`` (detect
ins and cond, with and without modmax, and ``louvain``), of every
``TraversalResult`` field and its derived ``node_type`` of a traced run
under ins and cond, from the default start and from the last node
(``start=g.n - 1``), and of the ``cover_stats`` fields of a seeded random
partition, and the modularity of every cover next to its digest.
It also digests every graph it builds (adjacency, weights, self-loops,
labels and load report) and the ``reduce_graph`` results (contracted
graph and member map) of the singleton cover and of a seeded random
cover with unassigned nodes.  That cover is shaped like the pipeline's:
each label is the id of one of its members, so no unassigned node's id is
a label.  It does so for the shipped datasets and for N seeded random
graphs (Erdos-Renyi and planted partitions, some with isolated nodes, with
a few duplicate edges and self-loops in the edge list), and for two fixed
seeded graphs of 2000 nodes, large enough for local moves to run several
closing passes: a G(n, m) graph with m ≈ 4.4 n and a planted partition
of 40 groups.  On a seeded copy of each of these two with fractional
weights and self-loops down to 1e-6, where every float sum depends on its
order, it also digests ``_local_moves`` from singletons and from a seeded
cover.  It does the same on the contraction of each of the two graphs
themselves by their own ``_local_moves`` partition: integral weights, few
of them above 1.0 on the G(n, m) graph and most on the planted one.
Graphs built by the loader are unit graphs (``Graph.unit``), so their
local moves take strengths from degrees and their ``reduce_graph`` digests
come from the loop that reads no weight and counts cross weights in ints
(a count that reached a contracted graph as an int would print as ``1``,
not ``1.0``, in its digest), while the fractional copies and
the level-1 graphs, which hold weights other than 1.0, take the weighted
path.
The random and 2000-node graphs are built by ``load_edge_list`` from
their edge lines followed by one ``v v`` line per node, so both trees
build them from the same text with their own loader.
It digests the ``load_edge_list`` graph of ``LOADER_TEXTS`` seeded
irregular edge-list texts (comments, blank lines, tabs, CRLF ends,
reversed duplicates, self-loops and labels with an inner ``#``), with the
pattern in which its nodes share weight rows, and the ``GraphParseError``
text of each of them with one or two malformed lines put in.  Every
difference is printed, a differing cover with its old -> new Q, and the
last line counts the differing covers whose Q rose and fell and gives the
largest fall.  The exit status is 1 if anything differs, else 0.  If a digest run
fails, its stderr is printed, with which tree failed, and the exit status
is 1.

Each digest run also counts two kinds of work, each if its tree has the
name: the calls of ``refine._count_elements``, one per broker scored by
the allocation, one per local-move evaluation on a level that counts
neighbor labels and one per super-vertex row built by the contraction of
a unit graph, and the adjacency entries read by
``refine._mark_next_to``, the local moves' sweeps of a community that
lost a member.  The summary prints both trees' totals, work measures
that need no instrumented copy; they do not change the exit status.

REV can reach back to ``7cb54c8``, the first tree whose ``run_traversal``
takes ``trace``; the digest mode fails on older trees.  The two
digest processes draw their own string-hash seeds unless ``PYTHONHASHSEED``
is set, so comparing ``HEAD`` with an unchanged tree checks that no result
depends on hash or set order.
"""

from __future__ import annotations

import argparse
import hashlib
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


LOADER_TEXTS = 40
LABELS_WITH_HASH = ("a#1", "b#", "x#y#z")
NOISE_LINES = ("\n", "  \t \n", "# comment\n", "  # a b\n", "#\n", "\t#x y z w\r\n")
BAD_LINES = ("x\n", "x y z\n", "x #y\n", "a#1\t#\n", "a\tb\tc\r\n")


def loader_lines(rng: random.Random) -> list[str]:
    """The lines of a seeded edge-list text with every irregularity the loader handles."""
    labels = [str(v) for v in range(rng.randrange(1, 60))] + list(LABELS_WITH_HASH)
    pairs = [(rng.choice(labels), rng.choice(labels)) for _ in range(rng.randrange(200))]
    pairs += [(b, a) for a, b in rng.sample(pairs, len(pairs) // 5)]
    pairs += [(a, a) for a in rng.sample(labels, len(labels) // 10)]
    rng.shuffle(pairs)
    lines = []
    for a, b in pairs:
        if rng.random() < 0.1:
            lines.append(rng.choice(NOISE_LINES))
        lead = rng.choice(("", "", " ", "\t"))
        sep = rng.choice((" ", "\t", " \t ", "   "))
        end = rng.choice(("\n", "\n", "\r\n", " \n", "\t\r\n"))
        lines.append(f"{lead}{a}{sep}{b}{end}")
    return lines


MID_SIZE = ("er2000", "planted2000")


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


def edge_list_graph(edges: list[tuple[str, str]], nodes: list[str]):
    """The ``load_edge_list`` graph of ``edges``, then one ``v v`` line per node.

    A self-loop line gives a new label an id and adds no edge, so every
    listed node is in the graph, isolated or not, and the loader counts
    one self-loop per node on top of the edge list's own.
    """
    from commspread import load_edge_list

    return load_edge_list([f"{a} {b}\n" for a, b in edges] + [f"{v} {v}\n" for v in nodes])


def fractional_copy(g, rng: random.Random):
    """``g`` with a log-uniform weight in [1e-6, 1] on every edge and self-loop."""
    from commspread import Graph

    weights = [[0.0] * len(nbrs) for nbrs in g.adj]
    for v, nbrs in enumerate(g.adj):
        for i, u in enumerate(nbrs):
            if u > v:
                w = 10.0 ** rng.uniform(-6.0, 0.0)
                weights[v][i] = w
                weights[u][g.adj[u].index(v)] = w
    loops = [10.0 ** rng.uniform(-6.0, 0.0) for _ in range(g.n)]
    return Graph(adj=g.adj, weights=weights, self_loops=loops, labels=[])


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
        GraphParseError,
        RunConfig,
        cover_stats,
        detect,
        load_edge_list,
        louvain,
        modularity,
        run_traversal,
        write_cover_file,
    )
    from commspread.refine import _local_moves, reduce_graph

    algorithms = {
        "ins": lambda g: detect(g, RunConfig(method="ins", threshold=0.75)).cover,
        "cond": lambda g: detect(g, RunConfig(method="cond")).cover,
        "ins-skip": lambda g: detect(
            g, RunConfig(method="ins", threshold=0.75, run_modmax=False)
        ).cover,
        "cond-skip": lambda g: detect(g, RunConfig(method="cond", run_modmax=False)).cover,
        "louvain": louvain,
    }

    cases = []
    for name in DATASETS:
        with open(ROOT / "data" / f"{name}.txt", encoding="utf-8") as fh:
            cases.append((name, load_edge_list(fh)))
    for name in MID_SIZE:
        cases.append((name, edge_list_graph(*mid_size_edges(name))))
    for i in range(graphs):
        edges, nodes = random_edges(random.Random(seed * 1_000_003 + i))
        cases.append((f"random{i}", edge_list_graph(edges, nodes)))

    out: dict[str, tuple[str, float | None]] = {}
    for i in range(LOADER_TEXTS):
        rng = random.Random(f"loader{i}")
        lines = loader_lines(rng)
        g = load_edge_list(io.StringIO("".join(lines)))
        first_holder: dict[int, int] = {}
        sharing = [first_holder.setdefault(id(ws), v) for v, ws in enumerate(g.weights)]
        graph = structure(g) + [g.labels, asdict(g.load_report), sharing]
        out[f"loader{i}/graph"] = (sha(json.dumps(graph)), None)
        for _ in range(rng.randrange(1, 3)):
            lines.insert(rng.randrange(len(lines) + 1), rng.choice(BAD_LINES))
        try:
            load_edge_list(io.StringIO("".join(lines)))
            error = "no error"
        except GraphParseError as exc:
            error = str(exc)
        out[f"loader{i}/error"] = (sha(error), None)
    for name, g in cases:
        graph = structure(g) + [g.labels, asdict(g.load_report)]
        out[f"{name}/graph"] = (sha(json.dumps(graph)), None)
        rng = random.Random(f"{name}/reduce")
        for cover_name, cover in (
            ("singletons", Cover.singletons(g)),
            ("seeded", Cover(seeded_cover(rng, g.n))),
        ):
            rg = reduce_graph(g, cover)
            text = json.dumps(structure(rg.graph) + [rg.member_map])
            out[f"{name}/reduce-{cover_name}"] = (sha(text), None)
        for alg, run in algorithms.items():
            cover = run(g)
            text = io.StringIO()
            write_cover_file(g, cover, text)
            out[f"{name}/{alg}"] = (sha(text.getvalue()), modularity(g, cover))
        # Traversals from the default start and from the last node, which
        # must come before the lowest-degree restarts.
        starts = {"": None, "-last": g.n - 1} if g.n else {"": None}
        for method in ("ins", "cond"):
            for suffix, start in starts.items():
                cfg = RunConfig(method=method, threshold=0.75, start=start)
                result = run_traversal(g, cfg, trace=True)
                for field in TRAVERSAL_FIELDS:
                    text = json.dumps(getattr(result, field))
                    out[f"{name}/traversal-{method}{suffix}/{field}"] = (sha(text), None)
        if name in MID_SIZE:
            rng = random.Random(f"{name}/fractional")
            level = fractional_copy(g, rng)
            seeded = Cover(seeded_cover(rng, g.n)).with_singletons().assignment
            for start, initial in (("singletons", None), ("seeded", seeded)):
                partition = _local_moves(level, initial)
                out[f"{name}/fractional-moves-{start}"] = (sha(json.dumps(partition)), None)
            level = reduce_graph(g, Cover(_local_moves(g))).graph
            rng = random.Random(f"{name}/level1")
            seeded = Cover(seeded_cover(rng, level.n)).with_singletons().assignment
            for start, initial in (("singletons", None), ("seeded", seeded)):
                partition = _local_moves(level, initial)
                out[f"{name}/level1-moves-{start}"] = (sha(json.dumps(partition)), None)
        rng = random.Random(name)
        k = rng.randrange(1, g.n + 1) if g.n else 1
        stats = cover_stats(g, Cover([rng.randrange(k) for _ in range(g.n)]))
        text = json.dumps([stats.sizes, stats.modularity, stats.conductances], sort_keys=True)
        out[f"{name}/cover_stats"] = (sha(text), None)
    return out


def counted_digests(graphs: int, seed: int) -> dict:
    """:func:`digests`, the calls of ``refine._count_elements`` they made and
    the adjacency entries that ``refine._mark_next_to`` read.

    A total is ``None`` when the tree's ``refine`` has no such name.
    """
    from commspread import refine

    calls = entries = None
    count = getattr(refine, "_count_elements", None)
    if count is not None:
        calls = 0

        def counting(mapping, iterable):
            nonlocal calls
            calls += 1
            count(mapping, iterable)

        refine._count_elements = counting
    mark = getattr(refine, "_mark_next_to", None)
    if mark is not None:
        entries = 0

        def sweeping(dirty, c, members, adj, partition):
            nonlocal entries
            entries += sum(map(len, map(adj.__getitem__, members)))
            mark(dirty, c, members, adj, partition)

        refine._mark_next_to = sweeping
    return {
        "digests": digests(graphs, seed),
        "count_elements": calls,
        "mark_next_to": entries,
    }


def run_tree(src: pathlib.Path, tree: str, graphs: int, seed: int) -> dict:
    """:func:`counted_digests` of ``src``; exits with the child's stderr if its run fails."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, __file__, "--digest", "--graphs", str(graphs), "--seed", str(seed)],
        env=env,
        capture_output=True,
        text=True,
    )
    if proc.returncode:
        sys.stderr.write(proc.stderr)
        sys.exit(f"digest run of {tree} failed with exit status {proc.returncode}")
    return json.loads(proc.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", nargs="?", help="git revision to compare against")
    parser.add_argument("--graphs", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--digest", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.digest:
        json.dump(counted_digests(args.graphs, args.seed), sys.stdout)
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
        old_run = run_tree(pathlib.Path(tmp) / "src", args.rev, args.graphs, args.seed)
    new_run = run_tree(ROOT / "src", "the working tree", args.graphs, args.seed)
    old, new = old_run["digests"], new_run["digests"]

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
        f"and {args.graphs} random graphs and {LOADER_TEXTS} edge-list texts: "
        f"{len(differences)} differ from {args.rev}; of {len(changes)} differing covers "
        f"Q rose on {sum(d > 0 for d in changes)} and fell on {len(falls)}, "
        f"largest fall {max(falls, default=0.0):.6f}"
    )
    print(
        f"refine._count_elements calls: {old_run['count_elements']} at {args.rev}, "
        f"{new_run['count_elements']} in the working tree; "
        f"refine._mark_next_to entries read: {old_run['mark_next_to']} at {args.rev}, "
        f"{new_run['mark_next_to']} in the working tree"
    )
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
