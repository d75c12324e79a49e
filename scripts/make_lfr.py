#!/usr/bin/env python3
"""Write the seeded LFR benchmark graphs and their planted communities into data/.

    python scripts/make_lfr.py

For n = 1000 and 5000 and mixing mu = 0.1, 0.3 and 0.5 it writes

- ``data/lfr<n>_mu<mu>.txt``: the edge list of
  ``LFR_benchmark_graph(n, 3, 1.5, mu, average_degree=10, max_degree=50,
  min_community=20, max_community=100, seed=0)`` with self-loops removed,
  one sorted ``u v`` line per edge (``u < v``);
- ``data/lfr<n>_mu<mu>_truth.tsv``: the planted communities as
  ``label<TAB>community`` lines in label order, communities numbered
  0, 1, ... by their smallest member, so ``read_cover_file`` reads it.

Each file starts with a ``#`` line that names the generator's parameters
and the networkx version that ran it.  The generator's output depends on
that version, so acceptance criterion 10 reads the committed files rather
than generating its graphs.
"""

from __future__ import annotations

import pathlib
import sys

DATA_DIR = pathlib.Path(__file__).resolve().parent.parent / "data"

SIZES = (1000, 5000)
MIXINGS = ("0.1", "0.3", "0.5")
PARAMS = dict(tau1=3, tau2=1.5, average_degree=10, max_degree=50, min_community=20, max_community=100, seed=0)


def write_lfr(n: int, mu: str) -> None:
    import networkx as nx

    g = nx.LFR_benchmark_graph(n, mu=float(mu), **PARAMS)
    g.remove_edges_from(list(nx.selfloop_edges(g)))
    params = ", ".join(f"{key}={value}" for key, value in PARAMS.items())
    header = f"# LFR_benchmark_graph(n={n}, mu={mu}, {params}), self-loops removed; networkx {nx.__version__}\n"
    name = f"lfr{n}_mu{mu}"
    edges = sorted((min(u, v), max(u, v)) for u, v in g.edges())
    with (DATA_DIR / f"{name}.txt").open("w", encoding="utf-8") as fh:
        fh.write(header)
        fh.writelines(f"{u} {v}\n" for u, v in edges)
    # Every node's "community" attribute is the set of its community's members.
    communities = sorted({frozenset(g.nodes[v]["community"]) for v in g}, key=min)
    truth = {v: c for c, members in enumerate(communities) for v in members}
    with (DATA_DIR / f"{name}_truth.tsv").open("w", encoding="utf-8") as fh:
        fh.write(header)
        fh.writelines(f"{v}\t{truth[v]}\n" for v in sorted(truth))
    print(f"wrote {name}: {len(edges)} edges, {len(communities)} communities")


def main() -> int:
    DATA_DIR.mkdir(exist_ok=True)
    for n in SIZES:
        for mu in MIXINGS:
            write_lfr(n, mu)
    return 0


if __name__ == "__main__":
    sys.exit(main())
