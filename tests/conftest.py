"""Shared fixtures: benchmark graphs, a text edge-list parser and random-graph helpers."""

from __future__ import annotations

import importlib.util
import io
import pathlib
import random

import pytest

from commspread import Graph, load_edge_list

DATA_DIR = pathlib.Path(__file__).resolve().parent.parent / "data"


def load_dataset(name: str) -> Graph:
    path = DATA_DIR / f"{name}.txt"
    if not path.exists():
        pytest.skip(f"dataset {name} not present; run scripts/fetch_datasets.py")
    with path.open("r", encoding="utf-8") as fh:
        return load_edge_list(fh)


def perfbench_module(name: str):
    """The benchmark's module ``perfbench/<name>.py``, loaded by path."""
    path = DATA_DIR.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def graph(text: str) -> Graph:
    """Graph parsed from edge-list text."""
    return load_edge_list(io.StringIO(text))


@pytest.fixture(scope="session")
def karate() -> Graph:
    return load_dataset("karate")


@pytest.fixture(scope="session")
def lesmis() -> Graph:
    return load_dataset("lesmis")


@pytest.fixture(scope="session")
def walkthrough() -> Graph:
    return load_dataset("walkthrough13")


def labeled_graph(n: int, edges) -> Graph:
    """Graph on the labels ``"0"`` .. ``str(n - 1)`` with the integer pairs ``edges``.

    Loaded from the edge lines, then one ``v v`` line per node: the loader
    drops a self-loop line but gives its label an id, so isolated nodes
    keep their ids after the edges' labels.
    """
    return load_edge_list(
        [f"{u} {v}\n" for u, v in edges] + [f"{v} {v}\n" for v in range(n)]
    )


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    """Erdos-Renyi style simple graph on ``n`` labeled nodes."""
    return labeled_graph(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    )


def random_partition(rng: random.Random, n: int, k: int) -> list[int]:
    return [rng.randrange(k) for _ in range(n)]
