"""BENCHMARK.json must describe exactly what run.py measures; run.py's statistics."""

import json
import os

from run import END_TO_END, ROOT, WORKLOADS, tail
from spans import LAYERS


def load():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_workloads_match():
    assert [(w["name"], w["why"]) for w in load()["workloads"]] == [
        (name, w.why) for name, w in WORKLOADS.items()
    ]


def test_end_to_end_metrics_match():
    assert {m["name"]: m["unit"] for m in load()["end_to_end"]} == END_TO_END


def test_per_layer_metrics_match():
    assert {m["name"]: (m["unit"], m["better"]) for m in load()["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _, _) in LAYERS.items()
    }


def test_tail_leaves_ten_samples_beyond():
    samples = [float(i) for i in range(40, 0, -1)]
    assert tail(samples) == (30.0, 75.0)
    assert tail(samples[:5]) == (40.0, 100.0)
