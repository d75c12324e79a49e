"""Golden digests of the cover files written for the shipped datasets.

A pure refactor must leave every digest unchanged.  A change that alters
results on purpose updates the digests and says why.
"""

import hashlib
import io

import pytest

from commspread import RunConfig, detect, label_propagation, louvain, write_cover_file

from conftest import load_dataset

ALGORITHMS = {
    "ins": lambda g: detect(g, RunConfig(method="ins", threshold=0.75)).cover,
    "cond": lambda g: detect(g, RunConfig(method="cond")).cover,
    "ins-skip": lambda g: detect(g, RunConfig(method="ins", threshold=0.75, run_modmax=False)).cover,
    "cond-skip": lambda g: detect(g, RunConfig(method="cond", run_modmax=False)).cover,
    "louvain": louvain,
    "lpa": lambda g: label_propagation(g, seed=0),
}

DIGESTS = {
    ("karate", "ins"): "ec902278053ad9b3d3541ab34dcc80b939df46a1b5a9ba783f26c0205fc0b9a4",
    ("karate", "cond"): "ec902278053ad9b3d3541ab34dcc80b939df46a1b5a9ba783f26c0205fc0b9a4",
    ("karate", "ins-skip"): "21c33f5f1180ce4ed750cacf7e5f7a7e69812ec1752b5b73937d5aa37cc7ea55",
    ("karate", "cond-skip"): "bff7b84cb1597ab41c103d488f7380484c447bbcf11ed61e01ef912e99678b82",
    ("karate", "louvain"): "4568012ebf1264c8c2d4819aab9bf3a66c3ecc51f21a9ae7fda76d9d34216fdf",
    ("karate", "lpa"): "8accfb3d01c323dfa63b5b7f347ebd432277b88730a23cca6281f4c7932cbd13",
    ("lesmis", "ins"): "fb19f1a72d20e748ab05bb61a78abdb64a51cf9f14ccea0764257f6e68825b22",
    ("lesmis", "cond"): "35b0563354258b0245db31ec11766f37d5adb85796f2019a402d54942cd48ebd",
    ("lesmis", "ins-skip"): "733be7832249633006d894fd88cc5afae66e614dbd471e568425132b6c4ad958",
    ("lesmis", "cond-skip"): "fbcabf4b9de2946652fcbbdb8f19aabc9c52ea3aeb936f8d7230fa63561d76f2",
    ("lesmis", "louvain"): "e9d5253a74ac0a4d988f912322976d1c133918bf99983f6f6ca77c22fc61feeb",
    ("lesmis", "lpa"): "ff8a9094f6f93c90f2fc9977900e46641d8c87dcfa3ddbcf8a7394397aeee998",
    ("walkthrough13", "ins"): "412dc8c807e6b3ecc7a02db2e193dc1d8014fc979bddb1a9d6b6af21af7451d2",
    ("walkthrough13", "cond"): "17448e8d1bcaebfef7fb2e3634b41f3e09f75223b0861b3712b661335a3a9b36",
    ("walkthrough13", "ins-skip"): "412dc8c807e6b3ecc7a02db2e193dc1d8014fc979bddb1a9d6b6af21af7451d2",
    ("walkthrough13", "cond-skip"): "9210a27f5727c3133ef75896f1ba88fba9c36300d429c140fe7dd90556efc87a",
    ("walkthrough13", "louvain"): "412dc8c807e6b3ecc7a02db2e193dc1d8014fc979bddb1a9d6b6af21af7451d2",
    ("walkthrough13", "lpa"): "5ebab38e894db6dc5a6003d0b56a806ffd8228a138545a515b60b932c1e6cb6d",
}


@pytest.mark.parametrize("dataset,algorithm", sorted(DIGESTS), ids="-".join)
def test_cover_file_digest(dataset, algorithm):
    g = load_dataset(dataset)
    out = io.StringIO()
    write_cover_file(g, ALGORITHMS[algorithm](g), out)
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest == DIGESTS[dataset, algorithm]
