"""Tests of the benchmark itself: small runs of every workload, the output
checker, and the refusal to run without the program's sources."""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import harness  # noqa: E402
from checks import apsp_errors, graph_csr, sssp_errors  # noqa: E402
from fbsp import WeightModel, fb_sssp, gen_complete  # noqa: E402
from workloads import (ApspMatrix, ForwardBaselines, FreshTrials,  # noqa: E402
                       MultiSource)

SMALL = {
    "fresh_trials": lambda seed: FreshTrials(seed, n=60, per_round=2),
    "multi_source": lambda seed: MultiSource(seed, n=80, per_round=3),
    "apsp_matrix": lambda seed: ApspMatrix(seed, n=12, per_round=2),
    "forward_baselines": lambda seed: ForwardBaselines(seed, n=60, graphs=2,
                                                      per_graph=2),
}


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec


def test_workload_names_match_declaration():
    assert sorted(SMALL) == sorted(w["name"] for w in _declared()["workloads"])


@pytest.mark.parametrize("name", sorted(SMALL))
@pytest.mark.parametrize("trace", [False, True])
def test_small_run_has_no_failures(name, trace):
    spec = _declared()
    result, _, extra = harness.run(SMALL[name](7), 0.0, trace, 0.0)
    assert result["failed"] == 0 and result["correct"]
    assert result["attempted"] >= 1 and extra["rounds"] == 1
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for v in result["metrics"].values():
        assert np.isfinite(v["value"])
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_checker_rejects_one_changed_distance():
    g = gen_complete(50, WeightModel("exp", seed=3))
    tree, _ = fb_sssp(g, 4)
    csr = graph_csr(g)
    assert sssp_errors(csr, 4, tree.parent, tree.dist) == []
    for delta in (1.0, 1e-9):
        dist = tree.dist.copy()
        dist[17] += delta
        assert sssp_errors(csr, 4, tree.parent, dist)


def test_checker_rejects_a_wrong_parent():
    g = gen_complete(50, WeightModel("exp", seed=3))
    tree, _ = fb_sssp(g, 4)
    parent = tree.parent.copy()
    v = int(np.argmax(tree.dist))
    parent[v] = next(u for u in range(50) if u not in (v, parent[v], 4))
    assert sssp_errors(graph_csr(g), 4, parent, tree.dist)


def test_apsp_checker_rejects_one_changed_distance():
    w = ApspMatrix(5, n=10, per_round=1)
    w.setup(None)
    from fbsp import apsp
    dist = apsp(w.matrices[0]).dist
    assert apsp_errors(w.matrices[0], dist) == []
    dist[2, 7] *= 1.5
    assert apsp_errors(w.matrices[0], dist)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fresh_trials",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
