import math

import numpy as np
import pytest

from fbsp.graph import EXPONENTIAL, WeightModel, build_sorted_adjacency, gen_complete
from fbsp.sssp import ShortestPathTree, dijkstra, fb_sssp
from fbsp.verify import (VerifyError, select_median, tree_distances,
                         verify_fb, verify_forward_only, verify_full)


def test_tree_distances_chain():
    g = build_sorted_adjacency([(0, 1, 1.0), (1, 2, 1.0)], n=3)
    d = tree_distances(g, [-1, 0, 1], 0)
    assert d.tolist() == [0.0, 1.0, 2.0]


def test_tree_distances_detects_cycle():
    g = build_sorted_adjacency([(0, 1, 1.0), (1, 2, 1.0), (2, 1, 1.0)], n=3)
    with pytest.raises(VerifyError, match="cycle"):
        tree_distances(g, [-1, 2, 1], 0)


def test_tree_distances_rejects_missing_edge():
    g = build_sorted_adjacency([(0, 1, 1.0)], n=3)
    with pytest.raises(VerifyError, match="not in the graph"):
        tree_distances(g, [-1, 0, 0], 0)


def test_tree_distances_rejects_parented_source():
    g = build_sorted_adjacency([(0, 1, 1.0), (1, 0, 1.0)], n=2)
    with pytest.raises(VerifyError):
        tree_distances(g, [1, 0], 0)


def test_tree_distances_matches_dijkstra():
    g = gen_complete(200, WeightModel(EXPONENTIAL, seed=4))
    tree = dijkstra(g, 0)
    d = tree_distances(g, tree.parent, 0)
    np.testing.assert_array_equal(d, tree.dist)


def test_tree_distances_unreachable_is_inf():
    g = build_sorted_adjacency([(0, 1, 1.0), (2, 1, 1.0)], n=3)
    d = tree_distances(g, [-1, 0, -1], 0)
    assert d.tolist() == [0.0, 1.0, math.inf]


def test_select_median_examples():
    assert select_median([0, 1, 2, 3, 4]) == 2
    assert select_median([0, 1, 2, 3]) == 1
    assert select_median([5.0]) == 5.0
    assert select_median([3.0, 3.0, 3.0]) == 3.0


def test_select_median_matches_sort():
    rng = np.random.default_rng(8)
    for trial in range(12):
        vals = rng.exponential(size=int(rng.integers(1, 2000)))
        k = (len(vals) + 1) // 2
        assert select_median(vals) == float(np.sort(vals)[k - 1])
    big = rng.exponential(size=10_000)
    assert select_median(big) == float(np.sort(big)[4999])


def test_select_median_rejects_inf():
    with pytest.raises(VerifyError):
        select_median([1.0, math.inf])


def true_tree(n=64, seed=0, directed=True):
    g = gen_complete(n, WeightModel(EXPONENTIAL, seed=seed), directed=directed)
    return g, dijkstra(g, 0)


def lowered_edge_instance(n=64, seed=0):
    """A true tree plus a graph where one non-tree edge undercuts it."""
    g, tree = true_tree(n, seed)
    rng = np.random.default_rng(seed + 991)
    d = tree.dist
    while True:
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u == v or tree.parent[v] == u or d[v] <= d[u]:
            continue
        slack = d[v] - d[u]
        if slack <= 0:
            continue
        break
    rec = g.edge_list()
    edges = list(zip(rec.u.tolist(), rec.v.tolist(), rec.cost.tolist()))
    new_cost = float(slack * rng.uniform(0.05, 0.9))
    edges = [(a, b, new_cost if (a, b) == (u, v) else c) for a, b, c in edges]
    bad_graph = build_sorted_adjacency(edges, n)
    return bad_graph, tree, (u, v)


def test_verify_full_accepts_true_trees():
    for seed in range(5):
        g, tree = true_tree(seed=seed)
        report = verify_full(g, tree)
        assert report.accepted
        assert report.witness is None
        assert report.edges_examined == g.num_edges


def test_verify_full_rejects_lowered_edge():
    bad_graph, tree, (u, v) = lowered_edge_instance()
    report = verify_full(bad_graph, tree)
    assert not report.accepted
    assert report.witness is not None
    wu, wv, wc, wdu, wdv = report.witness
    assert wc < wdv - wdu


def test_verify_full_single_vertex():
    g = gen_complete(1, WeightModel(EXPONENTIAL, seed=0))
    tree = dijkstra(g, 0)
    assert verify_full(g, tree).accepted


def test_verify_forward_only_agrees_with_full():
    for seed in range(6):
        g, tree = true_tree(n=48, seed=seed)
        assert verify_forward_only(g, tree).accepted
        bad_graph, tree, _ = lowered_edge_instance(n=48, seed=seed)
        assert not verify_forward_only(bad_graph, tree).accepted


def test_verify_forward_only_two_vertices():
    g = gen_complete(2, WeightModel(EXPONENTIAL, seed=3))
    tree = dijkstra(g, 0)
    report = verify_forward_only(g, tree)
    assert report.accepted
    assert report.edges_examined <= 2


def test_verify_fb_accepts_and_reports_median():
    g, tree = true_tree(n=101, seed=2)
    report = verify_fb(g, tree)
    assert report.accepted
    assert report.median == float(np.sort(tree.dist)[50])  # 51st of 101
    assert report.edges_examined <= 6 * 101


def test_verify_fb_single_vertex():
    g = gen_complete(1, WeightModel(EXPONENTIAL, seed=0))
    assert verify_fb(g, dijkstra(g, 0)).accepted


def test_verify_fb_rejects_whenever_full_does():
    for seed in range(10):
        bad_graph, tree, _ = lowered_edge_instance(n=72, seed=seed)
        assert not verify_fb(bad_graph, tree).accepted


def test_verify_fb_rejects_non_spanning_input():
    g = build_sorted_adjacency([(0, 1, 1.0), (2, 1, 2.0)], n=3)
    tree = dijkstra(g, 0)
    with pytest.raises(VerifyError):
        verify_fb(g, tree)


def test_three_way_agreement_on_tree_edge_perturbations():
    # lowering a tree edge re-roots part of the tree; the result may or may
    # not remain a valid SPT, but all three verifiers must agree on it
    outcomes = set()
    for seed in range(4):
        n = 40
        g, tree = true_tree(n=n, seed=seed)
        rec = g.edge_list()
        edges = list(zip(rec.u.tolist(), rec.v.tolist(), rec.cost.tolist()))
        for v in range(1, n):
            u = int(tree.parent[v])
            g2 = build_sorted_adjacency(
                [(a, b, c * 0.5 if (a, b) == (u, v) else c) for a, b, c in edges],
                n)
            # the tree carries the distances of its own edges in g2, so that
            # a rejection can only come from an edge scan, not from tree.dist
            tree2 = ShortestPathTree(0, tree.parent,
                                     tree_distances(g2, tree.parent, 0))
            reports = [verify(g2, tree2) for verify in
                       (verify_full, verify_forward_only, verify_fb)]
            assert all(r.wrong_dist is None for r in reports)
            assert len({r.accepted for r in reports}) == 1, (seed, v)
            outcomes.add(reports[0].accepted)
    assert outcomes == {True, False}


def test_fb_trees_verify_clean():
    for seed in range(4):
        g = gen_complete(120, WeightModel(EXPONENTIAL, seed=seed),
                         directed=bool(seed % 2))
        tree, _ = fb_sssp(g, 0)
        assert verify_full(g, tree).accepted
        assert verify_fb(g, tree).accepted


def test_verifiers_reject_a_wrong_reported_distance():
    g = gen_complete(200, WeightModel(EXPONENTIAL, seed=0))
    tree, _ = fb_sssp(g, 0)
    tree.dist = tree.dist.copy()
    tree.dist[5] += 1.0
    for verifier in (verify_full, verify_forward_only, verify_fb):
        report = verifier(g, tree)
        assert not report.accepted
        assert report.witness is None  # every edge is fine; dist is not
        assert report.wrong_dist == 5


def test_verifiers_reject_the_costlier_copy_of_a_multi_edge():
    # the tree dijkstra returned here before it kept the cheapest copy
    g = build_sorted_adjacency([(0, 1, 1.0), (0, 1, 5.0)], 2)
    tree = ShortestPathTree(0, np.array([-1, 0]), np.array([0.0, 5.0]))
    for verifier in (verify_full, verify_forward_only, verify_fb):
        report = verifier(g, tree)
        assert not report.accepted
        assert report.wrong_dist == 1
    assert verify_fb(g, dijkstra(g, 0)).accepted
