import math

import numpy as np
import pytest

from fbsp.graph import (EXPONENTIAL, UNIFORM, WEIBULL, WeightModel,
                        build_sorted_adjacency, gen_complete)
from fbsp.oracle import (PertinenceCounts, classify_pertinence,
                         harmonic_expected_distance, pertinence_rates,
                         sample_pertinence_counts, sample_spt, tail_fraction)
from fbsp.sssp import ShortestPathTree, dijkstra, fb_sssp
from fbsp.verify import VerifyError, select_median
from helpers import cost_matrix


def test_harmonic_examples():
    assert harmonic_expected_distance(2, 2) == pytest.approx(1.0)
    for n in (2, 5, 100):
        assert harmonic_expected_distance(n, 1) == pytest.approx(0.0, abs=1e-15)
    # (H_3 - H_0 + H_3) / 4 = (11/6 + 11/6) / 4 = 11/12
    assert harmonic_expected_distance(4, 4) == pytest.approx(11.0 / 12.0)
    with pytest.raises(ValueError):
        harmonic_expected_distance(4, 0)
    with pytest.raises(ValueError):
        harmonic_expected_distance(4, 5)


def test_sample_spt_single_vertex():
    s = sample_spt(1, 3)
    assert s.dist.tolist() == [0.0]
    assert s.parent_rank.tolist() == [-1]
    assert sorted(s.order.tolist()) == [0]


def test_sample_spt_structure():
    s = sample_spt(200, 17)
    assert sorted(s.order.tolist()) == list(range(200))
    assert np.all(np.diff(s.dist) >= 0)
    assert np.all(s.increments >= 0)
    assert s.parent_rank[0] == -1
    ranks = s.parent_rank[1:]
    assert np.all(ranks >= 0)
    assert np.all(ranks < np.arange(1, 200))
    assert s.median == float(s.dist[99])


def test_sample_spt_deterministic():
    a = sample_spt(50, 9)
    b = sample_spt(50, 9)
    assert np.array_equal(a.dist, b.dist)
    assert np.array_equal(a.order, b.order)


def test_sample_spt_two_vertex_mean_distance():
    # d_{v_2} ~ Exp(1); its mean equals harmonic_expected_distance(2, 2) = 1
    total = 0.0
    trials = 100_000
    for t in range(trials):
        total += sample_spt(2, (123, t)).dist[1]
    assert abs(total / trials - 1.0) < 0.02


def test_sampler_mean_matches_harmonic_formula():
    n, k, trials = 100, 50, 2000
    vals = np.array([sample_spt(n, (7, t)).dist[k - 1] for t in range(trials)])
    se = vals.std(ddof=1) / math.sqrt(trials)
    assert abs(vals.mean() - harmonic_expected_distance(n, k)) < 3 * se


def test_increments_uncorrelated():
    # neighbouring increments of the sampled profile are independent
    trials = 20_000
    a = np.empty(trials)
    b = np.empty(trials)
    for t in range(trials):
        s = sample_spt(6, (55, t))
        a[t], b[t] = s.increments[1], s.increments[2]
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 4.0 / math.sqrt(trials)


def boundary_instance():
    """Hand-built 5-vertex graph with distances [0, 1, 2, 2, 3] and M = 2."""
    edges = [
        (0, 1, 1.0), (1, 2, 1.0), (0, 3, 2.0), (3, 4, 1.0),  # tree
        (1, 4, 2.0),   # boundary out-pertinent: c = 2(M - d[1]) exactly
        (2, 4, 1.9),   # in-pertinent: 1.9 < 2(d[4] - M) = 2
    ]
    g = build_sorted_adjacency(edges, n=5)
    tree = ShortestPathTree(0, np.array([-1, 0, 1, 0, 3]),
                            np.array([0.0, 1.0, 2.0, 2.0, 3.0]))
    return g, tree


def test_classify_boundary_conventions():
    g, tree = boundary_instance()
    counts = classify_pertinence(g, tree)
    assert counts.out_spt == 3       # (0,1), (1,2), (0,3)
    assert counts.in_spt == 1        # (3,4): 1 > 2(M-2)=0 but 1 < 2(3-2)
    assert counts.out_non_spt == 1   # (1,4) at the <= boundary
    assert counts.in_non_spt == 1    # (2,4) under the strict < bound
    assert counts.total == 6


def test_classify_spt_edges_partition():
    for seed in range(6):
        g = gen_complete(80, WeightModel(EXPONENTIAL, seed=seed),
                         directed=bool(seed % 2))
        tree = dijkstra(g, 0)
        counts = classify_pertinence(g, tree)
        assert counts.out_spt + counts.in_spt == 79
        # on these costs each tree edge meets exactly one raw condition
        d, M, c = tree.dist, select_median(tree.dist), cost_matrix(g)
        for v in range(1, 80):
            p = int(tree.parent[v])
            cost = c[p, v]
            assert (cost <= 2 * (M - d[p])) != (cost < 2 * (d[v] - M))


def reference_classify_pertinence(graph, tree):
    """Frozen dense classifier: masks every cell of the n*n cost matrix.
    A tree edge is in-pertinent iff it is not out-pertinent."""
    d = np.asarray(tree.dist, dtype=np.float64)
    if not np.all(np.isfinite(d)):
        raise ValueError("pertinence classification needs a spanning tree")
    n = graph.n
    M = select_median(d)

    C = cost_matrix(graph)
    present = np.isfinite(C)
    np.fill_diagonal(present, False)

    out_mask = present & (C <= 2.0 * (M - d)[:, None])
    in_mask = present & (C < 2.0 * (d - M)[None, :])

    if not graph.directed:
        # one orientation per edge: closer endpoint first (ties by label)
        rank = np.empty(n, dtype=np.int64)
        rank[np.lexsort((np.arange(n), d))] = np.arange(n)
        closer_first = rank[:, None] < rank[None, :]
        out_mask &= closer_first
        in_mask &= closer_first

    spt_mask = np.zeros((n, n), dtype=bool)
    for v in range(n):
        p = int(tree.parent[v])
        if p < 0:
            continue
        if graph.directed or d[p] < d[v] or (d[p] == d[v] and p < v):
            spt_mask[p, v] = True
        else:
            spt_mask[v, p] = True

    assert not (out_mask & in_mask).any()
    out_spt = int((out_mask & spt_mask).sum())
    return PertinenceCounts(
        out_spt=out_spt,
        in_spt=int(spt_mask.sum()) - out_spt,
        out_non_spt=int(out_mask.sum()) - out_spt,
        in_non_spt=int((in_mask & ~spt_mask).sum()),
    )


def _trees(g):
    return dijkstra(g, 0), fb_sssp(g, 0)[0]


@pytest.mark.parametrize("kind,shape", [(EXPONENTIAL, None), (UNIFORM, None),
                                        (WEIBULL, 0.05), (WEIBULL, 3.0),
                                        (WEIBULL, 150.0)])
def test_classify_matches_frozen_reference_on_every_model(kind, shape):
    for directed in (True, False):
        for n in (1, 2, 3, 17, 200):
            g = gen_complete(n, WeightModel(kind, seed=n, shape=shape),
                             directed=directed)
            for tree in _trees(g):
                assert (classify_pertinence(g, tree)
                        == reference_classify_pertinence(g, tree))


def test_classify_matches_frozen_reference_on_multigraphs():
    rng = np.random.default_rng(41)
    for trial in range(300):
        n = int(rng.integers(1, 9))
        edges = [(0, v, 4.0) for v in range(1, n)]  # every vertex reachable
        for _ in range(int(rng.integers(0, 4 * n + 1))):
            u, v = (int(x) for x in rng.integers(0, n, 2))
            if u != v:
                edges.append((u, v, float(rng.integers(0, 3))))
        g = build_sorted_adjacency(edges, n, directed=bool(trial % 2))
        for tree in _trees(g):
            assert (classify_pertinence(g, tree)
                    == reference_classify_pertinence(g, tree))


def test_classify_counts_a_tree_edge_absorbed_at_the_median_as_in_pertinent():
    # weibull(150) costs such as 4.7e-302 vanish in d[v] = d[p] + c, so a
    # tree edge at d[p] = d[v] = M meets neither strict bound
    for directed in (True, False):
        g = gen_complete(17, WeightModel(WEIBULL, seed=4, shape=150.0),
                         directed=directed)
        c = cost_matrix(g)
        for tree in _trees(g):
            d, M, p = tree.dist, select_median(tree.dist), tree.parent
            v = np.arange(1, 17)
            neither = ((c[p[v], v] > 2 * (M - d[p[v]]))
                       & (c[p[v], v] >= 2 * (d[v] - M)))
            assert neither.any()
            out = int((c[p[v], v] <= 2 * (M - d[p[v]])).sum())
            counts = classify_pertinence(g, tree)
            assert (counts.out_spt, counts.in_spt) == (out, 16 - out)
            assert counts == reference_classify_pertinence(g, tree)


def test_classify_rejects_a_tree_edge_absent_from_the_graph():
    g = build_sorted_adjacency([(0, 1, 1.0), (1, 2, 1.0)], n=3)
    tree = ShortestPathTree(0, np.array([-1, 0, 0]), np.array([0.0, 1.0, 2.0]))
    with pytest.raises(VerifyError, match="not in the graph"):
        classify_pertinence(g, tree)


def test_classify_counts_a_parallel_edge_once_at_its_cheapest_cost():
    g = build_sorted_adjacency([(0, 1, 1.0), (0, 1, 5.0), (1, 2, 1.0),
                                (0, 2, 3.0)], n=3)
    counts = classify_pertinence(g, dijkstra(g, 0))  # M = 1
    assert counts.out_spt == 1       # (0,1) at 1 <= 2(1-0); not 5
    assert counts.in_spt == 1        # (1,2): 1 < 2(2-1)
    assert counts.total == 2         # (0,2) at 3 is neither


def test_classify_requires_spanning_tree():
    g = build_sorted_adjacency([(0, 1, 1.0), (2, 1, 1.0)], n=3)
    with pytest.raises(ValueError):
        classify_pertinence(g, dijkstra(g, 0))


def test_directed_constants_smoke():
    # crude check of the expected-count constants; the tight version runs at
    # n = 2000 in the acceptance suite
    n, trials = 600, 8
    out_non = in_non = in_spt = 0
    for seed in range(trials):
        g = gen_complete(n, WeightModel(EXPONENTIAL, seed=200 + seed))
        counts = classify_pertinence(g, dijkstra(g, 0))
        out_non += counts.out_non_spt
        in_non += counts.in_non_spt
        in_spt += counts.in_spt
    assert 0.55 < out_non / (trials * n) < 0.85      # ~ln 2
    assert 0.55 < in_non / (trials * n) < 0.85       # ~ln 2
    assert 0.24 < in_spt / (trials * n) < 0.38       # ~1 - ln 2


def test_pertinence_rates_identities():
    for n in (2, 3, 7, 101, 1000):
        s = sample_spt(n, n)
        rates = pertinence_rates(s)
        assert rates.lambda_in >= 0 and rates.lambda_out >= 0
        m = (n + 1) // 2
        x = s.increments
        lam_in_x = 2.0 * (n - 1) * sum(
            (n - 1 - i) * x[i] for i in range(m - 1, n - 1))
        lam_out_x = 2.0 * (n - 1) * sum(
            (i + 1) * x[i] for i in range(0, m - 1))
        assert rates.lambda_in == pytest.approx(lam_in_x, abs=1e-9)
        assert rates.lambda_out == pytest.approx(lam_out_x, abs=1e-9)


def test_sampled_counts_match_graph_classification_in_mean():
    # the conditional edge-cost sampler and real graph construction estimate
    # the same distribution; compare mean total pertinent edges
    n = 50
    sampled = np.array([
        sample_pertinence_counts(sample_spt(n, (31, t)),
                                 np.random.default_rng((31, t, 1))).total
        for t in range(4000)], dtype=np.float64)
    brute = np.empty(800)
    for t in range(800):
        g = gen_complete(n, WeightModel(EXPONENTIAL, seed=10_000 + t))
        brute[t] = classify_pertinence(g, dijkstra(g, 0)).total
    se = math.sqrt(sampled.var(ddof=1) / sampled.size
                   + brute.var(ddof=1) / brute.size)
    assert abs(sampled.mean() - brute.mean()) < 3 * se


def test_tail_fraction_threshold_zero():
    assert tail_fraction(20, 0.0, trials=50, seed=1) == 1.0


def test_tail_fraction_matches_brute_force():
    n, thresh = 50, 3.0
    frac_sampled = tail_fraction(n, thresh, trials=4000, seed=77)
    hits = 0
    trials = 800
    for t in range(trials):
        g = gen_complete(n, WeightModel(EXPONENTIAL, seed=20_000 + t))
        if classify_pertinence(g, dijkstra(g, 0)).total >= thresh * n:
            hits += 1
    frac_brute = hits / trials
    se = math.sqrt(frac_sampled * (1 - frac_sampled) / 4000
                   + frac_brute * (1 - frac_brute) / trials)
    assert abs(frac_sampled - frac_brute) < 3 * max(se, 1e-3)


def test_undirected_sampling_counts_each_pair_once():
    n = 40
    s = sample_spt(n, 5)
    rng = np.random.default_rng(6)
    counts = sample_pertinence_counts(s, rng, directed=False)
    assert counts.total <= n * (n - 1) // 2
