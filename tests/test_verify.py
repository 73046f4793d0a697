import math

import numpy as np
import pytest

from fbsp import verify
from fbsp.graph import (EXPONENTIAL, UNIFORM, WEIBULL, WeightModel,
                        build_sorted_adjacency, gen_complete)
from fbsp.sssp import ShortestPathTree, dijkstra, fb_sssp, spira
from fbsp.verify import (VerifyError, VerifyReport, _report, select_median,
                         tree_distances, verify_fb, verify_forward_only,
                         verify_full)


def edge_triples(g):
    """Every edge of ``g`` as (u, v, cost), in out-list order."""
    src = np.repeat(np.arange(g.n), np.diff(g.out_ptr))
    return list(zip(src.tolist(), g.out_to.tolist(), g.out_w.tolist()))


def test_tree_distances_chain():
    g = build_sorted_adjacency([(0, 1, 1.0), (1, 2, 1.0)], n=3)
    d = tree_distances(g, [-1, 0, 1], 0)
    assert d.tolist() == [0.0, 1.0, 2.0]


def test_tree_distances_detects_cycle():
    g = build_sorted_adjacency([(0, 1, 1.0), (1, 2, 1.0), (2, 1, 1.0)], n=3)
    with pytest.raises(VerifyError, match="cycle"):
        tree_distances(g, [-1, 2, 1], 0)


def test_tree_distances_names_a_chain_that_ends_short_of_the_source():
    g = build_sorted_adjacency([(0, 1, 1.0), (1, 2, 1.0), (3, 2, 1.0)], 4)
    with pytest.raises(VerifyError) as exc:
        tree_distances(g, [-1, 0, 3, -1], 0)
    assert str(exc.value) == ("parent chain of 2 ends at 3, which has no "
                              "parent and is not the source")
    # a chain that runs into a cycle is still reported as a cycle
    g = build_sorted_adjacency([(2, 1, 1.0), (3, 2, 1.0), (2, 3, 1.0)], 4)
    with pytest.raises(VerifyError, match="cycle"):
        tree_distances(g, [-1, 2, 3, 2], 0)


def test_tree_distances_rejects_missing_edge():
    g = build_sorted_adjacency([(0, 1, 1.0)], n=3)
    with pytest.raises(VerifyError, match="not in the graph"):
        tree_distances(g, [-1, 0, 0], 0)


def test_tree_distances_rejects_a_parent_below_minus_one():
    g = build_sorted_adjacency([(0, 1, 1.0)], n=3)
    tree = ShortestPathTree(0, np.array([-1, 0, -2]),
                            np.array([0.0, 1.0, math.inf]))
    for check in (lambda g, t: tree_distances(g, t.parent, 0), verify_full,
                  verify_forward_only, verify_fb):
        with pytest.raises(VerifyError, match="parent of 2 out of range"):
            check(g, tree)


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
    edges = edge_triples(g)
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
        edges = edge_triples(g)
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


# The row-by-row verifiers that the row-window scan replaced, frozen as the
# definition of what the scan must report: the same arrays, reports and
# error messages on every input.

def reference_tree_distances(graph, parent, source):
    n = graph.n
    parent = np.asarray(parent, dtype=np.int64)
    if parent.shape[0] != n:
        raise VerifyError("parent array has wrong length")
    if not (0 <= source < n):
        raise VerifyError("source out of range")
    if parent[source] != -1:
        raise VerifyError("source must have no parent")
    cost = np.full(n, math.nan)
    for v in range(n):
        p = parent[v]
        if p < 0:
            continue
        if p >= n:
            raise VerifyError(f"parent of {v} out of range")
        frm, w = graph.in_edges(v)
        hits = np.nonzero(frm == p)[0]
        if hits.shape[0] == 0:
            raise VerifyError(f"tree edge ({p}, {v}) is not in the graph")
        cost[v] = w[hits[0]]
    children = [[] for _ in range(n)]
    for v in range(n):
        if parent[v] >= 0:
            children[parent[v]].append(v)
    dist = np.full(n, math.inf)
    dist[source] = 0.0
    stack = [source]
    visited = 1
    while stack:
        u = stack.pop()
        du = dist[u]
        for v in children[u]:
            dist[v] = du + cost[v]
            visited += 1
            stack.append(v)
    for v in range(n):
        if parent[v] >= 0 and not math.isfinite(dist[v]):
            chain = [v]
            while parent[chain[-1]] >= 0 and chain.count(chain[-1]) == 1:
                chain.append(parent[chain[-1]])
            if parent[chain[-1]] >= 0:
                raise VerifyError("parent array contains a cycle")
            raise VerifyError(f"parent chain of {v} ends at {chain[-1]}, "
                              "which has no parent and is not the source")
    return dist


def _reference_first_violation(d_to, du, w):
    gap = d_to - du - w
    bad = np.nonzero(gap > 1e-12 * np.maximum(1.0, du + w))[0]
    return int(bad[0]) if bad.shape[0] else -1


def reference_verify_forward_only(graph, tree):
    d = reference_tree_distances(graph, tree.parent, tree.source)
    D = float(d.max()) if bool(np.all(np.isfinite(d))) else math.inf
    examined = 0
    witness = None
    for u in range(graph.n):
        du = d[u]
        to, w = graph.out_edges(u)
        if not math.isfinite(du):
            continue
        stop = int(np.searchsorted(w, D - du, side="left"))
        upto = min(stop + 1, to.shape[0])
        examined += upto
        i = _reference_first_violation(d[to[:upto]], du, w[:upto])
        if i >= 0:
            examined -= upto - (i + 1)
            witness = (u, int(to[i]), float(w[i]), float(du), float(d[to[i]]))
            break
    return _report(tree, d, examined, witness, max_distance=D)


def reference_verify_fb(graph, tree):
    d = reference_tree_distances(graph, tree.parent, tree.source)
    if not np.all(np.isfinite(d)):
        raise VerifyError("tree does not span the graph; median undefined")
    D = float(d.max())
    M = float(np.sort(d)[(d.shape[0] + 1) // 2 - 1])  # as the quickselect gave
    examined = 0
    witness = None
    for u in range(graph.n):
        du = d[u]
        if du > M:
            continue
        to, w = graph.out_edges(u)
        k = int(np.searchsorted(w, 2.0 * (M - du), side="right"))
        examined += min(k + 1, to.shape[0])
        i = _reference_first_violation(d[to[:k]], du, w[:k])
        if i >= 0:
            witness = (u, int(to[i]), float(w[i]), float(du), float(d[to[i]]))
            break
    if witness is None:
        for v in range(graph.n):
            dv = d[v]
            if dv < M:
                continue
            frm, w = graph.in_edges(v)
            k = int(np.searchsorted(w, 2.0 * (dv - M), side="left"))
            examined += min(k + 1, frm.shape[0])
            seg_f, seg_w = frm[:k], w[:k]
            gap = dv - d[seg_f] - seg_w
            bad = np.nonzero(gap > 1e-12 * np.maximum(1.0, d[seg_f] + seg_w))[0]
            if bad.shape[0]:
                i = int(bad[0])
                witness = (int(seg_f[i]), v, float(seg_w[i]),
                           float(d[seg_f[i]]), float(dv))
                break
    return _report(tree, d, examined, witness, max_distance=D, median=M)


def _outcome(fn, *args):
    """What ``fn`` returns or raises, in a form that compares exactly."""
    try:
        got = fn(*args)
    except VerifyError as exc:
        return "error", str(exc)
    if isinstance(got, VerifyReport):
        return "report", repr(got)
    return "array", got.dtype.str, got.tolist()


PAIRS = [(tree_distances, reference_tree_distances),
         (verify_forward_only, reference_verify_forward_only),
         (verify_fb, reference_verify_fb)]


def assert_matches_reference(g, tree):
    """Compare every fast verifier with its frozen copy; return the outcomes."""
    seen = []
    for fast, ref in PAIRS:
        if fast is tree_distances:
            args = (g, tree.parent, tree.source)
        else:
            args = (g, tree)
        got = _outcome(fast, *args)
        assert got == _outcome(ref, *args), fast.__name__
        seen.append(got)
    return seen


def reparented(g, tree, rng, count):
    """Trees with one vertex moved to a random other parent, each once with
    its own tree distances (when it has them) and once with the old dist."""
    n = g.n
    for _ in range(count):
        v = int(rng.integers(0, n))
        if v == tree.source:
            continue
        parent = tree.parent.copy()
        parent[v] = (v + 1 + int(rng.integers(0, n - 1))) % n
        try:
            own = reference_tree_distances(g, parent, tree.source)
        except VerifyError:
            own = tree.dist
        yield ShortestPathTree(tree.source, parent, own)
        yield ShortestPathTree(tree.source, parent, tree.dist)


MODELS = [(EXPONENTIAL, None), (UNIFORM, None), (WEIBULL, 150.0)]


@pytest.mark.parametrize("n", [1, 2, 3, 17, 200, 501])
def test_fast_verifiers_match_frozen_references_on_complete_graphs(n):
    rng = np.random.default_rng(n)
    for kind, shape in MODELS:
        for directed in (True, False):
            g = gen_complete(n, WeightModel(kind, seed=n, shape=shape),
                             directed=directed)
            trees = [fb_sssp(g, 0)[0], spira(g, n // 2)[0], dijkstra(g, n - 1)]
            for tree in trees:
                assert_matches_reference(g, tree)
            if n > 2:
                for tree in reparented(g, trees[0], rng, 4):
                    assert_matches_reference(g, tree)


def test_fast_verifiers_match_frozen_references_on_lowered_edges():
    phases = set()
    for seed in range(16):
        bad_graph, tree, _ = lowered_edge_instance(n=64, seed=seed)
        assert_matches_reference(bad_graph, tree)
        report = verify_fb(bad_graph, tree)
        u, v, c, du, dv = report.witness
        phases.add(du <= report.median and c <= 2.0 * (report.median - du))
    assert phases == {True, False}  # forward and backward witnesses both


def test_fast_verifiers_match_frozen_references_off_the_spanning_case():
    # 3 and 4 have no edges at all, 5 and 6 reach each other only
    edges = [(0, 1, 0.5), (1, 2, 0.25), (0, 2, 1.0), (2, 0, 0.0),
             (5, 6, 1.0), (6, 5, 2.0), (5, 1, 0.125)]
    g = build_sorted_adjacency(edges, 7)
    tree = dijkstra(g, 0)
    assert math.isinf(verify_forward_only(g, tree).max_distance)
    assert_matches_reference(g, tree)
    for parent in ([-1, 0, 1, -1, -1, 6, 5], [-1, 0, 1, -1, -1, -1, 5],
                   [-1, 0, 0, -1, -1, -1, -1], [-1, 2, 1, -1, -1, -1, -1]):
        assert_matches_reference(
            g, ShortestPathTree(0, np.array(parent), tree.dist))


def test_fast_verifiers_match_frozen_references_on_multigraphs():
    rng = np.random.default_rng(77)
    costs = [0.0, 0.0, 1.0, 1.0, 1e-300, 0.5, 2.5]
    errors = set()
    for trial in range(300):
        n = int(rng.integers(1, 10))
        edges = []
        for _ in range(int(rng.integers(0, 4 * n + 1))):
            u, v = (int(x) for x in rng.integers(0, n, 2))
            if u != v:
                edges.append((u, v, float(rng.choice(costs))))
        g = build_sorted_adjacency(edges, n)
        tree = dijkstra(g, 0)
        assert_matches_reference(g, tree)
        # random parents: cycles, parents out of range, edges not in g,
        # chains that end short of the source
        parent = rng.integers(-1, n + 2, n)
        parent[0] = -1
        seen = assert_matches_reference(g, ShortestPathTree(0, parent, tree.dist))
        errors.update(got[1].split()[-1] for got in seen if got[0] == "error")
        if n > 2:
            for wrong in reparented(g, tree, rng, 2):
                assert_matches_reference(g, wrong)
    assert errors >= {"range", "graph", "cycle", "source"}


def _widening_cases():
    """Inputs whose windows or parents lie beyond the first prefix."""
    g = gen_complete(501, WeightModel(EXPONENTIAL, seed=5))
    tree = dijkstra(g, 0)
    far = tree.parent.copy()  # parents far down their in-lists
    for v in range(1, 501, 7):
        far[v] = g.in_edges(v)[0][-1]
    yield "forward", g, tree
    yield "parents", g, ShortestPathTree(0, far,
                                         reference_tree_distances(g, far, 0))
    flat = gen_complete(40, WeightModel(WEIBULL, seed=1, shape=150.0))
    yield "ties", flat, dijkstra(flat, 0)  # costs mostly 0: windows span rows


def test_widening_cases_read_past_the_first_prefix(monkeypatch):
    widths = {}
    scan = verify._first_true

    def spy(start, stop, pred):
        def seen(sel, pos):
            widths[label] = max(widths.get(label, 0), pos.shape[1])
            return pred(sel, pos)
        return scan(start, stop, seen)

    monkeypatch.setattr(verify, "_first_true", spy)
    for label, g, tree in _widening_cases():
        assert_matches_reference(g, tree)
    assert min(widths.values()) > verify._FIRST_WIDTH
    assert set(widths) == {"forward", "parents", "ties"}


@pytest.mark.parametrize("first,cells", [(1, 1), (2, 5), (600, 2 ** 14)])
def test_scan_results_do_not_depend_on_prefix_or_chunk(monkeypatch, first, cells):
    cases = list(_widening_cases())
    want = [[_outcome(f, g, t) for f, _ in PAIRS[1:]] for _, g, t in cases]
    monkeypatch.setattr(verify, "_FIRST_WIDTH", first)
    monkeypatch.setattr(verify, "_SCAN_CELLS", cells)
    got = [[_outcome(f, g, t) for f, _ in PAIRS[1:]] for _, g, t in cases]
    assert got == want
