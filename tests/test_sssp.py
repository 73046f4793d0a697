import itertools
import math

import numpy as np
import pytest

from fbsp.graph import (EXPONENTIAL, Rows, SortedDigraph, WeightModel,
                        build_sorted_adjacency, gen_complete)
from fbsp.oracle import classify_pertinence
from fbsp.pq import BinaryHeapQueue, BucketQueue, bucket_defaults, replay
from fbsp.sssp import (FbRecording, ScanStats, ShortestPathTree, dijkstra,
                       fb_sssp, replay_trace, spira)
from fbsp.verify import (VerifyError, tree_distances, verify_fb,
                         verify_forward_only, verify_full)

INF = math.inf


def brute_force_distances(n, edges, source):
    """Shortest distances by enumerating all simple paths; tiny n only."""
    best = [INF] * n
    best[source] = 0.0
    adj = {}
    for u, v, c in edges:
        adj.setdefault(u, []).append((v, c))

    def walk(u, cost, seen):
        if cost < best[u]:
            best[u] = cost
        for v, c in adj.get(u, []):
            if v not in seen:
                walk(v, cost + c, seen | {v})

    walk(source, 0.0, {source})
    return best


TRIANGLE = [(0, 1, 1.0), (0, 2, 3.0), (1, 2, 1.0)]


def triangle_graph():
    return build_sorted_adjacency(TRIANGLE, n=3)


def test_dijkstra_matches_brute_force_on_triangle():
    g = triangle_graph()
    tree = dijkstra(g, 0)
    assert tree.dist.tolist() == brute_force_distances(3, TRIANGLE, 0)
    assert tree.dist.tolist() == [0.0, 1.0, 2.0]
    assert tree.parent[2] == 1


def test_dijkstra_matches_brute_force_on_random_sparse():
    rng = np.random.default_rng(5)
    for trial in range(25):
        n = int(rng.integers(2, 8))
        edges = []
        for u, v in itertools.permutations(range(n), 2):
            if rng.random() < 0.5:
                edges.append((u, v, float(rng.exponential())))
        g = build_sorted_adjacency(edges, n)
        tree = dijkstra(g, 0)
        assert tree.dist.tolist() == pytest.approx(
            brute_force_distances(n, edges, 0), rel=1e-12)


def test_dijkstra_single_vertex():
    g = gen_complete(1, WeightModel(EXPONENTIAL, seed=0))
    tree = dijkstra(g, 0)
    assert tree.dist.tolist() == [0.0]
    assert tree.parent[0] == -1


def test_dijkstra_unreachable_vertex():
    g = build_sorted_adjacency([(0, 1, 1.0), (2, 0, 1.0)], n=3)
    tree = dijkstra(g, 0)
    assert tree.dist[2] == INF
    assert tree.parent[2] == -1


def test_spira_matches_dijkstra_on_triangle():
    g = triangle_graph()
    tree, _ = spira(g, 0)
    assert tree.dist.tolist() == dijkstra(g, 0).dist.tolist()


def test_spira_two_vertices_single_edge():
    g = build_sorted_adjacency([(0, 1, 2.5)], n=2)
    tree, stats = spira(g, 0)
    assert tree.dist.tolist() == [0.0, 2.5]
    assert stats.p_extracts == 1
    assert stats.forward_scans == 1


def reference_spira(graph, source):
    """Spira's algorithm as a loop of its own, frozen as the definition of
    what spira must return now that it shares fb_sssp's loop."""
    n = graph.n
    if not (0 <= source < n):
        raise ValueError("source out of range")
    dist = np.full(n, INF)
    parent = np.full(n, -1, dtype=np.int64)
    dist[source] = 0.0
    stats = ScanStats()

    out_to = [None] * n
    out_w = [None] * n
    cursor = [0] * n

    P = BinaryHeapQueue()

    def forward(u, du):
        row_to = out_to[u]
        if row_to is None:
            row_to, out_w[u] = graph.out_edges(u)
            out_to[u] = row_to
        i = cursor[u]
        if i < row_to.shape[0]:
            cursor[u] = i + 1
            stats.forward_scans += 1
            P.insert((u, int(row_to[i])), float(du + out_w[u][i]))
            stats.p_inserts += 1

    forward(source, 0.0)
    settled = 1
    while settled < n and len(P):
        (u, v), key = P.extract_min()
        stats.p_extracts += 1
        forward(u, dist[u])
        if dist[v] == INF:
            dist[v] = key
            parent[v] = u
            settled += 1
            forward(v, key)
    return ShortestPathTree(source, parent, dist), stats


def _multigraph_with_zero_and_tied_costs():
    # repeated pairs, zero costs and ties, and vertex 11 has no in-edges
    rng = np.random.default_rng(17)
    n = 12
    u = rng.integers(0, n, size=120)
    v = rng.integers(0, n - 1, size=120)
    keep = u != v
    costs = rng.choice([0.0, 0.25, 0.5, 1.0, 3.0], size=120)
    edges = list(zip(u[keep].tolist(), v[keep].tolist(), costs[keep].tolist()))
    return build_sorted_adjacency(edges, n)


def _spira_reference_graphs():
    for n in (1, 2, 3, 17, 200):
        for kind, shape in (("exp", None), ("uniform", None),
                            ("weibull", 150.0)):
            for directed in (True, False):
                model = WeightModel(kind, seed=n + 5, shape=shape)
                yield pytest.param(
                    gen_complete(n, model, directed=directed),
                    id=f"{kind}-n{n}-{'dir' if directed else 'undir'}")
    yield pytest.param(_multigraph_with_zero_and_tied_costs(), id="multigraph")


@pytest.mark.parametrize("graph", list(_spira_reference_graphs()))
def test_spira_matches_frozen_reference(graph):
    n = graph.n
    for source in sorted({0, n // 2, n - 1, 2 % n}):
        ref_tree, ref_stats = reference_spira(graph, source)
        tree, stats = spira(graph, source)
        np.testing.assert_array_equal(tree.parent, ref_tree.parent)
        np.testing.assert_array_equal(tree.dist, ref_tree.dist)
        assert tree.dist.dtype == ref_tree.dist.dtype
        assert tree.parent.dtype == ref_tree.parent.dtype
        assert stats.as_dict() == ref_stats.as_dict()


def reference_fb_sssp(graph, source, record=None):
    """fb_sssp with its search loop as it stood before the loop read the CSR
    arrays through per-vertex cursors: lazily cached row slices, an
    out-list flag per vertex, and queue operations counted as they happen.
    Frozen as the definition of what fb_sssp must return."""
    n = graph.n
    if not (0 <= source < n):
        raise ValueError("source out of range")
    if n == 1:
        # the median vertex is the source itself, which has no edges
        return (ShortestPathTree(source, np.full(1, -1, dtype=np.int64),
                                 np.zeros(1)),
                ScanStats(median=0.0, size_at_median=1))
    nb, w = bucket_defaults(n)
    P, Q = BucketQueue(nb, w), BucketQueue(nb, w)

    dist = [INF] * n
    parent = [-1] * n
    dist[source] = 0.0
    stats = ScanStats()

    out_to = [None] * n
    out_w = [None] * n
    out_cur = [0] * n
    in_from = [None] * n
    in_w = [None] * n
    in_cur = [0] * n
    out_ok = [True] * n     # Out[u] may still hold out-pertinent edges
    active = [False] * n    # u currently has an edge in P
    req = [[] for _ in range(n)]
    req_cur = [0] * n

    M = INF
    switch_at = (n + 1) // 2

    def forward(u, du):
        v = -1
        c = 0.0
        if out_ok[u]:
            row = out_to[u]
            if row is None:
                row, out_w[u] = graph.out_edges(u)
                out_to[u] = row
            i = out_cur[u]
            if i < row.shape[0]:
                out_cur[u] = i + 1
                stats.forward_scans += 1
                c = out_w[u].item(i)
                if M < INF and c > 2.0 * (M - du):
                    out_ok[u] = False
                else:
                    v = row.item(i)
            else:
                out_ok[u] = False
        if v < 0:
            j = req_cur[u]
            ru = req[u]
            if j < len(ru):
                req_cur[u] = j + 1
                v, c = ru[j]
        if v >= 0:
            active[u] = True
            key = du + c
            P.insert((u, v), key)
            stats.p_inserts += 1
            if record is not None:
                record.p_trace.append(("i", key))
                record.p_inserts.append((u, v, c, key, not out_ok[u]))
        else:
            active[u] = False

    def backward(v):
        row = in_from[v]
        if row is None:
            row, in_w[v] = graph.in_edges(v)
            in_from[v] = row
        i = in_cur[v]
        if i < row.shape[0]:
            in_cur[v] = i + 1
            stats.backward_scans += 1
            u = row.item(i)
            c = in_w[v].item(i)
            Q.insert((u, v), c)
            stats.q_inserts += 1
            if record is not None:
                record.q_trace.append(("i", c))
                record.q_inserts.append((u, v, c))

    def request(u, v, c):
        stats.requests += 1
        req[u].append((v, c))
        if record is not None:
            record.requests.append((u, v, c))
        du = dist[u]
        if du < INF and not active[u]:
            stats.urgent_requests += 1
            forward(u, du)

    forward(source, 0.0)
    settled = 1
    while settled < n and len(P):
        (u, v), key = P.extract_min()
        stats.p_extracts += 1
        if record is not None:
            record.p_trace.append(("x",))
            record.p_extract_keys.append(key)
        forward(u, dist[u])
        if dist[v] == INF:
            dist[v] = key
            parent[v] = u
            settled += 1
            forward(v, key)
            if settled == switch_at:
                M = key
                stats.median = M
                stats.size_at_median = settled
                for w in range(n):
                    if dist[w] == INF:
                        backward(w)
        if M == INF:
            continue
        while Q.min_key() < 2.0 * (P.min_key() - M):
            (u2, v2), c2 = Q.extract_min()
            stats.q_extracts += 1
            if record is not None:
                record.q_trace.append(("x",))
                record.q_extract_keys.append(c2)
            if dist[v2] == INF:
                backward(v2)
                request(u2, v2, c2)

    return (ShortestPathTree(source, np.array(parent, dtype=np.int64),
                             np.array(dist)), stats)


_RECORDING_LISTS = ("p_trace", "q_trace", "p_extract_keys", "q_extract_keys",
                    "p_inserts", "q_inserts", "requests")


def _fb_reference_graphs():
    yield from _spira_reference_graphs()
    for kind, shape in (("exp", None), ("uniform", None), ("weibull", 150.0)):
        for directed in (True, False):
            model = WeightModel(kind, seed=506, shape=shape)
            yield pytest.param(
                gen_complete(501, model, directed=directed),
                id=f"{kind}-n501-{'dir' if directed else 'undir'}")


@pytest.mark.parametrize("graph", list(_fb_reference_graphs()))
def test_fb_matches_frozen_reference(graph):
    n = graph.n
    for source in sorted({0, n // 2, n - 1}):
        ref_rec, rec = FbRecording(), FbRecording()
        ref_tree, ref_stats = reference_fb_sssp(graph, source, ref_rec)
        tree, stats = fb_sssp(graph, source, record=rec)
        np.testing.assert_array_equal(tree.parent, ref_tree.parent)
        np.testing.assert_array_equal(tree.dist, ref_tree.dist)
        assert tree.dist.dtype == ref_tree.dist.dtype
        assert tree.parent.dtype == ref_tree.parent.dtype
        assert stats.as_dict() == ref_stats.as_dict()
        for name in _RECORDING_LISTS:
            assert getattr(rec, name) == getattr(ref_rec, name), name


@pytest.mark.parametrize("directed", [True, False])
def test_searches_match_frozen_references_on_large_tied_graphs(directed):
    # weibull(150) costs underflow to many zero-cost ties; at n = 2000 they
    # reach Spira's queue as well as fb_sssp's
    n = 2000
    g = gen_complete(n, WeightModel("weibull", seed=2003, shape=150.0),
                     directed=directed)
    for source in (0, n // 2, n - 1):
        ref_rec, rec = FbRecording(), FbRecording()
        for (ref_tree, ref_stats), (tree, stats) in (
                (reference_fb_sssp(g, source, ref_rec),
                 fb_sssp(g, source, record=rec)),
                (reference_spira(g, source), spira(g, source))):
            np.testing.assert_array_equal(tree.parent, ref_tree.parent)
            np.testing.assert_array_equal(tree.dist, ref_tree.dist)
            assert stats.as_dict() == ref_stats.as_dict()
        for name in _RECORDING_LISTS:
            assert getattr(rec, name) == getattr(ref_rec, name), name


def test_weibull_reference_graph_has_zero_cost_ties():
    # the weibull(150) case above exercises ties only if costs underflow
    g = gen_complete(200, WeightModel("weibull", seed=205, shape=150.0))
    assert np.count_nonzero(g.out_w == 0.0) > 1


def test_fb_matches_dijkstra_on_triangle():
    g = triangle_graph()
    tree, _ = fb_sssp(g, 0)
    assert tree.dist.tolist() == dijkstra(g, 0).dist.tolist()


def test_fb_single_vertex_zero_scans():
    g = gen_complete(1, WeightModel(EXPONENTIAL, seed=0))
    tree, stats = fb_sssp(g, 0)
    assert tree.dist.tolist() == [0.0]
    assert stats.forward_scans == 0
    assert stats.backward_scans == 0
    assert stats.median == 0.0


def test_fb_handles_unreachable_vertices():
    g = build_sorted_adjacency([(0, 1, 1.0), (2, 0, 0.5), (2, 1, 0.25)], n=3)
    tree, _ = fb_sssp(g, 0)
    assert tree.dist.tolist() == [0.0, 1.0, INF]
    assert tree.parent[2] == -1


@pytest.mark.parametrize("pq", ["bucket", "binheap"])
@pytest.mark.parametrize("directed", [True, False])
def test_algorithms_agree_on_random_complete_graphs(pq, directed):
    # fb_sssp runs on bucket queues; replaying its recorded traces into
    # ``pq`` shows that queue would have driven the same search
    for seed in range(30):
        n = 2 + (seed * 7) % 40
        g = gen_complete(n, WeightModel(EXPONENTIAL, seed=seed),
                         directed=directed)
        ref = dijkstra(g, 0).dist
        rec = FbRecording()
        got_fb, _ = fb_sssp(g, 0, record=rec)
        got_sp, _ = spira(g, 0)
        np.testing.assert_allclose(got_fb.dist, ref, rtol=1e-9)
        np.testing.assert_allclose(got_sp.dist, ref, rtol=1e-9)
        for trace, recorded in ((rec.p_trace, rec.p_extract_keys),
                                (rec.q_trace, rec.q_extract_keys)):
            queue = (BucketQueue(*bucket_defaults(n)) if pq == "bucket"
                     else BinaryHeapQueue())
            assert replay(trace, queue) == recorded


@pytest.mark.parametrize("kind,shape", [("uniform", None), ("weibull", 0.5),
                                        ("weibull", 2.0)])
def test_fb_correct_on_other_distributions(kind, shape):
    for seed in range(8):
        g = gen_complete(40, WeightModel(kind, seed=seed, shape=shape))
        np.testing.assert_allclose(fb_sssp(g, 0)[0].dist,
                                   dijkstra(g, 0).dist, rtol=1e-9)


def test_fb_from_every_source():
    g = gen_complete(17, WeightModel(EXPONENTIAL, seed=3))
    for s in range(17):
        np.testing.assert_allclose(fb_sssp(g, s)[0].dist,
                                   dijkstra(g, s).dist, rtol=1e-9)


def test_fb_insert_traffic_bounded_by_pertinent_edges():
    # queue traffic is O(n) because inserts are confined to pertinent edges:
    # P gets out-pertinent edges, requested (in-pertinent) edges, and at most
    # one stray edge per vertex; Q gets in-pertinent edges plus at most one
    # terminator per vertex.  Cross-check against the exhaustive classifier.
    from fbsp.oracle import classify_pertinence

    n, trials = 2000, 12
    ratios = []
    for seed in range(trials):
        g = gen_complete(n, WeightModel(EXPONENTIAL, seed=400 + seed))
        tree = dijkstra(g, 0)
        counts = classify_pertinence(g, tree)
        _, stats = fb_sssp(g, 0)
        inserts = stats.p_inserts + stats.q_inserts
        in_per = counts.in_spt + counts.in_non_spt
        assert inserts <= counts.total + in_per + 2 * n
        ratios.append(inserts / n)
    assert sum(ratios) / trials < 6.0


def test_scan_stats_invariants():
    g = gen_complete(200, WeightModel(EXPONENTIAL, seed=9))
    _, stats = fb_sssp(g, 0)
    assert stats.urgent_requests <= stats.requests
    assert stats.p_extracts <= stats.p_inserts
    assert stats.q_extracts <= stats.q_inserts
    assert stats.size_at_median == 100
    assert math.isfinite(stats.median)
    d = stats.as_dict()
    assert d["median"] == stats.median


# --- recorded-run invariants -------------------------------------------------

def recorded_run(n=400, seed=11, directed=True):
    g = gen_complete(n, WeightModel(EXPONENTIAL, seed=seed), directed=directed)
    rec = replay_trace(g, 0)
    tree = dijkstra(g, 0)
    return g, tree, rec


def test_p_extraction_keys_nondecreasing():
    _, _, rec = recorded_run()
    keys = rec.p_extract_keys
    assert all(a <= b for a, b in zip(keys, keys[1:]))


def test_q_extraction_costs_nondecreasing():
    _, _, rec = recorded_run()
    keys = rec.q_extract_keys
    assert all(a <= b for a, b in zip(keys, keys[1:]))


def test_requested_edges_are_in_pertinent():
    _, tree, rec = recorded_run()
    d = tree.dist
    M = float(np.sort(d)[(len(d) + 1) // 2 - 1])
    for u, v, c in rec.requests:
        assert c < 2.0 * (d[v] - M) + 1e-12


def test_request_lists_nondecreasing_per_vertex():
    _, _, rec = recorded_run()
    by_u = {}
    for u, v, c in rec.requests:
        by_u.setdefault(u, []).append(c)
    for costs in by_u.values():
        assert all(a <= b for a, b in zip(costs, costs[1:]))


def test_p_inserts_all_but_one_per_vertex_pertinent():
    _, tree, rec = recorded_run()
    d = tree.dist
    M = float(np.sort(d)[(len(d) + 1) // 2 - 1])
    eps = 1e-12
    non_pertinent = {}
    for u, v, c, key, from_req in rec.p_inserts:
        out_p = c <= 2.0 * (M - d[u]) + eps
        in_p = c < 2.0 * (d[v] - M) + eps
        if not (out_p or in_p):
            non_pertinent[u] = non_pertinent.get(u, 0) + 1
    assert all(cnt <= 1 for cnt in non_pertinent.values())
    assert sum(non_pertinent.values()) <= 400


def test_q_inserts_in_pertinent_plus_one_terminator():
    _, tree, rec = recorded_run()
    d = tree.dist
    M = float(np.sort(d)[(len(d) + 1) // 2 - 1])
    eps = 1e-12
    per_vertex = {}
    for u, v, c in rec.q_inserts:
        per_vertex.setdefault(v, []).append((u, c))
    for v, entries in per_vertex.items():
        non_in_pertinent = [c for _, c in entries
                            if not (c < 2.0 * (d[v] - M) + eps)]
        assert len(non_in_pertinent) <= 1
        if non_in_pertinent:
            # the terminator is v's last backward-scanned (heaviest) edge
            assert non_in_pertinent[0] == max(c for _, c in entries)


def test_at_most_one_p_edge_per_vertex_live():
    # replay the recorded run against a real queue, attributing each
    # extraction to its vertex, to check that no vertex ever has two
    # outgoing edges in P simultaneously
    _, _, rec = recorded_run(n=250, seed=21)
    q = BinaryHeapQueue()
    live = {}
    inserts = iter(rec.p_inserts)
    for op in rec.p_trace:
        if op[0] == "i":
            u = next(inserts)[0]
            q.insert(u, op[1])
            live[u] = live.get(u, 0) + 1
            assert live[u] <= 1, "vertex has two edges in P at once"
        else:
            u, _ = q.extract_min()
            live[u] -= 1


def test_replay_trace_two_vertices():
    g = gen_complete(2, WeightModel(EXPONENTIAL, seed=1))
    rec = replay_trace(g, 0)
    assert sum(1 for op in rec.p_trace if op[0] == "x") == 1
    assert len(rec.q_trace) == 0  # stage 2 never starts at n=2


def test_trace_replays_identically_on_both_queues():
    g = gen_complete(300, WeightModel(EXPONENTIAL, seed=2))
    rec = replay_trace(g, 0)
    nb, w = bucket_defaults(300)
    for trace, recorded in ((rec.p_trace, rec.p_extract_keys),
                            (rec.q_trace, rec.q_extract_keys)):
        heap_keys = replay(trace, BinaryHeapQueue())
        bucket_keys = replay(trace, BucketQueue(nb, w))
        assert heap_keys == bucket_keys == recorded


def test_source_out_of_range():
    g = gen_complete(4, WeightModel(EXPONENTIAL, seed=0))
    for fn in (dijkstra, spira, fb_sssp):
        with pytest.raises(ValueError):
            fn(g, 7)


def test_multigraph_keeps_the_cheapest_copy():
    g = build_sorted_adjacency([(0, 1, 1.0), (0, 1, 5.0)], 2)
    for tree in (dijkstra(g, 0), spira(g, 0)[0], fb_sssp(g, 0)[0]):
        assert tree.dist[1] == 1.0
        assert tree.parent[1] == 0


def _results(graph, tree, wrong):
    """Everything the row readers return on ``graph``, each reader on a
    fresh graph from ``graph()``: fb_sssp, spira and replay_trace from
    ``tree``'s source, and tree_distances, the three verifiers and
    classify_pertinence on ``tree`` and on the ``wrong`` trees."""
    def run(read, *args):
        try:
            got = read(graph(), *args)
        except VerifyError as exc:
            return "error", str(exc)
        if isinstance(got, tuple):  # a tree and its ScanStats
            got = got[0].parent.tolist(), got[0].dist.tolist(), got[1]
        elif isinstance(got, FbRecording):
            got = [getattr(got, name) for name in _RECORDING_LISTS]
        elif isinstance(got, np.ndarray):
            got = got.tolist()
        return repr(got)

    rec = FbRecording()
    got = [run(fb_sssp, tree.source, rec),
           [getattr(rec, name) for name in _RECORDING_LISTS],
           run(spira, tree.source), run(replay_trace, tree.source),
           run(classify_pertinence, tree)]
    for t in [tree, *wrong]:
        got += [run(tree_distances, t.parent, t.source)]
        got += [run(check, t) for check in (verify_fb, verify_forward_only,
                                            verify_full)]
    return got


def _wrong_trees(tree, rng, count):
    """``tree`` with one vertex moved to another parent, each time carrying
    the old distances (the moved parent edge may lie deep in its row)."""
    n = tree.parent.shape[0]
    for v in rng.choice(np.flatnonzero(tree.parent >= 0), count):
        parent = tree.parent.copy()
        parent[v] = (v + 1 + int(rng.integers(0, n - 1))) % n
        yield ShortestPathTree(tree.source, parent, tree.dist)


PREFIX_MODELS = [("exp", None), ("uniform", None), ("weibull", 0.05),
                 ("weibull", 0.5), ("weibull", 3.0), ("weibull", 150.0)]


def _assert_prefix_readers_match(graph, complete):
    """Every reader gives on fresh graphs from ``graph()`` what it gives on
    the completed graph ``complete``, from two sources."""
    rng = np.random.default_rng(3)
    for source in (0, complete.n - 1):
        tree = dijkstra(complete, source)
        wrong = list(_wrong_trees(tree, rng, 3))
        assert _results(graph, tree, wrong) == \
            _results(lambda: complete, tree, wrong)


# the least K, 1, for every model; K = 6 at n = 200 (29 for weibull(0.5));
# and the default K = 43 (weibull(0.5) rows whole, weibull(0.05) rows whole
# at both)
@pytest.mark.parametrize("logs", [1e-300, 1.0, 8.0])
@pytest.mark.parametrize("kind,shape", PREFIX_MODELS)
@pytest.mark.parametrize("directed", [True, False])
def test_readers_of_row_prefixes_give_the_results_of_the_complete_graph(
        logs, kind, shape, directed, monkeypatch):
    # a reader that reads past a prefix completes the graph and starts
    # again; with a prefix of one entry every search does
    import fbsp.graph

    monkeypatch.setattr(fbsp.graph, "_PREFIX_LOGS", logs)
    n = 200
    model = WeightModel(kind, seed=7, shape=shape)
    complete = gen_complete(n, model, directed).complete()
    prefix = gen_complete(n, model, directed)
    assert prefix.completed == (fbsp.graph._prefix_length(n, model) == n - 1)
    if logs < 1:
        assert not prefix.completed
        rows = prefix.rows()
        assert (np.diff(rows.ptr)[~rows.complete] == 1).all()
        fb_sssp(prefix, 0)
        assert prefix.completed
    _assert_prefix_readers_match(lambda: gen_complete(n, model, directed),
                                 complete)


def _cut(rows, k):
    """The first ``k`` entries of each of the complete ``rows``."""
    full = np.diff(rows.ptr)
    length = np.minimum(full, k)
    ptr = np.concatenate(([0], np.cumsum(length)))
    at = np.arange(ptr[-1]) + np.repeat(rows.ptr[:-1] - ptr[:-1], length)
    return Rows(ptr, rows.ends[at], rows.costs[at], length == full)


# whole out-rows with short in-rows make the backward scans run out first
@pytest.mark.parametrize("out_k,in_k", [(199, 1), (199, 3), (1, 199), (4, 2)])
@pytest.mark.parametrize("kind,shape", PREFIX_MODELS)
def test_readers_of_uneven_prefixes_give_the_results_of_the_complete_graph(
        out_k, in_k, kind, shape):
    n = 200
    model = WeightModel(kind, seed=8, shape=shape)
    complete = gen_complete(n, model).complete()

    def graph():
        return SortedDigraph._prefixes(
            n, True, _cut(complete.rows(True), out_k),
            _cut(complete.rows(False), in_k),
            lambda: gen_complete(n, model).complete())

    assert not graph().completed
    _assert_prefix_readers_match(graph, complete)


def test_fresh_graphs_stay_prefixes_through_a_search_and_its_check():
    for seed in range(5):
        g = gen_complete(2000, WeightModel(EXPONENTIAL, seed=seed))
        tree, _ = fb_sssp(g, 0)
        assert verify_fb(g, tree).accepted
        assert not g.completed
