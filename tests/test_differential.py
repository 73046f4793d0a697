"""Differential fuzz test: every algorithm against a brute-force
Bellman-Ford, and the three verifiers against each other, on small
multigraphs with zero, tied, tiny and large costs."""

import math

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

from fbsp.graph import build_sorted_adjacency
from fbsp.pq import BinaryHeapQueue, BucketQueue, replay
from fbsp.sssp import (FbRecording, ShortestPathTree, dijkstra, fb_sssp,
                       spira)
from fbsp.verify import (VerifyError, tree_distances, verify_fb,
                         verify_forward_only, verify_full)

COSTS = st.sampled_from([0.0, 1e-300, 0.5, 1.0, 1.0, 3.0, 1e6])


@st.composite
def multigraphs(draw):
    """Up to two parallel edges per ordered pair, so many vertices are
    reachable, some are not, and multi-edges are common."""
    n = draw(st.integers(min_value=1, max_value=7))
    edges = []
    for u in range(n):
        for v in range(n):
            if u != v:
                edges += [(u, v, c) for c in draw(st.lists(COSTS, max_size=2))]
    return n, edges


def bellman_ford(n, edges, source):
    dist = [math.inf] * n
    dist[source] = 0.0
    for _ in range(n):
        for u, v, c in edges:
            if dist[u] + c < dist[v]:
                dist[v] = dist[u] + c
    return dist


BUCKETS = st.tuples(st.integers(min_value=1, max_value=9),
                    st.sampled_from([1e-3, 0.05, 0.5, 2.0, 1e7]))


def verdicts(g, tree):
    """Accept/reject from each verifier; verify_fb only on spanning trees."""
    out = [verify_full(g, tree).accepted, verify_forward_only(g, tree).accepted]
    if np.isfinite(tree_distances(g, tree.parent, tree.source)).all():
        out.append(verify_fb(g, tree).accepted)
    return out


@settings(max_examples=200, deadline=None)
@given(multigraphs(), st.data())
def test_algorithms_and_verifiers_agree_with_bellman_ford(graph, data):
    n, edges = graph
    g = build_sorted_adjacency(edges, n)
    source = data.draw(st.integers(min_value=0, max_value=n - 1))
    expected = bellman_ford(n, edges, source)
    rec = FbRecording()
    trees = [dijkstra(g, source), spira(g, source)[0],
             fb_sssp(g, source, record=rec)[0]]
    for tree in trees:
        np.testing.assert_allclose(tree.dist, expected, rtol=1e-12, atol=0)
        assert all(verdicts(g, tree))

    # any bucket geometry, and a binary heap, would have driven the same
    # search: each extracts what the default queues did from their traces
    b, w = data.draw(BUCKETS)
    for trace, recorded in ((rec.p_trace, rec.p_extract_keys),
                            (rec.q_trace, rec.q_extract_keys)):
        assert replay(trace, BucketQueue(b, w)) == recorded
        assert replay(trace, BinaryHeapQueue()) == recorded

    # move one vertex to another reachable in-neighbour; the wrong tree
    # carries its own distances, so only an edge scan can reject it
    parent, dist = trees[-1].parent, trees[-1].dist
    moves = [(u, v) for u, v, _ in edges
             if v != source and u != parent[v] and math.isfinite(dist[u])]
    if not moves:
        return
    u, v = data.draw(st.sampled_from(moves))
    parent = parent.copy()
    parent[v] = u
    try:
        own = tree_distances(g, parent, source)
    except VerifyError:
        return  # a cycle: every verifier raises the same error
    seen = set(verdicts(g, ShortestPathTree(source, parent, own)))
    assert len(seen) == 1
    event(f"re-parented tree accepted: {seen.pop()}")
